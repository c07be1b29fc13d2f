"""Randomized block coordinate descent driver.

Each iteration draws one block index uniformly and applies the one-block
prox map under the schedule's geometry for that iteration.  Indices come
from ``rng.random(size)`` in bounded chunks, which yields the same doubles
as one ``rng.random()`` per step, so a trajectory is a pure function of its
seed.  The smooth term is read through its state protocol
(:class:`~vbscd.model.SmoothTerm`): least squares keeps the residual and
logistic the products A x, so a step costs work in proportion to its block;
the state is rebuilt exactly at every check period, so rounding drift does
not accumulate past one period.  A step that breaks the sufficient decrease
the schedule guarantees raises :class:`SolverAbort`.  Termination is by a
periodic full-map residual check or an iteration cap.

:func:`run_lockstep` advances R such runs together, one k at a time, as
(R, n) stacks packed over the rows still active: per k one gathered block
gradient and one prox call per (penalty group, block width), which also
returns phi at the new values, so the per-block penalty totals of the moved
blocks are set without a second penalty pass.  Each row draws the same
blocks as :func:`run` at its seed, and its values agree with :func:`run` up
to rounding; :func:`match_oracle` holds one such row to :func:`run`'s
trajectory.

Both engines return a :class:`Trajectory` that is a step log: x^0, and per step
its record and the moved block's new values.  It holds K b values (b the widest
block), not K n; :meth:`Trajectory.iterates` rebuilds x^k in bounded stacks.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bregman import BregmanSchedule, sufficient_decrease, validate_schedule
from .csvout import write_csv
from .model import BlockPartition, ProblemInstance
from .prox import block_target, coordinate_prox, full_prox_rows, prox_residual

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# second splitmix64 constant; keeps start-point sampling off the index stream
_X0_STREAM = 0x94D049BB133111EB
# steps per step-log chunk (each row draws a chunk's blocks in one rng call,
# and the log grows by whole chunks, with no copy); also the iterates per stack
_STEP_CHUNK = 256


class SolverAbort(RuntimeError):
    """Raised when the objective stops being finite, or a step breaks the
    sufficient decrease, along a run."""


class OracleMismatch(RuntimeError):
    """A fast evaluation disagrees with the exact one it is checked against."""


def derive_seed(base_seed: int, replication: int) -> int:
    """Per-replication stream: base_seed XOR (r * golden-ratio constant), mod 2^64."""
    return (int(base_seed) ^ ((int(replication) * _GOLDEN) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class SolverConfig:
    schedule: BregmanSchedule
    max_iters: int = 1000
    tolerance: float = 1e-10
    check_period: int | None = None  # defaults to the block count
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.check_period is not None and self.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if not 0 <= int(self.seed) <= _MASK64:
            raise ValueError("seed must fit in 64 bits")


# one row per step; prox_residual is NaN on steps where it was not measured
RECORD_DTYPE = np.dtype([("block", np.int64), ("objective", float), ("step_norm", float),
                         ("prox_residual", float)])


@dataclass
class Trajectory:
    x0: np.ndarray       # (n,) the start point x^0
    records: np.ndarray  # (K,) RECORD_DTYPE: block i_k, F(x^{k+1}), ||x^k - x^{k+1}||, residual
    moved: np.ndarray    # (K, b): row k holds block i_k of x^{k+1}, padded past its width
    termination: str  # "tolerance" | "max_iters"
    initial_objective: float
    partition: BlockPartition

    def iterates(self, rows: int = 1):
        """x^0, ..., x^K in consecutive stacks rebuilt from the step log, each
        a whole number of ``rows`` rows near _STEP_CHUNK (the last may be
        shorter): x^k_j is the value last written to coordinate j by step k."""
        (K, b), n, block_of = self.moved.shape, self.x0.size, self.partition.block_of
        within = np.arange(n) - np.asarray(self.partition.offsets)[block_of]
        x, blocks, step = self.x0, self.records["block"], rows * max(1, _STEP_CHUNK // rows)
        for a in range(0, K + 1, step):
            moved = self.moved[a:a + step]
            held = np.concatenate((x, moved.ravel()))  # x^a, then every value written since
            # src[k, j]: where x^{a+k}_j sits in held; a later write sits further on
            src = np.empty((len(moved) + 1, n), dtype=np.intp)
            src[0] = np.arange(n)
            np.add(n + b * np.arange(len(moved))[:, None], within, out=src[1:])
            src[1:] *= blocks[a:a + step, None] == block_of  # 0 where the step left x_j alone
            np.maximum.accumulate(src, axis=0, out=src)
            S = held[src]
            yield S[:step]
            x = S[-1]

    @property
    def points(self) -> np.ndarray:
        """x^0, ..., x^K as one (K+1, n) array, for tests of small runs."""
        return np.concatenate(list(self.iterates()))

    @property
    def final_point(self) -> np.ndarray:
        for S in self.iterates():
            pass
        return S[-1]

    @property
    def final_objective(self) -> float:
        return float(self.records["objective"][-1]) if len(self.records) else self.initial_objective

    @property
    def final_residual(self) -> float | None:
        measured = self.records["prox_residual"][~np.isnan(self.records["prox_residual"])]
        return float(measured[-1]) if measured.size else None

    def objectives(self) -> np.ndarray:
        """F(x^0), F(x^1), ..., length len(records)+1."""
        return np.concatenate(([self.initial_objective], self.records["objective"]))

    def gaps(self, f_bar: float) -> np.ndarray:
        return self.objectives() - f_bar


def _draw_chunk(chunks, rngs, p: ProblemInstance) -> np.ndarray:
    """Append _STEP_CHUNK steps of len(rngs) rows to the log ``chunks``; draw their blocks."""
    shape = (_STEP_CHUNK, len(rngs))
    chunks.append((np.empty(shape, RECORD_DTYPE), np.empty(shape + (max(p.partition.sizes),))))
    u = np.stack([rng.random(_STEP_CHUNK) for rng in rngs])
    return np.minimum((u * p.n_blocks).astype(np.int64), p.n_blocks - 1)


def _decreases(f, f_next, step_norm, a):
    """F(x^{k+1}) is finite and at most F(x^k) - a ||x^k - x^{k+1}||^2 up
    to a rounding slack; elementwise on arrays."""
    return np.isfinite(f_next) & ~(f_next > f - a * step_norm**2 + 1e-12 * (1.0 + np.abs(f)))


def _abort(k: int, f, f_next, step_norm, a) -> SolverAbort:
    """The abort of a step that fails :func:`_decreases`."""
    if not np.isfinite(f_next):
        return SolverAbort(f"objective not finite at iteration {k} ({f_next})")
    return SolverAbort(
        f"sufficient decrease fails at iteration {k}: F went from {f!r} to "
        f"{f_next!r} over a step of norm {step_norm!r} (a = {a!r})"
    )


def run(p: ProblemInstance, config: SolverConfig, x0=None) -> Trajectory:
    """Iterate until the periodic residual check passes or max_iters is hit.

    The schedule is validated against the instance before the first step.
    :class:`SolverAbort` names the iteration at which the objective stops
    being finite, or at which F(x^{k+1}) > F(x^k) - a ||x^k - x^{k+1}||^2
    beyond a rounding slack (a from :func:`sufficient_decrease`; this is how
    an understated Lipschitz constant shows).
    """
    sched = config.schedule
    validate_schedule(sched, p)
    x0 = x = np.zeros(p.n) if x0 is None else np.array(x0, dtype=float)
    f0 = p.objective(x)
    if not np.isfinite(f0):
        raise SolverAbort(f"objective not finite at the start point ({f0})")
    period = config.check_period if config.check_period is not None else p.n_blocks
    rng = np.random.Generator(np.random.PCG64(config.seed))
    smooth = p.smooth
    a = sufficient_decrease(sched.m, sched.eps_hi, smooth.lipschitz)

    s = smooth.state(x)
    f = f0
    chunks = []  # the step log of one row, as run_lockstep writes it
    termination = "max_iters"
    for k in range(config.max_iters):
        j = k % _STEP_CHUNK
        if j == 0:
            draws = _draw_chunk(chunks, [rng], p)[0].tolist()
        i = draws[j]
        sl = p.partition.block_slice(i)
        x_next = coordinate_prox(
            p, sched.generator(k), sched.step(k), x, i, block_grad=smooth.block_grad(s, sl)
        )
        check = (k + 1) % period == 0
        if check:
            s = smooth.state(x_next)
        else:
            smooth.move(s, sl, x[sl], x_next[sl])
        f_next = smooth.state_value(s) + p.penalty_value(x_next)
        step_norm = float(np.linalg.norm(x - x_next))
        if not _decreases(f, f_next, step_norm, a):
            raise _abort(k, f, f_next, step_norm, a)
        resid = (prox_residual(p, sched.generator(k + 1), sched.step(k + 1), x_next)
                 if check else np.nan)
        chunks[-1][0][j, 0] = (i, f_next, step_norm, resid)
        chunks[-1][1][j, 0, :sl.stop - sl.start] = x_next[sl]
        x, f = x_next, f_next
        if check and resid <= config.tolerance:
            termination = "tolerance"
            break
    return _logged(p, chunks, 0, k + 1, x0, termination, f0)


def _logged(p: ProblemInstance, chunks, r: int, K: int, x0, termination: str, f0) -> Trajectory:
    """Row r's first K steps of the step log ``chunks`` as a Trajectory from x0;
    per _STEP_CHUNK steps of all rows the log holds a pair (records, moved)."""
    used = list(enumerate(chunks[:-(-K // _STEP_CHUNK)]))
    records = np.concatenate([c[:K - i * _STEP_CHUNK, r] for i, (c, _) in used])
    moved = np.concatenate([c[:K - i * _STEP_CHUNK, r] for i, (_, c) in used])
    return Trajectory(x0, records, moved, termination, float(f0), p.partition)


def _block_kinds(p: ProblemInstance):
    """Blocks grouped by (distinct penalty, width): the kinds as (penalty,
    width) pairs, and each block's kind index."""
    kinds: dict = {}
    kind_of = np.array([kinds.setdefault(key, len(kinds)) for key in zip(p.penalty_of, p.partition.sizes)],
                       dtype=np.intp)
    return [(p.penalties[j], width) for j, width in kinds], kind_of


def run_lockstep(p: ProblemInstance, configs, x0s) -> list:
    """:func:`run` for each config and start point (None for zeros), all
    rows advanced one k at a time; returns per row its Trajectory or the
    :class:`SolverAbort` that retired it.

    The configs may differ only in seed, and there is one start point per
    config.  Row r draws its blocks from its own stream, one double per
    step as :func:`run` does, so it takes the blocks :func:`run` takes; it
    keeps the smooth state (``state_rows``, moved by ``move_rows``, rebuilt
    exactly at each check period) and each block's penalty total, set from
    the phi that the prox pass returns with its result, and F is the state
    value plus the row's totals.  The iterates, states, values and totals
    of the active rows are kept packed, with their row ids, so a step
    uses them whole, with no gather through an active-row index, and
    writes the step log at the ids; they are compacted once each time rows
    leave.
    A row leaves when its residual, from one ``full_prox_rows`` over the
    active rows at each check period, is at most ``tolerance``, or when its
    step fails the sufficient decrease (aborted with the message
    :func:`run` raises).  Each row's step log is the one :func:`run` writes.
    """
    base = configs[0]
    if any(dataclasses.replace(c, seed=base.seed) != base for c in configs):
        raise ValueError("lockstep rows differ in more than their seed")
    if len(x0s) != len(configs):
        raise ValueError(f"{len(x0s)} start points for {len(configs)} configs")
    for r, x0 in enumerate(x0s):
        if x0 is not None and np.shape(x0) != (p.n,):
            raise ValueError(f"start point {r} has shape {np.shape(x0)}, expected ({p.n},)")
    sched, max_iters = base.schedule, base.max_iters
    validate_schedule(sched, p)
    R, n = len(configs), p.n
    X0 = np.array([np.zeros(n) if x0 is None else x0 for x0 in x0s], dtype=float)
    period = base.check_period if base.check_period is not None else p.n_blocks
    rngs = [np.random.Generator(np.random.PCG64(c.seed)) for c in configs]
    smooth = p.smooth
    a = sufficient_decrease(sched.m, sched.eps_hi, smooth.lipschitz)
    kinds, kind_of = _block_kinds(p)
    # per kind, row i of its (N, width) table holds block i's columns
    starts = np.array(p.partition.offsets[:-1])[:, None]
    kinds = [(reg, starts + np.arange(width)) for reg, width in kinds]

    f0 = np.array([p.objective(x) for x in X0])  # bit for bit what run starts from
    aborts = {int(r): SolverAbort(f"objective not finite at the start point ({f0[r]})")
              for r in np.flatnonzero(~np.isfinite(f0))}
    totals = np.stack([np.sum(reg.value(X0[:, p.partition.block_slice(i)]), axis=1)
                       for i, reg in enumerate(p.regularizers)], axis=1)
    # packed: row t of X, S, F, totals (and of draws) is row ids[t]
    ids = np.flatnonzero(np.isfinite(f0))
    X, S, F, totals = X0[ids], smooth.state_rows(X0)[ids], f0[ids], totals[ids]
    chunks = []  # the step log, as _logged reads it
    length = np.zeros(R, dtype=np.intp)
    stopped = np.zeros(R, dtype=bool)  # on tolerance
    for k in range(max_iters):
        if not ids.size:
            break
        j = k % _STEP_CHUNK
        if j == 0:
            draws = _draw_chunk(chunks, rngs, p)[ids]
        rec, mov = chunks[-1][0][j], chunks[-1][1][j]
        blocks = draws[:, j]
        q, eps = sched.generator(k), sched.step(k)
        check = (k + 1) % period == 0
        pos = np.arange(ids.size)
        step2 = np.empty(ids.size)
        for kind, (reg, table) in enumerate(kinds):
            if len(kinds) == 1:
                sel = slice(None)
            else:
                sel = np.flatnonzero(kind_of[blocks] == kind)
                if not sel.size:
                    continue
            rows, blk = pos[sel], blocks[sel]
            cols = table[blk]
            old = X[rows[:, None], cols]
            new, phi = block_target(reg, q, eps, old, smooth.block_grad_rows(S, sel, cols),
                                    with_value=True)
            X[rows[:, None], cols] = mov[ids[sel], :cols.shape[1]] = new
            if not check:
                smooth.move_rows(S, sel, cols, old, new)
            totals[rows, blk] = phi.sum(axis=1)
            step2[sel] = np.square(old - new).sum(axis=1)
        if check:
            S = smooth.state_rows(X)
        f, F = F, smooth.state_value_rows(S) + totals.sum(axis=1)
        step_norm = np.sqrt(step2)
        rec["block"][ids], rec["objective"][ids], rec["step_norm"][ids] = blocks, F, step_norm
        ok = _decreases(f, F, step_norm, a)
        if not ok.all():
            for t in np.flatnonzero(~ok):
                aborts[int(ids[t])] = _abort(k, f[t], F[t], step_norm[t], a)
            ids, X, S, F, totals, draws = (v[ok] for v in (ids, X, S, F, totals, draws))
        if not check:
            rec["prox_residual"][ids] = np.nan
            continue
        resid = np.linalg.norm(
            X - full_prox_rows(p, sched.generator(k + 1), sched.step(k + 1), X), axis=1)
        rec["prox_residual"][ids] = resid
        done = resid <= base.tolerance
        if done.any():
            length[ids[done]], stopped[ids[done]] = k + 1, True
            ids, X, S, F, totals, draws = (v[~done] for v in (ids, X, S, F, totals, draws))
    length[ids] = max_iters  # the rows still active ran every step
    return [aborts[r] if r in aborts else
            _logged(p, chunks, r, length[r], X0[r], "tolerance" if stopped[r] else "max_iters", f0[r])
            for r in range(R)]


def match_oracle(exact: Trajectory, shadow, tolerance: float) -> None:
    """Raise :class:`OracleMismatch` unless ``shadow`` (a lockstep row, or
    its abort) took the blocks ``exact`` (:func:`run` at the same seed and
    start) took, with F within 1e-12 (1 + |F|) at the start and at every
    step, and ended at the same step the same way.

    The ending may differ only where the two residuals at the check that
    ended the shorter run straddle ``tolerance`` and agree within that bound.
    """
    if isinstance(shadow, SolverAbort):
        raise OracleMismatch(f"lockstep row aborted where run did not: {shadow}")
    K = min(len(exact.records), len(shadow.records))
    a, b = exact.records[:K], shadow.records[:K]
    fa, fb = exact.objectives()[:K + 1], shadow.objectives()[:K + 1]
    bad = (np.concatenate(([False], a["block"] != b["block"]))
           | ~(np.abs(fa - fb) <= 1e-12 * (1.0 + np.abs(fa))))
    if bad.any():
        j = int(np.argmax(bad))  # 0: the start point; j > 0: step j - 1
        detail = f"F {fb[j]!r} against {fa[j]!r}"
        if j:
            detail = f"block {b['block'][j - 1]} against {a['block'][j - 1]}, {detail}"
        where = f"iteration {j - 1}" if j else "the start point"
        raise OracleMismatch(f"lockstep row departs from run at {where}: {detail}")
    if len(exact.records) == len(shadow.records) and exact.termination == shadow.termination:
        return
    ra, rb = a["prox_residual"][K - 1], b["prox_residual"][K - 1]
    if not (min(ra, rb) <= tolerance < max(ra, rb)
            and abs(ra - rb) <= 1e-12 * (1.0 + abs(ra))):
        raise OracleMismatch(
            f"lockstep row ends differently from run at iteration {K - 1}: "
            f"{shadow.termination} after {len(shadow.records)} steps against "
            f"{exact.termination} after {len(exact.records)} steps (residual {rb!r} against {ra!r})")


def sample_in_ball(center: np.ndarray, radius: float, rng) -> np.ndarray:
    """Uniform draw from the closed euclidean ball."""
    center = np.asarray(center, dtype=float)
    z = rng.standard_normal(center.size)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        return center.copy()
    r = radius * rng.random() ** (1.0 / center.size)
    return center + (r / nz) * z


def near_start_point(x_bar: np.ndarray, radius: float, seed: int) -> np.ndarray:
    """Start point within ``radius`` of x_bar, from a stream disjoint
    from the block-index stream of the same replication."""
    rng = np.random.Generator(np.random.PCG64((int(seed) ^ _X0_STREAM) & _MASK64))
    return sample_in_ball(x_bar, radius, rng)


def write_trajectory_csv(traj: Trajectory, path, f_bar: float | None = None) -> None:
    """One row per step: k, i_k, F, gap, step_norm, prox_residual.

    gap is left empty when no reference value is known; prox_residual is
    empty on iterations where it was not measured (NaN in the records).
    """
    rec = traj.records
    f = rec["objective"]
    gap = [""] * len(rec) if f_bar is None else map("%.17g".__mod__, (f - f_bar).tolist())
    resid = ["" if r != r else "%.17g" % r for r in rec["prox_residual"].tolist()]
    write_csv(path, "k,i_k,F,gap,step_norm,prox_residual", map(
        "%d,%d,%.17g,%s,%.17g,%s".__mod__,
        zip(range(len(rec)), rec["block"].tolist(), f.tolist(), gap, rec["step_norm"].tolist(), resid)))
