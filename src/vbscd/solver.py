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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import BregmanSchedule, sufficient_decrease, validate_schedule
from .csvout import fmt, write_csv
from .model import ProblemInstance
from .prox import coordinate_prox, prox_residual

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# second splitmix64 constant; keeps start-point sampling off the index stream
_X0_STREAM = 0x94D049BB133111EB
_DRAW_CHUNK = 4096  # block draws per rng call; bounds the buffer at any max_iters


class SolverAbort(RuntimeError):
    """Raised when the objective stops being finite, or a step breaks the
    sufficient decrease, along a run."""


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


@dataclass
class IterateRecord:
    k: int
    block: int
    point: np.ndarray          # x^{k+1}
    objective: float           # F(x^{k+1})
    step_norm: float           # ||x^k - x^{k+1}||
    prox_residual: float | None = None  # measured only on check iterations


@dataclass
class Trajectory:
    x0: np.ndarray
    records: list[IterateRecord]
    termination: str  # "tolerance" | "max_iters"
    initial_objective: float

    @property
    def final_point(self) -> np.ndarray:
        return self.records[-1].point if self.records else self.x0

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective if self.records else self.initial_objective

    @property
    def final_residual(self) -> float | None:
        for rec in reversed(self.records):
            if rec.prox_residual is not None:
                return rec.prox_residual
        return None

    def points(self) -> list[np.ndarray]:
        """x^0, x^1, ..., length len(records)+1; the stored arrays, not copies."""
        return [self.x0] + [r.point for r in self.records]

    def objectives(self) -> np.ndarray:
        """F(x^0), F(x^1), ..., length len(records)+1."""
        return np.array([self.initial_objective] + [r.objective for r in self.records])

    def blocks(self) -> np.ndarray:
        return np.array([r.block for r in self.records], dtype=int)

    def gaps(self, f_bar: float) -> np.ndarray:
        return self.objectives() - f_bar


def _block_draws(rng, n_blocks: int, n: int):
    """n uniform block indices, one double each, drawn in bounded chunks."""
    for start in range(0, n, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, n - start))
        yield from np.minimum((u * n_blocks).astype(np.int64), n_blocks - 1).tolist()


def run(p: ProblemInstance, config: SolverConfig, x0=None) -> Trajectory:
    """Iterate until the periodic residual check passes or max_iters is hit.

    The schedule is validated against the instance before the first step.
    :class:`SolverAbort` names the iteration at which the objective stops
    being finite, or at which F(x^{k+1}) > F(x^k) - a ||x^k - x^{k+1}||^2
    beyond a rounding slack (a from :func:`sufficient_decrease`; this is how
    an understated Lipschitz constant shows).
    """
    sched = config.schedule
    report = validate_schedule(sched, p)
    if not report.ok:
        raise ValueError(f"invalid schedule: {report.message}")
    # a copy, so that the caller may reuse its start vector; steps never
    # write into x, so this one array is also the trajectory's x0
    x = np.zeros(p.n) if x0 is None else np.array(x0, dtype=float)
    start = x
    f0 = p.objective(x)
    if not np.isfinite(f0):
        raise SolverAbort(f"objective not finite at the start point ({f0})")
    period = config.check_period if config.check_period is not None else p.n_blocks
    rng = np.random.Generator(np.random.PCG64(config.seed))
    smooth = p.smooth
    a = sufficient_decrease(sched.m, sched.eps_hi, smooth.lipschitz)

    s = smooth.state(x)
    f = f0
    records: list[IterateRecord] = []
    termination = "max_iters"
    for k, i in enumerate(_block_draws(rng, p.n_blocks, config.max_iters)):
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
        if not np.isfinite(f_next):
            raise SolverAbort(f"objective not finite at iteration {k} ({f_next})")
        step_norm = float(np.linalg.norm(x - x_next))
        if f_next > f - a * step_norm**2 + 1e-12 * (1.0 + abs(f)):
            raise SolverAbort(
                f"sufficient decrease fails at iteration {k}: F went from {f!r} to "
                f"{f_next!r} over a step of norm {step_norm!r} (a = {a!r})"
            )
        resid = None
        if check:
            resid = prox_residual(p, sched.generator(k + 1), sched.step(k + 1), x_next)
        records.append(IterateRecord(k, i, x_next, f_next, step_norm, resid))
        x, f = x_next, f_next
        if resid is not None and resid <= config.tolerance:
            termination = "tolerance"
            break
    return Trajectory(
        x0=start,
        records=records,
        termination=termination,
        initial_objective=f0,
    )


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
    empty on iterations where it was not measured.
    """
    def row(rec):
        gap = "" if f_bar is None else fmt(rec.objective - f_bar)
        resid = "" if rec.prox_residual is None else fmt(rec.prox_residual)
        return f"{rec.k},{rec.block},{fmt(rec.objective)},{gap},{fmt(rec.step_norm)},{resid}"
    write_csv(path, "k,i_k,F,gap,step_norm,prox_residual", map(row, traj.records))
