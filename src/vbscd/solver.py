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


# one row per step; prox_residual is NaN on steps where it was not measured
RECORD_DTYPE = np.dtype([("block", np.int64), ("objective", float), ("step_norm", float),
                         ("prox_residual", float)])


@dataclass
class Trajectory:
    points: np.ndarray   # (K+1, n): x^0, x^1, ..., x^K
    records: np.ndarray  # (K,) RECORD_DTYPE: block i_k, F(x^{k+1}), ||x^k - x^{k+1}||, residual
    termination: str  # "tolerance" | "max_iters"
    initial_objective: float

    @property
    def x0(self) -> np.ndarray:
        return self.points[0]

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

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
    x = np.zeros(p.n) if x0 is None else np.array(x0, dtype=float)
    f0 = p.objective(x)
    if not np.isfinite(f0):
        raise SolverAbort(f"objective not finite at the start point ({f0})")
    # row k is x^k; the buffer grows by doubling and is cut to the steps taken
    points = np.empty((min(config.max_iters, _DRAW_CHUNK) + 1, p.n))
    points[0] = x
    period = config.check_period if config.check_period is not None else p.n_blocks
    rng = np.random.Generator(np.random.PCG64(config.seed))
    smooth = p.smooth
    a = sufficient_decrease(sched.m, sched.eps_hi, smooth.lipschitz)

    s = smooth.state(x)
    f = f0
    steps = []  # (block, F, step_norm, residual) per step
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
        resid = (prox_residual(p, sched.generator(k + 1), sched.step(k + 1), x_next)
                 if check else np.nan)
        if k + 1 == len(points):
            points = np.concatenate((points, np.empty((min(k + 1, config.max_iters - k), p.n))))
        points[k + 1] = x_next
        steps.append((i, f_next, step_norm, resid))
        x, f = x_next, f_next
        if check and resid <= config.tolerance:
            termination = "tolerance"
            break
    rows = len(steps) + 1
    return Trajectory(points if rows == len(points) else points[:rows].copy(),
                      np.array(steps, dtype=RECORD_DTYPE), termination, f0)


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
    def row(k, block, f, step_norm, resid):
        gap = "" if f_bar is None else fmt(f - f_bar)
        resid = "" if np.isnan(resid) else fmt(resid)
        return f"{k},{block},{fmt(f)},{gap},{fmt(step_norm)},{resid}"
    write_csv(path, "k,i_k,F,gap,step_norm,prox_residual",
              (row(k, *rec) for k, rec in enumerate(traj.records.tolist())))
