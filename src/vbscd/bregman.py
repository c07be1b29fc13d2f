"""Diagonal-quadratic Bregman geometry and per-iteration schedules.

The kernel K(x) = 0.5 * sum_j q_j x_j^2 (all q_j > 0) induces the distance

    D(x, y) = K(y) - K(x) - <grad K(x), y - x> = 0.5 * sum_j q_j (y_j - x_j)^2,

which is sandwiched between (m/2)||x-y||^2 and (M/2)||x-y||^2 for
m = min q, M = max q.  A schedule assigns a generator and a step size eps_k
to every iteration and declares uniform bounds the solver relies on:
0 < eps_lo <= eps_k <= eps_hi < min(m/L, m/rho_max).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ProblemInstance


@dataclass(frozen=True)
class BregmanGenerator:
    """Diagonal quadratic kernel with positive coordinate weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D array")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> float:
        return float(self.weights.min())

    @property
    def M(self) -> float:
        return float(self.weights.max())

    @staticmethod
    def uniform(n: int, q: float) -> "BregmanGenerator":
        return BregmanGenerator(np.full(n, float(q)))


def bregman_distance(gen: BregmanGenerator, x, y) -> float:
    """D(x, y) = 0.5 * sum_j q_j (y_j - x_j)^2; zero iff x == y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.shape != gen.weights.shape:
        raise ValueError(
            f"shape mismatch: x {x.shape}, y {y.shape}, weights {gen.weights.shape}"
        )
    d = y - x
    return 0.5 * float(np.sum(gen.weights * d * d))


@dataclass(frozen=True)
class BregmanSchedule:
    """Iteration-indexed geometry: k -> (generator, step size).

    ``m``, ``M``, ``eps_lo``, ``eps_hi`` are the declared uniform bounds;
    :func:`validate_schedule` checks them against an instance over a horizon.
    """

    generator: Callable[[int], BregmanGenerator]
    step: Callable[[int], float]
    m: float
    M: float
    eps_lo: float
    eps_hi: float

    def __post_init__(self):
        if not (0 < self.m <= self.M):
            raise ValueError("need 0 < m <= M")
        if not (0 < self.eps_lo <= self.eps_hi):
            raise ValueError("need 0 < eps_lo <= eps_hi")

    @staticmethod
    def constant(n: int, q: float, eps) -> "BregmanSchedule":
        """Uniform weights q at every step; ``eps`` is a constant step or an
        (eps_lo, eps_hi, callable) triple, as for :meth:`alternating`."""
        gen = BregmanGenerator.uniform(n, q)
        step, eps_lo, eps_hi = _as_step(eps)
        return BregmanSchedule(
            generator=lambda k: gen, step=step,
            m=float(q), M=float(q), eps_lo=eps_lo, eps_hi=eps_hi,
        )

    @staticmethod
    def alternating(n: int, q_lo: float, q_hi: float, period: int, eps) -> "BregmanSchedule":
        """Uniform weights flipping between q_lo and q_hi every ``period`` steps."""
        if period < 1:
            raise ValueError("period must be >= 1")
        if not (0 < q_lo <= q_hi):
            raise ValueError("need 0 < q_lo <= q_hi")
        gens = (BregmanGenerator.uniform(n, q_lo), BregmanGenerator.uniform(n, q_hi))
        step, eps_lo, eps_hi = _as_step(eps)
        return BregmanSchedule(
            generator=lambda k: gens[(k // period) % 2], step=step,
            m=float(q_lo), M=float(q_hi), eps_lo=eps_lo, eps_hi=eps_hi,
        )


def harmonic_clipped(eps_lo: float, eps_hi: float) -> Callable[[int], float]:
    """Step rule eps_k = max(eps_lo, eps_hi / (k + 1)).

    Starts at eps_hi and decays harmonically until clipped at eps_lo.
    """
    if not (0 < eps_lo <= eps_hi):
        raise ValueError("need 0 < eps_lo <= eps_hi")
    return lambda k: max(eps_lo, eps_hi / (k + 1))


def _as_step(eps):
    """Accept a constant or an (eps_lo, eps_hi, callable) triple."""
    if callable(eps):
        raise ValueError("pass (eps_lo, eps_hi, callable) for varying steps")
    if isinstance(eps, tuple):
        eps_lo, eps_hi, fn = eps
        return fn, float(eps_lo), float(eps_hi)
    return (lambda k: float(eps)), float(eps), float(eps)


def step_cap(m: float, p: ProblemInstance) -> float:
    """min(m/L, m/rho_max), the strict upper bound on eps_hi; a zero
    curvature (flat f, convex penalties) contributes +inf."""
    L, rho = p.smooth.lipschitz, p.rho_max
    return min(m / L if L > 0 else np.inf, m / rho if rho > 0 else np.inf)


def sufficient_decrease(m: float, eps_hi: float, L: float) -> float:
    """a = (m - eps_hi L) / (2 eps_hi): each one-block step lowers F by at
    least a ||x - T_i(x)||^2."""
    return (m - eps_hi * L) / (2.0 * eps_hi)


@dataclass(frozen=True)
class ScheduleReport:
    ok: bool
    first_violation_k: int | None = None
    quantity: str | None = None
    message: str = ""


def validate_schedule(sched: BregmanSchedule, p: ProblemInstance, horizon: int) -> ScheduleReport:
    """Check declared bounds and admissibility against an instance.

    Verifies eps_hi < :func:`step_cap` and, for every k < horizon, that the
    generator weights stay inside [m, M] and the step inside [eps_lo,
    eps_hi].  The weights of one generator object are checked the first
    time it appears.  Reports the first violating iteration and the
    offending quantity.
    """
    cap = step_cap(sched.m, p)
    if not sched.eps_hi < cap:
        return ScheduleReport(
            False, 0, "eps_hi",
            f"eps_hi = {sched.eps_hi} must be < min(m/L, m/rho_max) = {cap}",
        )
    # id -> generator; holding the object keeps its id from being reused by
    # a fresh generator, and the clear keeps the memory bounded
    checked: dict[int, BregmanGenerator] = {}
    for k in range(horizon):
        gen = sched.generator(k)
        if checked.get(id(gen)) is not gen:
            w = gen.weights
            if w.shape != (p.n,):
                return ScheduleReport(False, k, "weights", f"weights at k={k} have shape {w.shape}")
            if float(w.min()) < sched.m or float(w.max()) > sched.M:
                return ScheduleReport(
                    False, k, "weights",
                    f"weights at k={k} leave the declared range [{sched.m}, {sched.M}]",
                )
            if len(checked) >= 8:
                checked.clear()
            checked[id(gen)] = gen
        e = sched.step(k)
        if not sched.eps_lo <= e <= sched.eps_hi:
            return ScheduleReport(
                False, k, "eps",
                f"step at k={k} is {e}, outside [{sched.eps_lo}, {sched.eps_hi}]",
            )
    return ScheduleReport(True)
