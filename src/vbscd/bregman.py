"""Diagonal-quadratic Bregman geometry and per-iteration schedules.

The kernel K(x) = 0.5 * sum_j q_j x_j^2 (all q_j > 0) induces the distance

    D(x, y) = K(y) - K(x) - <grad K(x), y - x> = 0.5 * sum_j q_j (y_j - x_j)^2,

which is sandwiched between (m/2)||x-y||^2 and (M/2)||x-y||^2 for
m = min q, M = max q.  A schedule is data: uniform weights that flip
between q_lo = m and q_hi = M every ``period`` steps, and the step rule
eps_k = max(eps_lo, eps_hi / (k + 1)), constant when eps_lo == eps_hi.  So
m <= q_k <= M and eps_lo <= eps_k <= eps_hi hold by construction; what is
left to check against an instance is eps_hi < min(m/L, m/rho_max).
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
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

    Uniform weights m (= q_lo) and M (= q_hi) take turns every ``period``
    steps; the step is max(eps_lo, eps_hi / (k + 1)).  Both stay inside
    their declared bounds at every k.
    """

    n: int
    m: float
    M: float
    period: int
    eps_lo: float
    eps_hi: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.m, self.M, self.eps_lo, self.eps_hi))):
            raise ValueError("weights and steps must be finite")
        if not (0 < self.m <= self.M):
            raise ValueError("need 0 < m <= M")
        if not (0 < self.eps_lo <= self.eps_hi):
            raise ValueError("need 0 < eps_lo <= eps_hi")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        qs = (self.m,) if self.m == self.M else (self.m, self.M)
        object.__setattr__(self, "_gens", tuple(BregmanGenerator.uniform(self.n, q) for q in qs))

    def generator(self, k: int) -> BregmanGenerator:
        return self._gens[(k // self.period) % len(self._gens)]

    def step(self, k: int) -> float:
        return max(self.eps_lo, self.eps_hi / (k + 1))

    def at(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per k of an int array, its uniform weight and its step, bit for bit
        ``generator(k).weights`` and ``step(k)``, as two (len(k), 1) columns
        that broadcast against a stack whose row j is x^{k_j}."""
        q = np.where((k // self.period) % 2 == 1, self.M, self.m)
        return q[:, None], np.maximum(self.eps_lo, self.eps_hi / (k + 1))[:, None]

    @staticmethod
    def constant(n: int, q: float, eps) -> "BregmanSchedule":
        """Uniform weights q at every step; ``eps`` is a constant step or an
        (eps_lo, eps_hi) pair for the harmonic-clipped rule."""
        return BregmanSchedule.alternating(n, q, q, 1, eps)

    @staticmethod
    def alternating(n: int, q_lo: float, q_hi: float, period: int, eps) -> "BregmanSchedule":
        """Uniform weights flipping between q_lo and q_hi every ``period`` steps."""
        eps_lo, eps_hi = eps if isinstance(eps, tuple) else (eps, eps)
        return BregmanSchedule(
            n=n, m=float(q_lo), M=float(q_hi), period=period,
            eps_lo=float(eps_lo), eps_hi=float(eps_hi),
        )


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
    quantity: str | None = None
    message: str = ""


def validate_schedule(sched: BregmanSchedule, p: ProblemInstance) -> ScheduleReport:
    """Check a schedule against an instance: eps_hi < :func:`step_cap` and
    weights of length n.  The per-step bounds hold by construction, so the
    work does not depend on the horizon."""
    cap = step_cap(sched.m, p)
    if not sched.eps_hi < cap:
        return ScheduleReport(
            False, "eps_hi",
            f"eps_hi = {sched.eps_hi} must be < min(m/L, m/rho_max) = {cap}",
        )
    if sched.n != p.n:
        return ScheduleReport(False, "weights", f"weights have length {sched.n}, expected {p.n}")
    return ScheduleReport(True)
