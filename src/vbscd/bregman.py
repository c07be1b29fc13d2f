"""Uniform diagonal-quadratic Bregman geometry and per-iteration schedules.

The kernel K(x) = (q/2)||x||^2 of a weight q > 0 induces the distance

    D(x, y) = K(y) - K(x) - <grad K(x), y - x> = (q/2)||y - x||^2,

so a kernel is identified by its weight.  A schedule is data: the weight
q_k flips between q_lo = m and q_hi = M every ``period`` steps, and the
step rule is eps_k = max(eps_lo, eps_hi / (k + 1)), constant when
eps_lo == eps_hi.  So (m/2)||x-y||^2 <= D_k(x, y) <= (M/2)||x-y||^2 and
eps_lo <= eps_k <= eps_hi hold by construction; what is left to check
against an instance is eps_hi < min(m/L, m/rho_max).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance


def bregman_distance(q: float, x, y) -> float:
    """D(x, y) = (q/2)||y - x||^2 for kernel weight q; zero iff x == y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x {x.shape}, y {y.shape}")
    d = y - x
    return 0.5 * float(np.sum(q * d * d))


@dataclass(frozen=True)
class BregmanSchedule:
    """Iteration-indexed geometry: k -> (kernel weight q_k, step eps_k).

    The weights m (= q_lo) and M (= q_hi) take turns every ``period``
    steps; the step is max(eps_lo, eps_hi / (k + 1)).  Both stay inside
    their declared bounds at every k.
    """

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

    def generator(self, k: int) -> float:
        """q_k, the weight of the kernel (q_k/2)||x||^2 at step k."""
        return self.M if (k // self.period) % 2 == 1 else self.m

    def step(self, k: int) -> float:
        return max(self.eps_lo, self.eps_hi / (k + 1))

    def at(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per k of an int array, its weight and its step, bit for bit
        ``generator(k)`` and ``step(k)``, as two (len(k), 1) columns that
        broadcast against a stack whose row j is x^{k_j}."""
        q = np.where((k // self.period) % 2 == 1, self.M, self.m)
        return q[:, None], np.maximum(self.eps_lo, self.eps_hi / (k + 1))[:, None]

    @staticmethod
    def constant(q: float, eps) -> "BregmanSchedule":
        """Weight q at every step; ``eps`` is a constant step or an
        (eps_lo, eps_hi) pair for the harmonic-clipped rule."""
        return BregmanSchedule.alternating(q, q, 1, eps)

    @staticmethod
    def alternating(q_lo: float, q_hi: float, period: int, eps) -> "BregmanSchedule":
        """Weights flipping between q_lo and q_hi every ``period`` steps."""
        eps_lo, eps_hi = eps if isinstance(eps, tuple) else (eps, eps)
        return BregmanSchedule(
            m=float(q_lo), M=float(q_hi), period=period,
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


def validate_schedule(sched: BregmanSchedule, p: ProblemInstance) -> None:
    """Check a schedule against an instance: raises ValueError naming eps_hi
    and the cap unless eps_hi < :func:`step_cap`.  The per-step bounds hold
    by construction, so the work does not depend on the horizon."""
    cap = step_cap(sched.m, p)
    if not sched.eps_hi < cap:
        raise ValueError(f"eps_hi = {sched.eps_hi} must be < min(m/L, m/rho_max) = {cap}")
