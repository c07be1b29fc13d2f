"""Linearized Bregman prox maps.

For a kernel of weight q (K(x) = (q/2)||x||^2) and step eps, the full map
sends x to

    T(x) = argmin_y  <grad f(x), y - x> + g(y) + (1/eps) D(x, y),

and the one-block map T_i(x) changes only block i.  Both reduce
coordinatewise to

    argmin_t  phi(t) + (w/2)(t - v)^2,   w = q/eps,  v = x_j - (eps/q) grad_j,

which each penalty solves in closed form.  The subproblems are strongly
convex exactly when w > rho, which the schedule bound eps_hi < m/rho_max
guarantees.
"""
from __future__ import annotations

import numpy as np

from .bregman import bregman_distance
from .model import ProblemInstance, Regularizer, as_weight


def _checked_weight(reg: Regularizer, w):
    """w (as :func:`~vbscd.model.as_weight` gives it) once it exceeds rho;
    a float weight compares to a bool, as in :func:`_prep`, and a NaN
    weight fails the comparison."""
    w = as_weight(w)
    if not ((ok := w > reg.rho) is True or np.all(ok)):
        raise ValueError(
            f"prox weight must exceed the semi-convexity modulus rho={reg.rho}"
        )
    return w


def scalar_prox(reg: Regularizer, w, v):
    """Closed-form minimizer of phi(t) + (w/2)(t - v)^2; needs w > rho."""
    return reg.prox(v, _checked_weight(reg, w))


def _prep(p: ProblemInstance, q, eps, x, ndim: int = 1) -> np.ndarray:
    """x as floats, a point (ndim 1) or a (k, n) stack of points (ndim 2),
    once the kernel weight q is finite and positive and eps is positive;
    q and eps are scalars, or for a stack (k, 1) columns checked per row."""
    # scalars compare to a bool and skip np.all, which costs microseconds
    # on the solver's per-step path; a NaN fails either comparison
    if not ((q_ok := (0 < q) & (q < np.inf)) is True or np.all(q_ok)):
        raise ValueError(f"kernel weight q must be finite and positive, got {q}")
    if not ((eps_ok := eps > 0) is True or np.all(eps_ok)):
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != p.n:
        raise ValueError(f"shape mismatch: x {x.shape}, n = {p.n}")
    return x


def block_target(reg: Regularizer, q, eps: float, x_block, grad_block, *, with_value=False):
    """New values of a block under penalty ``reg``, from its current values
    ``x_block``, its part ``grad_block`` of grad f and the kernel weight
    ``q``; equally (k, b) arrays holding k blocks of width b that share
    ``reg``, row j of the result then being what row j alone gives.  With
    ``with_value``, the pair (new values, phi at each) from
    :meth:`~vbscd.model.Regularizer.prox_value`."""
    w = _checked_weight(reg, q / eps)
    v = x_block - (eps / q) * grad_block
    return reg.prox_value(v, w) if with_value else reg.prox(v, w)


def _full_target(p, q, eps, x, grad) -> np.ndarray:
    """T(x) with one prox call per penalty group; ``x`` may also be a (k, n)
    stack of points with ``grad`` the matching stack of gradients, and row j
    of the result is then bit for bit what x_j and its gradient give.  The
    kernel weight ``q`` and step ``eps`` are scalars, or for a stack one
    per row as two (k, 1) columns."""
    w = q / eps
    v = x - (eps / q) * grad
    y = np.empty_like(v)
    for reg, sl in p.penalty_groups:
        y[..., sl] = scalar_prox(reg, w, v[..., sl])
    return y


def _block_masks(p: ProblemInstance) -> np.ndarray:
    """(N, n) boolean array whose row i marks the coordinates of block i."""
    return p.partition.block_of == np.arange(p.n_blocks)[:, None]


def coordinate_prox(p, q, eps, x, i: int, *, block_grad=None) -> np.ndarray:
    """One-block map T_i(x): minimize over block i only.

    ``block_grad`` is block i's part of grad f(x) when the caller already
    has it (the solver reads it off its incremental state).
    """
    x = _prep(p, q, eps, x)
    sl = p.partition.block_slice(i)
    g = p.smooth.grad(x)[sl] if block_grad is None else block_grad
    y = x.copy()
    y[sl] = block_target(p.regularizers[i], q, eps, x[sl], g)
    return y


def coordinate_prox_all(p, q, eps, x) -> np.ndarray:
    """All one-block targets T_i(x), i = 0..N-1, as the rows of an (N, n) array.

    The map is block-separable, so block i of T(x) equals block i of T_i(x):
    one full prox gives every target.
    """
    x = _prep(p, q, eps, x)
    t = _full_target(p, q, eps, x, p.smooth.grad(x))
    return np.where(_block_masks(p), t, x)


def full_prox(p, q, eps, x, *, grad=None) -> np.ndarray:
    """Full map T(x): every block moves (block-separable, so composition
    of the one-block maps in any order)."""
    x = _prep(p, q, eps, x)
    return _full_target(p, q, eps, x, p.smooth.grad(x) if grad is None else grad)


def full_prox_rows(p, q, eps, X) -> np.ndarray:
    """T(x) at each row x of a (k, n) stack, from one stacked gradient and
    one prox call per penalty group; row j equals ``full_prox`` at X[j]
    up to the rounding of the stacked gradient."""
    X = _prep(p, q, eps, X, ndim=2)
    return _full_target(p, q, eps, X, p.smooth.grad_rows(X))


def coordinate_prox_all_rows(p, q, eps, X) -> np.ndarray:
    """The one-block targets of every row of a (k, n) stack as a (k, N, n)
    array, row j under kernel weight q[j] and step eps[j] ((k, 1)
    columns, as :meth:`~vbscd.bregman.BregmanSchedule.at` gives them):
    entry [j, i] is T_i(X[j]), up to the rounding of the stacked gradient."""
    X = _prep(p, q, eps, X, ndim=2)
    T = _full_target(p, q, eps, X, p.smooth.grad_rows(X))
    return np.where(_block_masks(p), T[:, None, :], X[:, None, :])


def envelope_value(p, q, eps, x) -> float:
    """Value of the linearized model at its minimizer T(x):

        E(x) = f(x) + <grad f(x), T(x) - x> + g(T(x)) + (1/eps) D(x, T(x)).

    Taking y = x in the model shows E(x) <= F(x) everywhere.
    """
    x = _prep(p, q, eps, x)
    g = p.smooth.grad(x)
    t = full_prox(p, q, eps, x, grad=g)
    return (
        p.smooth.value(x)
        + float(g @ (t - x))
        + p.penalty_value(t)
        + bregman_distance(q, x, t) / eps
    )


def prox_residual(p, q, eps, x) -> float:
    """||x - T(x)||; zero exactly at critical points of F."""
    x = _prep(p, q, eps, x)
    return float(np.linalg.norm(x - full_prox(p, q, eps, x)))
