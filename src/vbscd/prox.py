"""Linearized Bregman prox maps.

For a generator with weights q and step eps, the full map sends x to

    T(x) = argmin_y  <grad f(x), y - x> + g(y) + (1/eps) D(x, y),

and the one-block map T_i(x) changes only block i.  With a diagonal
quadratic kernel both reduce coordinatewise to

    argmin_t  phi(t) + (w/2)(t - v)^2,   w = q_j/eps,  v = x_j - (eps/q_j) grad_j,

which each penalty solves in closed form.  The subproblems are strongly
convex exactly when w > rho, which the schedule bound eps_hi < m/rho_max
guarantees.
"""
from __future__ import annotations

import numpy as np

from .bregman import BregmanGenerator, bregman_distance
from .model import ProblemInstance, Regularizer


def scalar_prox(reg: Regularizer, w, v):
    """Closed-form minimizer of phi(t) + (w/2)(t - v)^2; needs w > rho."""
    w = np.asarray(w, dtype=float)
    if not (w > reg.rho).all():  # also rejects a NaN weight
        raise ValueError(
            f"prox weight must exceed the semi-convexity modulus rho={reg.rho}"
        )
    return reg.prox(v, w)


def _prep(p: ProblemInstance, gen: BregmanGenerator, eps: float, x) -> np.ndarray:
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,) or gen.weights.shape != (p.n,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, weights {gen.weights.shape}, n = {p.n}"
        )
    return x


def _block_target(p, gen, eps, x, grad_i, i, sl) -> np.ndarray:
    """New values for block i, whose coordinates are ``sl`` (other
    coordinates stay put), from block i's part ``grad_i`` of grad f(x)."""
    q = gen.weights[sl]
    w = q / eps
    v = x[sl] - (eps / q) * grad_i
    return scalar_prox(p.regularizers[i], w, v)


def _full_target(p, gen, eps, x, grad) -> np.ndarray:
    """T(x) with one prox call per penalty group."""
    q = gen.weights
    w = q / eps
    v = x - (eps / q) * grad
    y = np.empty_like(x)
    for reg, sl in p.penalty_groups:
        y[sl] = scalar_prox(reg, w[sl], v[sl])
    return y


def coordinate_prox(p, gen, eps, x, i: int, *, block_grad=None) -> np.ndarray:
    """One-block map T_i(x): minimize over block i only.

    ``block_grad`` is block i's part of grad f(x) when the caller already
    has it (the solver reads it off its incremental state).
    """
    x = _prep(p, gen, eps, x)
    sl = p.partition.block_slice(i)
    g = p.smooth.grad(x)[sl] if block_grad is None else block_grad
    y = x.copy()
    y[sl] = _block_target(p, gen, eps, x, g, i, sl)
    return y


def coordinate_prox_all(p, gen, eps, x, *, grad=None) -> np.ndarray:
    """All one-block targets T_i(x), i = 0..N-1, as the rows of an (N, n) array.

    The map is block-separable, so block i of T(x) equals block i of T_i(x):
    one full prox gives every target.
    """
    x = _prep(p, gen, eps, x)
    t = _full_target(p, gen, eps, x, p.smooth.grad(x) if grad is None else grad)
    block_of = np.repeat(np.arange(p.n_blocks), p.partition.sizes)
    return np.where(block_of == np.arange(p.n_blocks)[:, None], t, x)


def full_prox(p, gen, eps, x, *, grad=None) -> np.ndarray:
    """Full map T(x): every block moves (block-separable, so composition
    of the one-block maps in any order)."""
    x = _prep(p, gen, eps, x)
    return _full_target(p, gen, eps, x, p.smooth.grad(x) if grad is None else grad)


def envelope_value(p, gen, eps, x) -> float:
    """Value of the linearized model at its minimizer T(x):

        E(x) = f(x) + <grad f(x), T(x) - x> + g(T(x)) + (1/eps) D(x, T(x)).

    Taking y = x in the model shows E(x) <= F(x) everywhere.
    """
    x = _prep(p, gen, eps, x)
    g = p.smooth.grad(x)
    t = full_prox(p, gen, eps, x, grad=g)
    return (
        p.smooth.value(x)
        + float(g @ (t - x))
        + p.penalty_value(t)
        + bregman_distance(gen, x, t) / eps
    )


def prox_residual(p, gen, eps, x) -> float:
    """||x - T(x)||; zero exactly at critical points of F."""
    x = _prep(p, gen, eps, x)
    return float(np.linalg.norm(x - full_prox(p, gen, eps, x)))
