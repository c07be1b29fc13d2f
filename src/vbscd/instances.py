"""Shipped problem instances used by the tests and the config loader.

Random designs are built from seeded orthogonal factors with prescribed
singular values, so the gram matrix A^T A has its spectrum inside
[min_eig, max_eig] by construction; min_eig > 0 makes the least-squares
term strongly convex, and choosing min_eig above the penalty's modulus rho
keeps the composite objective strongly convex even for scad/mcp penalties.

The instance is 0.5 ||u S v^T x - b||^2 with u, v orthogonal, but the
design stored is S v^T with the right-hand side u^T b: an orthogonal u keeps
the norm of every residual, so F, grad F and the gram are the same
functions of x and u is never formed (see :func:`_design`).  This holds
only because the loss is a function of ||A x - b||; a loss of the residual
that is not (a Cauchy loss, say) must not reuse the rotated design.  The
known spectrum also gives the Lipschitz candidate 1.01 * max_eig, which
:func:`model.certified_bound` proves without an eigensolver, factorizing
the gram in place and restoring it.  The build peaks at about 4 n^2
doubles, which is numpy's floor: its QR of v's draw holds an input copy, q
and r beside the draw, and its Cholesky a work buffer and the factor beside
A and the gram.
"""
from __future__ import annotations

import numpy as np

from .model import (
    BlockPartition,
    L1Penalty,
    LogisticLoss,
    McpPenalty,
    ProblemInstance,
    ScadPenalty,
    ZeroPenalty,
    make_quadratic_problem,
    make_regularizer,
)


def lasso_1d() -> ProblemInstance:
    """0.5 (x - 3)^2 + |x|; the critical point x* = 2 with value 2.5."""
    return make_quadratic_problem(
        A=[[1.0]], b=[3.0],
        regularizers=(L1Penalty(1.0),),
        partition=BlockPartition((1,)),
        known_optimum=(np.array([2.0]), 2.5),
    )


def quad_1d(target: float = 0.0) -> ProblemInstance:
    """0.5 (x - target)^2 with no penalty."""
    return make_quadratic_problem(
        A=[[1.0]], b=[float(target)],
        regularizers=(ZeroPenalty(),),
        partition=BlockPartition((1,)),
        known_optimum=(np.array([float(target)]), 0.0),
    )


def quad_l1_1d() -> ProblemInstance:
    """0.5 x^2 + |x|; minimized at 0 with value 0."""
    return make_quadratic_problem(
        A=[[1.0]], b=[0.0],
        regularizers=(L1Penalty(1.0),),
        partition=BlockPartition((1,)),
        known_optimum=(np.array([0.0]), 0.0),
    )


def diag_quadratic(eigs=(1.0, 4.0)) -> ProblemInstance:
    """0.5 x^T diag(eigs) x, one coordinate per block, minimizer 0."""
    eigs = np.asarray(eigs, dtype=float)
    if np.any(eigs <= 0):
        raise ValueError("need strictly positive curvatures")
    n = eigs.size
    return make_quadratic_problem(
        A=np.diag(np.sqrt(eigs)), b=np.zeros(n),
        regularizers=tuple(ZeroPenalty() for _ in range(n)),
        partition=BlockPartition((1,) * n),
        known_optimum=(np.zeros(n), 0.0),
    )


def _design(n: int, min_eig: float, max_eig: float, seed: int):
    """Design S v^T and right-hand side u^T b of 0.5 ||u S v^T x - b||^2.

    u and v are the orthogonal factors of seeded Gaussian matrices, S has
    the singular values whose squares space [min_eig, max_eig] evenly, and b
    is seeded.  ||u r - b|| = ||r - u^T b|| for every r because u is
    orthogonal, so the rotated pair gives the same F, grad F and gram
    v S^2 v^T (up to rounding) for a loss of ||A x - b|| only.  u is applied
    to b as its n Householder reflectors u = H_0 H_1 ... H_{n-1} (one
    dgeqrf; u itself and the product u S v^T are never formed).  The draws
    come in the order z_u, z_v, b, so a seed gives the same instance as the
    explicit product.  The reflectors are dropped before v's QR, and S v^T is
    v's columns scaled in place, returned as v.T (F-contiguous, so every
    block of columns is contiguous).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    # h comes back transposed: reflector k is [1, h[k, k+1:]] on entries k:
    h, tau = np.linalg.qr(rng.standard_normal((n, n)), mode="raw")
    z_v = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    for k in range(n):
        s = tau[k] * (b[k] + h[k, k + 1:] @ b[k + 1:])
        b[k] -= s
        b[k + 1:] -= s * h[k, k + 1:]
    del h
    v, _ = np.linalg.qr(z_v)
    if n == 1:
        sv = np.array([np.sqrt(max_eig)])
    else:
        sv = np.sqrt(np.linspace(max_eig, min_eig, n))
    v *= sv
    return v.T, b


def _random_least_squares(reg, n, n_blocks, min_eig, max_eig, seed) -> ProblemInstance:
    """Least squares on a seeded design, with the penalty ``reg`` on every
    block and the certified L = 1.01 * max_eig."""
    if not min_eig <= max_eig:
        raise ValueError(f"need min_eig <= max_eig, got {min_eig} > {max_eig}")
    A, b = _design(n, min_eig, max_eig, seed)
    return make_quadratic_problem(A=A, b=b, regularizers=(reg,) * n_blocks,
                                  partition=BlockPartition.even(n, n_blocks),
                                  lipschitz=1.01 * max_eig)


def lasso_random(
    n: int = 50, n_blocks: int = 10, l1_weight: float = 0.1,
    min_eig: float = 0.5, max_eig: float = 2.0, seed: int = 20240718,
) -> ProblemInstance:
    """Random strongly convex lasso: gram spectrum in [min_eig, max_eig]."""
    return _random_least_squares(L1Penalty(l1_weight), n, n_blocks, min_eig, max_eig, seed)


def quadratic_mcp(
    n: int = 20, n_blocks: int = 5, weight: float = 0.3, gamma: float = 4.0,
    min_eig: float = 0.5, max_eig: float = 2.0, seed: int = 20240719,
) -> ProblemInstance:
    """Least squares plus mcp; min_eig > 1/gamma keeps F strongly convex."""
    return _random_least_squares(McpPenalty(weight, gamma), n, n_blocks, min_eig, max_eig, seed)


def quadratic_scad(
    n: int = 20, n_blocks: int = 5, weight: float = 0.3, a: float = 3.7,
    min_eig: float = 0.5, max_eig: float = 2.0, seed: int = 20240720,
) -> ProblemInstance:
    """Least squares plus scad; min_eig > 1/(a-1) keeps F strongly convex."""
    return _random_least_squares(ScadPenalty(weight, a), n, n_blocks, min_eig, max_eig, seed)


def logistic_random(
    n: int = 10, n_blocks: int = 2, l1_weight: float = 0.05,
    rows: int = 40, seed: int = 20240721,
) -> ProblemInstance:
    """Logistic loss with l1 penalties on seeded data."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((rows, n))
    truth = rng.standard_normal(n)
    y = np.where(A @ truth + 0.1 * rng.standard_normal(rows) >= 0, 1.0, -1.0)
    part = BlockPartition.even(n, n_blocks)
    return ProblemInstance(
        smooth=LogisticLoss(A, y),
        partition=part,
        regularizers=tuple(L1Penalty(l1_weight) for _ in range(n_blocks)),
    )


def matrix_instance(A, b, reg_kind: str, reg_params: dict, n_blocks: int) -> ProblemInstance:
    """Instance from explicit dense data with one penalty kind on all blocks."""
    A = np.asarray(A, dtype=float)
    part = BlockPartition.even(A.shape[1], n_blocks)
    regs = tuple(make_regularizer(reg_kind, **reg_params) for _ in range(n_blocks))
    return make_quadratic_problem(A=A, b=b, regularizers=regs, partition=part)
