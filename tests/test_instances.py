import tracemalloc

import numpy as np
import pytest

from vbscd import QuadraticLeastSquares
from vbscd.instances import (
    _design,
    diag_quadratic,
    lasso_1d,
    lasso_random,
    logistic_random,
    matrix_instance,
    quad_1d,
    quadratic_mcp,
    quadratic_scad,
)


def gram_extremes(p):
    eigs = np.linalg.eigvalsh(p.smooth.A.T @ p.smooth.A)
    return float(eigs[0]), float(eigs[-1])


def test_scalar_instances_expose_known_optima():
    point, value = lasso_1d().known_optimum
    assert np.allclose(point, [2.0]) and value == 2.5
    q = quad_1d(1.5)
    point, value = q.known_optimum
    assert np.allclose(point, [1.5]) and value == 0.0
    assert q.objective(np.array([1.5])) == 0.0


def test_diag_quadratic_shapes_and_curvature():
    p = diag_quadratic([1.0, 4.0, 9.0])
    assert p.n == 3 and p.n_blocks == 3
    # declared constant is a safe upper estimate of the true value 9
    assert 9.0 <= p.smooth.lipschitz <= 9.2
    assert np.allclose(p.smooth.grad(np.ones(3)), [1.0, 4.0, 9.0])


def test_random_designs_are_reproducible_and_bounded():
    p1 = lasso_random(n=12, n_blocks=4, seed=3)
    p2 = lasso_random(n=12, n_blocks=4, seed=3)
    x = np.linspace(-1, 1, 12)
    assert p1.objective(x) == p2.objective(x)
    assert np.array_equal(p1.smooth.grad(x), p2.smooth.grad(x))
    lo, hi = gram_extremes(p1)
    assert lo >= 0.5 - 1e-9 and hi <= 2.0 + 1e-9


def test_nonconvex_instances_stay_globally_strongly_convex():
    scad = quadratic_scad(n=10, n_blocks=5, weight=0.3, a=3.7, min_eig=0.5)
    # smooth curvature must beat the penalty's max concavity 1/(a-1)
    assert gram_extremes(scad)[0] > scad.rho_max
    mcp = quadratic_mcp(n=10, n_blocks=5, weight=0.3, gamma=4.0, min_eig=0.5)
    assert gram_extremes(mcp)[0] > mcp.rho_max


def test_logistic_instance_gradient_consistency():
    p = logistic_random(n=6, n_blocks=2, rows=30, seed=8)
    x = 0.1 * np.arange(6.0)
    g = p.smooth.grad(x)
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1e-6
        fd = (p.smooth.value(x + e) - p.smooth.value(x - e)) / 2e-6
        assert g[j] == pytest.approx(fd, abs=1e-5)


def test_matrix_instance_from_explicit_data():
    A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 0.0])
    p = matrix_instance(A, b, "l1", {"lam": 0.5}, n_blocks=2)
    assert p.n == 2 and p.n_blocks == 2
    x = np.array([0.3, -0.7])
    direct = 0.5 * np.sum((A @ x - b) ** 2) + 0.5 * np.abs(x).sum()
    assert p.objective(x) == pytest.approx(direct)


def _explicit_design(n, min_eig, max_eig, seed):
    """The unrotated oracle: A = u S v^T and b from the same seeded draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.sqrt(np.linspace(max_eig, min_eig, n)) if n > 1 else np.array([np.sqrt(max_eig)])
    return u @ (sv[:, None] * v.T), rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 7, 50])
def test_rotated_design_matches_the_explicit_product(n):
    p = lasso_random(n=n, n_blocks=1, seed=20240718)
    A, b = _explicit_design(n, 0.5, 2.0, 20240718)
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = 3.0 * rng.standard_normal(n)
        r = A @ x - b
        f, g = 0.5 * float(r @ r), A.T @ r
        tol = 1e-12 * (1.0 + abs(f))
        assert abs(p.smooth.value(x) - f) <= tol
        assert np.max(np.abs(p.smooth.grad(x) - g)) <= tol


@pytest.mark.parametrize("make", [lasso_random, quadratic_mcp, quadratic_scad])
@pytest.mark.parametrize("max_eig", [2.0, 3.7])
def test_random_designs_take_the_constructed_lipschitz(make, max_eig):
    p = make(n=12, n_blocks=4, max_eig=max_eig)
    assert p.smooth.lipschitz == 1.01 * max_eig
    assert gram_extremes(p)[1] <= p.smooth.lipschitz


def test_random_design_rejects_an_inverted_spectrum():
    with pytest.raises(ValueError, match="min_eig <= max_eig"):
        lasso_random(n=6, n_blocks=2, min_eig=3.0, max_eig=1.0)


def _design_before_in_place(n, min_eig, max_eig, seed):
    """The rotated design as first written: u's reflectors stay alive
    through v's QR, and S v^T is a new product beside v."""
    rng = np.random.Generator(np.random.PCG64(seed))
    h, tau = np.linalg.qr(rng.standard_normal((n, n)), mode="raw")
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    for k in range(n):
        s = tau[k] * (b[k] + h[k, k + 1:] @ b[k + 1:])
        b[k] -= s
        b[k + 1:] -= s * h[k, k + 1:]
    sv = np.sqrt(np.linspace(max_eig, min_eig, n)) if n > 1 else np.array([np.sqrt(max_eig)])
    return sv[:, None] * v.T, b


@pytest.mark.parametrize("n", [1, 7, 50, 300])
def test_design_is_unchanged_bit_for_bit(n):
    A, b = _design(n, 0.5, 2.0, 20240718)
    A0, b0 = _design_before_in_place(n, 0.5, 2.0, 20240718)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)
    # block columns of A stay contiguous
    assert A.flags.f_contiguous
    p = lasso_random(n=n, n_blocks=1, seed=20240718)
    f0 = QuadraticLeastSquares(A0, b0, lipschitz=1.01 * 2.0)
    assert np.array_equal(p.smooth._gram, A0.T @ A0)
    assert p.smooth.lipschitz == f0.lipschitz


def test_build_memory_stays_bounded():
    # A, its gram and numpy's QR (input copy, q and r beside the Gaussian
    # draw) or Cholesky (work buffer and factor) hold 4 n^2 doubles at most;
    # keeping u's reflectors or a second copy of v or of the gram adds one n^2
    n = 300
    tracemalloc.start()
    try:
        lasso_random(n=n, n_blocks=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n * n, peak / (8 * n * n)
