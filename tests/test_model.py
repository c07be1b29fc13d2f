import warnings

import numpy as np
import pytest

from vbscd import (
    BlockPartition,
    CustomSmooth,
    L1Penalty,
    LogisticLoss,
    McpPenalty,
    ProblemInstance,
    QuadraticLeastSquares,
    ScadPenalty,
    SquaredL2Penalty,
    ZeroPenalty,
    certified_bound,
    make_quadratic_problem,
    make_regularizer,
)
from vbscd import model
from vbscd.instances import lasso_1d, lasso_random, matrix_instance
from vbscd.model import _REG_KINDS


def fd_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# smooth terms


def test_quadratic_value_and_grad_by_hand():
    # f(x) = 0.5*((x1 - 3)^2 + (2*x2 - 4)^2); at (1, 1): 0.5*(4 + 4) = 4
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([3.0, 4.0])
    f = QuadraticLeastSquares(A, b)
    x = np.array([1.0, 1.0])
    assert f.value(x) == pytest.approx(4.0, abs=1e-14)
    # grad = A^T(Ax - b) = (1*(1-3), 2*(2-4)) = (-2, -4)
    assert np.allclose(f.grad(x), [-2.0, -4.0], atol=1e-14)


def test_quadratic_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    f = QuadraticLeastSquares(A, b)
    x = rng.standard_normal(5)
    g = f.grad(x)
    assert np.allclose(g, fd_grad(f.value, x), rtol=1e-5, atol=1e-7)


def test_quadratic_lipschitz_known_spectra():
    # A = I: gram eigenvalue 1, padded by the 1% safety factor
    assert QuadraticLeastSquares(np.eye(2), np.zeros(2)).lipschitz == pytest.approx(1.01, rel=1e-6)
    # A = diag(1, 2): largest gram eigenvalue 4
    A = np.diag([1.0, 2.0])
    assert QuadraticLeastSquares(A, np.zeros(2)).lipschitz == pytest.approx(4.04, rel=1e-6)


def test_lipschitz_is_not_underestimated():
    # the design's gram spectrum spans [0.5, 2.0] exactly, so L = 1.01 * 2.0
    p = lasso_random(n=50)
    assert p.smooth.lipschitz == pytest.approx(1.01 * 2.0, rel=1e-13)


def test_explicit_matrices_get_the_certified_eigensolver_value():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((9, 6))
    f = QuadraticLeastSquares(A, rng.standard_normal(9))
    # the default candidate is 1.01 times the eigvalsh maximum, bit for bit
    assert f.lipschitz == 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
    assert certified_bound(A.T @ A) == f.lipschitz
    # an all-zero gram gives L = 0
    assert certified_bound(np.zeros((4, 4))) == 0.0
    assert QuadraticLeastSquares(np.zeros((3, 2)), np.ones(3)).lipschitz == 0.0


def test_candidate_below_the_top_eigenvalue_is_refused():
    A = np.diag([1.0, 2.0])
    # lambda_max(A^T A) = 4: a bound just above it is certified, one below is not
    assert QuadraticLeastSquares(A, np.zeros(2), lipschitz=4.0 * (1 + 1e-9)).lipschitz > 4.0
    for L in (4.0 * (1 - 1e-9), 3.0, 0.0):
        with pytest.raises(ValueError, match="not certified"):
            QuadraticLeastSquares(A, np.zeros(2), lipschitz=L)
    for L in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            certified_bound(A.T @ A, L)


@pytest.mark.parametrize("A, b, cause", [
    ([[1.0, np.nan], [0.0, 1.0]], [1.0, 2.0], "the matrix A has a non-finite entry"),
    ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 2.0], "the vector b has a non-finite entry"),
    ([[1e200, 0.0], [0.0, 1.0]], [1.0, 2.0], r"A\^T A or A\^T b overflows"),
    ([[1e150, 0.0], [0.0, 1.0]], [1e160, 2.0], r"A\^T A or A\^T b overflows"),
], ids=["nan-in-A", "inf-in-b", "gram-overflows", "atb-overflows"])
def test_non_finite_least_squares_data_is_refused(A, b, cause):
    with pytest.raises(ValueError, match=cause):
        QuadraticLeastSquares(A, b)


def _gram(n, seed):
    A = np.random.default_rng(seed).standard_normal((n + 3, n))
    return A.T @ A


@pytest.mark.parametrize("case", ["pass", "not-certified", "eigensolver", "zero"])
def test_certified_bound_restores_the_gram(case):
    G = np.zeros((4, 4)) if case == "zero" else _gram(6, 7)
    before = G.copy()
    top = float(np.linalg.eigvalsh(G)[-1])
    if case == "not-certified":
        with pytest.raises(ValueError, match="not certified"):
            certified_bound(G, 0.9 * top)
    else:
        L = certified_bound(G, None if case == "eigensolver" else 1.5 * top)
        assert L >= top
    assert G.tobytes() == before.tobytes()


def test_certified_bound_refuses_a_read_only_gram():
    G = _gram(5, 8)
    G.setflags(write=False)
    # numpy's own refusal of the first in-place write would be a ValueError
    # too, but one that does not name the gram
    with pytest.raises(ValueError, match="the gram G in place: G must be writable"):
        certified_bound(G, 100.0)


def test_descent_lemma_on_random_pairs():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 6))
    f = QuadraticLeastSquares(A, rng.standard_normal(8))
    L = f.lipschitz
    for _ in range(100):
        x = rng.standard_normal(6) * 3
        y = rng.standard_normal(6) * 3
        gap = f.value(y) - f.value(x) - float(f.grad(x) @ (y - x))
        assert gap <= 0.5 * L * float(np.sum((y - x) ** 2)) + 1e-9


@pytest.mark.parametrize("A, cause", [
    ([[1.0, np.nan], [0.0, 1.0]], "the matrix A has a non-finite entry"),
    ([[1.0, 0.0], [np.inf, 1.0]], "the matrix A has a non-finite entry"),
    ([[1e200, 0.0], [0.0, 1.0]], r"A\^T A overflows"),
], ids=["nan-in-A", "inf-in-A", "gram-overflows"])
def test_non_finite_logistic_data_is_refused(A, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=cause):
            LogisticLoss(A, [1.0, -1.0])


def test_logistic_value_grad_and_lipschitz():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 4))
    y = np.sign(rng.standard_normal(12))
    f = LogisticLoss(A, y)
    x = rng.standard_normal(4) * 0.5
    # direct evaluation of sum log(1 + exp(-y a^T x))
    margins = y * (A @ x)
    assert f.value(x) == pytest.approx(float(np.sum(np.log1p(np.exp(-margins)))), rel=1e-12)
    assert np.allclose(f.grad(x), fd_grad(f.value, x), rtol=1e-5, atol=1e-7)
    gram_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
    assert f.lipschitz == pytest.approx(1.01 * gram_max / 4.0, rel=1e-6)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError):
        LogisticLoss(np.ones((2, 2)), np.array([1.0, 0.5]))


def test_custom_smooth_passthrough():
    f = CustomSmooth(lambda x: float(x @ x), lambda x: 2 * x, lipschitz=2.0, n=3)
    x = np.array([1.0, 2.0, -1.0])
    assert f.value(x) == 6.0
    assert f.value_rows(np.stack([x, 2 * x])).tolist() == [6.0, 24.0]
    assert np.allclose(f.grad(x), [2.0, 4.0, -2.0])
    assert f.lipschitz == 2.0


def test_in_chunks_joins_to_one_unchunked_call(monkeypatch):
    rng = np.random.default_rng(4)
    X, Y, w = rng.standard_normal((10, 4)), rng.standard_normal((10, 4)), rng.random((10, 1))
    fn = lambda X, Y, w: np.linalg.norm(X - w * Y, axis=1)
    seen = []
    monkeypatch.setattr(model, "STACK_DOUBLES", 3 * 4)  # 3 rows of 4 doubles: 3 + 3 + 3 + 1
    got = model.in_chunks(lambda *a: (seen.append(len(a[0])), fn(*a))[1], 4, X, Y, w)
    assert seen == [3, 3, 3, 1]
    assert got.tobytes() == fn(X, Y, w).tobytes()
    assert model.in_chunks(fn, 4, X[:0], Y[:0], w[:0]).shape == (0,)


# ---------------------------------------------------------------------------
# penalties


def test_l1_value_and_subdiff():
    g = L1Penalty(2.0)
    assert float(np.sum(g.value(np.array([1.0, -3.0])))) == pytest.approx(8.0)
    lo, hi = g.subdiff(np.array([0.0, 2.0, -1.0]))
    assert np.allclose(lo, [-2.0, 2.0, -2.0])
    assert np.allclose(hi, [2.0, 2.0, -2.0])
    assert g.rho == 0.0


def test_squared_l2_value_and_subdiff():
    g = SquaredL2Penalty(3.0)
    assert float(np.sum(g.value(np.array([2.0])))) == pytest.approx(6.0)  # (3/2)*4
    lo, hi = g.subdiff(np.array([2.0]))
    assert lo[0] == hi[0] == pytest.approx(6.0)


def test_scad_value_piecewise():
    g = ScadPenalty(1.0, 3.7)
    # inner region t <= lam: value lam*t
    assert float(np.asarray(g.value(0.5))) == pytest.approx(0.5)
    # middle region: (2*a*lam*t - t^2 - lam^2) / (2(a-1)) at t=2: 9.8/5.4
    assert float(np.asarray(g.value(2.0))) == pytest.approx(9.8 / 5.4, rel=1e-12)
    # flat region t >= a*lam: lam^2 (a+1)/2 = 2.35
    assert float(np.asarray(g.value(5.0))) == pytest.approx(2.35, rel=1e-12)
    assert float(np.asarray(g.value(-5.0))) == pytest.approx(2.35, rel=1e-12)
    assert g.rho == pytest.approx(1.0 / 2.7)


def test_mcp_value_piecewise():
    g = McpPenalty(1.0, 2.0)
    # t <= gamma*lam: lam*t - t^2/(2 gamma) = 1 - 0.25
    assert float(np.asarray(g.value(1.0))) == pytest.approx(0.75)
    # flat region: gamma lam^2 / 2 = 1
    assert float(np.asarray(g.value(3.0))) == pytest.approx(1.0)
    assert g.rho == pytest.approx(0.5)


def test_scad_mcp_subdiff_by_finite_differences():
    for g in (ScadPenalty(1.3, 3.1), McpPenalty(0.7, 2.5)):
        for t in (0.4, 1.1, 2.9, 5.0, -0.8, -4.0):
            lo, hi = g.subdiff(np.array([t]))
            assert lo[0] == pytest.approx(hi[0], abs=1e-12)  # smooth away from 0
            fd = (float(np.asarray(g.value(t + 1e-6))) - float(np.asarray(g.value(t - 1e-6)))) / 2e-6
            assert lo[0] == pytest.approx(fd, abs=1e-5)
        lo, hi = g.subdiff(np.array([0.0]))
        assert (lo[0], hi[0]) == (-g.lam, g.lam)


def test_semiconvexity_modulus_makes_penalty_convex():
    # h(t) = phi(t) + (rho/2) t^2 must pass the midpoint test everywhere
    rng = np.random.default_rng(17)
    for g in (ScadPenalty(1.0, 3.7), ScadPenalty(0.4, 2.2), McpPenalty(1.0, 2.0), McpPenalty(2.0, 1.3)):
        h = lambda t: float(np.asarray(g.value(t))) + 0.5 * g.rho * t * t
        for _ in range(300):
            t, s = rng.standard_normal(2) * 4
            assert h(0.5 * (t + s)) <= 0.5 * (h(t) + h(s)) + 1e-9


def test_make_regularizer_factory():
    assert make_regularizer("zero").kind == "zero"
    assert make_regularizer("l1", lam=0.3).lam == 0.3
    assert make_regularizer("squared-l2", mu=2.0).mu == 2.0
    assert make_regularizer("scad", lam=1.0, a=3.7).a == 3.7
    assert make_regularizer("mcp", lam=1.0, gamma=4.0).gamma == 4.0
    with pytest.raises(ValueError):
        make_regularizer("huber")
    with pytest.raises(ValueError):
        make_regularizer("l1", lam=1.0, gamma=2.0)  # stray parameter
    with pytest.raises(ValueError):
        make_regularizer("mcp", lam=1.0)  # missing gamma
    with pytest.raises(ValueError):
        ScadPenalty(1.0, 2.0)  # needs a > 2
    with pytest.raises(ValueError):
        McpPenalty(1.0, 1.0)  # needs gamma > 1


def test_make_regularizer_names_the_stray_or_missing_parameter():
    with pytest.raises(ValueError, match=r"^penalty kind 'l1': .*'gamma'"):
        make_regularizer("l1", lam=1.0, gamma=2.0)
    with pytest.raises(ValueError, match=r"^penalty kind 'mcp': .*missing.*'gamma'"):
        make_regularizer("mcp", lam=1.0)
    with pytest.raises(ValueError, match=r"^penalty kind 'zero': .*'lam'"):
        make_regularizer("zero", lam=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind, params", [
    ("l1", {"lam": NAN}), ("l1", {"lam": INF}), ("l1", {"lam": -1.0}),
    ("squared-l2", {"mu": NAN}), ("squared-l2", {"mu": INF}),
    ("scad", {"lam": NAN}), ("scad", {"lam": INF}), ("scad", {"lam": 1.0, "a": NAN}),
    ("scad", {"lam": 1.0, "a": INF}),
    ("mcp", {"lam": NAN, "gamma": 4.0}), ("mcp", {"lam": 1.0, "gamma": NAN}),
    ("mcp", {"lam": 1.0, "gamma": INF}),
])
def test_non_finite_penalty_parameters_are_rejected(kind, params):
    # NaN fails every comparison, so each bound must be written to fail on it
    message = rf"^{kind} (weight|shape parameter) must be finite"
    with pytest.raises(ValueError, match=message):
        make_regularizer(kind, **params)
    with pytest.raises(ValueError, match=message):
        matrix_instance(np.eye(2), np.ones(2), kind, params, n_blocks=2)


SHIPPED_PENALTIES = [ZeroPenalty(), L1Penalty(0.7), SquaredL2Penalty(1.3),
                     ScadPenalty(0.9, 3.7), McpPenalty(0.8, 3.0)]


def test_symmetry_covers_every_penalty_kind():
    assert {reg.kind for reg in SHIPPED_PENALTIES} == set(_REG_KINDS)


@pytest.mark.parametrize("reg", SHIPPED_PENALTIES, ids=lambda reg: reg.kind)
def test_every_penalty_is_even(reg):
    lam = getattr(reg, "lam", 1.0)
    knots = np.array([0.0, lam, getattr(reg, "a", 3.7) * lam, getattr(reg, "gamma", 3.0) * lam])
    rng = np.random.default_rng(23)
    t = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        rng.standard_normal(200) * 3.0 * lam])
    t = np.concatenate([t, -t])  # -0.0 included
    assert np.array_equal(reg.value(-t), reg.value(t))
    lo, hi = reg.subdiff(t)
    lo_neg, hi_neg = reg.subdiff(-t)
    assert np.array_equal(lo_neg, -hi) and np.array_equal(hi_neg, -lo)
    assert np.all(lo <= hi)
    for w in (reg.rho + 1e-3, reg.rho + 0.5, 2.0 + reg.rho, rng.uniform(reg.rho + 0.1, 5.0, t.size)):
        assert np.array_equal(reg.prox(-t, w), -reg.prox(t, w))


# ---------------------------------------------------------------------------
# partitions and instances


def test_block_partition_slices():
    part = BlockPartition((2, 3, 1))
    assert part.n == 6
    assert part.n_blocks == 3
    assert part.block_slice(1) == slice(2, 5)
    assert BlockPartition.even(6, 3).sizes == (2, 2, 2)
    assert BlockPartition.even(7, 3).sizes == (3, 2, 2)  # remainder spread left
    with pytest.raises(ValueError, match="coordinate per block"):
        BlockPartition.even(2, 3)
    for n_blocks in (0, -1):
        with pytest.raises(ValueError, match="need at least one block"):
            BlockPartition.even(5, n_blocks)
    with pytest.raises(ValueError):
        BlockPartition((2, 0))
    assert part.block_of.tolist() == [0, 0, 1, 1, 1, 2]
    assert not part.block_of.flags.writeable  # shared by every caller
    # block_of stays out of comparisons, so partitions still compare and hash
    assert part == BlockPartition((2, 3, 1)) and hash(part) == hash(BlockPartition((2, 3, 1)))


def test_smooth_term_dimension_must_match_the_partition():
    rng = np.random.default_rng(5)
    A, y = rng.standard_normal((40, 10)), np.where(rng.random(40) < 0.5, -1.0, 1.0)
    part, regs = BlockPartition.even(12, 4), (L1Penalty(0.1),) * 4
    with pytest.raises(ValueError, match="smooth term has 10 coordinates, partition covers 12"):
        ProblemInstance(LogisticLoss(A, y), part, regs)
    with pytest.raises(ValueError, match="smooth term has 10 coordinates, partition covers 12"):
        make_quadratic_problem(A, np.zeros(40), regs, part)
    f = CustomSmooth(lambda x: 0.0, lambda x: np.zeros_like(x), lipschitz=0.0, n=5)
    with pytest.raises(ValueError, match="smooth term has 5 coordinates, partition covers 12"):
        ProblemInstance(f, part, regs)


def test_min_subgradient_norm_lasso_by_hand():
    p = lasso_1d()
    # at x=0: grad f = -3, l1 interval [-1, 1]; closest is -3 + 1 -> 2
    assert p.min_subgradient_norm(np.array([0.0])) == pytest.approx(2.0)
    # at the critical point x=2: grad f = -1, covered by the interval
    assert p.min_subgradient_norm(np.array([2.0])) == pytest.approx(0.0, abs=1e-15)


def test_objective_splits_smooth_and_penalty():
    p = lasso_1d()
    x = np.array([1.5])
    # 0.5*(1.5-3)^2 + |1.5| = 1.125 + 1.5
    assert p.objective(x) == pytest.approx(2.625)
    assert p.penalty_value(x) == pytest.approx(1.5)


def test_instance_validation_errors():
    A = np.eye(2)
    b = np.zeros(2)
    part = BlockPartition((1, 1))
    with pytest.raises(ValueError):
        # two blocks but a single penalty
        make_quadratic_problem(A, b, [L1Penalty(1.0)], part)
    with pytest.raises(ValueError):
        # claimed optimum is not critical: at 0 the gradient is (-1, 0) with no penalty help
        make_quadratic_problem(
            A, np.array([1.0, 0.0]), [ZeroPenalty(), ZeroPenalty()], part,
            known_optimum=(np.zeros(2), 0.5),
        )
    with pytest.raises(ValueError):
        # right point, wrong value
        make_quadratic_problem(
            A, np.array([1.0, 0.0]), [ZeroPenalty(), ZeroPenalty()], part,
            known_optimum=(np.array([1.0, 0.0]), 0.25),
        )


def test_rho_max_over_blocks():
    A = np.eye(2)
    p = make_quadratic_problem(
        A, np.zeros(2), [McpPenalty(1.0, 2.0), L1Penalty(0.5)], BlockPartition((1, 1))
    )
    assert p.rho_max == pytest.approx(0.5)
    assert isinstance(p, ProblemInstance)
