import numpy as np
import pytest

from vbscd import (
    BlockPartition,
    GridProxOracle,
    L1Penalty,
    McpPenalty,
    Regularizer,
    ScadPenalty,
    SquaredL2Penalty,
    ZeroPenalty,
    coordinate_prox,
    coordinate_prox_all,
    envelope_value,
    full_prox,
    make_quadratic_problem,
    make_regularizer,
    prox_residual,
    scalar_prox,
)
from vbscd.instances import lasso_1d, lasso_random, quadratic_mcp
from vbscd.model import _REG_KINDS
from vbscd.prox import block_target, full_prox_rows


def scalar_objective(reg, w, v, t):
    return float(np.asarray(reg.value(t))) + 0.5 * w * (t - v) ** 2


# ---------------------------------------------------------------------------
# scalar prox closed forms


def test_soft_threshold_by_hand():
    g = L1Penalty(1.0)
    # w=2: shrink by lam/w = 0.5
    assert float(np.asarray(scalar_prox(g, 2.0, 5.0))) == pytest.approx(4.5)
    assert float(np.asarray(scalar_prox(g, 2.0, -5.0))) == pytest.approx(-4.5)
    assert float(np.asarray(scalar_prox(g, 2.0, 0.3))) == 0.0
    assert float(np.asarray(scalar_prox(ZeroPenalty(), 2.0, 0.3))) == 0.3


def test_squared_l2_prox_by_hand():
    # argmin (mu/2)t^2 + (w/2)(t-v)^2 = w v / (w + mu); w=2, mu=1, v=3 -> 2
    g = SquaredL2Penalty(1.0)
    assert float(np.asarray(scalar_prox(g, 2.0, 3.0))) == pytest.approx(2.0)


def test_scad_prox_regions():
    g = ScadPenalty(1.0, 3.7)
    # far outside: identity (no shrinkage beyond a*lam)
    assert float(np.asarray(scalar_prox(g, 1.0, 6.0))) == pytest.approx(6.0)
    # small input at w=1: soft threshold by lam
    assert float(np.asarray(scalar_prox(g, 1.0, 0.7))) == 0.0
    assert float(np.asarray(scalar_prox(g, 1.0, 1.8))) == pytest.approx(0.8)


def test_mcp_prox_regions():
    g = McpPenalty(1.0, 2.0)
    assert float(np.asarray(scalar_prox(g, 1.0, 0.9))) == 0.0
    assert float(np.asarray(scalar_prox(g, 1.0, 3.0))) == pytest.approx(3.0)
    # middle region at w=1, gamma=2: t = gamma(w v - lam)/(gamma w - 1) = 2(v-1)
    assert float(np.asarray(scalar_prox(g, 1.0, 1.6))) == pytest.approx(1.2)


def test_prox_needs_w_above_modulus():
    with pytest.raises(ValueError):
        scalar_prox(McpPenalty(1.0, 2.0), 0.4, 1.0)  # rho = 0.5
    with pytest.raises(ValueError):
        scalar_prox(ScadPenalty(1.0, 3.0), 0.5, 1.0)  # rho = 0.5


@pytest.mark.parametrize(
    "reg",
    [
        L1Penalty(0.8),
        SquaredL2Penalty(1.3),
        ScadPenalty(1.0, 3.7),
        ScadPenalty(0.5, 2.4),
        McpPenalty(1.0, 3.0),
        McpPenalty(1.7, 1.4),
    ],
)
def test_scalar_prox_matches_grid_oracle(reg):
    oracle = GridProxOracle(reg)
    rng = np.random.default_rng(23)
    for _ in range(60):
        w = reg.rho + 0.1 + 4.0 * rng.random()
        v = -6.0 + 12.0 * rng.random()
        t = float(np.asarray(scalar_prox(reg, w, v)))
        t_grid, f_grid = oracle.query(w, v)
        assert abs(t - t_grid) <= 1e-4
        assert scalar_objective(reg, w, v, t) <= f_grid + 1e-8


def test_scalar_prox_vectorized_matches_scalar():
    g = ScadPenalty(1.0, 3.7)
    vs = np.array([-4.0, -1.2, 0.0, 0.4, 1.9, 5.5])
    out = np.asarray(scalar_prox(g, 1.3, vs))
    for v, t in zip(vs, out):
        assert t == pytest.approx(float(np.asarray(scalar_prox(g, 1.3, float(v)))), abs=1e-15)


# ---------------------------------------------------------------------------
# block maps


def test_coordinate_prox_lasso_by_hand():
    p = lasso_1d()
    q = 1.0
    # at x=0: grad=-3, v = 0 + 0.5*3 = 1.5, w = 2, shrink 0.5 -> 1.0
    t = coordinate_prox(p, q, 0.5, np.zeros(1), 0)
    assert t[0] == pytest.approx(1.0)
    # the known critical point is a fixed point
    t = coordinate_prox(p, q, 0.5, np.array([2.0]), 0)
    assert t[0] == pytest.approx(2.0, abs=1e-15)


def test_coordinate_prox_changes_only_its_block():
    p = lasso_random(n=10, n_blocks=5, seed=3)
    q = 1.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    for i in range(5):
        t = coordinate_prox(p, q, 0.3, x, i)
        sl = p.partition.block_slice(i)
        outside = np.ones(10, dtype=bool)
        outside[sl] = False
        assert np.array_equal(t[outside], x[outside])
        assert not np.array_equal(t[sl], x[sl])


def test_full_prox_is_jacobi_composition():
    # all blocks use the gradient at the same base point
    p = lasso_random(n=8, n_blocks=4, seed=5)
    q = 1.0
    x = np.random.default_rng(1).standard_normal(8)
    t = full_prox(p, q, 0.3, x)
    for i in range(4):
        sl = p.partition.block_slice(i)
        ti = coordinate_prox(p, q, 0.3, x, i)
        assert np.allclose(t[sl], ti[sl], atol=1e-15)


def test_coordinate_prox_all_matches_individual():
    p = quadratic_mcp(n=10, n_blocks=5, seed=7)
    q = 1.0
    x = np.random.default_rng(2).standard_normal(10)
    eps = 0.3
    all_targets = coordinate_prox_all(p, q, eps, x)
    for i, t in enumerate(all_targets):
        assert np.allclose(t, coordinate_prox(p, q, eps, x, i), atol=1e-15)


def test_block_optimality_certificate():
    # 0 must lie in grad f(x) + dG(t) + (q/eps)(t - x) for each block target
    p = lasso_random(n=12, n_blocks=4, seed=9)
    q = 1.7
    eps = 0.25
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.standard_normal(12) * 2
        g = p.smooth.grad(x)
        t = full_prox(p, q, eps, x)
        for i, reg in enumerate(p.regularizers):
            sl = p.partition.block_slice(i)
            r = g[sl] + (q / eps) * (t[sl] - x[sl])
            lo, hi = reg.subdiff(t[sl])
            xi = np.clip(-r, lo, hi)
            assert float(np.max(np.abs(r + xi))) <= 1e-8


def test_envelope_value_by_hand():
    p = lasso_1d()
    q = 1.0
    # at x=0: T(0)=1, E = f(0) + grad*(t-x) + |t| + (1/eps) D
    #       = 4.5 + (-3)(1) + 1 + (0.5/0.5) = 3.5
    assert envelope_value(p, q, 0.5, np.zeros(1)) == pytest.approx(3.5)


def test_envelope_below_objective_everywhere():
    p = quadratic_mcp(n=10, n_blocks=5, seed=11)
    q = 1.0
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(10) * 3
        assert envelope_value(p, q, 0.3, x) <= p.objective(x) + 1e-12


def test_envelope_equals_objective_at_fixed_point():
    p = lasso_1d()
    q = 1.0
    x_star = np.array([2.0])
    assert envelope_value(p, q, 0.5, x_star) == pytest.approx(2.5, abs=1e-12)


def test_prox_residual_by_hand():
    p = lasso_1d()
    q = 1.0
    assert prox_residual(p, q, 0.5, np.zeros(1)) == pytest.approx(1.0)
    assert prox_residual(p, q, 0.5, np.array([2.0])) == pytest.approx(0.0, abs=1e-15)


def test_prox_rejects_bad_inputs():
    p = lasso_1d()
    q = 1.0
    with pytest.raises(ValueError):
        coordinate_prox(p, q, -0.5, np.zeros(1), 0)
    with pytest.raises(ValueError):
        coordinate_prox(p, q, 0.5, np.zeros(2), 0)
    with pytest.raises(IndexError):
        coordinate_prox(p, q, 0.5, np.zeros(1), 1)


# each takes a point x; the stacked one gets it as a one-row stack
PROX_ENTRY_POINTS = {
    "coordinate_prox": lambda p, q, x, eps=0.5: coordinate_prox(p, q, eps, x, 0),
    "coordinate_prox_all": lambda p, q, x, eps=0.5: coordinate_prox_all(p, q, eps, x),
    "full_prox": lambda p, q, x, eps=0.5: full_prox(p, q, eps, x),
    "full_prox_rows": lambda p, q, x, eps=0.5: full_prox_rows(p, q, eps, x[None, :]),
    "envelope_value": lambda p, q, x, eps=0.5: envelope_value(p, q, eps, x),
    "prox_residual": lambda p, q, x, eps=0.5: prox_residual(p, q, eps, x),
}


@pytest.mark.parametrize("q", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(PROX_ENTRY_POINTS))
def test_every_prox_entry_point_rejects_a_bad_kernel_weight(entry, q):
    p = lasso_random(n=6, n_blocks=3, seed=2)
    with pytest.raises(ValueError, match="kernel weight q must be finite and positive"):
        PROX_ENTRY_POINTS[entry](p, q, np.ones(6))
    PROX_ENTRY_POINTS[entry](p, 1.7, np.ones(6))  # a good weight passes


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
@pytest.mark.parametrize("entry", sorted(PROX_ENTRY_POINTS))
def test_every_prox_entry_point_rejects_a_bad_step(entry, eps):
    # eps = 0 would divide by zero (q / eps) and return every point unchanged
    p = lasso_random(n=6, n_blocks=3, seed=2)
    with pytest.raises(ValueError, match="eps must be positive"):
        PROX_ENTRY_POINTS[entry](p, 1.0, np.ones(6), eps)


@pytest.mark.parametrize("width", [5, 7])
@pytest.mark.parametrize("entry", sorted(PROX_ENTRY_POINTS))
def test_every_prox_entry_point_rejects_a_wrong_width(entry, width):
    p = lasso_random(n=6, n_blocks=3, seed=2)
    with pytest.raises(ValueError, match="shape mismatch"):
        PROX_ENTRY_POINTS[entry](p, 1.0, np.ones(width))


def test_semiconvex_prox_unique_under_strong_weight():
    # nonconvex penalty, but w > rho makes the scalar subproblem strongly
    # convex: the grid objective has a single basin around the closed form
    g = McpPenalty(1.0, 2.0)
    w = 0.51 + 0.2
    oracle = GridProxOracle(g, lo=-4.0, hi=4.0, step=1e-4)
    for v in (-2.0, -0.9, 0.0, 0.7, 1.4, 3.0):
        t = float(np.asarray(scalar_prox(g, w, v)))
        t_grid, _ = oracle.query(w, v)
        assert abs(t - t_grid) <= 1e-3


def test_multi_coordinate_block_prox():
    # a 2-coordinate block goes through the same scalar map coordinatewise
    A = np.diag([1.0, 1.0])
    p = make_quadratic_problem(
        A, np.array([3.0, -3.0]), [L1Penalty(1.0)], BlockPartition((2,))
    )
    q = 1.0
    t = coordinate_prox(p, q, 0.5, np.zeros(2), 0)
    assert np.allclose(t, [1.0, -1.0])


# ---------------------------------------------------------------------------
# SCAD/MCP kernels against candidate enumeration, bit for bit


def _pick_best(candidates, objective):
    """Elementwise argmin over a list of candidates, one value call each."""
    vals = np.stack([objective(c) for c in candidates])
    best = np.argmin(vals, axis=0)
    stacked = np.stack(candidates)
    return np.take_along_axis(stacked, best[None, ...], axis=0)[0]


def scad_prox_by_enumeration(reg, v, w):
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    lam, a = reg.lam, reg.a
    s, u = np.sign(v), np.abs(v)
    c1 = np.clip(u - lam / w, 0.0, lam)
    c2 = np.clip((w * (a - 1) * u - a * lam) / (w * (a - 1) - 1.0), lam, a * lam)
    c3 = np.maximum(u, a * lam)
    return s * _pick_best([c1, c2, c3], lambda t: reg.value(t) + 0.5 * w * np.square(t - u))


def mcp_prox_by_enumeration(reg, v, w):
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    lam, g = reg.lam, reg.gamma
    s, u = np.sign(v), np.abs(v)
    c1 = np.clip(g * (w * u - lam) / (g * w - 1.0), 0.0, g * lam)
    c2 = np.maximum(u, g * lam)
    return s * _pick_best([c1, c2], lambda t: reg.value(t) + 0.5 * w * np.square(t - u))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "reg, oracle, shape_param",
    [
        (ScadPenalty(1.0, 3.7), scad_prox_by_enumeration, 3.7),
        (ScadPenalty(0.7, 2.4), scad_prox_by_enumeration, 2.4),
        (ScadPenalty(0.0, 3.0), scad_prox_by_enumeration, 3.0),
        (McpPenalty(1.0, 3.0), mcp_prox_by_enumeration, 3.0),
        (McpPenalty(1.7, 1.4), mcp_prox_by_enumeration, 1.4),
        (McpPenalty(0.0, 2.0), mcp_prox_by_enumeration, 2.0),
    ],
)
def test_nonconvex_prox_kernels_equal_enumeration_bit_for_bit(reg, oracle, shape_param):
    lam = reg.lam
    knots = np.array([0.0, -0.0, lam, -lam, shape_param * lam, -shape_param * lam])
    rng = np.random.default_rng(31)
    for trial in range(200):
        m = int(rng.integers(1, 30))
        v = rng.uniform(-8.0, 8.0, m) * rng.choice([1e-7, 1.0, 1.0], m)
        if trial % 2:
            v[: min(m, knots.size)] = knots[: min(m, knots.size)]
        w = reg.rho + rng.uniform(1e-9, 5.0, m) * rng.choice([1e-8, 1.0, 1.0], m)
        for vv, ww in ((v, w), (v, w[0]), (v[0], w[0]), (np.array(v[0]), np.array(w[0]))):
            assert same_bits(scalar_prox(reg, ww, vv), oracle(reg, vv, ww)), (vv, ww)
    for k in knots:  # every knot as a 0-d input
        for ww in (reg.rho + 1e-9, reg.rho + 0.5, reg.rho + 40.0):
            assert same_bits(scalar_prox(reg, ww, k), oracle(reg, k, ww)), (k, ww)
    with pytest.raises(ValueError):
        scalar_prox(reg, reg.rho, 1.0)
    with pytest.raises(ValueError):
        scalar_prox(reg, np.array([reg.rho + 1.0, reg.rho]), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "reg",
    [ZeroPenalty(), L1Penalty(1.0), SquaredL2Penalty(1.0), ScadPenalty(1.0, 3.7), McpPenalty(1.0, 2.0)],
    ids=lambda r: r.kind,
)
def test_nan_prox_weight_is_rejected(reg):
    with pytest.raises(ValueError):
        scalar_prox(reg, np.nan, 2.0)
    with pytest.raises(ValueError):
        scalar_prox(reg, np.array([reg.rho + 1.0, np.nan]), np.array([2.0, -1.0]))


# ---------------------------------------------------------------------------
# prox_value: the prox and phi at it from one call


class OneSided(Regularizer):
    """A custom penalty that is not even: phi(t) = lam * max(t, 0)."""

    lam = 0.6

    def value(self, t):
        return self.lam * np.maximum(np.asarray(t, dtype=float), 0.0)

    def prox(self, v, w):
        v = np.asarray(v, dtype=float)
        return np.where(v > self.lam / w, v - self.lam / w, np.minimum(v, 0.0))


def _special_stack(reg, w):
    """(k, b) stack of the values where the prox kinks or breaks, plus
    random fill; row j is built for the weight w[j]."""
    lam = getattr(reg, "lam", 1.0)
    shape = getattr(reg, "a", getattr(reg, "gamma", 2.0))
    rng = np.random.default_rng(17)
    rows = []
    for wj in np.ravel(w):
        knots = [0.0, -0.0, lam, -lam, shape * lam, -shape * lam,
                 lam * (1.0 + 1.0 / wj), -lam * (1.0 + 1.0 / wj), np.inf, -np.inf, np.nan]
        rows.append(np.concatenate((knots, rng.uniform(-3.0, 3.0, 5) * lam)))
    return np.array(rows)


KIND_PARAMS = {"zero": {}, "l1": {"lam": 0.7}, "squared-l2": {"mu": 1.3},
               "scad": {"lam": 0.7, "a": 3.7}, "mcp": {"lam": 0.7, "gamma": 2.5}}


def test_every_penalty_kind_has_prox_value_parameters():
    assert KIND_PARAMS.keys() == _REG_KINDS.keys()


@pytest.mark.parametrize(
    "reg",
    [*(make_regularizer(kind, **params) for kind, params in KIND_PARAMS.items()), OneSided()],
    ids=[*KIND_PARAMS, "one-sided"],
)
def test_prox_value_is_the_prox_and_its_value_bit_for_bit(reg):
    for w in (reg.rho + 0.9, reg.rho + np.array([[1e-6], [0.5], [2.0], [40.0]])):
        v = _special_stack(reg, np.broadcast_to(w, (4, 1)))
        with np.errstate(invalid="ignore"):  # the +-inf entries make inf - inf
            t, phi = reg.prox_value(v, w)
            t_ref = reg.prox(v, w)
            phi_ref = reg.value(t_ref)
        for got, want in ((t, t_ref), (phi, phi_ref)):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_block_target_with_value_checks_the_weight_like_scalar_prox():
    reg = ScadPenalty(1.0, 3.0)  # rho = 0.5
    x, g = np.array([[0.3, -2.0]]), np.array([[0.1, 0.2]])
    t, phi = block_target(reg, 1.0, 0.5, x, g, with_value=True)
    assert np.array_equal(t, block_target(reg, 1.0, 0.5, x, g))
    assert np.array_equal(phi, reg.value(t))
    for with_value in (False, True):
        with pytest.raises(ValueError, match="semi-convexity"):
            block_target(reg, 1.0, 2.0, x, g, with_value=with_value)


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
def test_prox_takes_a_list_or_int_weight_like_its_array(kind):
    reg = make_regularizer(kind, **KIND_PARAMS[kind])
    w, v = [reg.rho + 0.9, reg.rho + 2.0], [0.3, -2.5]
    want = scalar_prox(reg, np.array(w), np.array(v))
    assert np.array_equal(scalar_prox(reg, w, v), want)
    assert np.array_equal(reg.prox(v, w), want)
    t, phi = reg.prox_value(v, w)
    assert np.array_equal(t, want) and np.array_equal(phi, reg.value(want))
    assert np.array_equal(scalar_prox(reg, 3, v), scalar_prox(reg, 3.0, v))
    with pytest.raises(ValueError, match="semi-convexity"):
        scalar_prox(reg, [reg.rho + 1.0, reg.rho], v)
