import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vbscd import (
    BregmanSchedule,
    SolverConfig,
    auto_neighborhood,
    compute_constants,
    contraction_audit,
    coordinate_prox,
    coordinate_prox_all,
    fit_linear_rate,
    in_neighborhood,
    make_regularizer,
    run,
)
from vbscd.diagnostics import (
    GridProxOracle,
    check_level_dominance,
    check_value_proximity,
    expectation_identities,
    make_check,
    worst_check,
    worst_row,
    write_report_csv,
)
from vbscd.harness import probed_constants, resolve_reference_value
from vbscd.instances import lasso_1d, lasso_random, quad_1d
from vbscd.model import SquaredL2Penalty
from vbscd.probes import gap_floor


# ---------------------------------------------------------------------------
# expectation identities


def test_identities_tight_on_random_lasso():
    p = lasso_random(n=12, n_blocks=4, seed=5)
    q = 1.2
    eps = 0.5 * 0.9 / p.smooth.lipschitz
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(12)
        errs = expectation_identities(p, q, eps, x, coordinate_prox_all(p, q, eps, x))
        assert set(errs) == {"mean-point", "penalty-mixing", "squared-step"}
        for name, err in errs.items():
            assert err <= 1e-12, f"{name} error {err}"


def test_identities_tight_with_nonuniform_weights():
    # an m != M schedule: the weight of step k enters every identity
    p = lasso_random(n=10, n_blocks=5, seed=9)
    sched = BregmanSchedule.alternating(0.8, 2.0, 1, 0.5 * 0.8 / p.smooth.lipschitz)
    rng = np.random.default_rng(1)
    for k in range(10):
        q, eps, x = sched.generator(k), sched.step(k), rng.standard_normal(10)
        errs = expectation_identities(p, q, eps, x, coordinate_prox_all(p, q, eps, x))
        assert max(errs.values()) <= 1e-12


def test_enumeration_with_one_block_is_the_full_update():
    p = lasso_1d()
    q = 1.0
    x = np.array([0.7])
    t = coordinate_prox(p, q, 0.5, x, 0)
    via_mean = coordinate_prox_all(p, q, 0.5, x).mean(axis=0)
    assert np.allclose(via_mean, t, atol=1e-15)


# ---------------------------------------------------------------------------
# constants


def test_constants_worked_example():
    c = compute_constants(m=1.0, M=1.0, L=1.0, eps_lo=0.5, eps_hi=0.5,
                          N=2, c0=1.0, eta=1.0, nu=1.0)
    assert c.a == 0.5
    assert c.theta1 == 4.0
    assert c.theta2 == 2.5
    assert c.kappa == 40.0
    assert c.b == 322.0
    assert c.beta == 321.0 / 322.0
    assert c.n_min == 8.0
    assert c.level_window == 1.0 / 8.0


def test_constants_validation():
    good = dict(m=1.0, M=1.0, L=1.0, eps_lo=0.5, eps_hi=0.5, N=2, c0=1.0,
                eta=1.0, nu=1.0)
    with pytest.raises(ValueError, match="m <= M"):
        compute_constants(**{**good, "M": 0.5})
    with pytest.raises(ValueError, match="eps_hi"):
        compute_constants(**{**good, "eps_hi": 1.0})  # hits the m/L cap
    with pytest.raises(ValueError, match="eps_lo"):
        compute_constants(**{**good, "eps_lo": 0.9})  # eps_lo > eps_hi
    with pytest.raises(ValueError, match="N"):
        compute_constants(**{**good, "N": 0})
    with pytest.raises(ValueError, match="eta"):
        compute_constants(**{**good, "nu": 0.0})


def test_probed_constants_pull_schedule_data():
    # m, M, eps_lo and eps_hi all differ, so each is seen read from its own field
    p = lasso_random(n=8, n_blocks=4, seed=2)
    L = p.smooth.lipschitz
    sched = BregmanSchedule.alternating(1.0, 2.0, 3, (0.1 / L, 0.4 / L))
    ref = resolve_reference_value(p, sched)
    cfg = SimpleNamespace(probe={"samples": 200})
    c, est = probed_constants(cfg, p, sched, ref, 2.0, 3.0, np.random.default_rng(0))
    assert (c.m, c.M, c.eps_lo, c.eps_hi) == (1.0, 2.0, sched.eps_lo, sched.eps_hi)
    assert c.N == 4
    assert c.L == L
    assert c.c0 == 1.1 * est.value  # the probed constant, inflated
    assert (c.eta, c.nu) == (2.0, 3.0)


# ---------------------------------------------------------------------------
# neighborhood membership and the local checks


def test_in_neighborhood_uses_strict_value_window():
    p = quad_1d(0.0)
    x_bar = np.zeros(1)
    # the reference point itself fails the strict lower bound F(x) > f_bar
    assert not in_neighborhood(p, x_bar, x_bar, 0.0, radius=1.0, window=0.5)
    assert in_neighborhood(p, np.array([0.3]), x_bar, 0.0, radius=1.0, window=0.5)
    # outside the ball
    assert not in_neighborhood(p, np.array([1.5]), x_bar, 0.0, radius=1.0, window=9.0)
    # above the window
    assert not in_neighborhood(p, np.array([0.9]), x_bar, 0.0, radius=1.0, window=0.1)


def scalar_constants():
    return compute_constants(m=1.0, M=1.0, L=1.0, eps_lo=0.5, eps_hi=0.5,
                             N=1, c0=1.0, eta=1.0, nu=1.0)


def test_value_proximity_gates_on_hypothesis():
    p = quad_1d(0.0)
    q = 1.0
    c = scalar_constants()
    x = np.array([5.0])
    far = check_value_proximity(p, q, 0.5, x, coordinate_prox_all(p, q, 0.5, x), np.zeros(1), 0.0, c)
    assert far == []


def test_value_proximity_rows_hold_on_scalar_quadratic():
    p = quad_1d(0.0)
    q = 1.0
    c = scalar_constants()
    x = np.array([0.3])
    rows = check_value_proximity(p, q, 0.5, x, coordinate_prox_all(p, q, 0.5, x), np.zeros(1), 0.0, c)
    assert len(rows) == 6
    assert all(r.passed for r in rows)
    by_name = {r.name: r for r in rows}
    # dist to the solution set is |x| = 0.3; theta1 * |T(x) - x| = 4 * 0.15
    r = by_name["i-sublevel-vs-step"]
    assert r.lhs == pytest.approx(0.3) and r.rhs == pytest.approx(0.6)
    # envelope gap vs distance: E(x) - f_bar <= theta2 * dist^2 = 2.5 * 0.09
    r = by_name["ii-envelope-vs-distance"]
    assert r.rhs == pytest.approx(2.5 * 0.3**2)


def test_level_dominance_flips_with_reference_level():
    p = quad_1d(0.0)
    q = 1.0
    c = scalar_constants()
    x = np.array([0.3])
    targets = coordinate_prox_all(p, q, 0.5, x)
    ok = check_level_dominance(p, x, targets, np.zeros(1), 0.0, c)
    assert len(ok) == 4 and all(r.passed for r in ok)
    # raise the "reference level" above F(T(x)) = 0.01125 and it must fail
    bad = check_level_dominance(p, x, targets, np.zeros(1), 0.05, c)
    assert not all(r.passed for r in bad)


# ---------------------------------------------------------------------------
# contraction audit


def test_contraction_audit_on_small_lasso():
    p = lasso_random(n=6, n_blocks=3, seed=11)
    eps = 0.5 * 1.0 / p.smooth.lipschitz
    sched = BregmanSchedule.constant(1.0, eps)
    trajs = [
        run(p, SolverConfig(schedule=sched, max_iters=400, tolerance=0.0, seed=s),
            x0=0.05 * np.ones(6))
        for s in (0, 1)
    ]
    x_bar = trajs[0].final_point
    f_bar = min(float(t.objectives().min()) for t in trajs)
    eta, nu = auto_neighborhood(p, sched, x_bar,
                                points=[t.points[:1] for t in trajs])
    c = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo, sched.eps_hi,
                          p.n_blocks, c0=2.0, eta=eta, nu=nu)
    audit = contraction_audit(p, sched, trajs, x_bar, f_bar, c)
    assert audit.checked > 0
    assert audit.violations == 0
    assert audit.worst_margin >= -1e-9


def test_auto_neighborhood_covers_supplied_points():
    p = lasso_random(n=6, n_blocks=3, seed=11)
    sched = BregmanSchedule.constant(1.0, 0.4 / p.smooth.lipschitz)
    x_bar = np.zeros(6)
    pts = [np.full(6, 0.3), np.full(6, -0.2)]
    eta, nu = auto_neighborhood(p, sched, x_bar, points=[np.array(pts)])
    # the same points split over stacks, one of them empty
    split = [np.array(pts[:1]), np.empty((0, 6)), np.array(pts[1:])]
    assert auto_neighborhood(p, sched, x_bar, points=split) == (eta, nu)
    f_bar = p.objective(x_bar)
    for x in pts:
        assert np.linalg.norm(x - x_bar) <= eta / 2
        assert p.objective(x) - f_bar <= nu


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_recovers_exact_geometric_decay():
    gaps = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    rep = fit_linear_rate(gaps)
    assert rep.factor == pytest.approx(0.5, rel=1e-12)
    assert rep.r_squared == pytest.approx(1.0)
    assert (rep.window_start, rep.window_stop) == (0, 5)
    assert rep.contracting


def test_fit_flat_sequence_is_not_contracting():
    rep = fit_linear_rate(np.ones(10))
    assert rep.factor == pytest.approx(1.0)
    assert not rep.contracting


def test_fit_skips_burn_in_before_the_clean_decay():
    head = np.array([100.0, 90.0, 80.0])
    tail = 5.0 * 0.7 ** np.arange(12)
    rep = fit_linear_rate(np.concatenate([head, tail]))
    assert rep.window_start == 3
    assert rep.factor == pytest.approx(0.7, rel=1e-10)
    assert rep.r_squared > 0.999


def test_fit_window_stops_at_the_noise_floor():
    gaps = 0.5 ** np.arange(80)  # underflows past ~1e-14 around k = 47
    rep = fit_linear_rate(gaps)
    assert rep.window_stop < 60
    assert rep.factor == pytest.approx(0.5, rel=1e-9)


def test_fit_rejects_a_gap_negative_beyond_the_floor():
    decay = 0.5 ** np.arange(20)
    with pytest.raises(ValueError, match=r"^mean gap -1e-06 at k=20 is below -gap_floor"):
        fit_linear_rate(np.append(decay, -1e-6))
    # a gap only within the floor is rounding: it closes the window, as a zero does
    rep = fit_linear_rate(np.append(decay, -0.5 * gap_floor(0.0)))
    assert rep.window_stop == 20
    assert rep.factor == pytest.approx(0.5, rel=1e-12)


def test_fit_rejects_short_and_degenerate_input():
    with pytest.raises(ValueError, match="fewer than"):
        fit_linear_rate([1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="fewer than"):
        fit_linear_rate(np.full(10, 1e-20))  # everything under the floor
    with pytest.raises(ValueError, match="1-D"):
        fit_linear_rate(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# grid prox oracle, check rows, report files


def test_grid_oracle_matches_soft_threshold():
    oracle = GridProxOracle(make_regularizer("l1", lam=1.0), lo=-5.0, hi=5.0, step=1e-4)
    t, val = oracle.query(2.0, 3.0)
    assert t == pytest.approx(2.5, abs=1e-4)
    assert val == pytest.approx(2.75, abs=1e-8)


def grid_argmin_one_shot(reg, w, v, lo=-10.0, hi=10.0, step=1e-5):
    """The whole-grid scan: every point, every value, one np.argmin."""
    ts = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    vals = np.asarray(reg.value(ts), dtype=float) + 0.5 * w * np.square(ts - v)
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


@pytest.mark.parametrize(
    "kind, params",
    [("l1", {"lam": 1.3}), ("scad", {"lam": 0.9, "a": 3.7}), ("mcp", {"lam": 0.8, "gamma": 4.0})],
)
def test_chunked_grid_oracle_equals_one_shot_scan(kind, params):
    reg = make_regularizer(kind, **params)
    step, count = 5e-5, 2 * GridProxOracle.CHUNK + 123  # not a whole number of chunks
    lo, hi = -3.0, -3.0 + step * (count - 1)
    oracle = GridProxOracle(reg, lo=lo, hi=hi, step=step)
    assert oracle.count == count
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = reg.rho + rng.uniform(0.1, 3.1)
        v = rng.uniform(-5.0, 5.0)  # some argmins sit on the grid's ends
        assert oracle.query(w, v) == grid_argmin_one_shot(reg, w, v, lo, hi, step)
    # the default 2,000,001-point grid, and a NaN query
    oracle = GridProxOracle(reg)
    for w, v in ((reg.rho + 0.7, 2.3), (reg.rho + 2.9, -9.99)):
        assert oracle.query(w, v) == grid_argmin_one_shot(reg, w, v)
    with pytest.raises(ValueError, match="w = nan, v = 1.0"):
        oracle.query(np.nan, 1.0)


def test_grid_oracle_tie_across_chunks_goes_to_the_earlier_point():
    reg = SquaredL2Penalty(1.0)
    chunk = GridProxOracle.CHUNK
    lo = -(chunk - 0.5)  # points chunk-1 and chunk (first of the next) are -0.5 and 0.5
    oracle = GridProxOracle(reg, lo=lo, hi=lo + chunk + 9, step=1.0)
    # 0.5 * 0.25 + 0.5 * 0.25 = 0.25 exactly at both points
    assert oracle.query(1.0, 0.0) == (-0.5, 0.25)
    assert oracle.query(1.0, 0.0) == grid_argmin_one_shot(reg, 1.0, 0.0, lo, lo + chunk + 9, 1.0)


def test_grid_oracle_memory_stays_bounded():
    oracle = GridProxOracle(make_regularizer("scad", lam=0.9, a=3.7))
    assert oracle.count == 2_000_001
    # no grid is kept: three numbers per chunk of points
    held = sum(a.nbytes for a in vars(oracle).values() if isinstance(a, np.ndarray))
    assert held == 3 * 8 * oracle.g_min.size
    tracemalloc.start()
    try:
        oracle.query(1.3, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("kwargs, name", [
    ({"step": 0.0}, "step"),
    ({"step": -1e-5}, "step"),
    ({"step": np.nan}, "step"),
    ({"step": np.inf}, "step"),
    ({"lo": np.nan}, "lo"),
    ({"lo": -np.inf}, "lo"),
    ({"hi": np.inf}, "hi"),
    ({"lo": 1.0, "hi": 0.5}, "hi"),
])
def test_grid_oracle_rejects_bad_grids(kwargs, name):
    with pytest.raises(ValueError, match=name):
        GridProxOracle(make_regularizer("l1", lam=1.0), **kwargs)


# 5 whole chunks and 77 more points
SMALL_GRID = {"lo": -3.0, "hi": -3.0 + 2e-4 * (5 * GridProxOracle.CHUNK + 76), "step": 2e-4}

BOUND_REGS = [
    make_regularizer("l1", lam=1.3),
    make_regularizer("scad", lam=0.9, a=3.7),
    make_regularizer("mcp", lam=0.8, gamma=4.0),
    SquaredL2Penalty(0.7),
    make_regularizer("zero"),
]


def same_bits(a, b):
    return np.array(a, dtype=float).view(np.int64).tolist() == np.array(b, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("reg", BOUND_REGS, ids=lambda reg: reg.kind)
def test_grid_oracle_chunk_bound_is_below_every_scanned_value(reg):
    oracle = GridProxOracle(reg, **SMALL_GRID)
    chunk, count = GridProxOracle.CHUNK, oracle.count
    ts = SMALL_GRID["lo"] + SMALL_GRID["step"] * np.arange(count)
    rng = np.random.default_rng(29)
    # v beyond the grid on both sides, and w = 0
    queries = [(0.0, rng.uniform(-5.0, 5.0)) for _ in range(3)]
    queries += [(rng.uniform(0.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(30)]
    for w, v in queries:
        lb = oracle.lower_bounds(0.5 * w, v)
        vals = np.full(oracle.g_min.size * chunk, np.inf)
        vals[:count] = np.asarray(reg.value(ts), dtype=float) + 0.5 * w * np.square(ts - v)
        chunk_min = vals.reshape(-1, chunk).min(axis=1)
        assert lb.shape == chunk_min.shape
        assert np.all(lb <= chunk_min)
        assert same_bits(oracle.query(w, v), grid_argmin_one_shot(reg, w, v, **SMALL_GRID))


class _StubPenalty:
    """Penalty values from a function of the grid point, for edge cases."""

    def __init__(self, fn):
        self.value = fn


def test_grid_oracle_edge_penalties_equal_the_one_shot_scan():
    def nan_and_inf(t):
        g = np.abs(t - 0.3)
        g[np.isin(np.round(t / SMALL_GRID["step"]), (-9000, 1234, 5000))] = np.nan
        g[(t > 0.5) & (t < 0.9)] = np.inf
        return g

    def minus_inf(t):  # -inf at points 1 and 1000 of chunk 0, and at point 18000 in chunk 4
        return np.where(np.isin(np.round(t / SMALL_GRID["step"]), (-14999, -14000, 3000)), -np.inf, np.abs(t))

    regs = [make_regularizer("l1", lam=1.3), make_regularizer("scad", lam=0.9, a=3.7),
            _StubPenalty(nan_and_inf), _StubPenalty(lambda t: np.where((t > -1.0) & (t < 0.0), np.inf, t * t)),
            _StubPenalty(minus_inf)]
    queries = [(0.0, 0.4), (0.0, -7.0), (3.0, -0.5), (1.0, 0.4), (2.0, 9.0), (5e3, 0.55)]
    for reg in regs:
        oracle = GridProxOracle(reg, **SMALL_GRID)
        for w, v in queries:
            assert same_bits(oracle.query(w, v), grid_argmin_one_shot(reg, w, v, **SMALL_GRID)), (w, v)
    # a NaN penalty value gives a NaN bound; the query scans the first such chunk alone
    oracle = GridProxOracle(regs[2], **SMALL_GRID)
    assert np.isnan(oracle.lower_bounds(1.0, 0.4)).tolist() == [False, True, False, True, True, False]
    assert oracle.nan_scan == [1] and GridProxOracle(regs[4], **SMALL_GRID).nan_scan == []
    t, val = oracle.query(1.0, 0.4)
    assert np.isnan(val) and t == SMALL_GRID["lo"] + SMALL_GRID["step"] * (15000 - 9000)


_UNIT_GRID = {"lo": 0.0, "hi": 3.0 * GridProxOracle.CHUNK - 1, "step": 1.0}
_WIDE_GRID = {"lo": 0.0, "hi": (2.0 * GridProxOracle.CHUNK - 1) * 2e150, "step": 2e150}


@pytest.mark.parametrize("grid, w, v", [
    (SMALL_GRID, np.nan, 0.4),
    (SMALL_GRID, np.inf, 0.4),
    (SMALL_GRID, -np.inf, 0.4),
    (SMALL_GRID, -1.0, 0.4),
    (SMALL_GRID, 1.0, np.nan),
    (SMALL_GRID, 1.0, np.inf),
    (SMALL_GRID, 0.0, -np.inf),
    (_UNIT_GRID, 2e302, 2.0 * GridProxOracle.CHUNK + 100),  # (w/2) d^2 overflows at the far end
    (SMALL_GRID, 0.0, 1e200),  # d^2 overflows, and 0 * inf is NaN
    (_WIDE_GRID, 0.0, 0.0),  # d^2 overflows at the far end though v is on the grid
], ids=["w-nan", "w-inf", "w-minus-inf", "w-negative", "v-nan", "v-inf", "v-minus-inf",
        "square-times-w-overflows", "square-overflows-at-w-0", "square-overflows-on-the-grid"])
def test_grid_oracle_rejects_queries_its_bound_cannot_prune(grid, w, v):
    oracle = GridProxOracle(make_regularizer("l1", lam=1.0), **grid)
    named = re.escape(f"w = {float(w)}, v = {float(v)}")
    with pytest.raises(ValueError, match=named):
        oracle.lower_bounds(0.5 * w, v)
    with pytest.raises(ValueError, match=named):
        oracle.query(w, v)


def test_grid_oracle_penalty_may_return_its_argument():
    # phi(t) = t handed back as the very array of points the oracle passed in
    reg = _StubPenalty(lambda t: t)
    oracle = GridProxOracle(reg, **SMALL_GRID)
    for w, v in ((1.0, 0.4), (3.0, -2.0), (0.5, 9.0)):
        assert same_bits(oracle.query(w, v), grid_argmin_one_shot(reg, w, v, **SMALL_GRID))


def test_grid_oracle_tie_found_out_of_order_goes_to_the_earlier_point():
    chunk = GridProxOracle.CHUNK
    v = chunk + 3.0  # in chunk 1; points are t = 0, 1, 2, ...
    # value (t - v)^2 + g(t): 0 at t = v, and 0 at t = chunk - 1 in chunk 0;
    # g = -1 far from v makes chunk 1's bound the lowest, so it goes first
    reg = _StubPenalty(lambda t: np.where(t == chunk - 1, -(chunk - 1 - v) ** 2,
                                          np.where(t == 2 * chunk - 1, -1.0, 0.0)))
    grid = {"lo": 0.0, "hi": 2.0 * chunk + 4, "step": 1.0}
    oracle = GridProxOracle(reg, **grid)
    lb = oracle.lower_bounds(1.0, v)
    assert lb[1] < lb[0] <= 0.0 < lb[2]
    assert same_bits(oracle.query(2.0, v), (chunk - 1.0, 0.0))
    assert same_bits(oracle.query(2.0, v), grid_argmin_one_shot(reg, 2.0, v, **grid))


@pytest.mark.parametrize("reg", [make_regularizer("l1", lam=1.0), make_regularizer("scad", lam=1.0, a=3.7),
                                 make_regularizer("mcp", lam=1.0, gamma=3.0)], ids=lambda reg: reg.kind)
def test_grid_oracle_scans_few_chunks_on_verify_queries(reg, monkeypatch):
    oracle = GridProxOracle(reg)
    assert oracle.g_min.size == 489
    scanned = []
    penalty = GridProxOracle._penalty  # once per chunk a query scans

    def spy(self, *args):
        scanned[-1] += 1
        return penalty(self, *args)

    monkeypatch.setattr(GridProxOracle, "_penalty", spy)
    rng = np.random.default_rng(41)
    for _ in range(48):  # the verify suite's query distribution
        w = reg.rho + 0.1 + 4.9 * rng.random()
        v = -5.0 + 10.0 * rng.random()
        scanned.append(0)
        oracle.query(w, v)
    # the bound is loose near the minimiser by about 2 |phi'| times a
    # chunk's width, so small w needs tens of chunks; the full scan is 489
    assert max(scanned) <= 40 and np.mean(scanned) <= 12, scanned


def test_make_check_slack_and_verdict():
    ok = make_check("kernel", "sandwich", 1.0, 2.0, 1e-9)
    assert ok.slack == 1.0 and ok.passed
    bad = make_check("kernel", "fails", 2.5, 2.0, 0.1)
    assert bad.slack == -0.5 and not bad.passed
    # a NaN slack never passes, not even as inf - inf, where lhs <= rhs + tol
    assert not make_check("kernel", "nan", np.nan, 0.0, 1.0).passed
    assert not make_check("kernel", "inf", np.inf, np.inf, 0.0).passed


def test_worst_check_reports_the_first_smallest_slack():
    row = worst_check("kernel", "group", [1.0, 3.0, 2.5, 3.0], [2.0, 3.5, 2.0, 3.5], 0.1)
    assert (row.lhs, row.rhs, row.slack, row.passed) == (2.5, 2.0, -0.5, False)
    row = worst_check("kernel", "group", [0.0, 1.0, 1.0], 1.0, 1e-9)
    assert (row.lhs, row.slack, row.passed) == (1.0, 0.0, True)
    assert worst_check("kernel", "group", [], [], 0.0) is None


@pytest.mark.parametrize("lhs, rhs, j", [
    ([0.0, np.nan, 0.5, np.nan], [1.0, 1.0, 1.0, 1.0], 1),
    ([0.0, 0.5, 0.5], [1.0, 1.0, np.nan], 2),
    ([0.0, np.inf, -2.0], [1.0, np.inf, 1.0], 1),
])
def test_a_nan_anywhere_in_a_group_fails_it(lhs, rhs, j):
    # the first NaN slack is the worst, below any number
    row = worst_check("kernel", "group", lhs, rhs, 1e-9)
    assert np.isnan(row.slack) and not row.passed
    assert np.array_equal([row.lhs, row.rhs], [lhs[j], rhs[j]], equal_nan=True)
    rows = [make_check("kernel", "group", a, b, 1e-9) for a, b in zip(lhs, rhs)]
    assert worst_row(rows) is rows[j]


def test_report_csv_golden(tmp_path):
    rows = [
        make_check("kernel", "sandwich", 1.0, 2.0, 1e-9),
        make_check("kernel", "fails", 2.5, 2.0, 0.1),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    assert path.read_text() == (
        "check,name,lhs,rhs,slack,pass\n"
        "kernel,sandwich,1,2,1,true\n"
        "kernel,fails,2.5,2,-0.5,false\n"
    )
