import numpy as np
import pytest

from vbscd import (
    BregmanGenerator,
    BregmanSchedule,
    bregman_distance,
    validate_schedule,
)
from vbscd.bregman import step_cap
from vbscd.instances import lasso_1d, lasso_random


def test_distance_by_hand():
    # D = 0.5 * (1*(2-0)^2 + 2*(1-0)^2) = 3
    gen = BregmanGenerator(np.array([1.0, 2.0]))
    assert bregman_distance(gen, np.zeros(2), np.array([2.0, 1.0])) == pytest.approx(3.0)
    assert bregman_distance(gen, np.ones(2), np.ones(2)) == 0.0


def test_distance_symmetry_and_positivity():
    rng = np.random.default_rng(2)
    gen = BregmanGenerator(rng.uniform(0.5, 2.0, size=6))
    for _ in range(50):
        x, y = rng.standard_normal((2, 6))
        d = bregman_distance(gen, x, y)
        assert d == pytest.approx(bregman_distance(gen, y, x), rel=1e-15)
        assert d > 0


def test_sandwich_bounds_random_pairs():
    rng = np.random.default_rng(4)
    gen = BregmanGenerator(rng.uniform(0.7, 1.9, size=8))
    m, M = gen.m, gen.M
    for _ in range(200):
        x, y = rng.standard_normal((2, 8)) * 2
        d2 = float(np.sum((x - y) ** 2))
        D = bregman_distance(gen, x, y)
        assert 0.5 * m * d2 - 1e-12 <= D <= 0.5 * M * d2 + 1e-12


def test_kernel_gradient_is_distance_slope():
    # d/dy_j D(x, y) = q_j (y_j - x_j); check by central differences
    gen = BregmanGenerator(np.array([1.5, 0.5, 2.0]))
    x = np.array([0.3, -0.7, 1.1])
    y = np.array([-0.2, 0.4, 0.9])
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1e-6
        fd = (bregman_distance(gen, x, y + e) - bregman_distance(gen, x, y - e)) / 2e-6
        assert fd == pytest.approx(gen.weights[j] * (y[j] - x[j]), abs=1e-6)


def test_generator_validation():
    with pytest.raises(ValueError):
        BregmanGenerator(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        BregmanGenerator(np.ones((2, 2)))
    with pytest.raises(ValueError):
        BregmanGenerator(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        BregmanGenerator(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        bregman_distance(BregmanGenerator(np.ones(2)), np.zeros(3), np.zeros(3))


def test_constant_schedule_passes_validation():
    p = lasso_1d()  # L = 1.01, convex penalty
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    report = validate_schedule(sched, p)
    assert report.ok


def test_step_cap_violation_reported_at_zero():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, 0.995)  # cap is 1/1.01 ~ 0.9901
    report = validate_schedule(sched, p)
    assert not report.ok
    assert report.quantity == "eps_hi"


def test_cap_includes_semiconvexity_modulus():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    # rho = 1/gamma = 0.5 dominates L = 0 here, so the cap is m/rho = 2
    p = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    ok = validate_schedule(BregmanSchedule.constant(1, 1.0, 1.9), p)
    bad = validate_schedule(BregmanSchedule.constant(1, 1.0, 2.0), p)
    assert ok.ok and not bad.ok


def test_step_cap_is_the_smaller_curvature_bound():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    assert step_cap(2.0, lasso_1d()) == 2.0 / 1.01  # convex penalty: m/L
    flat = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    assert step_cap(1.0, flat) == 2.0  # L = 0: m/rho with rho = 0.5


def test_constant_schedule_takes_a_step_rule():
    sched = BregmanSchedule.constant(3, 2.0, (0.1, 0.8))
    assert (sched.m, sched.M, sched.eps_lo, sched.eps_hi) == (2.0, 2.0, 0.1, 0.8)
    assert [sched.step(k) for k in (0, 1, 100)] == [0.8, 0.4, 0.1]
    assert np.array_equal(sched.generator(5).weights, np.full(3, 2.0))


def test_alternating_schedule_weights_flip():
    sched = BregmanSchedule.alternating(4, 1.0, 2.0, period=3, eps=0.25)
    assert sched.generator(0).weights[0] == 1.0
    assert sched.generator(2).weights[0] == 1.0
    assert sched.generator(3).weights[0] == 2.0
    assert sched.generator(6).weights[0] == 1.0
    assert (sched.m, sched.M) == (1.0, 2.0)


def test_alternating_schedule_validates_on_instance():
    p = lasso_random(n=10, n_blocks=2, seed=1)
    cap = 1.0 / p.smooth.lipschitz
    sched = BregmanSchedule.alternating(10, 1.0, 1.5, period=2, eps=0.9 * cap)
    assert validate_schedule(sched, p).ok


def test_out_of_range_weights_detected_mid_horizon():
    # weights outside (0, inf) or an inverted [m, M] are refused when the
    # schedule is declared, so no k of the horizon can leave [m, M]
    for m, M in ((2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError):
            BregmanSchedule(n=2, m=m, M=M, period=1, eps_lo=0.1, eps_hi=0.1)
    sched = BregmanSchedule.alternating(2, 1.0, 2.0, period=3, eps=0.1)
    for k in (3, 4999, 5000, 9998):
        w = sched.generator(k).weights
        assert np.all((sched.m <= w) & (w <= sched.M))
    assert sched.generator(3).weights[0] == 2.0


def test_step_outside_declared_range_detected():
    # an inverted or non-positive step band is refused when declared; a band
    # whose eps_hi reaches the cap is reported by validation
    for eps_lo, eps_hi in ((0.5, 0.2), (0.0, 0.2), (-0.1, 0.2)):
        with pytest.raises(ValueError):
            BregmanSchedule(n=1, m=1.0, M=1.0, period=1, eps_lo=eps_lo, eps_hi=eps_hi)
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, (0.1, 0.995))  # cap ~ 0.9901
    report = validate_schedule(sched, p)
    assert not report.ok and report.quantity == "eps_hi"
    assert all(0.1 <= sched.step(k) <= 0.995 for k in (0, 5, 9, 10**4))


def test_each_generator_object_checked_once(monkeypatch):
    # generator weights are checked in BregmanGenerator.__post_init__; the
    # schedule builds each object once and hands the same one back at every k
    checks = []
    post_init = BregmanGenerator.__post_init__

    def counting(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(BregmanGenerator, "__post_init__", counting)
    sched = BregmanSchedule.alternating(2, 1.0, 2.0, period=1, eps=0.1)
    assert len(checks) == 2
    seen = {id(sched.generator(k)) for k in range(100)}
    assert seen == {id(g) for g in checks}
    assert validate_schedule(sched, lasso_random(n=2, n_blocks=1, seed=2)).ok
    assert len(checks) == 2


def test_harmonic_clipped_rule():
    sched = BregmanSchedule.constant(1, 1.0, (0.1, 0.8))
    assert sched.step(0) == 0.8
    assert sched.step(1) == 0.4
    assert sched.step(7) == pytest.approx(0.1)  # 0.8/8 exactly at the clip
    assert sched.step(100) == 0.1
    with pytest.raises(ValueError):
        BregmanSchedule.constant(1, 1.0, (0.5, 0.4))


def test_schedule_declared_bounds_validated():
    with pytest.raises(ValueError):
        BregmanSchedule.constant(2, 1.0, -0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.alternating(2, 2.0, 1.0, 1, 0.1)  # q_lo > q_hi


def test_validation_rejects_weights_of_the_wrong_length():
    p = lasso_random(n=2, n_blocks=1, seed=2)
    report = validate_schedule(BregmanSchedule.constant(3, 1.0, 0.1), p)
    assert not report.ok and report.quantity == "weights"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_schedule_rejects_non_finite_weights_and_steps(bad):
    with pytest.raises(ValueError):
        BregmanSchedule.constant(2, bad, 0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.alternating(2, 1.0, bad, 2, 0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.constant(2, 1.0, bad)
    with pytest.raises(ValueError):
        BregmanSchedule.constant(2, 1.0, (0.1, bad))


def _every_factory_form(n):
    for q_lo, q_hi, period in ((1.5, 1.5, 1), (1.0, 1.25, 1), (0.5, 2.0, 3)):
        for eps in (0.1, (0.01, 0.1)):
            if q_lo == q_hi:
                yield BregmanSchedule.constant(n, q_lo, eps)
            yield BregmanSchedule.alternating(n, q_lo, q_hi, period, eps)


def test_at_gives_each_k_its_generator_weight_and_step():
    # constant, alternating with q_lo < q_hi and with q_lo == q_hi, each with
    # a constant and a harmonic-clipped step (clipped from k = 9 on)
    for sched in _every_factory_form(4):
        for ks in (np.arange(200), np.arange(10**6 - 7, 10**6 + 40)):
            q, e = sched.at(ks)
            assert q.shape == e.shape == (len(ks), 1)
            want_q = np.array([sched.generator(k).weights[0] for k in ks.tolist()])
            want_e = np.array([sched.step(k) for k in ks.tolist()])
            assert q.tobytes() == want_q.tobytes()
            assert e.tobytes() == want_e.tobytes()
        assert len(set(q.ravel().tolist())) == (1 if sched.m == sched.M else 2)


def test_schedule_bounds_hold_by_construction(monkeypatch):
    ks = range(10**4)
    p = lasso_random(n=4, n_blocks=2, seed=2)
    for sched in _every_factory_form(4):
        steps = np.array([sched.step(k) for k in ks])
        assert np.all((sched.eps_lo <= steps) & (steps <= sched.eps_hi))
        gens = {id(g): g for g in map(sched.generator, ks)}
        assert len(gens) == (1 if sched.m == sched.M else 2)
        for g in gens.values():
            assert g.weights.shape == (4,)
            assert sched.m <= g.m and g.M <= sched.M

        # validation reads the declared bounds only, never the per-k maps
        def forbidden(self, k):
            raise AssertionError("validate_schedule walked the schedule")

        with monkeypatch.context() as mp:
            mp.setattr(BregmanSchedule, "generator", forbidden)
            mp.setattr(BregmanSchedule, "step", forbidden)
            assert validate_schedule(sched, p).ok
