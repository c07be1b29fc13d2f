import numpy as np
import pytest

from vbscd import (
    BregmanSchedule,
    bregman_distance,
    validate_schedule,
)
from vbscd.bregman import step_cap
from vbscd.instances import lasso_1d, lasso_random


def test_distance_by_hand():
    # D = 0.5 * 1.7 * ((2-0)^2 + (1-0)^2) = 4.25
    assert bregman_distance(1.7, np.zeros(2), np.array([2.0, 1.0])) == pytest.approx(4.25)
    assert bregman_distance(1.7, np.ones(2), np.ones(2)) == 0.0


def test_distance_symmetry_and_positivity():
    rng = np.random.default_rng(2)
    q = 1.7
    for _ in range(50):
        x, y = rng.standard_normal((2, 6))
        d = bregman_distance(q, x, y)
        assert d == pytest.approx(bregman_distance(q, y, x), rel=1e-15)
        assert d > 0


def test_sandwich_bounds_random_pairs():
    # an m != M schedule: every step's distance lies between (m/2)|d|^2 and (M/2)|d|^2
    rng = np.random.default_rng(4)
    sched = BregmanSchedule.alternating(0.7, 1.9, period=3, eps=0.1)
    m, M = sched.m, sched.M
    for k in range(200):
        x, y = rng.standard_normal((2, 8)) * 2
        d2 = float(np.sum((x - y) ** 2))
        D = bregman_distance(sched.generator(k), x, y)
        assert 0.5 * m * d2 - 1e-12 <= D <= 0.5 * M * d2 + 1e-12


def test_kernel_gradient_is_distance_slope():
    # d/dy_j D(x, y) = q (y_j - x_j); check by central differences
    q = 1.7
    x = np.array([0.3, -0.7, 1.1])
    y = np.array([-0.2, 0.4, 0.9])
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1e-6
        fd = (bregman_distance(q, x, y + e) - bregman_distance(q, x, y - e)) / 2e-6
        assert fd == pytest.approx(q * (y[j] - x[j]), abs=1e-6)


def test_generator_validation():
    # a kernel weight is refused unless finite and positive, when the
    # schedule is declared; the distance refuses points of unequal shape
    for q in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            BregmanSchedule.constant(q, 0.1)
    with pytest.raises(ValueError):
        bregman_distance(1.7, np.zeros(2), np.zeros(3))


def test_constant_schedule_passes_validation():
    p = lasso_1d()  # L = 1.01, convex penalty
    sched = BregmanSchedule.constant(1.0, 0.5)
    assert validate_schedule(sched, p) is None


def test_step_cap_violation_reported_at_zero():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.995)  # cap is 1/1.01 ~ 0.9901
    with pytest.raises(ValueError, match=r"^eps_hi = 0\.995 must be < min\(m/L, m/rho_max\) = "):
        validate_schedule(sched, p)


def test_cap_includes_semiconvexity_modulus():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    # rho = 1/gamma = 0.5 dominates L = 0 here, so the cap is m/rho = 2
    p = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    validate_schedule(BregmanSchedule.constant(1.0, 1.9), p)
    with pytest.raises(ValueError, match=r"^eps_hi = 2\.0 must be < min\(m/L, m/rho_max\) = 2\.0$"):
        validate_schedule(BregmanSchedule.constant(1.0, 2.0), p)


def test_step_cap_is_the_smaller_curvature_bound():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    assert step_cap(2.0, lasso_1d()) == 2.0 / 1.01  # convex penalty: m/L
    flat = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    assert step_cap(1.0, flat) == 2.0  # L = 0: m/rho with rho = 0.5


def test_constant_schedule_takes_a_step_rule():
    sched = BregmanSchedule.constant(2.0, (0.1, 0.8))
    assert (sched.m, sched.M, sched.eps_lo, sched.eps_hi) == (2.0, 2.0, 0.1, 0.8)
    assert [sched.step(k) for k in (0, 1, 100)] == [0.8, 0.4, 0.1]
    assert sched.generator(5) == 2.0


def test_alternating_schedule_weights_flip():
    sched = BregmanSchedule.alternating(1.0, 2.0, period=3, eps=0.25)
    assert sched.generator(0) == 1.0
    assert sched.generator(2) == 1.0
    assert sched.generator(3) == 2.0
    assert sched.generator(6) == 1.0
    assert (sched.m, sched.M) == (1.0, 2.0)


def test_alternating_schedule_validates_on_instance():
    p = lasso_random(n=10, n_blocks=2, seed=1)
    cap = 1.0 / p.smooth.lipschitz
    sched = BregmanSchedule.alternating(1.0, 1.5, period=2, eps=0.9 * cap)
    assert validate_schedule(sched, p) is None


def test_out_of_range_weights_detected_mid_horizon():
    # weights outside (0, inf) or an inverted [m, M] are refused when the
    # schedule is declared, so no k of the horizon can leave [m, M]
    for m, M in ((2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError):
            BregmanSchedule(m=m, M=M, period=1, eps_lo=0.1, eps_hi=0.1)
    sched = BregmanSchedule.alternating(1.0, 2.0, period=3, eps=0.1)
    for k in (3, 4999, 5000, 9998):
        assert sched.m <= sched.generator(k) <= sched.M
    assert sched.generator(3) == 2.0


def test_step_outside_declared_range_detected():
    # an inverted or non-positive step band is refused when declared; a band
    # whose eps_hi reaches the cap is reported by validation
    for eps_lo, eps_hi in ((0.5, 0.2), (0.0, 0.2), (-0.1, 0.2)):
        with pytest.raises(ValueError):
            BregmanSchedule(m=1.0, M=1.0, period=1, eps_lo=eps_lo, eps_hi=eps_hi)
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, (0.1, 0.995))  # cap ~ 0.9901
    with pytest.raises(ValueError, match=r"^eps_hi = 0\.995 must be <"):
        validate_schedule(sched, p)
    assert all(0.1 <= sched.step(k) <= 0.995 for k in (0, 5, 9, 10**4))


def test_harmonic_clipped_rule():
    sched = BregmanSchedule.constant(1.0, (0.1, 0.8))
    assert sched.step(0) == 0.8
    assert sched.step(1) == 0.4
    assert sched.step(7) == pytest.approx(0.1)  # 0.8/8 exactly at the clip
    assert sched.step(100) == 0.1
    with pytest.raises(ValueError):
        BregmanSchedule.constant(1.0, (0.5, 0.4))


def test_schedule_declared_bounds_validated():
    with pytest.raises(ValueError):
        BregmanSchedule.constant(1.0, -0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.alternating(2.0, 1.0, 1, 0.1)  # q_lo > q_hi


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_schedule_rejects_non_finite_weights_and_steps(bad):
    with pytest.raises(ValueError):
        BregmanSchedule.constant(bad, 0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.alternating(1.0, bad, 2, 0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.constant(1.0, bad)
    with pytest.raises(ValueError):
        BregmanSchedule.constant(1.0, (0.1, bad))


def _every_factory_form():
    for q_lo, q_hi, period in ((1.5, 1.5, 1), (1.0, 1.25, 1), (0.5, 2.0, 3)):
        for eps in (0.1, (0.01, 0.1)):
            if q_lo == q_hi:
                yield BregmanSchedule.constant(q_lo, eps)
            yield BregmanSchedule.alternating(q_lo, q_hi, period, eps)


def test_at_gives_each_k_its_generator_weight_and_step():
    # constant, alternating with q_lo < q_hi and with q_lo == q_hi, each with
    # a constant and a harmonic-clipped step (clipped from k = 9 on)
    for sched in _every_factory_form():
        for ks in (np.arange(200), np.arange(10**6 - 7, 10**6 + 40)):
            q, e = sched.at(ks)
            assert q.shape == e.shape == (len(ks), 1)
            want_q = np.array([sched.generator(k) for k in ks.tolist()])
            want_e = np.array([sched.step(k) for k in ks.tolist()])
            assert q.tobytes() == want_q.tobytes()
            assert e.tobytes() == want_e.tobytes()
        assert len(set(q.ravel().tolist())) == (1 if sched.m == sched.M else 2)


def test_schedule_bounds_hold_by_construction(monkeypatch):
    ks = range(10**4)
    p = lasso_random(n=4, n_blocks=2, seed=2)
    for sched in _every_factory_form():
        steps = np.array([sched.step(k) for k in ks])
        assert np.all((sched.eps_lo <= steps) & (steps <= sched.eps_hi))
        weights = set(map(sched.generator, ks))
        assert weights == {sched.m, sched.M}

        # validation reads the declared bounds only, never the per-k maps
        def forbidden(self, k):
            raise AssertionError("validate_schedule walked the schedule")

        with monkeypatch.context() as mp:
            mp.setattr(BregmanSchedule, "generator", forbidden)
            mp.setattr(BregmanSchedule, "step", forbidden)
            assert validate_schedule(sched, p) is None
