import numpy as np
import pytest

from vbscd import (
    BregmanGenerator,
    BregmanSchedule,
    bregman_distance,
    harmonic_clipped,
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
        bregman_distance(BregmanGenerator(np.ones(2)), np.zeros(3), np.zeros(3))


def test_constant_schedule_passes_validation():
    p = lasso_1d()  # L = 1.01, convex penalty
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    report = validate_schedule(sched, p, horizon=100)
    assert report.ok


def test_step_cap_violation_reported_at_zero():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, 0.995)  # cap is 1/1.01 ~ 0.9901
    report = validate_schedule(sched, p, horizon=10)
    assert not report.ok
    assert report.first_violation_k == 0
    assert report.quantity == "eps_hi"


def test_cap_includes_semiconvexity_modulus():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    # rho = 1/gamma = 0.5 dominates L = 0 here, so the cap is m/rho = 2
    p = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    ok = validate_schedule(BregmanSchedule.constant(1, 1.0, 1.9), p, 5)
    bad = validate_schedule(BregmanSchedule.constant(1, 1.0, 2.0), p, 5)
    assert ok.ok and not bad.ok


def test_step_cap_is_the_smaller_curvature_bound():
    from vbscd import BlockPartition, McpPenalty, make_quadratic_problem

    assert step_cap(2.0, lasso_1d()) == 2.0 / 1.01  # convex penalty: m/L
    flat = make_quadratic_problem(
        np.zeros((1, 1)), np.zeros(1), [McpPenalty(1.0, 2.0)], BlockPartition((1,))
    )
    assert step_cap(1.0, flat) == 2.0  # L = 0: m/rho with rho = 0.5


def test_constant_schedule_takes_a_step_rule():
    sched = BregmanSchedule.constant(3, 2.0, (0.1, 0.8, harmonic_clipped(0.1, 0.8)))
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
    assert validate_schedule(sched, p, 50).ok


def test_out_of_range_weights_detected_mid_horizon():
    gens = {k: BregmanGenerator.uniform(2, 1.0) for k in range(10)}
    gens[3] = BregmanGenerator.uniform(2, 3.0)  # outside declared [1, 2]
    sched = BregmanSchedule(
        generator=lambda k: gens.get(k, gens[0]), step=lambda k: 0.1,
        m=1.0, M=2.0, eps_lo=0.1, eps_hi=0.1,
    )
    p = lasso_random(n=2, n_blocks=1, seed=2)
    report = validate_schedule(sched, p, 10)
    assert not report.ok
    assert report.first_violation_k == 3
    assert report.quantity == "weights"


def test_step_outside_declared_range_detected():
    steps = {5: 0.9}
    sched = BregmanSchedule(
        generator=lambda k: BregmanGenerator.uniform(1, 1.0),
        step=lambda k: steps.get(k, 0.2),
        m=1.0, M=1.0, eps_lo=0.1, eps_hi=0.5,
    )
    report = validate_schedule(sched, lasso_1d(), 10)
    assert not report.ok
    assert report.first_violation_k == 5
    assert report.quantity == "eps"


def test_harmonic_clipped_rule():
    rule = harmonic_clipped(0.1, 0.8)
    assert rule(0) == 0.8
    assert rule(1) == 0.4
    assert rule(7) == pytest.approx(0.1)  # 0.8/8 exactly at the clip
    assert rule(100) == 0.1
    with pytest.raises(ValueError):
        harmonic_clipped(0.5, 0.4)


def test_schedule_declared_bounds_validated():
    with pytest.raises(ValueError):
        BregmanSchedule.constant(2, 1.0, -0.1)
    with pytest.raises(ValueError):
        BregmanSchedule.alternating(2, 2.0, 1.0, 1, 0.1)  # q_lo > q_hi


class _CountingGenerator:
    """Duck-typed generator that counts reads of its weights."""

    def __init__(self, weights):
        self._weights = np.asarray(weights, dtype=float)
        self.reads = 0

    @property
    def weights(self):
        self.reads += 1
        return self._weights


def test_each_generator_object_checked_once():
    lo, hi = _CountingGenerator(np.full(2, 1.0)), _CountingGenerator(np.full(2, 2.0))
    sched = BregmanSchedule(
        generator=lambda k: (lo, hi)[k % 2], step=lambda k: 0.1,
        m=1.0, M=2.0, eps_lo=0.1, eps_hi=0.1,
    )
    assert validate_schedule(sched, lasso_random(n=2, n_blocks=1, seed=2), 100).ok
    assert (lo.reads, hi.reads) == (1, 1)


def test_fresh_generator_each_step_is_checked():
    # a new object per k, dropped right after: a reused id must not let the
    # bad generator at k = 20 pass as one already checked
    sched = BregmanSchedule(
        generator=lambda k: BregmanGenerator.uniform(2, 3.0 if k == 20 else 1.0),
        step=lambda k: 0.1, m=1.0, M=2.0, eps_lo=0.1, eps_hi=0.1,
    )
    report = validate_schedule(sched, lasso_random(n=2, n_blocks=1, seed=2), 30)
    assert not report.ok
    assert report.first_violation_k == 20
    assert report.quantity == "weights"
