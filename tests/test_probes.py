import numpy as np
import pytest

from vbscd import (
    EmptyNeighborhoodError,
    OracleMismatch,
    in_neighborhood,
    probe_bp_eb,
    probe_kl,
    probe_lt_eb,
    probe_ls_eb,
    sample_level_ball,
    write_probe_csv,
)
from vbscd.instances import diag_quadratic, quad_1d, quadratic_mcp
from vbscd.probes import cross_check, gap_floor
from vbscd.prox import full_prox


def fresh_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_in_neighborhood_stack_equals_its_rows_and_rejects_each_boundary():
    x_bar, f_bar, radius, window = np.zeros(3), 1.0, 1.0, 0.5
    lo, hi, out = f_bar + gap_floor(f_bar), f_bar + window, np.nextafter(radius, 2.0)
    cases = [  # (x_1, F, inside?)
        (0.5, 1.2, True),
        (radius, 1.2, True),                  # on the sphere
        (0.5, np.nextafter(lo, 2.0), True),   # just above the floor
        (0.5, np.nextafter(hi, 0.0), True),   # just below the window
        (0.5, lo, False),                     # at F_bar + gap_floor(F_bar)
        (0.5, hi, False),                     # at F_bar + window
        (out, 1.2, False),                    # just over the radius
        (np.nan, 1.2, False),
        (0.5, np.nan, False),
    ]
    X = np.zeros((len(cases), 3))
    X[:, 0] = [c[0] for c in cases]
    fx = np.array([c[1] for c in cases])
    mask = in_neighborhood(X, fx, x_bar, f_bar, radius, window)
    assert mask.shape == (len(cases),)
    assert mask.tolist() == [c[2] for c in cases]
    rows = [in_neighborhood(x, v, x_bar, f_bar, radius, window) for x, v in zip(X, fx)]
    assert all(isinstance(r, (bool, np.bool_)) for r in rows)
    assert rows == mask.tolist()


def test_sample_level_ball_respects_window():
    p = quad_1d(0.0)
    pts, vals, f_bar = sample_level_ball(p, np.zeros(1), 1.0, 0.3, 500, fresh_rng(1))
    assert f_bar == 0.0
    assert len(pts) == 500
    for x, fx in zip(pts, vals):
        assert abs(x[0]) <= 1.0
        assert 0.0 < fx < 0.3


def test_sample_level_ball_empty_raises():
    p = quad_1d(0.0)
    # window so thin that no draw can land in it
    with pytest.raises(EmptyNeighborhoodError):
        sample_level_ball(p, np.zeros(1), 1e-12, 1e-300, 10, fresh_rng(2), max_draws=2000)


def test_ls_eb_probe_exact_on_scalar_quadratic():
    # dist(x, {0}) / |x| = 1 for every sample
    p = quad_1d(0.0)
    est = probe_ls_eb(p, np.zeros(1), 1.0, 1.0, 2000, fresh_rng(3))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.kind == "ls-eb" and est.constant_name == "c0"
    assert est.samples == 2000


def test_kl_probe_exact_on_scalar_quadratic():
    # |x| / sqrt(x^2/2) = sqrt(2) for every sample
    p = quad_1d(0.0)
    est = probe_kl(p, np.zeros(1), 1.0, 1.0, 2000, fresh_rng(4))
    assert est.value == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_kl_probe_picks_stiff_direction_on_diag():
    # F = 0.5 x1^2 + 2 x2^2: ratio sqrt(2) along x1, 2 sqrt(2) along x2;
    # the probe keeps the minimum, approached as sampling fills the ball
    p = diag_quadratic([1.0, 4.0])
    est = probe_kl(p, np.zeros(2), 1.0, 0.5, 4000, fresh_rng(5))
    assert est.value == pytest.approx(np.sqrt(2.0), rel=0.02)
    assert est.value >= np.sqrt(2.0) - 1e-9  # one-sided convergence


def test_ls_eb_probe_on_diag_quadratic():
    # dist/|grad| maximal along the soft direction x2=0, value 1
    p = diag_quadratic([1.0, 4.0])
    est = probe_ls_eb(p, np.zeros(2), 1.0, 0.5, 4000, fresh_rng(6))
    assert est.value == pytest.approx(1.0, rel=0.02)
    assert est.value <= 1.0 + 1e-9


def test_bp_eb_probe_exact_on_scalar_quadratic():
    # T(x) = x - eps*x at q=1: residual 0.5|x|, distance |x| -> ratio 2
    p = quad_1d(0.0)
    q = 1.0
    est = probe_bp_eb(p, q, 0.5, np.zeros(1), 1.0, 1.0, 2000, fresh_rng(7))
    assert est.value == pytest.approx(2.0, rel=1e-12)


def test_lt_eb_probe_exact_on_scalar_quadratic():
    p = quad_1d(0.0)
    est = probe_lt_eb(p, 0.5, level=0.5, radius=1.0,
                      samples=2000, rng=fresh_rng(8), center=np.zeros(1))
    assert est.value == pytest.approx(2.0, rel=1e-12)
    assert est.level == 0.5 and est.radius == 1.0


def test_lt_eb_empty_when_level_unreachable():
    p = quad_1d(0.0)
    with pytest.raises(EmptyNeighborhoodError):
        probe_lt_eb(p, 0.5, level=-1.0, radius=1.0,
                    samples=10, rng=fresh_rng(9), center=np.zeros(1),
                    max_draws=500)


def test_lt_eb_refuses_a_step_its_unit_weight_prox_cannot_take():
    # MCP at gamma = 1.5 has rho = 2/3: the unit-weight prox needs eps < 1.5
    p = quadratic_mcp(n=10, n_blocks=5, gamma=1.5, min_eig=0.3, max_eig=0.5)
    rng = fresh_rng(10)
    with pytest.raises(ValueError, match=r"1/eps > rho_max .* eps = 2\.4 and rho_max = 0\.666"):
        probe_lt_eb(p, 2.4, level=10.0, radius=1.0, samples=10, rng=rng, center=np.zeros(10))
    assert rng.bit_generator.state == fresh_rng(10).bit_generator.state  # refused before any draw


def test_probe_determinism():
    p = diag_quadratic([1.0, 4.0])
    e1 = probe_ls_eb(p, np.zeros(2), 1.0, 0.5, 500, fresh_rng(10))
    e2 = probe_ls_eb(p, np.zeros(2), 1.0, 0.5, 500, fresh_rng(10))
    assert e1.value == e2.value
    assert np.array_equal(e1.extremal_point, e2.extremal_point)


def test_probe_stability_under_sample_doubling():
    p = diag_quadratic([1.0, 4.0])
    e1 = probe_ls_eb(p, np.zeros(2), 1.0, 0.5, 2000, fresh_rng(11))
    e2 = probe_ls_eb(p, np.zeros(2), 1.0, 0.5, 4000, fresh_rng(12))
    assert abs(e1.value - e2.value) <= 0.05 * e1.value


def test_probe_csv_roundtrip(tmp_path):
    p = quad_1d(0.0)
    est = probe_ls_eb(p, np.zeros(1), 1.0, 1.0, 100, fresh_rng(13))
    path = tmp_path / "eb.csv"
    write_probe_csv([est], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,constant,value,samples,eta,nu,level,radius,oracle,extremal"
    cells = lines[1].split(",")
    assert cells[0] == "ls-eb" and cells[1] == "c0"
    assert float(cells[2]) == est.value
    assert cells[6] == "" and cells[7] == ""  # no lt-eb geometry


# ---------------------------------------------------------------------------
# distance to the critical set


def test_residual_probes_measure_distance_to_the_reference_point():
    # the critical set of a strongly convex instance is its minimizer; the
    # probes take the distance to the point they are given, here off it
    p = diag_quadratic([1.0, 4.0])
    q = 1.0
    center = np.array([0.3, -0.4])
    bp = probe_bp_eb(p, q, 0.1, center, 1.0, 10.0, 300, fresh_rng(14))
    lt = probe_lt_eb(p, 0.1, level=10.0, radius=10.0, samples=300, rng=fresh_rng(15), center=center)
    for est in (bp, lt):
        x = est.extremal_point
        step = np.linalg.norm(x - full_prox(p, q, 0.1, x))
        assert est.value == pytest.approx(np.linalg.norm(x - center) / step, rel=1e-12)


def test_cross_check_prints_plain_floats():
    # _extremum passes it an element of a numpy array, whose repr under
    # numpy 2 is np.float64(...)
    with pytest.raises(OracleMismatch, match=r"^x: stacked 1\.0, per point 2\.0$"):
        cross_check(np.float64(1.0), 2.0, "x")
