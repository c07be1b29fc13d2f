"""The best-found reference carries each step's gradient into the next step
and reads F's change from the two gradients; the plain loop, which
evaluates F afresh at every point, stays its oracle.  Both refuse a step by
the solver's sufficient-decrease rule."""
import re
from pathlib import Path

import numpy as np
import pytest

import vbscd.harness as harness
import vbscd.solver as solver
from vbscd import BregmanSchedule, SolverAbort
from vbscd.bregman import step_cap, sufficient_decrease
from vbscd.cli import main as cli_main
from vbscd.harness import build_instance, build_schedule, load_config, resolve_reference_value
from vbscd.instances import lasso_random, logistic_random, quadratic_mcp, quadratic_scad
from vbscd.model import L1Penalty
from vbscd.prox import full_prox

from test_harness import write_cfg

LASSO50_RATE = str(Path(__file__).resolve().parent.parent / "configs" / "lasso50_rate.cfg")


def slow_reference(p, sched, max_steps=100_000, tolerance=1e-12):
    """The reference iteration with no carried state: ``full_prox`` computes
    grad f at x, F is evaluated at every new point, and a step that fails
    ``solver._decreases`` raises the solver's abort."""
    q, eps = sched.generator(0), sched.step(0)
    a = sufficient_decrease(sched.m, sched.eps_hi, p.smooth.lipschitz)
    x = np.zeros(p.n)
    f_prev = p.objective(x)
    for k in range(max_steps):
        t = full_prox(p, q, eps, x)
        f_next = p.objective(t)
        moved = float(np.linalg.norm(x - t))
        if not solver._decreases(f_prev, f_next, moved, a):
            raise solver._abort(k, f_prev, f_next, moved, a)
        x, f_prev = t, f_next
        if moved <= tolerance:
            break
    return x, f_prev


def relative_schedule(p, fraction=0.8):
    return BregmanSchedule.constant(1.0, fraction * step_cap(1.0, p))


def matrix_file_instance(tmp_path, rows=30, n=12, scale=1e3):
    """A matrix-file lasso whose b has norm about scale * sqrt(rows), so
    |b|^2 / 2 is far above the change of F along the iteration."""
    rng = np.random.default_rng(5)
    np.savetxt(tmp_path / "A.txt", rng.standard_normal((rows, n)))
    np.savetxt(tmp_path / "b.txt", scale * rng.standard_normal(rows))
    cfg = load_config(write_cfg(tmp_path, f"""\
[experiment]
kind = solve
seed = 1

[instance]
kind = matrix-file
matrix_file = {tmp_path / "A.txt"}
rhs_file = {tmp_path / "b.txt"}
reg = l1
blocks = 3
lam = 0.5

[bregman]
weights = constant
q = 1.0
eps_rule = relative
eps_fraction = 0.8

[reference]
source = best-found
"""))
    p = build_instance(cfg)
    return p, build_schedule(cfg, p)


INSTANCES = {
    "lasso50": lambda: lasso_random(n=50, n_blocks=10),
    "scad20": lambda: quadratic_scad(n=20, n_blocks=5),
    "mcp200": lambda: quadratic_mcp(n=200, n_blocks=20, seed=11),
    "logistic": lambda: logistic_random(),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reference_matches_the_plain_loop_bit_for_bit(name):
    p = INSTANCES[name]()
    sched = relative_schedule(p)
    x, value = slow_reference(p, sched)
    ref = resolve_reference_value(p, sched, source="best-found")
    assert ref.source == "best-found"
    assert np.array_equal(ref.point, x)
    assert ref.value == value


def test_reference_matches_the_plain_loop_when_b_is_large(tmp_path):
    # F is about |b|^2 / 2 ~ 1.5e7 here: the gram-form value of f would lose
    # its last digits to cancellation, the two-gradient change does not
    p, sched = matrix_file_instance(tmp_path)
    assert np.linalg.norm(p.smooth.b) > 500 * np.sqrt(30)
    x, value = slow_reference(p, sched)
    ref = resolve_reference_value(p, sched, source="best-found")
    assert np.array_equal(ref.point, x)
    assert ref.value == value


def test_reference_makes_one_gradient_and_no_residual_per_step(monkeypatch):
    # a least-squares step needs grad f at T(x) for the next step and
    # nothing else: the residual A x - b (``state``) is formed only for F
    # at the start point and for the returned value
    p = lasso_random(n=50, n_blocks=10)
    calls = {"state": 0, "grad": 0, "full_prox": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(p.smooth, "state", spy("state", p.smooth.state))
    monkeypatch.setattr(p.smooth, "grad", spy("grad", p.smooth.grad))
    monkeypatch.setattr(solver, "full_prox", spy("full_prox", solver.full_prox))
    ref = resolve_reference_value(p, relative_schedule(p), source="best-found")
    assert calls["full_prox"] > 10
    assert calls["state"] == 2
    assert calls["grad"] == calls["full_prox"] + 1
    assert ref.value == p.objective(ref.point)


def test_quadratic_step_value_is_the_change_along_the_step():
    p = lasso_random(n=50, n_blocks=10)
    rng = np.random.default_rng(3)
    x, t = rng.standard_normal(50), rng.standard_normal(50)
    f = p.smooth
    stepped = f.step_value(x, t, f.value(x), f.grad(x), f.grad(t))
    assert stepped == pytest.approx(f.value(t), rel=1e-13)


def test_default_step_value_evaluates_f_at_the_new_point():
    p = logistic_random()
    f = p.smooth
    x, t = np.zeros(p.n), np.full(p.n, 0.1)
    # the carried value and gradients are ignored: the same float as value(t)
    assert f.step_value(x, t, np.nan, None, None) == f.value(t)


# ---------------------------------------------------------------------------
# a wrong prox is refused by the reference's sufficient-decrease test


@pytest.fixture
def wide_l1_threshold(monkeypatch):
    """Soft thresholding at 0.8 lam/w instead of lam/w."""
    monkeypatch.setattr(L1Penalty, "prox_abs",
                        lambda self, u, w: np.maximum(u - 0.8 * self.lam / w, 0.0))


def test_wrong_l1_threshold_diverges_in_the_reference(wide_l1_threshold, tmp_path, capsys):
    # refused at iteration 11, where F still falls, but by less than
    # a ||x - T(x)||^2; tests/test_fooling.py holds the solver's mutations
    cfg = load_config(LASSO50_RATE)
    p = build_instance(cfg)
    refusal = r"sufficient decrease fails at iteration 11: F went from (\S+) to (\S+) over a step of norm (\S+) "
    with pytest.raises(SolverAbort, match="^" + refusal) as oracle:
        slow_reference(p, build_schedule(cfg, p))
    with pytest.raises(SolverAbort, match="^reference iteration: " + refusal) as refused:
        harness.run_experiment(LASSO50_RATE, "rate", out_dir=tmp_path / "lib")
    f, f_next, step = map(float, re.search(refusal, str(refused.value)).groups())
    assert f_next < f
    # the same step; F read from the step's two gradients agrees to rounding
    expected = map(float, re.search(refusal, str(oracle.value)).groups())
    assert [f, f_next, step] == pytest.approx(list(expected), rel=1e-14, abs=0)
    assert cli_main(["rate", "--config", LASSO50_RATE, "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"
