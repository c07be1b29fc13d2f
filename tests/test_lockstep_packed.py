"""Lockstep steps on packed rows: one penalty pass per step, rows that leave
mid-chunk, and start points checked at entry.

``run`` stays the oracle: rows that survive a compaction are held to it
through the checks of ``test_lockstep.assert_rows_match_run``.
"""
import re

import numpy as np
import pytest

import test_lockstep
from test_lockstep import assert_rows_match_run, configs
from vbscd import (
    BlockPartition,
    L1Penalty,
    ScadPenalty,
    SolverAbort,
    ZeroPenalty,
    instances,
    make_quadratic_problem,
    run,
    run_lockstep,
)


def test_one_penalty_pass_per_step(monkeypatch):
    # no check period inside the window, so the only phi passes after the
    # start totals are the steps' own
    p = instances.quadratic_scad()
    calls = []
    psi = ScadPenalty.psi
    monkeypatch.setattr(ScadPenalty, "psi", lambda self, u: calls.append(u.shape) or psi(self, u))

    def passes(steps):
        calls.clear()
        rows = run_lockstep(p, configs(p, 3, steps, check_period=1000), [None] * 3)
        assert all(len(t.records) == steps for t in rows)
        return len(calls)

    assert passes(9) - passes(4) == 5


def where(abort: SolverAbort) -> tuple[str, str]:
    """What failed, and at which step."""
    return re.match(r"(.*) at (iteration \d+|the start point)", str(abort)).groups()


def understated(regs):
    """0.5 (x0^2 + 3.2 (x1 - c)^2), c = 1/sqrt(3.2), claiming L = 1: a step
    on block 1 breaks the sufficient decrease unless x1 = c already."""
    p = make_quadratic_problem(np.diag([1.0, np.sqrt(3.2)]), [0.0, 1.0], regs, BlockPartition((1, 1)))
    p.smooth.lipschitz = 1.0
    return p


@pytest.mark.parametrize("regs", [(ZeroPenalty(), ZeroPenalty()), (ZeroPenalty(), L1Penalty(0.0))],
                         ids=["one-kind", "two-kinds"])
def test_rows_leave_mid_chunk_while_the_others_run_to_tolerance(monkeypatch, regs):
    p = understated(regs)
    c = 1.0 / np.sqrt(3.2)
    # at seed 176 rows 1 and 4 first draw block 1 at k = 3 (a check step)
    # and k = 4; they start off its minimizer and abort there, row 3 aborts
    # at its start, and rows 0, 2 and 5 start on it and reach tolerance
    confs = configs(p, 6, 400, tolerance=1e-10, seed=176)
    x0s = [np.array([1.0, c]), np.array([-2.0, c + 0.3]), np.array([0.5, c]),
           np.array([np.nan, c]), np.array([3.0, c + 1.0]), np.array([-1.0, c])]
    rows = run_lockstep(p, confs, x0s)
    for r, at in ((1, "iteration 3"), (3, "the start point"), (4, "iteration 4")):
        with pytest.raises(SolverAbort) as exact:
            run(p, confs[r], x0s[r])
        assert isinstance(rows[r], SolverAbort)
        # the same failure at the same step; F may differ in its last bits,
        # and both print it as a Python float
        assert where(rows[r]) == where(exact.value) and where(rows[r])[1] == at
        assert "np.float64(" not in str(rows[r]) + str(exact.value)
    survivors = [0, 2, 5]
    # the survivors of this one lockstep run, through assert_rows_match_run
    monkeypatch.setattr(test_lockstep, "run_lockstep", lambda p, confs, x0s: [rows[r] for r in survivors])
    kept = assert_rows_match_run(p, [confs[r] for r in survivors], [x0s[r] for r in survivors])
    assert all(t.termination == "tolerance" for t in kept)
    assert len({len(t.records) for t in kept}) > 1 and min(len(t.records) for t in kept) > 5


@pytest.mark.parametrize("x0s, message", [
    ([None] * 2, "2 start points for 3 configs"),
    ([None] * 4, "4 start points for 3 configs"),
    ([None, np.zeros(21), None], r"start point 1 has shape \(21,\), expected \(20,\)"),
    ([np.zeros((1, 20)), None, None], r"start point 0 has shape \(1, 20\)"),
])
def test_start_points_are_checked_at_entry(x0s, message):
    p = instances.quadratic_scad()
    with pytest.raises(ValueError, match=message):
        run_lockstep(p, configs(p, 3, 10), x0s)
