"""Broken solvers that the flows refuse today, each as a monkeypatched
mutation run on a shipped config through ``harness.run_experiment`` and
through the CLI, which exits 2 with one ``error:`` line.

A mutation of the smooth state's update breaks the sufficient decrease
F(x^{k+1}) <= F(x^k) - a ||x^k - x^{k+1}||^2 that both engines and the
reference iteration hold each step to.  A wrong l1 threshold is refused by
the reference iteration: see
``tests/test_reference_step.py::test_wrong_l1_threshold_diverges_in_the_reference``.
"""
import itertools
from pathlib import Path

import numpy as np
import pytest

from vbscd import SolverAbort, harness
from vbscd.cli import main as cli_main
from vbscd.model import AffineLoss

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LASSO50_RATE = CONFIGS / "lasso50_rate.cfg"
LASSO50_VERIFY = CONFIGS / "lasso50_verify.cfg"


def skip_every_7th_move(move):
    """Leaves the state as it was on every 7th one-block update."""
    calls = itertools.count(1)

    def mutated(self, s, sl, old, new):
        if next(calls) % 7:
            move(self, s, sl, old, new)
    return mutated


def round_to_float32(move):
    """Rounds the whole state through float32 after each one-block update."""
    def mutated(self, s, sl, old, new):
        move(self, s, sl, old, new)
        s[:] = s.astype(np.float32)
    return mutated


def refusal(monkeypatch, tmp_path, capsys, mutation, config, kind) -> str:
    """The message of the SolverAbort that ``mutation`` of ``AffineLoss.move``
    meets in the flow, after checking that the CLI refuses it the same way;
    each run starts from a freshly mutated update."""
    move = AffineLoss.move
    monkeypatch.setattr(AffineLoss, "move", mutation(move))
    with pytest.raises(SolverAbort) as refused:
        harness.run_experiment(config, kind, out_dir=tmp_path / "lib")
    monkeypatch.setattr(AffineLoss, "move", mutation(move))
    assert cli_main([kind, "--config", str(config), "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    return str(refused.value)


def test_skipped_state_update_is_refused(monkeypatch, tmp_path, capsys):
    msg = refusal(monkeypatch, tmp_path, capsys, skip_every_7th_move, LASSO50_RATE, "rate")
    assert msg.startswith("replication 0 failed: sufficient decrease fails at iteration 6: ")


def test_state_rounded_to_float32_is_refused(monkeypatch, tmp_path, capsys):
    msg = refusal(monkeypatch, tmp_path, capsys, round_to_float32, LASSO50_RATE, "rate")
    assert msg.startswith("replication 0 failed: sufficient decrease fails at iteration ")


def test_refused_scout_run_exits_two(monkeypatch, tmp_path, capsys):
    # verify sizes its neighborhood from a scout run, which the same
    # mutation breaks; the abort reaches the CLI as one line that names it
    msg = refusal(monkeypatch, tmp_path, capsys, skip_every_7th_move, LASSO50_VERIFY, "verify")
    assert msg.startswith("scout run: sufficient decrease fails at iteration 6: ")
