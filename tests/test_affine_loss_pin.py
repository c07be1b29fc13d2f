"""Least squares and logistic through the shared ``AffineLoss`` protocol,
pinned bit for bit to the per-class formulas that it replaced.

``FormerLeastSquares`` and ``FormerLogistic`` below copy those formulas
verbatim onto the data of a built instance.  Every protocol method, and the
step logs of ``run`` and ``run_lockstep``, must agree with them by
``tobytes``: the refactor moved code, not arithmetic.
"""
import numpy as np
import pytest

from vbscd import BregmanSchedule, SolverConfig, run
from vbscd.bregman import step_cap
from vbscd.instances import lasso_random, logistic_random
from vbscd.model import ProblemInstance, SmoothTerm
from vbscd.solver import run_lockstep


class FormerLeastSquares(SmoothTerm):
    def __init__(self, f):
        self.A, self.b, self._gram, self._atb = f.A, f.b, f._gram, f._atb
        self.lipschitz, self.n = f.lipschitz, f.n

    def value(self, x):
        return self.state_value(self.state(x))

    def grad(self, x):
        return self._gram @ x - self._atb

    def grad_rows(self, X):
        return X @ self._gram - self._atb

    def value_rows(self, X):
        r = X @ self.A.T - self.b
        return 0.5 * np.sum(r * r, axis=1)

    def state(self, x):
        return self.A @ x - self.b

    def state_value(self, s):
        return 0.5 * float(s @ s)

    def block_grad(self, s, sl):
        return self.A[:, sl].T @ s

    def move(self, s, sl, old, new):
        s += self.A[:, sl] @ (new - old)

    def state_rows(self, X):
        return X @ self.A.T - self.b

    def state_value_rows(self, S):
        return 0.5 * np.sum(S * S, axis=1)

    def block_grad_rows(self, S, rows, cols):
        return np.einsum("kbm,km->kb", self.A.T[cols], S[rows])

    def move_rows(self, S, rows, cols, old, new):
        S[rows] += np.einsum("kbm,kb->km", self.A.T[cols], new - old)


class FormerLogistic(SmoothTerm):
    def __init__(self, f):
        self.A, self.y, self.lipschitz, self.n = f.A, f.y, f.lipschitz, f.n

    def value(self, x):
        return self.state_value(self.state(x))

    def value_rows(self, X):
        margins = (X @ self.A.T) * self.y
        return np.sum(np.logaddexp(0.0, -margins), axis=1)

    def grad(self, x):
        return self.block_grad(self.state(x), slice(None))

    def grad_rows(self, X):
        ys = self.y * (X @ self.A.T)
        return -((self.y * (0.5 * (1.0 - np.tanh(0.5 * ys)))) @ self.A)

    def state(self, x):
        return self.A @ x

    def state_value(self, s):
        return float(np.sum(np.logaddexp(0.0, -(self.y * s))))

    def block_grad(self, s, sl):
        sig = 0.5 * (1.0 - np.tanh(0.5 * (self.y * s)))
        return -(self.A[:, sl].T @ (self.y * sig))

    def move(self, s, sl, old, new):
        s += self.A[:, sl] @ (new - old)

    def state_rows(self, X):
        return X @ self.A.T

    def state_value_rows(self, S):
        return np.sum(np.logaddexp(0.0, -(self.y * S)), axis=1)

    def block_grad_rows(self, S, rows, cols):
        sig = 0.5 * (1.0 - np.tanh(0.5 * (self.y * S[rows])))
        return -np.einsum("kbm,km->kb", self.A.T[cols], self.y * sig)

    move_rows = FormerLeastSquares.move_rows


CASES = {
    "lasso_random-20": (lambda: lasso_random(20, 4, seed=5), FormerLeastSquares),
    "lasso_random-50": (lambda: lasso_random(50), FormerLeastSquares),
    "logistic_random-10": (logistic_random, FormerLogistic),
    "logistic_random-30": (lambda: logistic_random(30, 6, rows=90, seed=3), FormerLogistic),
}


def pair(name):
    build, former = CASES[name]
    p = build()
    q = ProblemInstance(smooth=former(p.smooth), partition=p.partition, regularizers=p.regularizers)
    return p, q


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol_matches_the_former_formulas_bit_for_bit(name):
    p, q = pair(name)
    f, g = p.smooth, q.smooth
    rng = np.random.default_rng(sum(map(ord, name)))
    X = rng.standard_normal((7, p.n))
    for x in X:
        for method in ("value", "grad", "state"):
            assert same_bits(getattr(f, method)(x), getattr(g, method)(x)), method
        s, t = f.state(x), g.state(x)
        assert same_bits(f.state_value(s), g.state_value(t))
        for i in range(p.n_blocks):
            sl = p.partition.block_slice(i)
            assert same_bits(f.block_grad(s, sl), g.block_grad(t, sl))
            new = x[sl] + rng.standard_normal(sl.stop - sl.start)
            f.move(s, sl, x[sl], new)
            g.move(t, sl, x[sl], new)
            assert same_bits(s, t)
    for method in ("value_rows", "grad_rows", "state_rows"):
        assert same_bits(getattr(f, method)(X), getattr(g, method)(X)), method
    S, T = f.state_rows(X), g.state_rows(X)
    assert same_bits(f.state_value_rows(S), g.state_value_rows(T))
    width = p.partition.sizes[0]
    rows = np.array([0, 2, 3, 6])
    cols = rng.integers(p.n - width + 1, size=(rows.size, 1)) + np.arange(width)
    assert same_bits(f.block_grad_rows(S, rows, cols), g.block_grad_rows(T, rows, cols))
    old, new = X[rows[:, None], cols], rng.standard_normal((rows.size, width))
    f.move_rows(S, rows, cols, old, new)
    g.move_rows(T, rows, cols, old, new)
    assert same_bits(S, T)


def same_log(a, b):
    return (same_bits(a.records, b.records) and same_bits(a.moved, b.moved)
            and a.termination == b.termination and a.initial_objective == b.initial_objective)


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_logs_match_the_former_formulas_bit_for_bit(name):
    p, q = pair(name)
    sched = BregmanSchedule.constant(1.0, 0.8 * step_cap(1.0, p))
    configs = [SolverConfig(schedule=sched, max_iters=300, tolerance=1e-9, check_period=7, seed=s)
               for s in (11, 12, 13)]
    assert same_log(run(p, configs[0]), run(q, configs[0]))
    start = np.random.default_rng(2).standard_normal(p.n)
    x0s = [None, start, -start]
    for a, b in zip(run_lockstep(p, configs, x0s), run_lockstep(q, configs, x0s)):
        assert same_log(a, b)
