"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and covers one shipped guarantee: the exact index-expectation identities, the
per-block decrease and envelope inequalities, closed-form prox correctness
against brute force, the contraction of expected objective gaps with an
audited per-iterate factor, fixed-point/termination behavior, error-bound
probe calibration, the worked constants example, byte-level determinism of
the CLI, and the nonconvex-penalty regime.
"""
import io
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import vbscd.harness as harness
from vbscd import (
    BregmanSchedule,
    SolverConfig,
    compute_constants,
    contraction_audit,
    coordinate_prox_all,
    envelope_value,
    fit_linear_rate,
    make_regularizer,
    probe_bp_eb,
    probe_kl,
    probe_lt_eb,
    probe_ls_eb,
    run,
    scalar_prox,
)
from vbscd.cli import main as cli_main
from vbscd.diagnostics import GridProxOracle, expectation_identities
from vbscd.harness import load_config, run_replications
from vbscd.instances import lasso_1d, lasso_random, quad_1d, quadratic_mcp

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SAMPLES = 1000


@contextmanager
def criterion(num, name, notes):
    """Print exactly one summary line for this criterion."""
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {name}" + (f" ({notes[0]})" if notes else ""))
        raise
    else:
        print(f"criterion {num:2d}: PASS - {name}" + (f" ({notes[0]})" if notes else ""))


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def sample_sets():
    """The three shipped instances with 1000 seeded sample points each."""
    cases = []
    for name, p, seed in (
        ("lasso-1d", lasso_1d(), 101),
        ("lasso-random-50", lasso_random(), 102),
        ("quadratic-mcp-20", quadratic_mcp(), 103),
    ):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = rng.standard_normal((SAMPLES, p.n))
        eps = 0.8 / p.smooth.lipschitz  # unit weights: cap is 1/L (and 1/rho is larger)
        q = 1.0
        a = (1.0 - eps * p.smooth.lipschitz) / (2.0 * eps)
        cases.append({"name": name, "p": p, "pts": pts, "eps": eps, "q": q, "a": a})
    return cases


@pytest.fixture(scope="module")
def rate_run():
    """The replicated strongly convex run: 200 seeds x 400 steps, fitted and
    audited exactly the way the ``rate`` subcommand does it."""
    t0 = time.perf_counter()
    cfg = load_config(CONFIGS / "lasso50_rate.cfg")
    res = run_replications(cfg)
    report = fit_linear_rate(res.mean_gap, f_bar=res.reference.value)
    eta, nu = harness._neighborhood(cfg, res.instance, res.schedule,
                                    res.reference, res.trajectories[:10])
    rng = np.random.Generator(
        np.random.PCG64(harness.derive_seed(cfg.seed, harness._PROBE_STREAM)))
    constants, _ = harness.probed_constants(cfg, res.instance, res.schedule,
                                            res.reference, eta, nu, rng)
    audit = contraction_audit(res.instance, res.schedule, res.trajectories,
                              res.reference.point, res.reference.value, constants)
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "res": res, "report": report, "constants": constants,
            "audit": audit, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_expectation_identities(sample_sets):
    notes = []
    with criterion(1, "index-expectation identities <= 1e-12", notes):
        t0 = time.perf_counter()
        worst = 0.0
        for case in sample_sets:
            p, q, eps = case["p"], case["q"], case["eps"]
            for x in case["pts"]:
                errs = expectation_identities(p, q, eps, x, coordinate_prox_all(p, q, eps, x))
                worst = max(worst, max(errs.values()))
                assert max(errs.values()) <= 1e-12, (case["name"], errs)
        elapsed = time.perf_counter() - t0
        notes.append(f"worst error {worst:.2e}, {elapsed:.1f}s")
        assert elapsed < 10.0


def test_criterion_02_sufficient_decrease(sample_sets, rate_run):
    notes = []
    with criterion(2, "per-block sufficient decrease, samples and trajectories", notes):
        worst = -np.inf
        for case in sample_sets:
            p, q, eps, a = case["p"], case["q"], case["eps"], case["a"]
            for x in case["pts"]:
                fx = p.objective(x)
                for t in coordinate_prox_all(p, q, eps, x):
                    lhs = p.objective(t) - fx
                    rhs = -a * float(np.sum((x - t) ** 2))
                    worst = max(worst, lhs - rhs)
                    assert lhs <= rhs + 1e-9, (case["name"], lhs, rhs)
        # every realized step of the replicated run obeys the same bound
        sched = rate_run["res"].schedule
        a_run = (sched.m - sched.eps_hi * rate_run["res"].instance.smooth.lipschitz) \
            / (2.0 * sched.eps_hi)
        n_steps = 0
        for traj in rate_run["res"].trajectories:
            drops = np.diff(traj.objectives())
            steps = traj.records["step_norm"]
            assert np.all(drops <= -a_run * steps**2 + 1e-9)
            n_steps += steps.size
        notes.append(f"worst sample slack {worst:.2e}, {n_steps} trajectory steps")


def test_criterion_03_envelope_chain(sample_sets):
    notes = []
    with criterion(3, "envelope below objective and mean-decrease bound", notes):
        worst = -np.inf
        for case in sample_sets:
            p, q, eps = case["p"], case["q"], case["eps"]
            N, L = p.n_blocks, p.smooth.lipschitz
            for x in case["pts"]:
                fx = p.objective(x)
                env = envelope_value(p, q, eps, x)
                assert env <= fx + 1e-9
                targets = coordinate_prox_all(p, q, eps, x)
                mean_f = sum(p.objective(t) for t in targets) / N
                mean_sq = sum(float(np.sum((x - t) ** 2)) for t in targets) / N
                lhs = N * mean_f - (N - 1) * fx
                rhs = env - 0.5 * N * (1.0 / eps - L) * mean_sq
                worst = max(worst, lhs - rhs)
                assert lhs <= rhs + 1e-9, (case["name"], lhs, rhs)
        notes.append(f"worst slack {worst:.2e}")


def test_criterion_04_prox_oracle_equivalence():
    notes = []
    with criterion(4, "closed-form prox equals grid brute force", notes):
        t0 = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(404))
        worst_t, worst_h = 0.0, 0.0
        for kind, params in (
            ("l1", {"lam": 1.3}),
            ("scad", {"lam": 0.9, "a": 3.7}),
            ("mcp", {"lam": 0.8, "gamma": 4.0}),
        ):
            reg = make_regularizer(kind, **params)
            oracle = GridProxOracle(reg, lo=-10.0, hi=10.0, step=5e-5)
            for _ in range(1000):
                w = reg.rho + rng.uniform(0.100001, 3.1)
                v = rng.uniform(-8.0, 8.0)
                t_closed = float(scalar_prox(reg, w, v))
                h_closed = float(reg.value(np.array([t_closed]))[0]) \
                    + 0.5 * w * (t_closed - v) ** 2
                t_grid, h_grid = oracle.query(w, v)
                worst_t = max(worst_t, abs(t_closed - t_grid))
                worst_h = max(worst_h, abs(h_closed - h_grid))
                assert abs(t_closed - t_grid) <= 1e-3, (kind, w, v)
                assert abs(h_closed - h_grid) <= 1e-8, (kind, w, v)
        elapsed = time.perf_counter() - t0
        notes.append(f"worst argmin {worst_t:.1e}, worst objective {worst_h:.1e}, {elapsed:.1f}s")
        assert elapsed < 30.0


def test_criterion_05_expected_gap_contraction(rate_run):
    notes = []
    with criterion(5, "replicated mean-gap decay with audited contraction", notes):
        res, report, audit = rate_run["res"], rate_run["report"], rate_run["audit"]
        assert len(res.trajectories) == 200
        assert all(len(t.records) == 400 for t in res.trajectories)
        assert report.r_squared >= 0.98
        assert report.factor < 1.0
        assert audit.checked > 0
        assert audit.violations == 0
        notes.append(
            f"factor {report.factor:.4f}, r2 {report.r_squared:.4f}, "
            f"audited {audit.checked} points, {rate_run['elapsed']:.0f}s"
        )
        assert rate_run["elapsed"] < 120.0


def test_criterion_06_fixed_point_and_certificate():
    notes = []
    with criterion(6, "fixed-point termination and subgradient certificate", notes):
        p = lasso_1d()
        sched = BregmanSchedule.constant(1.0, 0.5)
        point, value = p.known_optimum
        conf = SolverConfig(schedule=sched, max_iters=100, tolerance=1e-12,
                            check_period=1, seed=0)
        traj = run(p, conf, x0=point)
        assert traj.termination == "tolerance"
        assert len(traj.records) == 1  # stopped at the very first check
        assert traj.records["prox_residual"][0] <= 1e-12
        assert traj.final_objective == value

        # random starts: the certificate bound 2 (L + M/eps) * tolerance
        bound = 2.0 * (p.smooth.lipschitz + 1.0 / 0.5) * 1e-12
        rng = np.random.Generator(np.random.PCG64(606))
        worst = 0.0
        for _ in range(20):
            x0 = rng.uniform(-10.0, 10.0, size=1)
            t = run(p, conf, x0=x0)
            assert t.termination == "tolerance"
            worst = max(worst, p.min_subgradient_norm(t.final_point))
        notes.append(f"worst certificate {worst:.2e} <= bound {bound:.2e}")
        assert worst <= bound


def test_criterion_07_error_bound_probes():
    notes = []
    with criterion(7, "probe calibration on the scalar quadratic", notes):
        p = quad_1d(0.0)
        x_bar = np.zeros(1)
        q = 1.0

        def rng(s):
            return np.random.Generator(np.random.PCG64(s))

        c0 = probe_ls_eb(p, x_bar, 1.0, 1.0, 10_000, rng(70)).value
        c2 = probe_kl(p, x_bar, 1.0, 1.0, 10_000, rng(71)).value
        c1 = probe_bp_eb(p, q, 0.5, x_bar, 1.0, 1.0, 10_000, rng(72)).value
        c3 = probe_lt_eb(p, 0.5, level=0.5, radius=1.0, samples=10_000, rng=rng(73),
                         center=x_bar).value
        notes.append(f"c0={c0:.6f} c1={c1:.6f} c2={c2:.6f} c3={c3:.6f}")
        assert 0.99 <= c0 <= 1.01
        assert 1.40 <= c2 <= 1.43
        assert 1.98 <= c1 <= 2.02
        assert 1.98 <= c3 <= 2.02


def test_criterion_08_constants_chain():
    notes = []
    with criterion(8, "worked constants example, exact equality", notes):
        c = compute_constants(m=1.0, M=1.0, L=1.0, eps_lo=0.5, eps_hi=0.5,
                              N=2, c0=1.0, eta=1.0, nu=1.0)
        assert c.a == 0.5
        assert c.theta1 == 4.0
        assert c.theta2 == 2.5
        assert c.kappa == 40.0
        assert c.b == 322.0
        assert c.beta == 321.0 / 322.0
        notes.append("a=0.5 theta1=4 theta2=2.5 kappa=40 b=322 beta=321/322")


def test_criterion_09_rate_determinism(tmp_path):
    notes = []
    with criterion(9, "rate reruns are byte-identical", notes):
        outs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            with redirect_stdout(io.StringIO()):
                code = cli_main(["rate", "--config",
                                 str(CONFIGS / "quad1d_rate.cfg"),
                                 "--out", str(out)])
            assert code == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys()
        assert len(outs[0]) >= 3  # rate report, mean gaps, trajectories
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name
        notes.append(f"{len(outs[0])} files compared")


def test_criterion_10_nonconvex_regime(tmp_path):
    notes = []
    with criterion(10, "nonconvex penalty run: monotone, certified, contracting", notes):
        t0 = time.perf_counter()
        out = tmp_path / "scad"
        with redirect_stdout(io.StringIO()):
            code = harness.run_experiment(CONFIGS / "scad20_rate.cfg", "rate",
                                          out_dir=out)
        assert code == 0

        cfg = load_config(CONFIGS / "scad20_rate.cfg")
        p = harness.build_instance(cfg)
        f0 = p.objective(np.zeros(p.n))
        traj_files = sorted(out.glob("traj_*.csv"))
        assert len(traj_files) == 100
        for path in traj_files:
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            objs = np.array([f0] + [float(r[2]) for r in rows])
            assert np.all(np.diff(objs) <= 1e-12), path.name  # monotone realization
            assert len(rows) <= 10_000
            final_resid = float(rows[-1][5])
            assert final_resid <= 1e-8, path.name

        header, fit = (out / "rate_report.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), fit.split(",")))
        assert cols["label"] == "to best-found value"
        assert float(cols["r_squared"]) >= 0.95
        assert float(cols["factor"]) < 1.0
        elapsed = time.perf_counter() - t0
        notes.append(
            f"factor {float(cols['factor']):.4f}, r2 {float(cols['r_squared']):.4f}, "
            f"{elapsed:.0f}s"
        )
        assert elapsed < 120.0
