import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import vbscd.harness as harness
from vbscd import (
    BregmanSchedule,
    ConfigError,
    SolverAbort,
)
from vbscd.cli import main as cli_main
from vbscd.diagnostics import gap_floor
from vbscd.harness import (
    aggregate_gaps,
    build_instance,
    build_schedule,
    load_config,
    resolve_reference_value,
    run_replications,
    write_mean_csv,
    write_near_start_csv,
    write_replication_outputs,
)
from vbscd.instances import lasso_1d, lasso_random, quad_1d
from vbscd.model import L1Penalty, make_quadratic_problem
from vbscd.prox import full_prox
from vbscd.solver import SolverConfig, run

from test_cli import with_key

BASE = """\
[experiment]
kind = solve
seed = 1

[instance]
kind = lasso-1d

[bregman]
weights = constant
q = 1.0
eps_rule = constant
eps = 0.5

[solver]
max_iters = 50
tolerance = 0
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config loading


def test_reference_config_loads_cleanly():
    cfg = load_config("configs/reference.cfg")
    assert cfg.kind == "verify"
    assert cfg.instance["kind"] == "lasso-random"
    assert cfg.instance["n"] == 50
    assert cfg.bregman["weights"] == "alternating"
    assert cfg.has_probe_section


def test_minimal_config_roundtrip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.kind == "solve"
    assert cfg.seed == 1
    assert cfg.replications == 1  # default
    assert cfg.solver["max_iters"] == 50
    assert cfg.base_dir == tmp_path


def test_unknown_key_is_an_error(tmp_path):
    path = write_cfg(tmp_path, BASE + "bogus = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        load_config(path)


def test_unknown_section_is_an_error(tmp_path):
    path = write_cfg(tmp_path, BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
        load_config(path)


def test_malformed_file_reports_the_line(tmp_path):
    path = write_cfg(tmp_path, "[experiment\nkind = solve\n")
    with pytest.raises(ConfigError, match="malformed config") as exc:
        load_config(path)
    assert "line: 1" in str(exc.value)


def test_missing_file_is_an_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/nope.cfg")


def test_keys_are_checked_against_instance_kind(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("kind = lasso-1d", "kind = lasso-1d\nn = 50"))
    with pytest.raises(ConfigError, match="do not apply to kind 'lasso-1d'"):
        load_config(path)


def test_bad_value_type_is_an_error(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("seed = 1", "seed = soon"))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


ROOT = Path(__file__).resolve().parent.parent


def reference_catalog():
    """section -> key -> comment text, for every key line of configs/reference.cfg,
    commented keys included; a comment runs on over indented '#' lines."""
    catalog, section, key = {}, None, None
    for line in (ROOT / "configs" / "reference.cfg").read_text().splitlines():
        if m := re.match(r"\[(\w+)\]$", line):
            section, key = m.group(1), None
            catalog[section] = {}
        elif section and (m := re.match(r"(?:#\s*)?(\w+)\s*=\s*[^#]*#\s*(.*)$", line)):
            key = m.group(1)
            catalog[section][key] = m.group(2)
        elif key and (m := re.match(r"\s+#\s*(.*)$", line)):
            catalog[section][key] += " " + m.group(1)
        else:
            key = None
    return catalog


def documented(spec) -> str:
    """What configs/reference.cfg says of a key: its values, its default,
    then where it applies."""
    if spec.default is harness.REQUIRED:
        return f"{spec.domain()}; required" + ("" if spec.when is None else f" for {spec.scope()}")
    if spec.default is None:
        text = f"{spec.domain()}; optional"
    else:
        shown = ", ".join(spec.default) if isinstance(spec.default, tuple) else spec.default
        text = f"{spec.domain()}; default {shown}"
    return text if spec.when is None else f"{text}; applies only to {spec.scope()}"


def test_reference_catalog_matches_the_schema():
    catalog = reference_catalog()
    assert {s: set(keys) for s, keys in catalog.items()} == \
        {s: set(keys) for s, keys in harness._SCHEMA.items()}
    for section, keys in harness._SCHEMA.items():
        for key, spec in keys.items():
            assert documented(spec) in catalog[section][key], (section, key)


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_shipped_config_loads(path):
    cfg = load_config(path)
    assert cfg.kind in harness.FLOWS


def documented_instance_keys():
    """[instance] kind (or "reg = <kind>" for the penalty keys of a
    matrix-file instance) -> its entry in the per-kind key list of
    configs/reference.cfg, continuation lines joined."""
    entries, kind = {}, None
    for line in (ROOT / "configs" / "reference.cfg").read_text().splitlines():
        if m := re.match(r"#   ((?:reg = )?[\w-]+):\s+(.*)$", line):
            kind = m.group(1)
            entries[kind] = m.group(2)
        elif kind and (m := re.match(r"#\s{10,}(\S.*)$", line)):
            entries[kind] += " " + m.group(1)
        else:
            kind = None
    return entries


def test_reference_catalog_gives_each_kinds_factory_defaults():
    entries = documented_instance_keys()
    cases = [(kind, harness._instance_params(kind)) for kind in harness._INSTANCES]
    # a matrix-file instance also takes the parameters of its reg kind's class
    base = harness._instance_params("matrix-file")
    for reg in harness._REG_KINDS:
        params = harness._instance_params("matrix-file", reg)
        cases.append((f"reg = {reg}", {key: param for key, param in params.items() if key not in base}))
    for kind, params in cases:
        if not params:
            continue
        # a None default passes nothing on: the key is optional, with no value of its own
        defaults = {key: param.default for key, param in params.items()
                    if param.default is not inspect.Parameter.empty and param.default is not None}
        required = [key for key, param in params.items() if param.default is inspect.Parameter.empty]
        shown = {key: harness._parse("instance", key, raw)
                 for key, raw in re.findall(r"(\w+) \(([^)]*)\)", entries[kind]) if key in params}
        assert shown == defaults, kind
        assert all(re.search(rf"\b{key}\b", entries[kind]) for key in params), kind
        assert not required or f"{', '.join(required)}: required" in entries[kind], kind


@pytest.mark.parametrize("kind, text", [
    ("solve", BASE + "\n[verify]\npoints = 5\n"),
    ("rate", with_key(BASE.replace("kind = solve", "kind = rate"), "verify", "points", "5")),
    ("probe-eb", with_key(BASE.replace("kind = solve", "kind = probe-eb"), "verify", "points", "5")),
])
def test_verify_section_outside_verify_is_an_error(tmp_path, kind, text):
    with pytest.raises(ConfigError, match=rf"^\[verify\] points applies only to \[experiment\] kind = verify, not '{kind}'"):
        load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("kind", ["rate", "verify"])
@pytest.mark.parametrize("kinds", ["kl", "ls-eb, kl", "bp-eb, lt-eb"])
def test_probe_kinds_other_than_ls_eb_are_errors_where_only_ls_eb_runs(tmp_path, kind, kinds):
    text = with_key(BASE.replace("kind = solve", f"kind = {kind}"), "probe", "kinds", kinds)
    with pytest.raises(ConfigError, match=rf"^\[probe\] kinds must be ls-eb for kind '{kind}'"):
        load_config(write_cfg(tmp_path, text))


# ---------------------------------------------------------------------------
# keys that apply only where another key holds given values, from the schema

MINIMAL = """\
[experiment]
kind = solve

[instance]
kind = lasso-1d
"""

CONDITIONAL = [(section, key, spec) for section, keys in harness._SCHEMA.items()
               for key, spec in keys.items() if spec.when is not None]


def allowed_value(spec) -> str:
    """A value the key allows: its default, else 1 for an int and 0.5 for a
    float (below the step cap of lasso-1d)."""
    if spec.default is None or spec.default is harness.REQUIRED:
        return "1" if spec.item is int else "0.5"
    return ", ".join(spec.default) if isinstance(spec.default, tuple) else str(spec.default)


def kind_where(section, key, value) -> str:
    """The [experiment] kind of config_where(section, key, value): a
    [probe] condition runs as probe-eb, which reads every [probe] key."""
    if (section, key) == ("experiment", "kind"):
        return value
    return "probe-eb" if section == "probe" else "solve"


def config_where(section, key, value):
    """MINIMAL with [section] key = value, plus every key that this requires."""
    text = with_key(MINIMAL.replace("kind = solve", f"kind = {kind_where(section, key, value)}"),
                    section, key, value)
    for s, k, spec in CONDITIONAL:
        if spec.default is harness.REQUIRED and spec.when[:2] == (section, key) and value in spec.when[2]:
            text = with_key(text, s, k, allowed_value(spec))
    return text


def condition_cases(holds: bool):
    """(section, key, condition section, condition key, value) for each
    value of the condition key that makes the condition hold or fail.  A
    key also fails for each value of an outer condition key (one the
    condition key rests on) where that outer condition fails, or holds with
    the condition key left at a default that fails."""
    for section, key, spec in CONDITIONAL:
        on_section, on_key, values = spec.when
        for value in harness._SCHEMA[on_section][on_key].allowed:
            if (value in values) == holds:
                yield pytest.param(section, key, on_section, on_key, value,
                                   id=f"{section}-{key}-{on_key}={value}")
        on = harness._SCHEMA[on_section][on_key]
        if on.when is not None and not holds:
            outer_section, outer_key, outer_values = on.when
            for value in harness._SCHEMA[outer_section][outer_key].allowed:
                if value not in outer_values or on.default not in values:
                    yield pytest.param(section, key, outer_section, outer_key, value,
                                       id=f"{section}-{key}-{outer_key}={value}")


def unmet_condition(section, key, on_section, on_key, value):
    """(scope, shown value) of the first condition, outermost first, that
    fails for [section] key where [on_section] on_key = value."""
    spec = harness._SCHEMA[section][key]
    if spec.when[:2] != (on_section, on_key):  # an outer case
        on = harness._SCHEMA[spec.when[0]][spec.when[1]]
        if value not in on.when[2]:
            return on.scope(), value
        return spec.scope(), on.default
    return spec.scope(), value


def exit_code_and_stderr(tmp_path, capsys, text, kind):
    path = write_cfg(tmp_path, text)
    code = cli_main([kind, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any work
    return code, err.splitlines()


@pytest.mark.parametrize("section, key, on_section, on_key, value", condition_cases(holds=False))
def test_key_set_where_its_condition_fails_exits_two(tmp_path, capsys, section, key, on_section, on_key, value):
    spec = harness._SCHEMA[section][key]
    text = with_key(config_where(on_section, on_key, value), section, key, allowed_value(spec))
    code, err = exit_code_and_stderr(tmp_path, capsys, text, kind_where(on_section, on_key, value))
    assert code == 2
    scope, shown = unmet_condition(section, key, on_section, on_key, value)
    assert err == [f"error: [{section}] {key} applies only to {scope}, not {shown!r}"]


@pytest.mark.parametrize("section, key, on_section, on_key, value", condition_cases(holds=True))
def test_key_set_where_its_condition_holds_loads(tmp_path, section, key, on_section, on_key, value):
    spec = harness._SCHEMA[section][key]
    text = with_key(config_where(on_section, on_key, value), section, key, allowed_value(spec))
    cfg = load_config(write_cfg(tmp_path, text))
    loaded = cfg.replications if section == "experiment" else getattr(cfg, section)[key]
    assert loaded == harness._parse(section, key, allowed_value(spec))


@pytest.mark.parametrize("section, key, on_section, on_key, value", [
    case for case in condition_cases(holds=True)
    if harness._SCHEMA[case.values[0]][case.values[1]].default is harness.REQUIRED
])
def test_required_key_left_out_where_its_condition_holds_exits_two(
        tmp_path, capsys, section, key, on_section, on_key, value):
    text = "\n".join(line for line in config_where(on_section, on_key, value).splitlines()
                     if not line.startswith(f"{key} ="))
    code, err = exit_code_and_stderr(tmp_path, capsys, text, kind_where(on_section, on_key, value))
    assert code == 2
    assert err == [f"error: [{section}] {key} is required for {harness._SCHEMA[section][key].scope()}"]


# ---------------------------------------------------------------------------
# the matrix-file instance kind, through the CLI

MATRIX_FILE = BASE.replace("kind = lasso-1d", """\
kind = matrix-file
matrix_file = A.txt
rhs_file = b.txt
blocks = 2
reg = l1
lam = 0.1""").replace("eps_rule = constant\neps = 0.5", "eps_rule = relative")


def _matrix_files(tmp_path):
    rng = np.random.default_rng(5)
    np.savetxt(tmp_path / "A.txt", rng.standard_normal((6, 4)))
    np.savetxt(tmp_path / "b.txt", rng.standard_normal(6))


def test_matrix_file_config_solves(tmp_path, capsys):
    _matrix_files(tmp_path)
    path = write_cfg(tmp_path, MATRIX_FILE)
    out = tmp_path / "out"
    assert cli_main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "traj_000.csv").is_file()
    p = build_instance(load_config(path))
    assert (p.n, p.n_blocks, p.regularizers[0].kind, p.regularizers[0].lam) == (4, 2, "l1", 0.1)
    assert np.array_equal(p.smooth.A, np.loadtxt(tmp_path / "A.txt"))
    capsys.readouterr()


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("reg = l1\n", ""),
    lambda text: text.replace("rhs_file = b.txt", "rhs_file = missing.txt"),
    lambda text: text.replace("lam = 0.1", "lam = 0.1\nmu = 0.2"),
    lambda text: text.replace("lam = 0.1\n", ""),
], ids=["no-reg", "missing-rhs-file", "stray-mu", "no-lam"])
def test_bad_matrix_file_config_exits_two(tmp_path, capsys, edit):
    _matrix_files(tmp_path)
    path = write_cfg(tmp_path, edit(MATRIX_FILE))
    with pytest.raises(ConfigError, match=r"^\[instance\] "):
        load_config(path)  # the schema rejects it, before any instance is built
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [instance] "), err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rule", ["eps_rule = relative", "eps_rule = constant\neps = 0.1"],
                         ids=["relative", "constant"])
@pytest.mark.parametrize("entry, cause", [
    ("nan", "the matrix A has a non-finite entry"),
    ("1e200", r"A\^T A or A\^T b overflows"),
], ids=["nan", "overflow"])
def test_non_finite_matrix_file_exits_two_naming_the_cause(tmp_path, capsys, rule, entry, cause):
    _matrix_files(tmp_path)
    A = np.loadtxt(tmp_path / "A.txt")
    A[2, 1] = float(entry)
    np.savetxt(tmp_path / "A.txt", A)
    path = write_cfg(tmp_path, MATRIX_FILE.replace("eps_rule = relative", rule))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and re.match(r"error: \[instance\] " + cause, err[0]), err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_left_out_keys_take_the_schema_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.reference == {"source": "auto"}
    assert cfg.verify == {"points": 1000, "prox_queries": 1000}
    assert cfg.probe == {"kinds": ("ls-eb",), "samples": 10_000} and not cfg.has_probe_section
    # optional keys without a default stay absent; their values derive from
    # the run, or from the signature of the function that reads them
    assert "check_period" not in cfg.solver and "n" not in cfg.instance
    assert (cfg.out_dir, cfg.solver["x0"], cfg.bregman["period"]) == ("out", "zeros", 1)


def test_required_key_left_out_is_an_error(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("kind = solve\n", ""))
    with pytest.raises(ConfigError, match=r"\[experiment\] kind is required"):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "seed", "-1"),
    ("experiment", "seed", str(2**64)),
    ("bregman", "eps_fraction", "1"),
    ("bregman", "q", "0"),
    ("instance", "target", "inf"),  # no range, but floats must be finite
    ("bregman", "weights", "ramp"),
    ("solver", "tolerance", "nan"),
    ("reference", "source", "oracle"),
    ("probe", "kinds", "ls-eb, kl, xx"),
    ("probe", "kinds", ","),
])
def test_values_outside_the_schema_are_rejected_at_load(tmp_path, section, key, value):
    base = BASE.replace("kind = lasso-1d", "kind = quad-1d")  # which takes [instance] target
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must be "):
        load_config(write_cfg(tmp_path, with_key(base, section, key, value)))


def test_seed_override_takes_the_schema_check(tmp_path):
    path = write_cfg(tmp_path, BASE)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"\[experiment\] seed must be an int in \[0, 2\^64\)"):
            harness.run_experiment(path, "solve", seed=seed, out_dir=tmp_path / "out")
    assert harness.run_experiment(path, "solve", seed=2**64 - 1, out_dir=tmp_path / "out") == 0


def test_factory_value_error_is_a_config_error(tmp_path):
    text = BASE.replace("kind = lasso-1d", "kind = lasso-random\nn = 2\nblocks = 3")
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match=r"^\[instance\] need at least one coordinate per block"):
        build_instance(cfg)


# ---------------------------------------------------------------------------
# building blocks from a loaded config


def test_build_schedule_relative_rule(tmp_path):
    text = BASE.replace("eps_rule = constant\neps = 0.5",
                        "eps_rule = relative\neps_fraction = 0.8")
    cfg = load_config(write_cfg(tmp_path, text))
    p = build_instance(cfg)
    sched = build_schedule(cfg, p)
    # lasso-1d has L = 1.01 and unit weights, so the cap is 1/1.01
    assert sched.eps_lo == pytest.approx(0.8 / 1.01)
    assert sched.eps_hi == sched.eps_lo


def test_build_schedule_alternating_with_harmonic_clip(tmp_path):
    text = BASE.replace(
        "weights = constant\nq = 1.0\neps_rule = constant\neps = 0.5",
        "weights = alternating\nq_lo = 1.0\nq_hi = 1.5\nperiod = 2\n"
        "eps_rule = harmonic-clipped\neps_lo = 0.05\neps_hi = 0.4",
    )
    cfg = load_config(write_cfg(tmp_path, text))
    p = build_instance(cfg)
    sched = build_schedule(cfg, p)
    assert sched.eps_lo == 0.05 and sched.eps_hi == 0.4
    # weights flip every two iterations
    assert sched.generator(0) == 1.0
    assert sched.generator(2) == 1.5
    assert sched.generator(4) == 1.0
    # harmonic steps decay from eps_hi and never leave the clip band
    steps = [sched.step(k) for k in range(200)]
    assert steps[0] == 0.4
    assert all(0.05 <= s <= 0.4 for s in steps)
    assert steps[50] < steps[0]


def test_build_schedule_constant_weights_with_harmonic_clip(tmp_path):
    text = BASE.replace(
        "eps_rule = constant\neps = 0.5",
        "eps_rule = harmonic-clipped\neps_lo = 0.05\neps_hi = 0.4",
    )
    cfg = load_config(write_cfg(tmp_path, text))
    sched = build_schedule(cfg, build_instance(cfg))
    assert (sched.m, sched.M, sched.eps_lo, sched.eps_hi) == (1.0, 1.0, 0.05, 0.4)
    assert sched.generator(0) == sched.generator(9) == 1.0
    assert [sched.step(k) for k in (0, 1, 100)] == [0.4, 0.2, 0.05]


def test_non_finite_weights_fail_loudly(tmp_path):
    # q = inf once passed every check and left the solver standing at x0
    path = write_cfg(tmp_path, BASE.replace("q = 1.0", "q = inf"))
    with pytest.raises(ConfigError, match="finite"):
        harness.run_experiment(path, "solve", out_dir=tmp_path / "out")


def test_inverted_step_band_is_a_config_error(tmp_path):
    # the schedule's ValueError once escaped the CLI as a traceback (exit 1)
    text = BASE.replace(
        "eps_rule = constant\neps = 0.5",
        "eps_rule = harmonic-clipped\neps_lo = 0.5\neps_hi = 0.4",
    )
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match="eps_lo <= eps_hi"):
        build_schedule(cfg, build_instance(cfg))


def test_diag_quadratic_defaults_to_two_curvatures(tmp_path):
    text = BASE.replace("kind = lasso-1d", "kind = diag-quadratic")
    p = build_instance(load_config(write_cfg(tmp_path, text)))
    assert np.array_equal(np.diag(p.smooth.A.T @ p.smooth.A), [1.0, 4.0])


def test_build_schedule_rejects_step_cap_violation(tmp_path):
    text = BASE.replace("eps = 0.5", "eps = 0.999")  # cap is 1/1.01 ~ 0.990
    cfg = load_config(write_cfg(tmp_path, text))
    p = build_instance(cfg)
    with pytest.raises(ConfigError, match="eps"):
        build_schedule(cfg, p)


# ---------------------------------------------------------------------------
# reference values


def test_reference_uses_known_optimum():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.5)
    ref = resolve_reference_value(p, sched, source="known")
    assert ref.value == 2.5
    assert ref.source == "known"
    assert np.allclose(ref.point, [2.0])


def test_reference_best_found_matches_known():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.5)
    ref = resolve_reference_value(p, sched, source="best-found", max_steps=2000)
    assert ref.source == "best-found"
    assert ref.value == pytest.approx(2.5, abs=1e-10)


def test_reference_known_requires_a_known_optimum():
    import dataclasses

    p = quad_1d(0.0)
    stripped = dataclasses.replace(p, known_optimum=None)
    sched = BregmanSchedule.constant(1.0, 0.5)
    with pytest.raises(ConfigError, match="known"):
        resolve_reference_value(stripped, sched, source="known")


def test_reference_flags_divergence():
    # eps far above the m/L cap turns the full update into an expansion:
    # T(x) - 1 = -1.5 (x - 1) for f = (x - 1)^2/2, so from the start point 0
    # F goes from 0.5 to 1.125.  There a = (1 - 2.5)/5 < 0 lets the decrease
    # test pass, so the schedule is refused before the first step
    p = quad_1d(1.0)
    sched = BregmanSchedule.constant(1.0, 2.5)
    with pytest.raises(ValueError, match=r"^eps_hi = 2\.5 must be < "):
        resolve_reference_value(p, sched, source="best-found", max_steps=50)


# ---------------------------------------------------------------------------
# replications and aggregation


def test_aggregate_gaps_by_hand():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.5)
    t1 = run(p, SolverConfig(schedule=sched, max_iters=4, tolerance=0.0, seed=0))
    t2 = run(p, SolverConfig(schedule=sched, max_iters=6, tolerance=0.0, seed=1))
    mean_gap, var_gap = aggregate_gaps([t1, t2], f_bar=2.5)
    # truncated to the shorter run: x0 plus four steps
    assert mean_gap.shape == var_gap.shape == (5,)
    g1, g2 = t1.gaps(2.5), t2.gaps(2.5)[:5]
    assert np.allclose(mean_gap, (g1 + g2) / 2)
    assert np.allclose(var_gap, ((g1 - mean_gap) ** 2 + (g2 - mean_gap) ** 2) / 2)


def rate_config(tmp_path, extra=""):
    text = BASE.replace("kind = solve", "kind = rate")
    text = text.replace("seed = 1", "seed = 42\nreplications = 4")
    text = text.replace("tolerance = 0", "tolerance = 1e-13\ncheck_period = 50")
    return load_config(write_cfg(tmp_path, text + extra))


def test_run_replications_distinct_seeds_and_shapes(tmp_path, monkeypatch):
    cfg = rate_config(tmp_path)
    # on a 1-d instance every seed draws the same blocks, so the seeds are
    # read off the configs the solvers receive
    seen, run_lockstep = {}, harness.run_lockstep

    def spy_run(p, config, x0=None):
        seen["run"] = config
        return run(p, config, x0)

    def spy_lockstep(p, configs, x0s):
        seen["lockstep"] = list(configs)
        return run_lockstep(p, configs, x0s)

    monkeypatch.setattr(harness, "run", spy_run)
    monkeypatch.setattr(harness, "run_lockstep", spy_lockstep)
    res = run_replications(cfg)
    assert len(res.trajectories) == 4
    seeds = [c.seed for c in seen["lockstep"]]
    assert seeds == [harness.derive_seed(42, r) for r in range(4)]
    assert len(set(seeds)) == 4
    assert seen["run"] == seen["lockstep"][0]  # replication 0 and its shadow row
    assert res.reference.value == 2.5
    assert res.mean_gap.ndim == 1
    assert res.var_gap.shape == res.mean_gap.shape
    assert res.near_start is None


def test_run_replications_near_start(tmp_path):
    cfg = rate_config(tmp_path, extra="x0 = near-start\nnear_start_radius = 0.1\n")
    res = run_replications(cfg)
    assert res.near_start is not None and len(res.near_start) == 4
    for row in res.near_start:
        assert row.max_dist >= 0.0
        assert isinstance(row.stayed, bool)
    # every start lies inside the requested ball around the reference point
    for traj in res.trajectories:
        assert np.linalg.norm(traj.x0 - res.reference.point) <= 0.1 + 1e-12


def test_run_replications_wraps_solver_failures(tmp_path, monkeypatch):
    cfg = rate_config(tmp_path)

    def boom(*args, **kwargs):
        raise SolverAbort("objective overflow")

    monkeypatch.setattr(harness, "run", boom)
    with pytest.raises(SolverAbort, match="^replication 0 failed: objective overflow$"):
        run_replications(cfg)


def test_run_replications_lets_programming_errors_through(tmp_path, monkeypatch):
    # only a solver abort is a failed replication; anything else is a bug
    cfg = rate_config(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("not a solver abort")

    monkeypatch.setattr(harness, "run", boom)
    with pytest.raises(RuntimeError, match="not a solver abort"):
        run_replications(cfg)


# ---------------------------------------------------------------------------
# output files


def test_writers_golden(tmp_path):
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.5)
    t1 = run(p, SolverConfig(schedule=sched, max_iters=3, tolerance=0.0, seed=0))
    mean_path = tmp_path / "mean_gap.csv"
    write_mean_csv(*aggregate_gaps([t1], f_bar=2.5), mean_path)
    lines = mean_path.read_text().splitlines()
    assert lines[0] == "k,mean_gap,var_gap"
    assert len(lines) == 1 + 4  # x0 plus three steps
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == t1.gaps(2.5)[0]

    ns_path = tmp_path / "near_start.csv"
    write_near_start_csv([harness.NearStartRow(0, 0.25, True)], ns_path)
    assert ns_path.read_text() == (
        "replication,max_dist,stayed\n0,0.25,true\n"
    )

    # the shared writer creates missing directories, ends every line with a
    # bare LF (trailing one included) and keeps all 17 significant digits
    third = 1.0 / 3.0
    deep = tmp_path / "missing" / "deeper" / "near_start.csv"
    write_near_start_csv(
        [harness.NearStartRow(0, 0.25, True), harness.NearStartRow(1, third, False)], deep
    )
    assert deep.read_bytes() == (
        b"replication,max_dist,stayed\n0,0.25,true\n1,0.33333333333333331,false\n"
    )
    assert float(deep.read_text().splitlines()[2].split(",")[1]) == third

    empty = tmp_path / "empty" / "near_start.csv"
    write_near_start_csv([], empty)
    assert empty.read_bytes() == b"replication,max_dist,stayed\n"


def test_write_replication_outputs_layout(tmp_path):
    p = lasso_1d()
    sched = BregmanSchedule.constant(1.0, 0.5)
    trajs = [run(p, SolverConfig(schedule=sched, max_iters=3, tolerance=0.0, seed=s))
             for s in (0, 1)]
    mean_gap, var_gap = aggregate_gaps(trajs, 2.5)
    res = harness.ReplicationResult(
        instance=p, schedule=sched,
        reference=harness.Reference(np.array([2.0]), 2.5, "known"),
        trajectories=trajs,
        mean_gap=mean_gap, var_gap=var_gap,
        near_start=None,
    )
    write_replication_outputs(res, tmp_path)
    assert (tmp_path / "mean_gap.csv").exists()
    assert (tmp_path / "traj_000.csv").exists()
    assert (tmp_path / "traj_001.csv").exists()
    assert not (tmp_path / "near_start.csv").exists()


# ---------------------------------------------------------------------------
# experiment dispatch


def test_run_experiment_checks_kind(tmp_path):
    path = write_cfg(tmp_path, BASE)
    with pytest.raises(ConfigError, match="kind"):
        harness.run_experiment(path, "rate")


class _ReferenceReached(Exception):
    pass


@pytest.mark.parametrize("kind", ["solve", "rate", "verify", "probe-eb"])
def test_every_flow_passes_the_reference_settings(tmp_path, monkeypatch, kind):
    seen = []

    def spy(p, sched, source="auto", max_steps=100_000, tolerance=1e-12):
        seen.append((source, max_steps, tolerance))
        raise _ReferenceReached

    monkeypatch.setattr(harness, "resolve_reference_value", spy)
    text = BASE.replace("kind = solve", f"kind = {kind}") + (
        "\n[reference]\nsource = best-found\nmax_steps = 7\ntolerance = 1e-5\n"
    )
    with pytest.raises(_ReferenceReached):
        harness.run_experiment(write_cfg(tmp_path, text), kind, out_dir=tmp_path / "out")
    assert seen == [("best-found", 7, 1e-5)]


def test_reference_step_cap_warns_on_stderr(tmp_path, capsys):
    outs, codes = {}, {}
    for max_steps in (1, 2000):
        text = BASE + f"\n[reference]\nsource = best-found\nmax_steps = {max_steps}\n"
        out = tmp_path / f"out{max_steps}"
        codes[max_steps] = harness.run_experiment(write_cfg(tmp_path, text), "solve", out_dir=out)
        outs[max_steps] = capsys.readouterr()
    # one reference step from 0 stops at F = 3, above the replication's 2.5,
    # so that solve fails; the converged reference is a lower bound
    assert codes == {1: 1, 2000: 0}
    assert "replication 0 ended below the reference value" in outs[1].out
    # the warning goes to stderr only: both runs write the same files
    assert sorted(f.name for f in (tmp_path / "out1").iterdir()) == \
        sorted(f.name for f in (tmp_path / "out2000").iterdir())
    warning = outs[1].err.splitlines()
    assert len(warning) == 1
    assert warning[0].startswith("warning: reference iteration stopped at max_steps = 1 ")
    assert "tolerance 1e-12" in warning[0]
    assert "warning" not in outs[1].out
    # the converged iteration says nothing
    assert outs[2000].err == ""


MCP_SPLIT = """\
[experiment]
kind = rate
seed = 20240802
replications = 20

[instance]
kind = quadratic-mcp
n = 20
blocks = 5
weight = 0.5
gamma = 1.05
min_eig = 0.01
max_eig = 1.0

[bregman]
weights = constant
q = 1.0
eps_rule = relative
eps_fraction = 0.8

[solver]
max_iters = 10000
tolerance = 1e-9

[reference]
source = best-found
"""


def test_rate_fails_when_a_replication_ends_below_the_reference(tmp_path, capsys):
    # a nonconvex MCP instance (min eigenvalue 0.01 < rho = 1 / 1.05): the
    # replications stop at two critical values, and the best-found value
    # from 0 is the higher one, so no rate to it may be certified
    out = tmp_path / "out"
    assert harness.run_experiment(write_cfg(tmp_path, MCP_SPLIT), "rate", out_dir=out) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    m = re.fullmatch(r"replication (\d+) ended below the reference value: "
                     r"F=(\S+) < f_bar=(\S+)", lines[0])
    assert m, lines[0]
    r, f_r, f_bar = int(m[1]), float(m[2]), float(m[3])
    assert f_r < f_bar - 0.5
    # the replication outputs are written, the rate report is not
    finals = [float(path.read_text().splitlines()[-1].split(",")[2])
              for path in sorted(out.glob("traj_*.csv"))]
    assert len(finals) == 20 and finals[r] == f_r
    assert r == min(j for j, f in enumerate(finals) if f < f_bar - gap_floor(f_bar))
    assert {round(f, 6) for f in finals} == {2.335136, 2.912079}
    assert not (out / "rate_report.csv").exists()


def test_solve_fails_when_a_replication_ends_below_the_reference(tmp_path, capsys):
    # the same split run as a solve: it reports every replication and writes
    # its trajectories, then names the first one below the reference
    out = tmp_path / "out"
    text = MCP_SPLIT.replace("kind = rate", "kind = solve")
    assert harness.run_experiment(write_cfg(tmp_path, text), "solve", out_dir=out) == 1
    lines = capsys.readouterr().out.splitlines()
    gaps = [float(m[1]) for line in lines if (m := re.search(r", gap=(\S+)$", line))]
    assert len(gaps) == 20 and min(gaps) < -0.5
    first = min(r for r, gap in enumerate(gaps) if gap < -1e-9)
    assert re.fullmatch(rf"replication {first} ended below the reference value: F=\S+ < f_bar=\S+", lines[-1])
    assert len(list(out.glob("traj_*.csv"))) == 20


def test_rate_fit_failure_prints_one_line_and_writes_no_report(tmp_path, capsys):
    # three steps leave a fit window of four points, which once ended the run in a traceback
    text = (ROOT / "configs" / "quad1d_rate.cfg").read_text().replace("max_iters = 60", "max_iters = 3")
    out = tmp_path / "out"
    assert cli_main(["rate", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["rate fit failed: fit window [0, 4) has fewer than 5 points"]
    assert captured.err == ""
    assert (out / "mean_gap.csv").is_file() and not (out / "rate_report.csv").exists()


@pytest.mark.parametrize("drop, scouts", [(None, 0), ("nu", 1), ("eta", 1)])
def test_probe_eb_scouts_only_for_a_left_out_eta_or_nu(tmp_path, monkeypatch, capsys, drop, scouts):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args: calls.append(args) or run(*args))
    text = with_key((ROOT / "configs" / "probe_quad1d.cfg").read_text(), "probe", "samples", "200")
    if drop is not None:
        text = text.replace(f"\n{drop} = 1.0\n", "\n")
    out = tmp_path / "out"
    assert cli_main(["probe-eb", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    assert len(calls) == scouts
    capsys.readouterr()


class _ScoutReached(Exception):
    pass


@pytest.mark.parametrize("drop", ["eta", "nu"])
@pytest.mark.parametrize("kind", ["verify", "probe-eb"])
def test_scout_stops_at_the_solver_tolerance(tmp_path, monkeypatch, kind, drop):
    seen = []

    def spy(p, conf, x0=None):
        seen.append((conf.max_iters, conf.tolerance))
        raise _ScoutReached

    monkeypatch.setattr(harness, "run", spy)
    text = with_key(BASE.replace("kind = solve", f"kind = {kind}"), "solver", "tolerance", "1e-7")
    text = with_key(text, "probe", "nu" if drop == "eta" else "eta", "1.0")
    if kind == "verify":  # a small suite ahead of the scout
        text = with_key(with_key(text, "verify", "points", "20"), "verify", "prox_queries", "20")
    with pytest.raises(_ScoutReached):
        harness.run_experiment(write_cfg(tmp_path, text), kind, out_dir=tmp_path / "out")
    assert seen == [(50, 1e-7)]  # max_iters = min(50, 50 * one block)


def test_run_experiment_solve_writes_outputs(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    code = harness.run_experiment(path, "solve", out_dir=out)
    assert code == 0
    assert (out / "traj_000.csv").exists()


# ---------------------------------------------------------------------------
# verify suite on an instance with two l1 weights

VERIFY_TWO_WEIGHTS = """\
[experiment]
kind = verify
seed = 3

[instance]
kind = lasso-random
n = 20
blocks = 4

[bregman]
weights = constant
q = 1.0
eps_rule = relative
eps_fraction = 0.8

[probe]
samples = 200

[verify]
points = 40
prox_queries = 20
"""


class _ScaledSubdiffL1(L1Penalty):
    """l1 whose subdifferential is off by a factor of two."""

    def subdiff(self, t):
        lo, hi = super().subdiff(t)
        return 2.0 * lo, 2.0 * hi


def _two_weight_rows(tmp_path, monkeypatch, second):
    base = lasso_random(n=20, n_blocks=4)
    regs = (L1Penalty(0.1), L1Penalty(0.1), second, second)
    p = make_quadratic_problem(base.smooth.A, base.smooth.b, regs, base.partition)
    monkeypatch.setattr(harness, "build_instance", lambda cfg: p)
    rows = harness.run_verification(load_config(write_cfg(tmp_path, VERIFY_TWO_WEIGHTS)))
    return {(r.check, r.name): r for r in rows}


def test_verify_checks_every_distinct_penalty(tmp_path, monkeypatch):
    rows = _two_weight_rows(tmp_path, monkeypatch, L1Penalty(0.5))
    for label in ("l1-block0", "l1-block2"):
        assert rows[("penalty", f"{label}-midpoint-convexity")].passed
        assert rows[("penalty", f"{label}-subdiff")].passed
        assert rows[("prox-oracle", f"{label}-argmin")].passed
    assert ("prox-oracle", "scad-argmin") in rows and ("prox-oracle", "mcp-argmin") in rows
    assert all(r.passed for r in rows.values())


def fd_gradient_error(p, x, h=1e-6):
    """Largest central-difference error of the smooth gradient at x, relative
    to 1 + max |grad|, one coordinate and two f calls at a time."""
    g = p.smooth.grad(x)
    fd = np.empty_like(g)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[j] = (p.smooth.value(x + e) - p.smooth.value(x - e)) / (2 * h)
    return float(np.max(np.abs(fd - g))) / (1.0 + float(np.max(np.abs(g))))


def certificate_error(p, q, eps, x):
    """Max-norm distance from 0 to grad f(x) + dG(y) + (q/eps)(y - x) at
    y = T(x), one point at a time."""
    g = p.smooth.grad(x)
    y = full_prox(p, q, eps, x, grad=g)
    r = g + (q / eps) * (y - x)
    lo, hi = p.penalty_subdiff(y)
    return float(np.max(np.abs(r + np.clip(-r, lo, hi))))


def test_verify_groups_equal_their_per_point_loops(tmp_path, monkeypatch):
    # the penalty and kernel groups do each point's arithmetic elementwise,
    # so their arrays hold the per-point loop's bits; the smooth and
    # certificate groups go through matrix products on the point stack, so
    # they agree with the loop to rounding
    groups, worst_check = {}, harness.worst_check

    def spy(check, name, lhs, rhs, tol):
        groups[name] = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
        return worst_check(check, name, lhs, rhs, tol)

    monkeypatch.setattr(harness, "worst_check", spy)
    cfg = load_config(write_cfg(tmp_path, VERIFY_TWO_WEIGHTS))
    harness.run_verification(cfg)
    p, sched, ref = harness._setup(cfg)
    rng = np.random.Generator(np.random.PCG64(harness.derive_seed(cfg.seed, harness._VERIFY_STREAM)))
    spread = 3.0 * max(1.0, float(np.linalg.norm(ref.point)))
    pts = [harness.sample_in_ball(ref.point, spread, rng) for _ in range(cfg.verify["points"])]
    m, M, w = sched.m, sched.M, sched.generator(0)
    sandwich = []
    for x, y in zip(pts, pts[1:] + pts[:1]):
        d2, D = float(np.sum((y - x) ** 2)), 0.5 * float(np.sum(w * (y - x) ** 2))
        sandwich.append(-min(D - 0.5 * m * d2, 0.5 * M * d2 - D))
    assert np.array_equal(groups["sandwich"][0], sandwich)
    f, q, eps = p.smooth, sched.generator(0), sched.step(0)
    descent = np.array([f.value(y) - f.value(x) - float(f.grad(x) @ (y - x)) for x, y in zip(pts, pts[1:] + pts[:1])])
    lhs = groups["descent-lemma"][0]
    assert np.all(np.abs(lhs - descent) <= 1e-12 * (1.0 + np.abs(lhs)))
    # central differences at h = 1e-6 round to about eps |f| / h; the two
    # forms of f differ there, and by much less elsewhere
    fd = [fd_gradient_error(p, x) for x in pts[:25]]
    assert len(groups["gradient-fd"][0]) == 25
    assert np.all(np.abs(groups["gradient-fd"][0] - fd) <= 1e-8)
    cert = [certificate_error(p, q, eps, x) for x in pts[:200]]
    assert len(groups["optimality-certificate"][0]) == len(pts)
    assert np.all(np.abs(groups["optimality-certificate"][0] - cert) <= 1e-14)
    for label, reg in harness._distinct_penalties(p):
        ts = rng.standard_normal(2 * len(pts)) * 2.0
        h = lambda u: float(reg.value(u)) + 0.5 * reg.rho * u * u
        loop = [(h(0.5 * (t + s)), 0.5 * (h(t) + h(s))) for t, s in zip(ts[0::2], ts[1::2])]
        assert np.array_equal(np.transpose(groups[f"{label}-midpoint-convexity"]), loop)
        errs = []
        for t in ts[:50][np.abs(ts[:50]) > 1e-3]:
            lo, hi = reg.subdiff(np.array([t]))
            fd = (float(reg.value(t + 1e-6)) - float(reg.value(t - 1e-6))) / 2e-6
            errs.append(max(float(hi[0] - lo[0]), abs(0.5 * float(lo[0] + hi[0]) - fd) / (1.0 + abs(fd))))
        assert np.array_equal(groups[f"{label}-subdiff"][0], errs)


class _NanBeyondL1(L1Penalty):
    """l1 whose value is NaN for |t| > 3."""

    def psi(self, u):
        return np.where(u > 3.0, np.nan, super().psi(u))


def test_verify_report_is_byte_identical_across_runs(tmp_path, capsys):
    # the smooth and certificate groups go through BLAS matrix products on
    # stacks of points; two runs at one seed still write the same bytes
    path = write_cfg(tmp_path, VERIFY_TWO_WEIGHTS)
    for run_dir in ("a", "b"):
        assert cli_main(["verify", "--config", str(path), "--seed", "5", "--out", str(tmp_path / run_dir)]) == 0
    first = (tmp_path / "a" / "verify_report.csv").read_bytes()
    assert first == (tmp_path / "b" / "verify_report.csv").read_bytes()
    assert b"gradient-fd" in first and b"optimality-certificate" in first
    capsys.readouterr()


def test_verify_fails_a_group_with_a_nan_after_its_first_point(tmp_path, monkeypatch):
    slacks, worst_check = {}, harness.worst_check

    def spy(check, name, lhs, rhs, tol):
        slacks[name] = np.asarray(rhs, dtype=float) - np.asarray(lhs, dtype=float)
        return worst_check(check, name, lhs, rhs, tol)

    monkeypatch.setattr(harness, "worst_check", spy)
    rows = _two_weight_rows(tmp_path, monkeypatch, _NanBeyondL1(0.5))
    assert rows[("penalty", "l1-block0-midpoint-convexity")].passed
    row = rows[("penalty", "l1-block2-midpoint-convexity")]
    assert np.isnan(row.slack) and not row.passed
    slack = slacks["l1-block2-midpoint-convexity"]
    assert np.isfinite(slack[0]) and np.isnan(slack).sum() < slack.size


def test_verify_catches_a_faulty_second_penalty(tmp_path, monkeypatch):
    rows = _two_weight_rows(tmp_path, monkeypatch, _ScaledSubdiffL1(0.5))
    assert rows[("penalty", "l1-block0-subdiff")].passed
    assert not rows[("penalty", "l1-block2-subdiff")].passed


def test_verify_enumerates_each_point_once(monkeypatch):
    # the identities, decrease and envelope rows of a verify point, and the
    # proximity and dominance rows of a hypothesis point, share one
    # enumeration of its one-block targets: 500 + 200 points, 700 calls
    import vbscd.diagnostics as diagnostics

    seen, coordinate_prox_all = [], harness.coordinate_prox_all

    def spy(p, q, eps, x, **kw):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return coordinate_prox_all(p, q, eps, x, **kw)

    monkeypatch.setattr(harness, "coordinate_prox_all", spy)
    monkeypatch.setattr(diagnostics, "coordinate_prox_all", spy)
    cfg = load_config(ROOT / "configs" / "lasso50_verify.cfg")
    rows = harness.run_verification(cfg)
    assert all(r.passed for r in rows)
    assert len(seen) == len(set(seen)) == 700
