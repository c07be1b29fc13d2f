import numpy as np
import pytest

from vbscd.cli import build_parser, main

SOLVE_CFG = """\
[experiment]
kind = solve
seed = 7
replications = 2

[instance]
kind = lasso-1d

[bregman]
weights = constant
q = 1.0
eps_rule = constant
eps = 0.5

[solver]
max_iters = 40
tolerance = 0
"""

VERIFY_CFG = """\
[experiment]
kind = verify
seed = 3

[instance]
kind = lasso-random
n = 6
blocks = 3
l1_weight = 0.4
design_seed = 17

[bregman]
weights = constant
q = 1.0
eps_rule = relative
eps_fraction = 0.5

[solver]
max_iters = 500
tolerance = 1e-10

[verify]
points = 40
prox_queries = 30
"""


RATE_CFG = SOLVE_CFG.replace("kind = solve", "kind = rate") + "\n[probe]\nsamples = 200\n"

PROBE_CFG = (SOLVE_CFG.replace("kind = solve", "kind = probe-eb").replace("replications = 2\n", "")
             + "\n[probe]\nkinds = ls-eb, kl\nsamples = 200\n")


def with_key(text, section, key, value):
    """``text`` with ``key = value`` set in [section], replacing any earlier value."""
    lines = text.splitlines()
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    body = [line for line in lines[start + 1:end] if not line.startswith(f"{key} =")]
    return "\n".join(lines[:start + 1] + [f"{key} = {value}"] + body + lines[end:]) + "\n"


@pytest.mark.parametrize("kind, section, key, value", [
    # each of these once escaped as a traceback with exit 1
    ("solve", "solver", "max_iters", "0"),
    ("solve", "solver", "check_period", "0"),
    ("solve", "solver", "tolerance", "-1"),
    ("verify", "instance", "n", "0"),
    ("rate", "probe", "eta", "-1"),
    # each of these once dropped rows from the report, or checked nothing
    ("verify", "verify", "prox_queries", "0"),
    ("verify", "verify", "points", "0"),
    # this once drew 10^6 points before a misleading error
    ("verify", "probe", "samples", "0"),
    # each of these was once accepted with exit 0
    ("rate", "probe", "kinds", "bogus"),
    ("verify", "solver", "x0", "bogus"),
    ("solve", "solver", "near_start_radius", "-1"),
    # each of these is read only by the replications of solve and rate, and
    # was once ignored by verify and probe-eb
    ("verify", "experiment", "replications", "3"),
    ("verify", "solver", "x0", "near-start"),
    ("verify", "solver", "near_start_radius", "0.5"),
    ("verify", "solver", "check_period", "5"),
    ("probe-eb", "experiment", "replications", "1"),
    ("probe-eb", "solver", "x0", "zeros"),
    ("probe-eb", "solver", "near_start_radius", "1.0"),
    ("probe-eb", "solver", "check_period", "1"),
])
def test_bad_value_exits_two_naming_the_key(tmp_path, capsys, kind, section, key, value):
    text = {"solve": SOLVE_CFG, "verify": VERIFY_CFG, "rate": RATE_CFG, "probe-eb": PROBE_CFG}[kind]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_key(text, section, key, value))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: [{section}] {key} "), err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()  # rejected before any work


@pytest.mark.parametrize("key, value", [("max_steps", "100000"), ("tolerance", "1e-12")])
def test_unread_reference_key_exits_two(tmp_path, capsys, key, value):
    # lasso-1d has a known optimum, which source = auto takes without any
    # full-map iteration; such a key was once accepted with exit 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_key(SOLVE_CFG, "reference", key, value))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: [reference] {key} goes unread"), err
    assert not out.exists()
    # under best-found the iteration reads it
    cfg.write_text(with_key(with_key(SOLVE_CFG, "reference", key, value), "reference", "source", "best-found"))
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("kind", ["verify", "probe-eb"])
def test_unread_max_iters_exits_two(tmp_path, capsys, kind):
    # with both [probe] eta and nu set no scout run sizes the neighborhood,
    # so nothing reads [solver] max_iters; this was once accepted with exit 0
    from vbscd.harness import load_config

    text = {"verify": VERIFY_CFG, "probe-eb": PROBE_CFG}[kind]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_key(with_key(text, "probe", "eta", "1.0"), "probe", "nu", "1.0"))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [solver] max_iters "), err
    assert not (tmp_path / "out").exists()
    # without max_iters the config loads, and with one of eta, nu the scout reads it
    cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                             if not line.startswith("max_iters")))
    assert load_config(cfg).solver["max_iters"] == 1000  # the default
    cfg.write_text(with_key(text, "probe", "eta", "1.0"))
    assert load_config(cfg).solver["max_iters"] == {"verify": 500, "probe-eb": 40}[kind]


def test_lt_eb_without_a_unit_weight_prox_exits_two(tmp_path, capsys):
    # q = 2 admits eps_0 = 0.8 * 2/rho_max = 2.4, but lt-eb's unit-weight
    # prox needs 1/eps_0 > rho_max = 2/3; this once ended in a traceback, exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PROBE_CFG.replace("kind = lasso-1d", "kind = quadratic-mcp\nn = 10\nblocks = 5\n"
                                     "gamma = 1.5\nmin_eig = 0.3\nmax_eig = 0.5")
                   .replace("q = 1.0", "q = 2.0")
                   .replace("eps_rule = constant\neps = 0.5", "eps_rule = relative\neps_fraction = 0.8")
                   .replace("kinds = ls-eb, kl", "kinds = lt-eb"))
    assert main(["probe-eb", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [probe] kinds = lt-eb "), err
    assert "eps_0 = 2.4" in err[0] and "rho_max = 0.666" in err[0]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["meditate"])
    assert exc.value.code == 2


def test_missing_config_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_missing_config_file_reports_error(capsys):
    assert main(["solve", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_kind_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SOLVE_CFG)
    assert main(["rate", "--config", str(cfg)]) == 2
    assert "kind" in capsys.readouterr().err


def test_solve_writes_trajectories(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SOLVE_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "traj_000.csv").exists()
    assert (out / "traj_001.csv").exists()
    assert (out / "mean_gap.csv").exists()
    capsys.readouterr()


def test_seed_override_changes_block_draws(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    # a 3-block instance so the drawn block sequence shows up in the output
    text = SOLVE_CFG.replace(
        "kind = lasso-1d",
        "kind = lasso-random\nn = 6\nblocks = 3\ndesign_seed = 4",
    ).replace("eps_rule = constant\neps = 0.5",
              "eps_rule = relative\neps_fraction = 0.5")
    cfg.write_text(text)
    outs = {}
    for name, seed_args in (("a", []), ("b", ["--seed", "99"]), ("c", [])):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out)] + seed_args) == 0
        outs[name] = (out / "traj_000.csv").read_bytes()
    capsys.readouterr()
    assert outs["a"] == outs["c"]  # same config, same bytes
    assert outs["a"] != outs["b"]  # overridden seed, different draws


def test_verify_suite_passes_on_small_instance(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(VERIFY_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "verify_report.csv").read_text().splitlines()
    assert report[0] == "check,name,lhs,rhs,slack,pass"
    assert len(report) > 10
    assert all(line.endswith(",true") for line in report[1:])
    capsys.readouterr()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("solve", "verify", "rate", "probe-eb"):
        assert name in text
