import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "out_drift.py"
_spec = importlib.util.spec_from_file_location("out_drift", SCRIPT)
out_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(out_drift)


def _pair(tmp_path, a, b):
    (tmp_path / "a.csv").write_text(a)
    (tmp_path / "b.csv").write_text(b)
    return out_drift.drift(tmp_path / "a.csv", tmp_path / "b.csv")


def test_semicolon_joined_numbers_drift_by_rounding(tmp_path):
    same, line = _pair(tmp_path,
                       "kind,extremal\nls-eb,0.5;1.25;3\n",
                       "kind,extremal\nls-eb,0.5;1.2500000000000002;3\n")
    assert same, line
    assert "text equal" in line and "(extremal, row 0)" in line
    assert "max abs diff 2.22e-16" in line


def test_semicolon_joined_cells_that_differ_in_length_or_text_differ(tmp_path):
    for a, b in (("0.5;1", "0.5;1;2"), ("0.5;x", "0.5;y"), ("", "0.5")):
        same, line = _pair(tmp_path, f"extremal\n{a}\n", f"extremal\n{b}\n")
        assert not same and "text DIFFERS" in line, (a, b)
    same, line = _pair(tmp_path, "extremal\n0.5;x\n", "extremal\n0.5;x\n")
    assert same and "text equal" in line
