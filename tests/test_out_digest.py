import importlib.util
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "out_digest.py"
_spec = importlib.util.spec_from_file_location("out_digest", SCRIPT)
out_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(out_digest)


def test_child_flows_run_blas_on_one_thread(monkeypatch):
    # outputs at n ~ 1000 move with the BLAS thread count, so a digest made
    # under any setting must pin it
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "2")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = out_digest.child_env()
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep) == [str(out_digest.ROOT / "src"), "elsewhere"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"  # the script's own environment is left alone
