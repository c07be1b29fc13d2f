import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "out_digest.py"
_spec = importlib.util.spec_from_file_location("out_digest", SCRIPT)
out_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(out_digest)

_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_child_flows_run_blas_on_one_thread(monkeypatch):
    # outputs at n ~ 1000 move with the BLAS thread count; the digest passes
    # the caller's setting on, and the CLI pins one thread before numpy loads
    for name in _THREADS:
        monkeypatch.setenv(name, "2")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = out_digest.child_env()
    assert [env[name] for name in _THREADS] == ["2", "2", "2"]
    assert env["PYTHONPATH"].split(os.pathsep) == [str(out_digest.ROOT / "src"), "elsewhere"]
    code = f"import os, vbscd.cli; print(*(os.environ[k] for k in {_THREADS!r}))"
    child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True)
    assert child.stdout.split() == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"  # the script's own environment is left alone
