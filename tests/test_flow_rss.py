import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_flow_rss_runs_a_config_once():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "flow_rss.py"), "--runs", "1", "configs/quad1d_rate.cfg"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configs/quad1d_rate.cfg  ")
    assert lines[0].count("peak_rss_mb=") == 1
    assert "wall_s=" not in proc.stdout
