import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # Runs every benchmark workload at toy size and checks that corrupted
    # outputs are rejected; guards the benchmark's use of the solver and
    # Constraint interfaces. Gates on no timing.
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "selftest.py")],
        capture_output=True, text=True, cwd=REPO, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
