import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_quicktest_passes():
    # the benchmark drives eggbox through its public functions and traces
    # them by name, so a renamed layer or a broken call fails here
    done = subprocess.run([sys.executable, str(ROOT / "benchmark" / "quicktest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
