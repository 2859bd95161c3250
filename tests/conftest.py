import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="session")
def selftest_stdout():
    """``eggbox selftest --verbose`` stdout of a fresh interpreter under a
    given hash seed, run once a session: criterion 10 compares the
    trailers of two seeds and the golden transcript their reports."""
    runs = {}

    def run(hashseed):
        if hashseed not in runs:
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "eggbox", "selftest", "--verbose"],
                capture_output=True, text=True, env=env, timeout=600)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            runs[hashseed] = proc.stdout
        return runs[hashseed]

    return run
