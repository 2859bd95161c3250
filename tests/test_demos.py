import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the demos import eggbox by its public names, so a deleted or renamed
    # name breaks one of them here
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_the_demos_are_found():
    assert len(DEMOS) >= 4
