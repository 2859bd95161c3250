"""Golden transcript: the same behaviour, pinned.

The verbose selftest report (timings stripped) and the stdout of a fixed
set of fast CLI runs are compared with the files under tests/golden/, and
a mismatch prints a unified diff.  After an intended change, regenerate
them with

    EGGBOX_GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest -q tests/test_golden.py

and list every golden line that moved in CHANGES.md.
"""

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
CLI_RUNS = (
    "analyze Q8",
    "analyze M --defs definitions/unit-zero.defs",
    "cover C2 3 --mode auto",
    "cover C2 3 --mode full",
    "cover C2 3 --mode cheap",
    "cover S3 1000",
    "embed E1 --defs definitions/unit-zero.defs",
    "embed E2 --defs definitions/doubled-swap.defs",
    "embed E3 --defs definitions/doubled-swap.defs",
    "embed E2 --cap 50 --defs definitions/doubled-swap.defs",
    "embed P --cap 1000 --defs definitions/cover-base.defs",
    "srank Q8 C2",
    "srank A5 A5",
)
# every run in one fresh interpreter, on the system allocator, so that an
# output that follows allocation order rather than values shows up here
DRIVER = """
import sys
from eggbox.cli import main
for line in sys.argv[1:]:
    print("$ eggbox " + line, flush=True)
    code = main(line.split())
    print(f"[exit {code}]", flush=True)
"""


def cli_transcript():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONMALLOC="malloc")
    proc = subprocess.run([sys.executable, "-c", DRIVER, *CLI_RUNS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


def compare(name, got):
    path = GOLDEN / name
    if os.environ.get("EGGBOX_GOLDEN_UPDATE"):
        path.write_text(got, encoding="utf-8")
    want = path.read_text(encoding="utf-8")
    diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                f"golden/{name}", "this run", lineterm="")
    return "\n".join(diff)


def test_transcripts_match_the_golden_files(selftest_stdout):
    # the two runs criterion 10 compares the trailers of
    untimed = [re.sub(r"  \[\d+\.\d+s\]$", "", selftest_stdout(seed), flags=re.M)
               for seed in ("0", "31337")]
    diffs = [compare("selftest-verbose.txt", text) for text in untimed]
    diffs.append(compare("cli.txt", cli_transcript()))
    assert not any(diffs), "\n".join(filter(None, diffs))
