"""Benchmark of eggbox: time to a verified result on three workloads.

    python3 benchmark/run.py [--workload cover|embed|monoids|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded Python process with a fixed hash seed; this process only
starts it, waits for it and passes its result on.  The last line printed
is one JSON object: for one workload, ``correct``, ``attempted``,
``failed`` and ``metrics``; for ``all``, one such object per workload.
The full record of each run goes to benchmark/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cover", "embed", "monoids")
# a run of one workload must end within 180 seconds, whatever the child
# does; a run of all three shares one deadline of three times that, and
# each child is given what is left of it
TIMEOUT_S = 170


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload in a child process that must end by ``deadline``
    (a ``time.monotonic()`` value); returns (result, its other output
    lines), or None when the child failed."""
    out = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    # the hash seed fixes set iteration order, one of the things that would
    # otherwise differ from process to process
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result by the deadline ({left:.0f} s were left)",
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1]), lines[:-1]


def summary(workload, result):
    lines = [f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {'yes' if result['correct'] else 'NO'}"]
    for name, m in result["metrics"].items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.4f}"
        lines.append(f"  {name:<44} {value:>12} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eggbox" / "__init__.py").is_file():
        print(f"no eggbox sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    results = {}
    for name in names:
        got = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        if got is None:
            return 1
        results[name], notes = got
        for line in notes:
            print(f"{name}: {line}")
        print(summary(name, results[name]), flush=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
