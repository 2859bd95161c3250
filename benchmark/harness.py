"""Runs one workload in this process and prints its result as JSON.

Started by run.py in a fresh process; see README.md.  The process sets
up the workload several times (set-up time is the median), then runs
``ROUNDS`` whole rounds of the workload's operations and reports each
operation's median over them.  ``--seconds`` is the measuring budget: no
round starts once it is spent, so on a much slower machine a run ends
after fewer rounds (never fewer than one).  Every timed operation starts
from the same state: the previous result is released and the garbage
collector has run outside the timer, and what set-up built is frozen out
of the collector's reach.

With ``--trace 1`` the run makes one untraced and one traced round and
reports per-layer self time and calls from the traced one, the tracing
overhead against the untraced one, and the cost of one product of each
element kind.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least this many times and for at least this long;
# setup_s is the median
SETUP_REPEATS = 7
SETUP_SECONDS = 2.0
# rounds per untraced run: each operation's time is the median of three
ROUNDS = 3
PRODUCT_PAIRS = 400
PRODUCT_REPEATS = 5


def fresh_eggbox():
    """Import eggbox from the checkout's src/, dropping any earlier import so
    that every set-up pays for the import and starts with empty caches."""
    for name in [n for n in sys.modules if n == "eggbox" or n.startswith("eggbox.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("eggbox")


def set_up(workload, seed, tiny, inputs, tracer=None):
    start = time.perf_counter()
    eb = fresh_eggbox()
    if tracer is not None:
        tracer.install()
    wl = WORKLOADS[workload][1](eb, ROOT, seed, tiny, inputs)
    return eb, wl, time.perf_counter() - start


def run_round(wl, tracer=None):
    """Every operation once, in order: (seconds per operation, failed
    operations, problems)."""
    carry = {}
    times = {}
    failed = 0
    problems = []
    for op in wl.ops:
        gc.collect()
        if tracer is not None:
            tracer.request = op.name
        start = time.perf_counter()
        try:
            result = op.run(carry)
            times[op.name] = time.perf_counter() - start
            bad = op.check(result, op.expected, carry)
        except Exception as ex:  # an operation that raises counts as failed
            bad = [f"raised {ex!r}"]
        result = None
        if bad:
            failed += 1
            problems.extend(f"{op.name}: {p}" for p in bad)
    gc.collect()
    return times, failed, problems


def product_costs(eb):
    """Microseconds per ``mul`` of each element kind, median of repeats over
    fixed pairs (the pairs do not depend on the workload seed)."""
    rnd = random.Random(2007)
    kinds = {}
    degree = 8
    xs = [eb.transformation([rnd.randrange(degree) for _ in range(degree)]) for _ in range(64)]
    kinds["transf"] = (eb.compose_transformations, xs)
    g = eb.builtin_group("S4xC2")
    q, _ = eb.quotient_group(g, [g.identity])
    kinds["table"] = (q.mul, list(q.elements))
    v4 = eb.builtin_group("C2xC2")
    xs = [eb.row_monomial([(rnd.randrange(7), rnd.choice(v4.elements)) for _ in range(7)])
          for _ in range(64)]
    kinds["rowmono"] = (eb.make_rowmono_mul(v4.mul), xs)
    c4 = eb.builtin_group("C4")

    def inner():
        return eb.row_monomial([(rnd.randrange(2), rnd.choice(c4.elements)) for _ in range(2)])

    xs = [eb.row_monomial([(rnd.randrange(5), inner()) for _ in range(5)]) for _ in range(64)]
    kinds["block"] = (eb.make_rowmono_mul(eb.make_rowmono_mul(c4.mul)), xs)

    out = {}
    for kind, (mul, xs) in kinds.items():
        pairs = [(rnd.choice(xs), rnd.choice(xs)) for _ in range(PRODUCT_PAIRS)]
        samples = []
        for _ in range(PRODUCT_REPEATS):
            start = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            samples.append((time.perf_counter() - start) / len(pairs) * 1e6)
        out[f"elements.product_us.{kind}"] = statistics.median(samples)
    return out


def op_medians(rounds):
    """Each operation's median time over the rounds in which it succeeded."""
    samples = {}
    for times, _, _ in rounds:
        for name, took in times.items():
            samples.setdefault(name, []).append(took)
    return {name: statistics.median(ts) for name, ts in samples.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, inputs):
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        wl = None
        gc.collect()
        _, wl, took = set_up(args.workload, args.seed, args.tiny, inputs)
        setup_times.append(took)
    gc.collect()
    gc.freeze()
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl))
        if len(rounds) == ROUNDS or time.perf_counter() - start >= args.seconds:
            break
    medians = op_medians(rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "verified_s": metric(sum(medians.values()), "s"),
        "largest_s": metric(medians.get(wl.largest, 0.0), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    detail = {"setup_s": setup_times, "rounds": [times for times, _, _ in rounds],
              "largest": wl.largest}
    return wl, rounds, metrics, detail


def traced_run(args, inputs):
    tracer = Tracer()
    eb, wl, _ = set_up(args.workload, args.seed, args.tiny, inputs, tracer)
    tracer.remove()
    gc.collect()
    gc.freeze()
    plain = run_round(wl)
    tracer.install()
    try:
        traced = run_round(wl, tracer)
    finally:
        tracer.remove()
    rounds = [plain, traced]
    # the spans are those of the traced set-up and the traced round
    metrics = {name: metric(value, "s" if name.endswith("_s") else "count")
               for name, value in tracer.totals().items()}
    for name, value in product_costs(eb).items():
        metrics[name] = metric(value, "us")
    untraced_s = sum(plain[0].values())
    traced_s = sum(traced[0].values())
    metrics["trace.verified_s"] = metric(traced_s, "s")
    metrics["trace.untraced_verified_s"] = metric(untraced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    detail = {"rounds": [times for times, _, _ in rounds], "largest": wl.largest,
              "spans": tracer.spans}
    return wl, rounds, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="the quick test's small inputs")
    parser.add_argument("--out", help="write the full record of the run here")
    args = parser.parse_args(argv)

    inputs = WORKLOADS[args.workload][0](args.seed, args.tiny)
    wl, rounds, metrics, detail = (traced_run if args.trace else untraced_run)(args, inputs)
    attempted = len(rounds) * len(wl.ops)
    failed = sum(f for _, f, _ in rounds)
    problems = sorted({p for _, _, ps in rounds for p in ps})
    for p in problems:
        print(f"problem: {p}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      problems=problems, **detail)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
