"""Quick test of the benchmark itself, on tiny inputs (about a minute).

    python3 benchmark/quicktest.py

It runs every workload once, checks that the traced and untraced runs
print every metric BENCHMARK.json names, shows that every output check
can fail (a wrong expectation or a doctored result must be reported as a
failed operation), and that run.py refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def set_up(name):
    prepare, build = workloads.WORKLOADS[name]
    eb = harness.fresh_eggbox()
    return eb, build(eb, ROOT, SEED, True, prepare(SEED, True))


def results_of(wl):
    """Each operation's result, in order, with the round's carry."""
    carry = {}
    return [(op, op.run(carry)) for op in wl.ops], carry


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return {"C2": "C4", "C4": "C2"}[value]
    if isinstance(value, frozenset):
        return frozenset(sorted(value)[1:])
    if isinstance(value, dict):
        return {k: v + 1 for k, v in value.items()}
    raise TypeError(value)


class QuickTest(unittest.TestCase):
    def test_every_workload_passes_on_tiny_inputs(self):
        for name in workloads.WORKLOADS:
            _, wl = set_up(name)
            times, failed, problems = harness.run_round(wl)
            self.assertEqual((failed, problems), (0, []), name)
            self.assertEqual(set(times), {op.name for op in wl.ops})

    def test_wrong_expectation_is_a_failed_operation(self):
        for name in workloads.WORKLOADS:
            _, wl = set_up(name)
            op = wl.ops[0]
            key = "size" if "size" in op.expected else next(iter(op.expected))
            op.expected = dict(op.expected, **{key: corrupted(op.expected[key])})
            _, failed, problems = harness.run_round(wl)
            self.assertEqual(failed, 1, name)
            self.assertTrue(problems[0].startswith(op.name), problems)

    def test_every_expected_value_is_checked(self):
        for name in workloads.WORKLOADS:
            _, wl = set_up(name)
            done, carry = results_of(wl)
            for op, result in done:
                self.assertEqual(op.check(result, op.expected, carry), [], op.name)
                for key, value in op.expected.items():
                    wrong = dict(op.expected, **{key: corrupted(value)})
                    self.assertNotEqual(op.check(result, wrong, carry), [], f"{op.name} {key}")

    def test_property_checks_can_fail(self):
        eb, wl = set_up("cover")
        (op, (c, report)), = results_of(wl)[0]
        report.add(eb.Check("doctored", "fail", "by the test"))
        self.assertIn("check doctored is fail (by the test)", op.check((c, report), op.expected, {}))
        c.mode = "cheap"
        self.assertTrue(op.check((c, report), op.expected, {}))

        eb, wl = set_up("embed")
        done, carry = results_of(wl)
        ops = {op.name: (op, result) for op, result in done}
        op, (sol, report) = ops["E2"]
        sol.rho_map.pop(next(iter(sol.rho_map)))
        self.assertTrue(op.check((sol, report), op.expected, carry))
        mutation = ops["E2-mutation"][0]
        # a clean, fully enumerated solution is no detected mutation
        self.assertEqual(len(mutation.check(ops["E3"][1], mutation.expected, carry)), 2)

        eb, wl = set_up("monoids")
        done, carry = results_of(wl)
        # T3's maximal subgroup is trivial, so its label must be C1
        op, result = next((op, result) for op, result in done if op.name == wl.largest)
        m, ideal, e, group, label, faithful, decode = result
        self.assertEqual(op.check(result, op.expected, carry), [])
        self.assertTrue(op.check((m, ideal, e, group, "doctored", faithful, decode),
                                 op.expected, carry))
        other = next(x for x in m.elements if x not in ideal.member)
        self.assertTrue(op.check((m, ideal, other, group, label, faithful, decode),
                                 op.expected, carry))

    def test_runs_print_every_named_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for name in workloads.WORKLOADS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    harness.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                                  "--trace", str(trace), "--tiny"])
                result = json.loads(out.getvalue().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], name)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, f"{name} trace={trace}")

    def test_refuses_to_run_without_sources(self):
        bare = HERE / "results" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "cover", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
