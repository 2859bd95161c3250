"""Acceptance gate: one pass/fail line per shipped guarantee.

Criteria 1-9 run once through the shared acceptance driver; criterion 10
(deterministic selftest output) runs the installed CLI twice in fresh
interpreters with different hash seeds and compares the trailers.
"""

import os
import subprocess
import sys

import pytest

from eggbox import acceptance
from eggbox.acceptance import run_acceptance
from eggbox.core import FiniteMonoid
from eggbox.report import Check, ConstructionReport

BUDGETS = {
    "criterion-1": 10.0,
    "criterion-2": 60.0,
    "criterion-3": 10.0,
    "criterion-4": 300.0,
    "criterion-8": 60.0,
}


@pytest.fixture(scope="module")
def outcome():
    return run_acceptance()


def check(outcome, name):
    report = next((r for r in outcome.reports if r.construction == name), None)
    assert report is not None, f"{name} never ran"
    failing = [c.name for c in report.checks if c.status == "fail"]
    assert report.passed, f"{name}: failing checks {failing}"
    budget = BUDGETS.get(name)
    if budget is not None:
        assert outcome.elapsed[name] < budget, (
            f"{name} took {outcome.elapsed[name]:.1f}s, budget {budget}s")


def test_criterion_01_psi_local_isomorphisms(outcome):
    check(outcome, "criterion-1")


def test_criterion_02_idempotent_covers(outcome):
    check(outcome, "criterion-2")


def test_criterion_03_cheap_cover_witnesses(outcome):
    check(outcome, "criterion-3")


def test_criterion_04_worked_embeddings(outcome):
    check(outcome, "criterion-4")


def test_criterion_05_mutation_detection(outcome):
    check(outcome, "criterion-5")


def test_criterion_06_minimal_ideal_images(outcome, monkeypatch):
    check(outcome, "criterion-6")
    report = next(r for r in outcome.reports if r.construction == "criterion-6")
    assert [c.name for c in report.checks if "-rho-" in c.name] == [
        f"{key}-rho-{what}-image" for key in ("E1", "E2", "E3") for what in ("ideal", "subgroup")]
    # an image check that criterion 4 skipped, rho having broken an edge, fails here
    embedded = ConstructionReport("criterion-4")
    embedded.add(Check("E2-rho-ideal-image", "skipped", "rho breaks an edge of M'"))
    monkeypatch.setattr(acceptance, "COVER_GROUPS", ())
    assert not acceptance.criterion_6(embedded, {}).passed


def test_criterion_07_idempotent_generated_simple(outcome):
    check(outcome, "criterion-7")


def test_criterion_07_walks_each_span_edge_once(monkeypatch):
    # is_simple reads the successor rows idempotent_generated kept, so each
    # edge of a span is walked once: 115,096 of the 230,192 walks this
    # criterion made when is_simple walked every edge again
    wreaths = acceptance._wreaths()
    acceptance.criterion_1(wreaths)
    _, covers = acceptance.criterion_2()
    _, sols, _ = acceptance.criterion_4()
    times = FiniteMonoid.times
    calls = 0

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return times(self, i, j)

    monkeypatch.setattr(FiniteMonoid, "times", counted)
    report = acceptance.criterion_7(wreaths, covers, sols)
    assert report.passed
    assert 0 < calls <= 116_000


def test_criterion_08_simple_ranks(outcome):
    check(outcome, "criterion-8")


def test_criterion_09_random_monoid_oracles(outcome):
    check(outcome, "criterion-9")


def selftest_run(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "eggbox", "selftest"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert "---" in out
    return out[out.index("\n---\n"):]


def test_criterion_10_selftest_determinism():
    first = selftest_run("0")
    second = selftest_run("31337")
    assert first == second
    assert "result=pass" in first
