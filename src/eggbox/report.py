"""Structured pass/fail evidence for constructions.

A report is a construction id, an ordered list of (key, value) parameters,
and an ordered list of checks.  The machine-readable trailer is a block of
``key=value`` lines introduced by ``---``; rendering is deterministic, so
identical runs produce byte-identical trailers.
"""

from __future__ import annotations

from urllib.parse import quote

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Check:
    __slots__ = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: str = ""):
        if status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"bad check status {status!r}")
        self.name = name
        self.status = status
        self.witness = witness

    def __repr__(self):
        tail = f", {self.witness!r}" if self.witness else ""
        return f"Check({self.name!r}, {self.status!r}{tail})"

    def __eq__(self, other):
        return (
            isinstance(other, Check)
            and (self.name, self.status, self.witness)
            == (other.name, other.status, other.witness)
        )


class ConstructionReport:
    def __init__(self, construction: str, params=None):
        self.construction = construction
        self.params = []
        for key, value in params or []:
            self.set_param(key, value)
        self.checks = []

    def set_param(self, key: str, value):
        self.params.append((key, value))

    def add(self, check: Check):
        self.checks.append(check)

    def extend(self, other: "ConstructionReport", prefix: str = ""):
        """Absorb another report's checks, optionally name-prefixed."""
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.status, c.witness))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self):
        p = sum(1 for c in self.checks if c.status == PASS)
        f = sum(1 for c in self.checks if c.status == FAIL)
        s = sum(1 for c in self.checks if c.status == SKIPPED)
        return p, f, s

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def text(self) -> str:
        lines = [f"== {self.construction} =="]
        for key, value in self.params:
            lines.append(f"  {key} = {value}")
        for c in self.checks:
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIPPED: "skip"}[c.status]
            tail = f"  ({c.witness})" if c.witness else ""
            lines.append(f"  [{mark}] {c.name}{tail}")
        p, f, s = self.counts()
        lines.append(f"  checks: {p} passed, {f} failed, {s} skipped")
        return "\n".join(lines)

    def trailer(self) -> str:
        lines = ["---", f"construction={self.construction}"]
        for key, value in self.params:
            lines.append(f"{key}={value}")
        for c in self.checks:
            value = c.status
            if c.witness:
                value += ";witness=" + quote(c.witness, safe="")
            lines.append(f"check.{c.name}={value}")
        lines.append(f"result={'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"
