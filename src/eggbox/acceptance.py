"""Acceptance suite: one callable per criterion plus an aggregate selftest.

Each criterion function returns a ConstructionReport whose checks carry the
evidence (sizes, witnesses).  The expensive artifacts (wreaths, covers,
embedding solutions) are built once by run_acceptance and handed to the
criteria that reuse them.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from .constructions import (
    CoverResult,
    EmbeddingProblem,
    EmbeddingSolution,
    assemble_embedding,
    build_idempotent_cover,
    cover_modulus_bound,
    prepare_base,
    solve_embedding,
    verify_cover,
    verify_embedding,
)
from .core import (
    FiniteGroup,
    MonoidHom,
    SubSemigroup,
    direct_power,
    generate_monoid,
    is_isomorphic,
    omega_power,
)
from .elements import compose_transformations, row_monomial, transformation
from .errors import CapExceeded
from .green import check_min_ideal_image, idempotent_generated, is_simple, minimal_ideal
from .groups import builtin_group
from .oracles import (enumerated_embedding_checks, green_counts_agree, naive_minimal_ideal_elements,
                      naive_omega_power, naive_rank)
from .report import FAIL, PASS, SKIPPED, Check, ConstructionReport
from .srank import check_rank_monotone, r_s
from .wreath import ConstantWreath, constant_wreath, psi, rlm

PSI_GROUPS = ("1", "C2", "C3", "C4", "C2xC2", "S3")
PSI_POINTS = (1, 2, 3)
COVER_GROUPS = ("1", "C2", "C3", "C4", "C2xC2")
RANK_SIMPLES = ("C2", "C3")
# rank corpus: assorted groups of order <= 24 so the naive oracle stays cheap
CORPUS_GROUPS = (
    "1", "C2", "C3", "C4", "C2xC2", "S3", "C6", "D4", "Q8",
    "C2xC2xC2", "C3xC3", "A4", "C2xC6",
)
ORACLE_ROUNDS = 200
ORACLE_SEED = 1729
ORACLE_SIZE_LIMIT = 100
ORACLE_DEGREE = 4
EMBED_CAP = 500_000
MUTATION_CAP = 3_000


def _wreaths() -> Dict[Tuple[str, int], ConstantWreath]:
    built = {}
    for gname in PSI_GROUPS:
        g = builtin_group(gname)
        for b in PSI_POINTS:
            built[(gname, b)] = constant_wreath(g, b)
    return built


def criterion_1(wreaths) -> ConstructionReport:
    """psi is a bijective homomorphism onto G at every simple-part idempotent."""
    report = ConstructionReport(
        "criterion-1",
        params=[("groups", ",".join(PSI_GROUPS)), ("points", "1,2,3")],
    )
    for (gname, b), w in sorted(wreaths.items()):
        g = w.group
        m, at = w.monoid, w.monoid.index
        simple = [at[s] for s in w.simple.elements]
        problem = ""
        idem = w.simple.idempotents
        for e in idem:
            # eSe = (eS)e by word walks; the multiplicativity check below
            # multiplies, so that it checks the walks instead of sharing them
            local = {m.elements[m.times(x, at[e])] for x in {m.times(at[e], s) for s in simple}}
            values = {s: psi(w, e, s) for s in local}
            if len(values) != len(g.elements) or set(values.values()) != set(g.elements):
                problem = f"psi not bijective at {e!r}"
                break
            if values[e] != g.identity:
                problem = f"psi({e!r}) is not the identity"
                break
            items = sorted(local)
            if any(
                values[m.mul(s, t)] != g.mul(values[s], values[t])
                for s in items
                for t in items
            ):
                problem = f"psi not multiplicative at {e!r}"
                break
        status = PASS if not problem else FAIL
        witness = problem or f"{len(idem)} idempotents"
        report.add(Check(f"psi-{gname}-b{b}", status, witness))
    return report


def criterion_2() -> Tuple[ConstructionReport, Dict[str, CoverResult]]:
    """Full-mode idempotent covers for the five small groups."""
    report = ConstructionReport(
        "criterion-2", params=[("groups", ",".join(COVER_GROUPS))]
    )
    covers = {}
    for name in COVER_GROUPS:
        h = builtin_group(name)
        covers[name] = build_idempotent_cover(h, cover_modulus_bound(h))
    for name in COVER_GROUPS:
        c = covers[name]
        sub = verify_cover(c)
        report.extend(sub, prefix=f"{name}-")
        full = c.mode == "full" and not any(ch.status == SKIPPED for ch in sub.checks)
        report.add(
            Check(
                f"{name}-enumerated",
                PASS if full else FAIL,
                f"mode={c.mode}, |M|={len(c.monoid.elements) if c.monoid else '-'}",
            )
        )
    return report, covers


def criterion_3() -> ConstructionReport:
    """Cheap-mode cover for S3 at n = 11: witnesses alone certify the group."""
    report = ConstructionReport("criterion-3", params=[("group", "S3"), ("n", 11)])
    c = build_idempotent_cover(builtin_group("S3"), 11, mode="cheap")
    sub = verify_cover(c)
    report.extend(sub, prefix="S3-")
    report.add(
        Check(
            "S3-cheap-mode",
            PASS if c.mode == "cheap" and c.monoid is None else FAIL,
            f"mode={c.mode}",
        )
    )
    return report


def example_problems() -> Dict[str, EmbeddingProblem]:
    """The three embedding problems that criterion 4 cross-checks.

    E1: base {1, 0}, alpha : C2 ->> 1.  E2: base C2 given by a doubled
    generator, alpha : C4 ->> C2.  E3: same base, alpha the identity on C2.
    """
    base1 = generate_monoid(
        [transformation([0, 1]), transformation([0, 0])],
        compose_transformations,
        name="unit-zero",
    )
    base2 = generate_monoid(
        [transformation([1, 0]), transformation([1, 0])],
        compose_transformations,
        name="doubled-swap",
    )
    pb1 = prepare_base(base1)
    pb2 = prepare_base(base2)
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    triv = builtin_group("1")
    swap = c2.generators[0]
    alpha1 = MonoidHom.from_generator_images(c2, triv, [triv.identity])
    alpha2 = MonoidHom.from_generator_images(c4, c2, [swap])
    alpha3 = MonoidHom.from_generator_images(c2, c2, [swap])
    return {
        "E1": EmbeddingProblem(alpha1, pb1),
        "E2": EmbeddingProblem(alpha2, pb2),
        "E3": EmbeddingProblem(alpha3, pb2),
    }


EXPECTED_SUBGROUP = {"E1": "C2", "E2": "C4", "E3": "C2"}


def criterion_4() -> Tuple[ConstructionReport, Dict[str, EmbeddingSolution], Dict[str, EmbeddingProblem]]:
    """Solve and verify the three embedding examples, and cross-check the
    verifier, which reads the orbits of e', with the oracle that reads the
    enumerated M'."""
    report = ConstructionReport("criterion-4", params=[("cap", EMBED_CAP)])
    probs = example_problems()
    sols = {}
    for key in ("E1", "E2", "E3"):
        sol = solve_embedding(probs[key], cap=EMBED_CAP, require_full=True)
        sols[key] = sol
        sub = verify_embedding(sol)
        report.extend(sub, prefix=f"{key}-")
        report.add(_enumerated_agreement(key, sol, sub))
        want = builtin_group(EXPECTED_SUBGROUP[key])
        iso = is_isomorphic(FiniteGroup.from_monoid(sol.group), want)
        report.add(Check(f"{key}-subgroup-type", PASS if iso else FAIL,
                         f"|G'|={len(sol.group.elements)} expected {want.name}"))
    return report, sols, probs


def _enumerated_agreement(key: str, sol: EmbeddingSolution, sub: ConstructionReport) -> Check:
    """M' was enumerated, the oracle's statuses on it are the report's, and
    the report's size is |M'|."""
    if sol.mode != "full":
        return Check(f"{key}-enumerated", FAIL, f"mode={sol.mode}")
    status = {c.name: c.status for c in sub.checks}
    oracle = enumerated_embedding_checks(sol)
    differ = [c.name for c in oracle if status.get(c.name) != c.status]
    size, n = dict(sub.params)["size"], len(sol.mprime.elements)
    why = f"size={size}, |M'|={n}" if size != n else f"the oracle differs on {differ[0]}" if differ else ""
    return Check(f"{key}-enumerated", FAIL if why else PASS,
                 why or f"mode=full, |M'|={n}, {len(oracle)} checks agree with the oracle")


def corrupt_block_entry(sol: EmbeddingSolution, prob: EmbeddingProblem):
    """Copy of the block generators with one inner entry of the second
    pushed off its coset."""
    raw = list(sol.raw)
    h = prob.alpha.source
    shift = h.generators[0]  # outside ker(alpha) for the E2 data
    x2 = raw[1]
    rows = list(x2.data)
    col0, blk = rows[0]
    bcol, bval = blk.data[0]
    bad_blk = row_monomial([(bcol, h.mul(bval, shift))] + list(blk.data)[1:])
    rows[0] = (col0, bad_blk)
    raw[1] = row_monomial(rows)
    return raw


def criterion_5(probs, sols) -> ConstructionReport:
    """One corrupted block entry in E2 must trip a verification check."""
    report = ConstructionReport("criterion-5", params=[("example", "E2")])
    sol = sols["E2"]
    bad_raw = corrupt_block_entry(sol, probs["E2"])
    bad = assemble_embedding(probs["E2"], sol.p, bad_raw, cap=MUTATION_CAP)
    sub = verify_embedding(bad)
    fails = [c for c in sub.checks if c.status == FAIL]
    witnessed = [c for c in fails if c.witness]
    report.set_param("failed_checks", len(fails))
    if witnessed:
        names = ",".join(c.name for c in witnessed)
        report.add(Check("mutation-detected", PASS, names))
    elif fails:
        report.add(Check("mutation-detected", FAIL, "failures carry no witness"))
    else:
        report.add(Check("mutation-detected", FAIL, "corrupted data verified clean"))
    return report


def criterion_6(embedded: ConstructionReport, covers) -> ConstructionReport:
    """Minimal ideals and their maximal subgroups map onto their images.

    The rho image checks are read off criterion 4's reports, which derive
    them from the orbits of e'."""
    report = ConstructionReport("criterion-6")
    for c in embedded.checks:
        if c.name.partition("-")[2] in ("rho-ideal-image", "rho-subgroup-image"):
            report.add(c)
    for name in COVER_GROUPS:
        c = covers[name]
        _, onto = rlm(c.monoid)
        sub = check_min_ideal_image(onto)
        report.extend(sub, prefix=f"{name}-rlm-")
    return report


def criterion_7(wreaths, covers, sols) -> ConstructionReport:
    """The idempotent-generated subsemigroup of each simple semigroup is simple."""
    report = ConstructionReport("criterion-7")
    simples: List[Tuple[str, SubSemigroup]] = []
    for (gname, b), w in sorted(wreaths.items()):
        simples.append((f"wreath-{gname}-b{b}", w.simple))
    for name in COVER_GROUPS:
        simples.append((f"cover-{name}", covers[name].ideal))
    for key in sorted(sols):
        simples.append((f"ideal-{key}", minimal_ideal(sols[key].mprime)))
    for label, sub in simples:
        span = idempotent_generated(sub)
        ok = is_simple(span)
        report.add(
            Check(
                f"graham-{label}",
                PASS if ok else FAIL,
                f"|span|={len(span.elements)} of {len(sub.elements)}",
            )
        )
    return report


def corpus_surjections() -> List[Tuple[str, MonoidHom]]:
    """Named surjective group maps exercised by the rank-monotonicity check."""
    c2 = builtin_group("C2")
    c3 = builtin_group("C3")
    c4 = builtin_group("C4")
    v4 = builtin_group("C2xC2")
    s3 = builtin_group("S3")
    c6 = builtin_group("C6")
    c3c3 = builtin_group("C3xC3")
    triv = builtin_group("1")
    swap = c2.generators[0]
    rot = c3.generators[0]
    sign_images = [
        swap if s3.order_of(g) == 2 else c2.identity for g in s3.generators
    ]
    return [
        ("C2-to-1", MonoidHom.from_generator_images(c2, triv, [triv.identity])),
        ("C2-to-C2", MonoidHom.from_generator_images(c2, c2, [swap])),
        ("C4-to-C2", MonoidHom.from_generator_images(c4, c2, [swap])),
        (
            "C2xC2-to-C2",
            MonoidHom.from_generator_images(v4, c2, [swap, c2.identity]),
        ),
        ("S3-to-C2", MonoidHom.from_generator_images(s3, c2, sign_images)),
        ("C6-to-C2", MonoidHom.from_generator_images(c6, c2, [swap])),
        ("C6-to-C3", MonoidHom.from_generator_images(c6, c3, [rot])),
        (
            "C3xC3-to-C3",
            MonoidHom.from_generator_images(c3c3, c3, [rot, c3.identity]),
        ),
    ]


def criterion_8() -> ConstructionReport:
    """S-rank values, naive-oracle agreement, and rank monotonicity."""
    report = ConstructionReport(
        "criterion-8", params=[("corpus", ",".join(CORPUS_GROUPS))]
    )
    for sname in RANK_SIMPLES:
        s = builtin_group(sname)
        for n in (1, 2, 3):
            res = r_s(direct_power(s, n), s)
            report.add(
                Check(
                    f"rank-{sname}-power-{n}",
                    PASS if res.rank == n else FAIL,
                    f"r={res.rank}",
                )
            )
    res0 = r_s(builtin_group("C3"), builtin_group("C2"))
    report.add(
        Check("rank-C2-in-C3", PASS if res0.rank == 0 else FAIL, f"r={res0.rank}")
    )
    for gname in CORPUS_GROUPS:
        g = builtin_group(gname)
        for sname in RANK_SIMPLES:
            s = builtin_group(sname)
            fast = r_s(g, s).rank
            slow = naive_rank(g, s)
            report.add(
                Check(
                    f"oracle-{gname}-{sname}",
                    PASS if fast == slow else FAIL,
                    f"fast={fast} naive={slow}",
                )
            )
    for label, phi in corpus_surjections():
        for sname in RANK_SIMPLES:
            sub = check_rank_monotone(phi, builtin_group(sname))
            report.extend(sub, prefix=f"{label}-{sname}-")
    return report


def criterion_9() -> ConstructionReport:
    """Fast Green machinery against naive oracles on random inputs."""
    report = ConstructionReport(
        "criterion-9",
        params=[
            ("rounds", ORACLE_ROUNDS),
            ("degree", ORACLE_DEGREE),
            ("seed", ORACLE_SEED),
        ],
    )
    rnd = random.Random(ORACLE_SEED)
    green_bad: List[str] = []
    ideal_bad: List[str] = []
    omega_bad: List[str] = []
    accepted = 0
    attempts = 0
    while accepted < ORACLE_ROUNDS:
        attempts += 1
        d = rnd.randint(2, ORACLE_DEGREE)
        k = rnd.randint(1, 3)
        seeds = [
            transformation([rnd.randrange(d) for _ in range(d)]) for _ in range(k)
        ]
        try:
            m = generate_monoid(
                seeds,
                compose_transformations,
                cap=ORACLE_SIZE_LIMIT,
                identity=transformation(range(d)),
                name=f"rand{accepted}",
            )
        except CapExceeded:
            continue
        accepted += 1
        tag = f"#{accepted} gens={[s.data for s in seeds]}"
        if not green_counts_agree(m):
            green_bad.append(tag)
        if set(minimal_ideal(m).elements) != naive_minimal_ideal_elements(m):
            ideal_bad.append(tag)
        if any(omega_power(m, x) != naive_omega_power(m, x) for x in m.elements):
            omega_bad.append(tag)
    report.set_param("attempts", attempts)
    for name, bad in (
        ("green-classes", green_bad),
        ("minimal-ideal", ideal_bad),
        ("omega-power", omega_bad),
    ):
        if bad:
            report.add(Check(name, FAIL, f"{len(bad)} disagreements, first {bad[0]}"))
        else:
            report.add(Check(name, PASS, f"{ORACLE_ROUNDS} monoids"))
    return report


CRITERIA = tuple(f"criterion-{i}" for i in range(1, 10))


class AcceptanceOutcome:
    """Reports for criteria 1-9 plus wall-clock seconds per criterion."""

    __slots__ = ("reports", "elapsed")

    def __init__(self):
        self.reports: List[ConstructionReport] = []
        self.elapsed: Dict[str, float] = {}

    @property
    def passed(self) -> bool:
        return bool(self.reports) and all(r.passed for r in self.reports)


def run_acceptance() -> AcceptanceOutcome:
    """Run criteria 1-9 once, sharing the expensive artifacts."""
    out = AcceptanceOutcome()

    def record(name, fn):
        t0 = time.perf_counter()
        result = fn()
        out.elapsed[name] = time.perf_counter() - t0
        report = result[0] if isinstance(result, tuple) else result
        out.reports.append(report)
        return result

    wreaths = _wreaths()
    record("criterion-1", lambda: criterion_1(wreaths))
    _, covers = record("criterion-2", criterion_2)
    record("criterion-3", criterion_3)
    embedded, sols, probs = record("criterion-4", criterion_4)
    record("criterion-5", lambda: criterion_5(probs, sols))
    record("criterion-6", lambda: criterion_6(embedded, covers))
    record("criterion-7", lambda: criterion_7(wreaths, covers, sols))
    record("criterion-8", criterion_8)
    record("criterion-9", criterion_9)
    return out


def selftest_report(outcome: AcceptanceOutcome) -> ConstructionReport:
    """One check per criterion; this report's trailer is the selftest output."""
    report = ConstructionReport("selftest", params=[("criteria", len(outcome.reports))])
    for sub in outcome.reports:
        p, f, s = sub.counts()
        witness = f"{p} passed, {f} failed, {s} skipped"
        if not sub.passed:
            first = next(c for c in sub.checks if c.status == FAIL)
            witness += f"; first failure {first.name}"
        report.add(Check(sub.construction, PASS if sub.passed else FAIL, witness))
    return report


def selftest_text(outcome: AcceptanceOutcome, verbose: bool = False) -> str:
    """Human lines, failing-report details, then the deterministic trailer."""
    lines = []
    for sub in outcome.reports:
        p, f, s = sub.counts()
        verdict = "pass" if sub.passed else "FAIL"
        took = outcome.elapsed.get(sub.construction)
        suffix = f"  [{took:.1f}s]" if took is not None else ""
        lines.append(
            f"{sub.construction}: {verdict} ({p} passed, {f} failed, {s} skipped){suffix}"
        )
        if verbose or not sub.passed:
            lines.append(sub.text())
    lines.append(selftest_report(outcome).trailer().rstrip("\n"))
    return "\n".join(lines) + "\n"
