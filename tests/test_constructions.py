import copy
import random
from itertools import product

import pytest

from eggbox import constructions
from eggbox.constructions import (
    EmbeddingProblem,
    assemble_embedding,
    build_idempotent_cover,
    cover_idempotent_witnesses,
    cover_modulus_bound,
    cover_size,
    prepare_base,
    solve_embedding,
    verify_cover,
    verify_embedding,
)
from eggbox.acceptance import COVER_GROUPS, MUTATION_CAP, corrupt_block_entry
from eggbox.core import FiniteMonoid, MonoidHom, SubSemigroup, generate_monoid, is_isomorphic
from eggbox.elements import (
    compose_transformations,
    identity_row_monomial,
    make_rowmono_mul,
    row_monomial,
    short_str,
    transformation,
)
from eggbox.errors import (
    CapExceeded,
    KMismatch,
    NTooSmall,
    NonSurjectiveAlpha,
    PrimeBoundViolated,
    TooFewGenerators,
)
from eggbox.green import idempotent_generated, rees_coordinates
from eggbox.groups import builtin_group
from eggbox.wreath import constant_wreath


def test_cover_modulus_bound():
    assert cover_modulus_bound(builtin_group("1")) == 2
    assert cover_modulus_bound(builtin_group("C2")) == 3
    assert cover_modulus_bound(builtin_group("C2xC2")) == 7


def test_cover_rejects_small_modulus():
    with pytest.raises(NTooSmall) as exc:
        build_idempotent_cover(builtin_group("C3"), 4)
    assert exc.value.bound == 5


def test_cover_x_and_y_shapes():
    c = build_idempotent_cover(builtin_group("C2"), 3)
    mul = c.mul
    # x has order n, y is idempotent
    p = c.x
    for _ in range(2):
        p = mul(p, c.x)
    assert p == c.monoid.identity
    assert mul(c.y, c.y) == c.y


def test_cover_witness_products_hit_every_group_element():
    h = builtin_group("C2xC2")
    c = build_idempotent_cover(h, 7)
    witnesses = cover_idempotent_witnesses(c)
    assert set(witnesses) == set(h.elements)
    mul = c.mul
    for target, word in witnesses.items():
        for t in word:
            assert mul(t, t) == t  # every factor is idempotent
        prod = word[0]
        for t in word[1:]:
            prod = mul(prod, t)
        cols = {col for col, _ in prod.data}
        assert len(cols) == 1  # the product is a constant matrix
        assert prod.data[0][1] == target  # its first row entry names h_{j+1}


def test_cover_ideal_is_rectangular_over_h():
    h = builtin_group("C3")
    c = build_idempotent_cover(h, 5)
    assert len(c.ideal) == 5 * len(h.elements) * 5
    assert len(c.ideal.idempotents) == 25
    report = verify_cover(c)
    assert report.passed and not any(ch.status == "skipped" for ch in report.checks)


def test_cover_sizes():
    # a nontrivial H gives n + n²|H| elements: the n powers of x and an
    # n × H × n Rees box; for H = 1 every constant matrix with the identity
    # entry shares one row, so the box is 1 × 1 × n and the size is 2n
    for name, n, size in (("1", 2, 4), ("1", 3, 6), ("C2", 3, 21), ("C2", 4, 36),
                          ("C3", 5, 80), ("C3", 7, 154), ("C4", 7, 203), ("C2xC2", 7, 203),
                          ("C5", 9, 414), ("S3", 11, 737), ("S3", 12, 876)):
        h = builtin_group(name)
        assert len(build_idempotent_cover(h, n, mode="full").monoid) == size
        assert size == (2 * n if len(h) == 1 else n + n * n * len(h))


def test_cover_size_matches_the_closure():
    # criterion 2's covers, and S3 at n = 11, which auto mode now enumerates
    for name, n in [(g, cover_modulus_bound(builtin_group(g))) for g in COVER_GROUPS] + [("S3", 11)]:
        h = builtin_group(name)
        assert cover_size(h, n) == len(build_idempotent_cover(h, n, mode="full").monoid), name


def counting_rowmono_products(monkeypatch):
    """A counter of the row-monomial products the constructions make from
    now on."""
    count = [0]
    make_rule = constructions.make_rowmono_mul

    def counting_rule(entry_mul):
        mul = make_rule(entry_mul)

        def counted(x, y):
            count[0] += 1
            return mul(x, y)

        counted.associative = mul.associative
        return counted

    monkeypatch.setattr(constructions, "make_rowmono_mul", counting_rule)
    return count


def test_cover_products_are_linear_in_the_generators(monkeypatch):
    count = counting_rowmono_products(monkeypatch)
    c = build_idempotent_cover(builtin_group("C3"), 6, mode="full")
    m = c.monoid
    assert (len(m), len(m.generators)) == (114, 2)
    # the enumeration deduces most right edges from shorter words and keeps
    # both Cayley graphs; Green, the minimal ideal's idempotents and the
    # Rees coordinates read them (260 products when every right edge was
    # multiplied, and 839 more when they multiplied theirs); an |M|²
    # associativity table alone would be 12,996
    assert count[0] <= 152
    # the verifier's factorizations are word walks too and its idempotent
    # span is read off the sandwich matrix; multiplied out, build and verify
    # took 4,996 products
    report = verify_cover(c)
    assert report.passed
    assert any(ch.name == "idempotent-closure-exhaustive" for ch in report.checks)
    assert count[0] <= 189


def test_s3_cover_products_stay_near_its_size(monkeypatch):
    count = counting_rowmono_products(monkeypatch)
    c = build_idempotent_cover(builtin_group("S3"), 23, mode="full")
    assert len(c.monoid) == 3197
    report = verify_cover(c)
    assert report.passed
    # build and verify made 6,601 products when the closure multiplied
    # every right edge, |M|·|A| = 6,394 of them
    assert count[0] <= 4500
    # one list of checks at every size: no check is gated on |I| = 3,174
    small = verify_cover(build_idempotent_cover(builtin_group("C2"), 3, mode="full"))
    assert [ch.name for ch in report.checks] == [ch.name for ch in small.checks]


def test_cover_cheap_mode_skips_enumeration():
    c = build_idempotent_cover(builtin_group("S3"), 11, mode="cheap")
    assert c.monoid is None and c.ideal is None
    report = verify_cover(c)
    assert report.passed
    assert any(ch.status == "skipped" for ch in report.checks)


def test_cover_auto_mode_respects_cap():
    # auto mode compares the cover's exact size, 737 at S3 n = 11, with the cap
    s3 = builtin_group("S3")
    assert build_idempotent_cover(s3, 11, cap=736).mode == "cheap"
    c = build_idempotent_cover(s3, 11)
    assert (c.mode, len(c.monoid)) == ("full", 737)
    assert build_idempotent_cover(s3, 11, cap=737).mode == "full"
    # full mode refuses on the same exact size
    with pytest.raises(CapExceeded) as exc:
        build_idempotent_cover(builtin_group("S3"), 11, mode="full", cap=100)
    assert exc.value.reached == 737


def test_full_cover_refuses_before_it_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a cover past its cap")

    monkeypatch.setattr(constructions, "generate_monoid", refuse)
    with pytest.raises(CapExceeded) as exc:
        build_idempotent_cover(builtin_group("S3"), 11, mode="full", cap=736)
    assert (exc.value.cap, exc.value.reached) == (736, 737)


@pytest.fixture(scope="module")
def c2_cover_40():
    return build_idempotent_cover(builtin_group("C2"), 40, mode="full")


def test_cover_ideal_recomputed_at_scale(c2_cover_40):
    # at n = 40 the factorization still covers every element of the
    # 3,200-element J, its idempotent span is read off the sandwich matrix,
    # and the minimal ideal comes from the same Green computation as for
    # small covers
    c = c2_cover_40
    # n cyclic units (identity included) plus the n x |H| x n ideal
    assert len(c.monoid.elements) == 40 + 40 * 2 * 40
    report = verify_cover(c)
    assert report.passed
    names = {ch.name: ch for ch in report.checks}
    assert names["ideal-is-constants"].witness == "independent recomputation"
    assert "exhaustive" in names["idempotent-closure"].witness
    assert names["idempotent-closure-exhaustive"].status == "pass"
    assert names["idempotent-closure-exhaustive"].witness == "sandwich entries generate 2 of 2"


def test_cover_factorization_detects_a_bad_coordinate(c2_cover_40):
    # one element of the 3,200-element ideal given the other group value
    # fails its factorization, which is checked for every element
    c = copy.copy(c2_cover_40)
    c.rees = copy.copy(c.rees)
    c.rees.coord = dict(c.rees.coord)
    u = c.ideal.elements[-1]
    a, g, b = c.rees.coord[u]
    c.rees.coord[u] = (a, next(h for h in c.rees.group.elements if h != g), b)
    names = {ch.name: ch for ch in verify_cover(c).checks}
    assert names["idempotent-closure"].status == "fail"
    assert names["idempotent-closure"].witness.endswith("is not its own three-idempotent product")


def test_cover_ideal_simple_detects_a_bad_sandwich_entry():
    c = build_idempotent_cover(builtin_group("C3"), 5)
    names = {ch.name: ch for ch in verify_cover(c).checks}
    assert names["ideal-simple"].status == "pass"
    assert names["ideal-simple"].witness == "coordinatized 5x3x5"
    c.rees.sandwich[(1, 1)] = c.monoid.identity
    names = {ch.name: ch for ch in verify_cover(c).checks}
    assert names["ideal-simple"].status == "fail"
    assert names["ideal-simple"].witness == "sandwich entry (1, 1) is not in G"
    assert names["idempotent-closure-exhaustive"].status == "fail"
    assert names["idempotent-closure-exhaustive"].witness


def sandwich_fixtures():
    """(label, Rees coordinates) of the covers, the constant wreaths and
    criterion 4's embedding ideals whose idempotent spans are compared."""
    for gname, n in (("C2", 3), ("C2", 7), ("C3", 5), ("C3", 6), ("S3", 11)):
        yield f"cover-{gname}-{n}", build_idempotent_cover(builtin_group(gname), n, mode="full").rees
    for gname in ("C2", "C3", "C4", "C2xC2", "S3"):
        for b in (1, 2, 3):
            w = constant_wreath(builtin_group(gname), b)
            yield f"wreath-{gname}-b{b}", rees_coordinates(w.monoid, w.simple, w.simple.idempotents[0])
    for key, prob in embedding_problems().items():
        sol = solve_embedding(prob, require_full=True)
        yield f"ideal-{key}", rees_coordinates(sol.mprime, sol.ideal, sol.e_prime)


def test_sandwich_span_is_the_idempotent_span():
    # Graham and Houghton: <E(I)> is the Rees matrix semigroup over <P>
    proper = []
    for label, rc in sandwich_fixtures():
        span = constructions._sandwich_span(rc)
        assert rc.n_a * span * rc.n_b == len(idempotent_generated(rc.ideal)), label
        if span < len(rc.group):
            proper.append(label)
    # at b = 1 a wreath's sandwich matrix is the single identity entry, and
    # the E2 and E3 ideals are not generated by their idempotents either
    wreaths = [f"wreath-{g}-b1" for g in ("C2", "C3", "C4", "C2xC2", "S3")]
    assert proper == wreaths + ["ideal-E2", "ideal-E3"]


def test_idempotent_closure_fails_on_a_proper_sandwich_span():
    c = build_idempotent_cover(builtin_group("C3"), 5)
    c.rees = copy.copy(c.rees)
    one = c.rees.group.identity
    c.rees.sandwich = {ba: one for ba in c.rees.sandwich}
    names = {ch.name: ch for ch in verify_cover(c).checks}
    assert names["idempotent-closure-exhaustive"].status == "fail"
    assert names["idempotent-closure-exhaustive"].witness == "sandwich entries generate 1 of 3"


def test_check_min_ideal_image_fast_paths_at_scale(c2_cover_40):
    from eggbox.green import check_min_ideal_image
    from eggbox.wreath import rlm

    c = c2_cover_40
    _, onto = rlm(c.monoid)
    report = check_min_ideal_image(onto)
    assert report.passed


def unit_zero():
    return generate_monoid(
        [transformation([0, 1]), transformation([0, 0])],
        compose_transformations,
        name="unit-zero",
    )


def doubled_swap():
    return generate_monoid(
        [transformation([1, 0]), transformation([1, 0])],
        compose_transformations,
        name="doubled-swap",
    )


def test_prepare_base_quotients_unfaithful_base():
    pb = prepare_base(unit_zero())
    # the action on the singleton minimal ideal collapses everything
    assert len(pb.monoid.elements) == 1
    assert pb.original is not pb.monoid and pb.to_faithful is not None
    assert len(pb.group.elements) == 1
    assert pb.b == 1
    assert len(pb.word) == 2  # one slot per listed generator


def test_prepare_base_keeps_faithful_base():
    pb = prepare_base(doubled_swap())
    assert pb.to_faithful is None and pb.original is pb.monoid
    assert len(pb.monoid.elements) == 2
    assert len(pb.group.elements) == 2
    assert pb.b == 1
    # the anchored idempotent's matrix is the first-column identity
    assert all(col == 0 and val == pb.group.identity for col, val in pb.m_f.data)


def test_prepare_base_needs_two_generators():
    single = generate_monoid(
        [transformation([1, 0])], compose_transformations
    )
    with pytest.raises(TooFewGenerators):
        prepare_base(single)


def embedding_problems():
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    triv = builtin_group("1")
    swap = c2.generators[0]
    pb1 = prepare_base(unit_zero())
    pb2 = prepare_base(doubled_swap())
    return {
        "E1": EmbeddingProblem(
            MonoidHom.from_generator_images(c2, triv, [triv.identity]), pb1
        ),
        "E2": EmbeddingProblem(
            MonoidHom.from_generator_images(c4, c2, [swap]), pb2
        ),
        "E3": EmbeddingProblem(
            MonoidHom.from_generator_images(c2, c2, [swap]), pb2
        ),
    }


def test_alphabar_is_made_once_per_distinct_block(monkeypatch):
    # the solve reads rho off the base and makes no image; the verifier's
    # block pass makes each block's entrywise image of alpha_hat once
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    base = prepare_base(build_idempotent_cover(c2, 3).monoid)
    prob = EmbeddingProblem(MonoidHom.from_generator_images(c4, c2, [c2.generators[0]]), base)
    made = {}
    alphabar = constructions._alphabar

    def counted(ahat, blk):
        made[blk] = made.get(blk, 0) + 1
        return alphabar(ahat, blk)

    monkeypatch.setattr(constructions, "_alphabar", counted)
    sol = solve_embedding(prob, require_full=True)
    assert made == {}
    checks = constructions._check_blocks_enumerated(sol)
    assert all(c.status == "pass" for c in checks)
    blocks = {blk for v in sol.mprime.elements for _, blk in v.data}
    assert set(made) == blocks
    assert max(made.values()) == 1
    assert len(sol.mprime) > 10 * len(blocks)


def test_embedding_over_a_cover_base_walks_few_words(monkeypatch):
    # Green's structure of M' comes from its two Cayley graphs, its minimal
    # ideal needs no idempotent sweep and the rho image checks go by H-class:
    # the solve plus verify made 4,410 word walks when each element of J'
    # was squared and each target subgroup was built
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    base = prepare_base(build_idempotent_cover(c2, 3).monoid)
    prob = EmbeddingProblem(MonoidHom.from_generator_images(c4, c2, [c2.generators[0]]), base)
    walks = [0]
    times = FiniteMonoid.times

    def counted(m, i, j):
        walks[0] += 1
        return times(m, i, j)

    monkeypatch.setattr(FiniteMonoid, "times", counted)
    sol = solve_embedding(prob, require_full=True)
    assert len(sol.mprime) == 4422
    assert verify_embedding(sol).passed
    assert walks[0] <= 20


def test_problem_validation():
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    pb1 = prepare_base(unit_zero())
    with pytest.raises(KMismatch):
        EmbeddingProblem(
            MonoidHom.from_generator_images(c4, c2, [c2.generators[0]]), pb1
        )
    gsq = c4.mul(c4.generators[0], c4.generators[0])
    inward = MonoidHom.from_generator_images(c4, c4, [gsq])
    pb2 = prepare_base(doubled_swap())
    with pytest.raises(NonSurjectiveAlpha):
        EmbeddingProblem(inward, pb2)


FROZEN = {
    # p, nu, ell, m, |M'|, subgroup
    "E1": (3, 2, 2, 1, 21, "C2"),
    "E2": (5, 2, 2, 4, 120, "C4"),
    "E3": (3, 1, 1, 2, 12, "C2"),
}


def test_embedding_solutions_match_frozen_parameters():
    probs = embedding_problems()
    for key, (p, nu, ell, m, size, gname) in FROZEN.items():
        sol = solve_embedding(probs[key], require_full=True)
        assert (sol.p, sol.nu, sol.ell, sol.m) == (p, nu, ell, m), key
        assert len(sol.mprime.elements) == size, key
        assert is_isomorphic(sol.group, builtin_group(gname)) is not None, key
        report = verify_embedding(sol)
        assert report.passed, report.text()
        assert not any(c.status == "skipped" for c in report.checks)


def test_e2_diagonal_lifts():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    # kernel of C4 ->> C2 is {1, g^2}; its 1-block diagonals seed the rows
    assert len(sol.nbt) == sol.nu  # b = 1 here, so nu^b = nu
    assert set(sol.n_elements) <= set(sol.problem.alpha.source.elements)
    c4 = sol.problem.alpha.source
    gsq = c4.mul(c4.generators[0], c4.generators[0])
    entries = {blk.data[0][1] for blk in sol.nbt}
    assert entries == {c4.identity, gsq}


def test_prime_override_rules():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"], p_override=7)
    assert sol.p == 7
    assert verify_embedding(sol).passed
    with pytest.raises(PrimeBoundViolated):
        solve_embedding(probs["E2"], p_override=3)  # not above max(m, ell) = 4
    with pytest.raises(PrimeBoundViolated):
        solve_embedding(probs["E2"], p_override=9)  # not prime
    sol11 = solve_embedding(probs["E2"], p_override=11)
    assert sol11.p == 11
    with pytest.raises(PrimeBoundViolated):
        solve_embedding(probs["E2"], p_override=2)  # prime, but not above 4


def test_capped_solve_degrades_gracefully():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"], cap=50)
    assert sol.mode == "capped"
    assert sol.capnote
    assert sol.mprime is None
    report = verify_embedding(sol)
    assert report.passed  # skipped checks are not failures
    skipped = {c.name for c in report.checks if c.status == "skipped"}
    assert "rho-ideal-image" in skipped
    with pytest.raises(CapExceeded):
        solve_embedding(probs["E2"], cap=50, require_full=True)


def test_mutation_is_detected():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    c4 = probs["E2"].alpha.source
    g = c4.generators[0]
    raw = list(sol.raw)
    rows = list(raw[1].data)
    col0, blk = rows[0]
    bcol, bval = blk.data[0]
    rows[0] = (col0, row_monomial([(bcol, c4.mul(bval, g))] + list(blk.data)[1:]))
    raw[1] = row_monomial(rows)
    bad = assemble_embedding(probs["E2"], sol.p, raw, cap=3000)
    report = verify_embedding(bad)
    failures = [c for c in report.checks if c.status == "fail"]
    assert failures and all(c.witness for c in failures)


def enumerated_preimages_held(sol, eta, mw):
    """The candidate enumeration preimage coverage once ran, as an oracle:
    (how many matrices over H in M_w's columns with entries over M_w's are
    blocks of eta, how many there are)."""
    ahat = sol.problem.alpha_hat
    blocks = {blk for _, blk in eta.data}
    fibres = [[x for x in sol.problem.h.elements if ahat.map[x] == v] for _, v in mw.data]
    cols = [c for c, _ in mw.data]
    cands = [row_monomial(zip(cols, combo)) for combo in product(*fibres)]
    return sum(cand in blocks for cand in cands), len(cands)


def word_matrix(sol, w):
    """M_w as the product of the base's generator matrices along w."""
    base = sol.problem.base
    kmul = make_rowmono_mul(base.group.mul)
    mw = identity_row_monomial(base.b, base.group.identity)
    for gi in w:
        mw = kmul(mw, base.matrices[gi])
    return mw


def sampled_words(sol):
    """The words ``verify_embedding`` samples at its default seed under a
    cap, with M_w."""
    rnd = random.Random(0)
    for _ in range(constructions.WORD_SAMPLE):
        w = constructions._sample_word(rnd, sol.problem.base)
        yield w, word_matrix(sol, w)


def ideal_cases(sol):
    """(v, M_v, w) for every element v of J' and its witness word w."""
    return [(v, word_matrix(sol, sol.mprime.words[v]), sol.mprime.words[v])
            for v in sol.ideal.elements]


def e2_mutation(probs):
    sol = solve_embedding(probs["E2"])
    return assemble_embedding(probs["E2"], sol.p, corrupt_block_entry(sol, probs["E2"]),
                              cap=MUTATION_CAP)


def test_counted_coverage_agrees_with_the_enumeration():
    probs = embedding_problems()
    sols = {key: solve_embedding(probs[key], require_full=True) for key in sorted(probs)}
    sols["E2-mutation"] = e2_mutation(probs)
    short = set()
    for key, sol in sols.items():
        assert sol.mode == "full", key
        cases = ideal_cases(sol)
        # the verifier's cases are all of M', with M_v read off rho, not a
        # product fold; those in J' carry the coverage check
        schutz = sol.problem.base.schutz.map
        assert [(v, schutz[sol.rho_map[v]], w) for v, _, w in cases] == cases, key
        single = constructions._check_blocks_enumerated(sol)[1]
        assert single.witness == f"{len(cases)} elements of J'", key
        for case in cases:
            v, mv, w = case
            held, total = enumerated_preimages_held(sol, v, mv)
            assert total == sol.ell, key
            _, _, _, coverage = constructions._check_blocks(sol, [case], {v}, "")
            if held < total:
                short.add(key)
                assert coverage.witness == \
                    f"eta(w) holds {held} of the {total} preimages of M_w for w={w}", (key, w)
            else:
                assert coverage.status == "pass", (key, w)
    assert short == {"E2-mutation"}


def test_e2_mutation_fails_counted_coverage():
    bad = e2_mutation(embedding_problems())
    names = {ch.name: ch for ch in verify_embedding(bad).checks}
    assert names["preimage-coverage"].status == "fail"
    # the first element of J' that lacks a preimage, named by its witness word
    held, w = next((held, w) for v, mv, w in ideal_cases(bad)
                   for held, _ in [enumerated_preimages_held(bad, v, mv)] if held < 2)
    assert names["preimage-coverage"].witness == \
        f"eta(w) holds {held} of the 2 preimages of M_w for w={w}"


def with_element_replaced(sol, v, bad):
    """A copy of a full-mode solution whose M', J' and rho hold ``bad`` in
    place of v, under v's witness word and rho image."""
    m = sol.mprime

    def swap(x):
        return bad if x == v else x

    doctored = copy.copy(sol)
    doctored.mprime = FiniteMonoid(m.name, map(swap, m.elements), m.mul, m.identity,
                                   m.generators, {swap(x): w for x, w in m.words.items()},
                                   m.right, m.left)
    doctored.ideal = SubSemigroup(doctored.mprime, map(swap, sol.ideal.elements))
    doctored.rho_map = {swap(x): u for x, u in sol.rho_map.items()}
    return doctored


def test_single_column_reads_every_element_of_the_ideal():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    sampled = {sol.eta(w) for w, _ in sampled_words(sol)}
    v = next(x for x in reversed(sol.ideal.elements) if x not in sampled)
    rows = list(v.data)
    col, blk = rows[0]
    rows[0] = ((col + 1) % sol.p, blk)
    doctored = with_element_replaced(sol, v, row_monomial(rows))
    names = {ch.name: ch for ch in verify_embedding(doctored).checks}
    assert names["single-column"].status == "fail"
    assert names["single-column"].witness == f"eta({sol.mprime.words[v]}) has several columns"


def test_block_projection_reads_every_element_of_m_prime():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    h = sol.problem.h
    v = next(x for x in reversed(sol.mprime.elements)
             if x not in sol.ideal and x not in sol.raw)
    rows = list(v.data)
    col, blk = rows[0]
    bcol, bval = blk.data[0]
    rows[0] = (col, row_monomial([(bcol, h.mul(bval, h.generators[0]))] + list(blk.data[1:])))
    doctored = with_element_replaced(sol, v, row_monomial(rows))
    names = {ch.name: ch for ch in verify_embedding(doctored).checks}
    assert names["block-projection"].status == "fail"
    assert names["block-projection"].witness == \
        f"eta({sol.mprime.words[v]}) block row 0 does not lie over M_w"


def test_ideal_identification_needs_e_prime_in_the_ideal():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    doctored = copy.copy(sol)
    doctored.e_prime = sol.mprime.identity  # idempotent, outside J'
    names = {ch.name: ch for ch in verify_embedding(doctored).checks}
    check = names["ideal-identification"]
    assert (check.status, check.witness) == ("fail", "e' avoids J'")


def test_rho_is_checked_on_every_edge_of_m_prime():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    m = sol.mprime
    tree = {(x, a) for x in range(len(m))
            for a in range(len(m.generators))
            if m.words[m.elements[m.right[x][a]]] == m.words[m.elements[x]] + (a,)}
    x, a = next((x, a) for x in range(len(m)) for a in range(len(m.generators))
                if (x, a) not in tree)
    rho = sol.rho_map
    m.right[x][a] = next(j for j in range(len(m))
                         if rho[m.elements[j]] != rho[m.elements[m.right[x][a]]])
    names = {ch.name: ch for ch in verify_embedding(sol).checks}
    w = m.words[m.elements[x]]
    assert names["rho-on-generators"].status == "fail"
    assert names["rho-on-generators"].witness == \
        f"rho(eta({w}) * tilde_x[{a}]) is not rho(eta({w})) * g{a}"
    for name in ("rho-ideal-image", "rho-subgroup-image"):
        assert (names[name].status, names[name].witness) == ("skipped", "rho breaks an edge of M'")


def test_solve_makes_no_base_product():
    probs = embedding_problems()
    for key in sorted(probs):
        bm = probs[key].base.monoid
        products = [0]
        mul = bm.mul

        def counted(x, y):
            products[0] += 1
            return mul(x, y)

        bm.mul = counted
        try:
            sol = solve_embedding(probs[key], require_full=True)
        finally:
            bm.mul = mul
        assert products[0] == 0, key
        assert set(sol.rho_map.values()) == set(bm.elements), key
    # the constructor checks nothing, so corrupted generators assemble
    bad = e2_mutation(probs)
    assert (bad.mode, len(bad.mprime)) == ("full", 120)


def test_theta_iso_checks_every_edge_of_a_capped_group():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    capped = assemble_embedding(probs["E2"], sol.p, sol.raw, cap=50)
    # theta is the map, checked by the verifier; no homomorphism is built
    assert capped.mode == "capped" and not hasattr(capped, "theta")
    names = {ch.name: ch for ch in verify_embedding(capped).checks}
    assert (names["theta-iso"].status, names["theta-iso"].witness) == ("pass", "|G'| = 4, |H| = 4")
    g = capped.group
    row = g.right[1]
    row[0] = next(j for j in range(len(g)) if j != row[0])
    names = {ch.name: ch for ch in verify_embedding(capped).checks}
    assert names["theta-iso"].status == "fail"
    assert names["theta-iso"].witness == \
        f"theta({short_str(g.elements[1])} * {short_str(g.generators[0])}) breaks multiplicativity"


def test_full_mode_verification_samples_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled in full mode")

    monkeypatch.setattr(constructions, "_sample_word", refuse)
    monkeypatch.setattr(constructions, "random", None)
    probs = embedding_problems()
    for key in sorted(probs):
        sol = copy.copy(solve_embedding(probs[key], require_full=True))
        products = [0]
        block_mul = sol.block_mul

        def counted(x, y):
            products[0] += 1
            return block_mul(x, y)

        sol.block_mul = counted
        assert verify_embedding(sol).passed, key
        # e'·e' and the kernel sweep's three products per step; the block
        # checks and ideal identification read J' and make none
        assert products[0] == 1 + 3 * sol.p, key
