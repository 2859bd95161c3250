import copy
from itertools import product

import pytest

from eggbox import constructions
from eggbox.constructions import (
    EmbeddingProblem,
    EmbeddingSolution,
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
from eggbox.core import FiniteGroup, FiniteMonoid, MonoidHom, closure, generate_monoid, is_isomorphic
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
from eggbox.green import idempotent_generated, minimal_ideal, rees_coordinates
from eggbox.groups import builtin_group
from eggbox.oracles import enumerated_embedding_checks
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


def test_cover_factorization_checks_its_premises():
    # the factorizations are read along R_y from seeds fixed by y on the
    # right: a row unit that y moves, or a column unit outside R_y, fails
    # by name, though each stand-in is an idempotent of the ideal
    c = build_idempotent_cover(builtin_group("C3"), 5)
    one = c.rees.group.identity
    v1, u1 = c.rees.point[(0, one, 1)], c.rees.point[(1, one, 0)]
    assert c.mul(v1, c.y) != v1
    for cell, stand_in, witness in (((1, one, 0), v1, f"{short_str(v1)} is not fixed by y on the right"),
                                    ((0, one, 1), u1, f"column unit {short_str(u1)} is not in R_y")):
        doctored = copy.copy(c)
        doctored.rees = copy.copy(c.rees)
        doctored.rees.point = {**c.rees.point, cell: stand_in}
        names = {ch.name: ch for ch in verify_cover(doctored).checks}
        assert (names["idempotent-closure"].status, names["idempotent-closure"].witness) == ("fail", witness)
    assert verify_cover(c).passed


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
        yield f"ideal-{key}", rees_coordinates(sol.mprime, minimal_ideal(sol.mprime), sol.e_prime)


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
    m = unit_zero()
    pb = prepare_base(m)
    # the action on the singleton minimal ideal collapses everything
    assert len(m.elements) == 2 and len(pb.monoid.elements) == 1
    assert pb.schutz.map[pb.f].data == ((0, pb.group.identity),)
    assert len(pb.group.elements) == 1
    assert pb.b == 1
    assert len(pb.word) == 2  # one slot per listed generator


def test_prepare_base_keeps_faithful_base():
    m = doubled_swap()
    pb = prepare_base(m)
    assert pb.monoid is m
    assert len(pb.monoid.elements) == 2
    assert len(pb.group.elements) == 2
    assert pb.b == 1
    # the anchored idempotent's matrix is the first-column identity
    assert all(col == 0 and val == pb.group.identity for col, val in pb.schutz.map[pb.f].data)


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
    # block pass over L' = M'e' makes each block's entrywise image of
    # alpha_hat once
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
    mul = sol.block_mul
    left = closure([sol.e_prime], sol.raw, lambda z, a: mul(a, z))[1]
    checks = constructions._check_blocks(sol, ell_of(sol), left, str)
    assert all(c.status == "pass" for c in checks)
    blocks = {blk for z in left for _, blk in z.data}
    assert set(made) == blocks
    assert max(made.values()) == 1
    assert len(left) * sol.p > 10 * len(blocks)


def test_embedding_over_a_cover_base_walks_few_words(monkeypatch):
    # the solve builds no Green's structure of M' and the verifier reads the
    # orbits of e' with block products: the solve plus verify made 4,410
    # word walks when each element of J' was squared and each target
    # subgroup was built, and 9 while the verifier read the enumerated M'
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
    assert walks[0] == 0


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
        assert len(sol.mprime.elements) == size, key
        assert is_isomorphic(FiniteGroup.from_monoid(sol.group), builtin_group(gname)) is not None, key
        report = verify_embedding(sol)
        params = dict(report.params)
        assert (params["p"], params["nu"], params["ell"], params["m"]) == (p, nu, ell, m), key
        assert report.passed, report.text()
        assert not any(c.status == "skipped" for c in report.checks)


def test_e2_diagonal_lifts():
    prob = embedding_problems()["E2"]
    # kernel of C4 ->> C2 is {1, g^2}; its 1-block diagonals seed the rows
    kernel = constructions._kernel(prob)
    nbt = constructions._kernel_diagonals(prob)
    assert len(nbt) == len(kernel) == 2  # b = 1 here, so nu^b = nu
    c4 = prob.alpha.source
    gsq = c4.mul(c4.generators[0], c4.generators[0])
    assert kernel == (c4.identity, gsq)
    assert [blk.data[0][1] for blk in nbt] == [c4.identity, gsq]


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
    assert sol.mprime is None
    report = verify_embedding(sol)
    assert report.passed
    assert all(c.status == "pass" for c in report.checks)
    # the orbit checks read L' and J' off e'M' and M'e', and count M'
    names = {c.name: c for c in report.checks}
    assert names["preimage-coverage"].witness == "20 elements of L'"
    assert names["ideal-identification"].witness == "|J'| = 100"
    assert dict(report.params)["size"] == 120
    with pytest.raises(CapExceeded):
        solve_embedding(probs["E2"], cap=50, require_full=True)


def test_the_solution_holds_no_parameter_the_verifier_derives():
    # corrupting n_elements, nu, m or r once passed every check; the slots
    # are gone, and the report shows the verifier's own values
    sol = solve_embedding(embedding_problems()["E2"])
    assert len(EmbeddingSolution.__slots__) == 12
    for slot in ("nu", "ell", "m", "r", "n_elements", "nbt", "sigma", "cycler"):
        with pytest.raises(AttributeError):
            setattr(sol, slot, 1)
    params = dict(verify_embedding(sol).params)
    assert (params["nu"], params["ell"], params["m"], params["r"]) == (2, 2, 4, 4)
    assert repr(sol) == "EmbeddingSolution(p=5, full, |M'|=120)"


def test_section_coverage_needs_a_section(monkeypatch):
    prob = embedding_problems()["E2"]
    sol = solve_embedding(prob)
    k = prob.base.group
    flip = next(x for x in k.elements if x != k.identity)
    # sigma sending every k to the identity once passed every check
    monkeypatch.setattr(constructions, "canonical_section",
                        lambda ahat: {x: prob.h.identity for x in k.elements})
    names = {ch.name: ch for ch in verify_embedding(sol).checks}
    assert (names["section-coverage"].status, names["section-coverage"].witness) == \
        ("fail", f"sigma({short_str(flip)}) does not lie over it")
    monkeypatch.undo()
    # a section value outside theta(G') is named by the k it lifts
    doctored = copy.copy(sol)
    sigma = constructions.canonical_section(prob.alpha_hat)
    one = prob.h.identity
    doctored.theta_map = {s: one if h == sigma[flip] else h for s, h in sol.theta_map.items()}
    names = {ch.name: ch for ch in verify_embedding(doctored).checks}
    assert (names["section-coverage"].status, names["section-coverage"].witness) == \
        ("fail", f"sigma({short_str(flip)}) misses the theta image")


def generators_for(sol, q):
    """E2's block generators rebuilt for the modulus q, past the solver's
    prime check: the shift on q rows with the constant lift block, and the
    single column whose first ell = 2 blocks hold the kernel diagonals."""
    lift = sol.raw[0].data[0][1]
    column = [blk for _, blk in sol.raw[1].data]
    return [row_monomial(((i + 1) % q, lift) for i in range(q)),
            row_monomial((0, blk) for blk in column[:2] + column[-1:] * (q - 2))]


def test_prime_bound_is_checked():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    assert assemble_embedding(probs["E2"], 5, generators_for(sol, 5)).raw == sol.raw
    for q, why in ((3, "p = 3 is not above max(m, ell) = 4"), (9, "p = 9 is not prime")):
        report = verify_embedding(assemble_embedding(probs["E2"], q, generators_for(sol, q)))
        names = {ch.name: ch for ch in report.checks}
        assert (names["prime-bound"].status, names["prime-bound"].witness) == ("fail", why), q
    # at p = 4, m = 4 has no inverse: no r, and no cycler to sweep the kernel
    report = verify_embedding(assemble_embedding(probs["E2"], 4, generators_for(sol, 4)))
    names = {ch.name: ch for ch in report.checks}
    assert dict(report.params)["r"] == "-"
    assert names["kernel-coverage"].witness == "no cycler: m has no inverse modulo p = 4"
    sols = [solve_embedding(probs[key]) for key in sorted(probs)]
    sols.append(solve_embedding(probs["E2"], p_override=7))
    for sol in sols:
        names = {ch.name: ch for ch in verify_embedding(sol).checks}
        assert names["prime-bound"].status == "pass", sol


def test_the_build_computes_each_quantity_once(monkeypatch):
    # the kernel diagonals, sigma, the inner rule and m, once each, in full
    # and in capped mode
    prob = embedding_problems()["E2"]  # makes the inner rule
    calls = {}
    for name in ("canonical_section", "_kernel_diagonals", "_lift_exponent", "make_rowmono_mul"):
        def counted(*args, _f=getattr(constructions, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kw)
        monkeypatch.setattr(constructions, name, counted)
    # make_rowmono_mul makes the block rule alone
    once = {"canonical_section": 1, "_kernel_diagonals": 1, "_lift_exponent": 1, "make_rowmono_mul": 1}
    assert solve_embedding(prob).mode == "full"
    assert calls == once
    calls.clear()
    assert solve_embedding(prob, cap=50).mode == "capped"
    assert calls == once


def cover_base_problem(n=3):
    """C4 ->> C2 over the C2 cover of modulus n; |M'| = 4,422 at n = 3."""
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    base = prepare_base(build_idempotent_cover(c2, n).monoid)
    return EmbeddingProblem(MonoidHom.from_generator_images(c4, c2, [c2.generators[0]]), base)


def test_capped_checks_agree_with_the_enumeration():
    # the verifier reads the orbits of e', whether M' was enumerated or the
    # closure was capped one below |M'|; the oracle reads the enumerated M'.
    # They reach the same verdicts, and the size the verifier counts is |M'|
    probs = embedding_problems()
    cases = [(probs[key], None) for key in ("E1", "E2", "E3")]
    cases += [(probs["E2"], 7), (cover_base_problem(), None)]
    sizes = []
    for prob, p in cases:
        full = solve_embedding(prob, p_override=p, require_full=True)
        n = len(full.mprime)
        capped = solve_embedding(prob, p_override=p, cap=n - 1)
        assert capped.mode == "capped", prob
        oracle = {c.name: c.status for c in enumerated_embedding_checks(full)}
        assert len(oracle) == 7
        for sol in (full, capped):
            report = verify_embedding(sol)
            assert {c.name: c.status for c in report.checks if c.name in oracle} == oracle, prob
            assert dict(report.params)["size"] == n, prob
        sizes.append(n)
    assert sizes == [21, 120, 12, 224, 4422]


def test_no_embedding_check_is_skipped():
    probs = embedding_problems()
    sols = [solve_embedding(probs[key]) for key in sorted(probs)]
    e2 = sols[1]
    sols.append(solve_embedding(probs["E2"], p_override=7))
    sols += [assemble_embedding(probs["E2"], e2.p, corrupt_block_entry(e2, probs["E2"]), cap=cap)
             for cap in (100, MUTATION_CAP)]
    sols.append(solve_embedding(cover_base_problem()))
    assert [s.mode for s in sols] == ["full"] * 4 + ["capped", "full", "full"]
    for s in sols:
        assert [c.name for c in verify_embedding(s).checks if c.status == "skipped"] == [], s


def test_capped_cover_base_at_n6_is_exact():
    # |M'| = 647,220 from orbits of 1,608 elements each, with nothing sampled
    report = verify_embedding(solve_embedding(cover_base_problem(6), cap=100))
    assert all(c.status == "pass" for c in report.checks), report.text()
    assert dict(report.params)["size"] == 647220


def capped_names(sol):
    report = verify_embedding(sol)
    assert sol.mode == "capped" and not report.passed
    failures = [c for c in report.checks if c.status == "fail"]
    assert all(c.witness for c in failures)
    return {c.name: c for c in report.checks}


def test_capped_e2_mutation_is_detected():
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    bad = assemble_embedding(probs["E2"], sol.p, corrupt_block_entry(sol, probs["E2"]), cap=100)
    names = capped_names(bad)
    # x~_2·e' in L' holds one of its two preimages, as the enumeration finds
    v = bad.block_mul(bad.raw[1], bad.e_prime)
    image = constructions._alphabar(bad.problem.alpha_hat, v.data[0][1])
    assert enumerated_preimages_held(bad, v, image) == (1, 2)
    assert (names["preimage-coverage"].status, names["preimage-coverage"].witness) == \
        ("fail", "eta(w) holds 1 of the 2 preimages of M_w for w=(1,) * e'")


def test_capped_ideal_identification_needs_e_prime_in_the_ideal():
    probs = embedding_problems()
    doctored = copy.copy(solve_embedding(probs["E2"], cap=50))
    # the identity is idempotent, but e'M'e' is then all of M'
    doctored.e_prime = constructions._block_identity(probs["E2"], doctored.p)
    full = solve_embedding(probs["E2"], require_full=True)
    idempotents = [v for v in full.mprime.elements if full.block_mul(v, v) == v]
    check = capped_names(doctored)["ideal-identification"]
    assert (check.status, check.witness) == ("fail", f"H' holds {len(idempotents)} idempotents, not e' alone")
    # another idempotent of J' has a group e'M'e' too, but it is not the
    # anchor that the verifier derives from the generators
    doctored.e_prime = next(v for v in idempotents if v in minimal_ideal(full.mprime) and v != full.e_prime)
    check = capped_names(doctored)["ideal-identification"]
    assert (check.status, check.witness) == ("fail", "e' is not omega(omega(x~_1) eta(w) omega(x~_2))")


def test_capped_preimage_coverage_reads_every_element_of_l_prime():
    # the second generator's block row 1 repeats row 0, dropping the kernel
    # diagonal of g^2: every block still lies over M_g2, but e', the first
    # element of L', holds one preimage of its image
    probs = embedding_problems()
    sol = solve_embedding(probs["E2"])
    raw = list(sol.raw)
    rows = list(raw[1].data)
    rows[1] = rows[0]
    raw[1] = row_monomial(rows)
    n = len(assemble_embedding(probs["E2"], sol.p, raw).mprime)
    bad = assemble_embedding(probs["E2"], sol.p, raw, cap=n - 1)
    image = constructions._alphabar(bad.problem.alpha_hat, bad.e_prime.data[0][1])
    assert enumerated_preimages_held(bad, bad.e_prime, image) == (1, 2)
    names = capped_names(bad)
    assert names["block-projection"].status == "pass"
    assert (names["preimage-coverage"].status, names["preimage-coverage"].witness) == \
        ("fail", "eta(w) holds 1 of the 2 preimages of M_w for w=() * e'")


def test_capped_group_must_be_h_prime():
    sol = solve_embedding(embedding_problems()["E2"], cap=50)
    e, mul = sol.e_prime, sol.block_mul
    square = next(z for z in sol.group.elements if z != e and mul(z, z) == e)
    doctored = copy.copy(sol)
    doctored.group = generate_monoid([square], mul, identity=e)
    # H' is the H-class of e' in the enumerated M', and one of its two
    # elements outside {e', square} is named
    full = solve_embedding(embedding_problems()["E2"], require_full=True)
    assert full.e_prime == e
    h_prime = [z for z in full.mprime.elements if mul(mul(e, z), e) == z and z not in (e, square)]
    check = capped_names(doctored)["ideal-identification"]
    assert check.status == "fail"
    assert check.witness in {f"G' misses {short_str(z)} of H'" for z in h_prime}
    assert len(h_prime) == 2


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


def ell_of(sol):
    """ell = nu^b, as the verifier derives it."""
    return len(constructions._kernel(sol.problem)) ** sol.problem.base.b


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


def witness_word(sol, v):
    """The witness word of v in M'."""
    return sol.mprime.word(sol.mprime.index[v])


def ideal_cases(sol):
    """(v, M_v, w) for every element v of J' and its witness word w."""
    return [(v, word_matrix(sol, witness_word(sol, v)), witness_word(sol, v))
            for v in minimal_ideal(sol.mprime).elements]


def e2_mutation(probs):
    sol = solve_embedding(probs["E2"])
    return assemble_embedding(probs["E2"], sol.p, corrupt_block_entry(sol, probs["E2"]),
                              cap=MUTATION_CAP)


def test_counted_coverage_agrees_with_the_enumeration():
    # the oracle counts each element's distinct blocks over M_rho(v); the
    # candidates of M_v enumerated here give the same verdict and witness
    probs = embedding_problems()
    sols = {key: solve_embedding(probs[key], require_full=True) for key in sorted(probs)}
    sols["E2-mutation"] = e2_mutation(probs)
    short = set()
    for key, sol in sols.items():
        assert sol.mode == "full", key
        cases = ideal_cases(sol)
        # M_v read off rho is the product fold along v's witness word
        schutz = sol.problem.base.schutz.map
        assert [(v, schutz[sol.rho_map[v]], w) for v, _, w in cases] == cases, key
        names = {c.name: c for c in enumerated_embedding_checks(sol)}
        assert names["single-column"].witness == f"{len(cases)} elements of J'", key
        lacking = []
        for v, mv, w in cases:
            held, total = enumerated_preimages_held(sol, v, mv)
            assert total == ell_of(sol), key
            if held < total:
                lacking.append(f"eta(w) holds {held} of the {total} preimages of M_w for w={w}")
        coverage = names["preimage-coverage"]
        if lacking:
            short.add(key)
            assert (coverage.status, coverage.witness) == ("fail", lacking[0]), key
        else:
            assert coverage.status == "pass", key
    assert short == {"E2-mutation"}


def test_e2_mutation_fails_counted_coverage():
    bad = e2_mutation(embedding_problems())
    names = {ch.name: ch for ch in verify_embedding(bad).checks}
    assert names["preimage-coverage"].status == "fail"
    # the oracle names the first element of J' that lacks a preimage by its
    # witness word
    names = {ch.name: ch for ch in enumerated_embedding_checks(bad)}
    held, w = next((held, w) for v, mv, w in ideal_cases(bad)
                   for held, _ in [enumerated_preimages_held(bad, v, mv)] if held < 2)
    assert names["preimage-coverage"].witness == \
        f"eta(w) holds {held} of the 2 preimages of M_w for w={w}"


def with_element_replaced(sol, v, bad):
    """A copy of a full-mode solution whose M' and rho hold ``bad`` in
    place of v, under v's witness word and rho image."""
    m = sol.mprime

    def swap(x):
        return bad if x == v else x

    doctored = copy.copy(sol)
    doctored.mprime = FiniteMonoid(m.name, map(swap, m.elements), m.mul, m.identity,
                                   m.generators, m.prefix, m.last, m.first, m.suffix,
                                   m.right, m.left)
    doctored.rho_map = {swap(x): u for x, u in sol.rho_map.items()}
    return doctored


def test_single_column_reads_every_element_of_the_ideal():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    v = minimal_ideal(sol.mprime).elements[-1]
    rows = list(v.data)
    col, blk = rows[0]
    rows[0] = ((col + 1) % sol.p, blk)
    doctored = with_element_replaced(sol, v, row_monomial(rows))
    # the verifier reads the orbits of e', not M'
    assert verify_embedding(doctored).passed
    names = {ch.name: ch for ch in enumerated_embedding_checks(doctored)}
    assert names["single-column"].status == "fail"
    assert names["single-column"].witness == f"eta({witness_word(sol, v)}) has several columns"


def test_block_projection_reads_every_element_of_m_prime():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    h = sol.problem.h
    ideal = minimal_ideal(sol.mprime)
    v = next(x for x in reversed(sol.mprime.elements)
             if x not in ideal and x not in sol.raw)
    rows = list(v.data)
    col, blk = rows[0]
    bcol, bval = blk.data[0]
    rows[0] = (col, row_monomial([(bcol, h.mul(bval, h.generators[0]))] + list(blk.data[1:])))
    doctored = with_element_replaced(sol, v, row_monomial(rows))
    assert verify_embedding(doctored).passed
    names = {ch.name: ch for ch in enumerated_embedding_checks(doctored)}
    assert names["block-projection"].status == "fail"
    assert names["block-projection"].witness == \
        f"eta({witness_word(sol, v)}) block row 0 does not lie over M_w"


def test_ideal_identification_needs_e_prime_in_the_ideal():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    doctored = copy.copy(sol)
    doctored.e_prime = sol.mprime.identity  # idempotent, outside J'
    names = {ch.name: ch for ch in enumerated_embedding_checks(doctored)}
    check = names["ideal-identification"]
    assert (check.status, check.witness) == ("fail", "e' avoids J'")


def test_rho_is_checked_on_every_edge_of_m_prime():
    sol = solve_embedding(embedding_problems()["E2"], require_full=True)
    m = sol.mprime
    tree = {(x, a) for x in range(len(m))
            for a in range(len(m.generators))
            if (m.prefix[m.right[x][a]], m.last[m.right[x][a]]) == (x, a)}
    x, a = next((x, a) for x in range(len(m)) for a in range(len(m.generators))
                if (x, a) not in tree)
    rho = sol.rho_map
    minimal_ideal(m)  # J' of the true graph
    m.right[x][a] = next(j for j in range(len(m))
                         if rho[m.elements[j]] != rho[m.elements[m.right[x][a]]])
    assert verify_embedding(sol).passed
    names = {ch.name: ch for ch in enumerated_embedding_checks(sol)}
    w = m.word(x)
    assert names["rho-on-generators"].status == "fail"
    assert names["rho-on-generators"].witness == \
        f"rho(eta({w}) * tilde_x[{a}]) is not rho(eta({w})) * g{a}"
    for name in ("rho-ideal-image", "rho-subgroup-image"):
        assert (names[name].status, names[name].witness) == ("fail", "rho breaks an edge of M'")


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


def test_full_mode_verification_samples_nothing():
    probs = embedding_problems()
    for key in sorted(probs):
        sol = copy.copy(solve_embedding(probs[key], require_full=True))
        products = [0]
        block_mul = sol.block_mul

        def counted(x, y):
            products[0] += 1
            return block_mul(x, y)

        sol.block_mul = counted
        report = verify_embedding(sol)
        assert report.passed, key
        # each of the A generators on every element of the orbits R' = e'M'
        # and L' = M'e', x~_1 on each of its powers, z·e' for z in R' and
        # z·z for z in H'; the sizes are read off the report, as |L'|, |H'|
        # and |J'| = |R'|·|L'|/|H'|, with |J'| + |<x~_1>| = |M'|
        names = {c.name: c.witness for c in report.checks}
        left = int(names["single-column"].split()[0])
        group = int(names["rho-subgroup-image"].split()[-1])
        ideal = int(names["ideal-identification"].split()[-1])
        right, powers = ideal * group // left, dict(report.params)["size"] - ideal
        orbits = len(sol.raw) * (right + left) + powers + right + group
        # the anchor derived again, and for each generator a but x~_1 the
        # product a·e', the scan of H' for its inverse and the three products
        # of a's factorization through H'
        anchor, scan = {"E1": (13, 1), "E2": (51, 4), "E3": (19, 2)}[key]
        factors = sum(1 + scan + 3 for _ in sol.raw[1:])
        # the cycler x~_1^(m·r) by squaring, its p - 1 further powers, e'·e'
        # and two products per step of the kernel sweep; m and p are the
        # frozen ones, not the report's
        p, _, _, m, _, _ = FROZEN[key]
        k = m * pow(m, -1, p)
        sweep = k.bit_length() + bin(k).count("1") + 3 * p
        assert products[0] == orbits + anchor + factors + sweep, key
