import gc
import sys
import weakref

import pytest

from eggbox.constructions import build_idempotent_cover, verify_cover
from eggbox.core import FiniteMonoid, MonoidHom, SubSemigroup, generate_monoid
from eggbox.elements import (
    compose_transformations,
    make_table_mul,
    table_element,
    transformation,
)
from eggbox.errors import InternalInconsistency, NotIdempotent, NotInMinimalIdeal, NotSurjective
from eggbox.green import (
    check_min_ideal_image,
    green_structure,
    idempotent_generated,
    is_simple,
    maximal_subgroup,
    minimal_ideal,
    rees_coordinates,
)
from eggbox.groups import builtin_group
from eggbox.oracles import green_counts_agree, naive_is_simple, naive_minimal_ideal_elements
from eggbox.wreath import constant_wreath


def t3():
    return generate_monoid(
        [
            transformation([1, 0, 2]),
            transformation([1, 2, 0]),
            transformation([0, 1, 1]),
        ],
        compose_transformations,
        name="T3",
    )


def class_counts(gs):
    return tuple(len(c) for c in (gs.r_classes, gs.l_classes, gs.j_classes, gs.h_classes))


def test_green_counts_on_full_transformation_monoid():
    m = t3()
    gs = green_structure(m)
    # classic T3 eggbox: ranks 3, 2, 1 give three J-classes; the three
    # constants share one right ideal but have singleton left ideals
    assert len(gs.j_classes) == 3
    assert len(gs.r_classes) == 1 + 3 + 1
    assert len(gs.l_classes) == 1 + 3 + 3
    assert green_counts_agree(m)


def test_green_products_are_linear_in_the_generators():
    # T4 from three generators: the enumeration kept both Cayley graphs, so
    # Green makes no product; multiplying the left one out took
    # |M||A| = 768, and per-element ideals 2|M|^2 = 131,072
    count = [0]

    def counting(a, b):
        count[0] += 1
        return compose_transformations(a, b)

    seeds = [transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))]
    m = generate_monoid(seeds, counting, name="T4")
    assert len(m.elements) == 256
    count[0] = 0
    gs = green_structure(m)
    assert count[0] == 0
    assert class_counts(gs) == (1 + 6 + 7 + 1, 1 + 4 + 6 + 4, 4, 1 + 24 + 42 + 4)
    assert green_counts_agree(m)


def multiplied_left_graph(m):
    """Oracle: the index of a·x for every element x and generator a, by
    products."""
    return [[m.index[m.mul(a, x)] for a in m.generators] for x in m.elements]


def t3_table_monoid():
    """T3 as a multiplication table: an uncertified rule that the closure
    puts through the exact associativity test."""
    m = t3()
    table = [[m.index[m.mul(x, y)] for y in m.elements] for x in m.elements]
    mul = make_table_mul(table, "T3-table")
    seeds = [table_element("T3-table", m.index[g]) for g in m.generators]
    return generate_monoid(seeds, mul, identity=table_element("T3-table", 0), name="T3-table")


def test_left_graph_read_off_the_closure_matches_products():
    t4 = generate_monoid([transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))],
                         compose_transformations, name="T4")
    monoids = [t4, t3_table_monoid(), constant_wreath(builtin_group("C2"), 3).monoid]
    for name, n in (("C2", 3), ("C3", 5), ("S3", 11)):
        monoids.append(build_idempotent_cover(builtin_group(name), n, mode="full").monoid)
    assert [len(m) for m in monoids] == [256, 27, 25, 21, 80, 737]
    for m in monoids:
        assert m.left is not None
        assert m.left == multiplied_left_graph(m)
    # a monoid handed no edges multiplies both graphs out, the left one
    # when it is classified
    bare = FiniteMonoid("T4-bare", t4.elements, t4.mul, t4.identity, t4.generators,
                        t4.prefix, t4.last, t4.first, t4.suffix)
    assert bare.left is None
    green_structure(bare)
    assert bare.left == multiplied_left_graph(t4)


def test_times_walks_agree_with_products():
    for m in (t3(), build_idempotent_cover(builtin_group("C2"), 3).monoid):
        idx = m.index
        for i, x in enumerate(m.elements):
            for j, y in enumerate(m.elements):
                assert m.times(i, j) == idx[m.mul(x, y)]


def test_long_chain_classifies_without_recursion():
    # <t | t^n = t^(n-1)>: a path of n singleton classes down to t^(n-1),
    # longer than the interpreter's recursion limit
    n = sys.getrecursionlimit() + 100
    table = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    mul = make_table_mul(table, "chain")
    m = generate_monoid([table_element("chain", 1)], mul,
                        identity=table_element("chain", 0), name="chain")
    assert len(m.elements) == n
    gs = green_structure(m)
    assert class_counts(gs) == (n, n, n, n)
    ideal = minimal_ideal(m)
    assert ideal.elements == (table_element("chain", n - 1),)


def test_minimal_ideal_of_t3_is_constants():
    m = t3()
    ideal = minimal_ideal(m)
    assert minimal_ideal(m) is ideal  # cached on the monoid
    assert len(ideal) == 3
    assert set(ideal.elements) == naive_minimal_ideal_elements(m)
    assert all(x.data in {(0, 0, 0), (1, 1, 1), (2, 2, 2)} for x in ideal.elements)


def test_minimal_ideal_needs_exactly_one_closed_class():
    # with no generators the witness words spell letters that no generator
    # stands for, so the translations by e cannot be read off the Cayley
    # graphs: one InternalInconsistency, not an IndexError from a walk
    m = t3()
    bare = FiniteMonoid("T3-bare", m.elements, m.mul, m.identity, (),
                        m.prefix, m.last, m.first, m.suffix)
    with pytest.raises(InternalInconsistency):
        minimal_ideal(bare)


def test_a_dropped_monoid_needs_no_cycle_collection():
    # M caches its minimal ideal by a weak reference, so the ideal's
    # pointer back at M closes no cycle: dropping M frees it at once
    m = build_idempotent_cover(builtin_group("C3"), 6, mode="full").monoid
    ideal = minimal_ideal(m)
    assert minimal_ideal(m) is ideal
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m, ideal
        assert ref() is None
    finally:
        gc.enable()


def test_a_full_cover_runs_no_tarjan_pass(monkeypatch):
    # the minimal ideal and its coordinates are read off the translations
    # by y, and the verifier reads those: Green's classes are never needed
    from eggbox import green

    runs = []
    components = green._components
    monkeypatch.setattr(green, "_components", lambda succ: runs.append(succ) or components(succ))
    for name, n in (("C3", 6), ("S3", 11)):
        assert verify_cover(build_idempotent_cover(builtin_group(name), n, mode="full")).passed
    assert runs == []


def test_rees_coordinates_walk_no_word_per_cell(monkeypatch):
    # S3 at n = 23: |I| = 3,174 in 23 rows and 23 columns over |G| = 6; a
    # word is walked for each of the 138 elements of L_y and of R_y, to
    # label them, and for each of the 529 sandwich entries, but for no cell
    c = build_idempotent_cover(builtin_group("S3"), 23, mode="full")
    walks = [0]
    times = FiniteMonoid.times

    def counted(m, i, j):
        walks[0] += 1
        return times(m, i, j)

    monkeypatch.setattr(FiniteMonoid, "times", counted)
    rc = rees_coordinates(c.monoid, c.ideal, c.y)
    assert (rc.n_a, len(rc.group), rc.n_b) == (23, 6, 23)
    assert walks[0] == 138 + 138 + 529


def test_maximal_subgroup_at_constant_is_trivial():
    m = t3()
    ideal = minimal_ideal(m)
    e = ideal.idempotents[0]
    g = maximal_subgroup(m, e, ideal=ideal)
    assert len(g.elements) == 1
    with pytest.raises(NotIdempotent):
        maximal_subgroup(m, m.generators[1], ideal=ideal)


def test_rees_coordinates_cover_ideal():
    c = build_idempotent_cover(builtin_group("C2"), 3)
    rc = c.rees
    assert rc.n_a == 3 and rc.n_b == 3
    assert len(rc.group.elements) == 2
    # coordinates are a bijection onto A x G x B
    assert len(rc.coord) == 18
    assert len({rc.point[k] for k in rc.point}) == 18
    # base point is the chosen idempotent with trivial coordinates
    a0, g0, b0 = rc.coord[c.y]
    assert (a0, b0) == (0, 0) and g0 == rc.group.identity
    with pytest.raises(NotInMinimalIdeal):
        rees_coordinates(c.monoid, c.ideal, c.monoid.identity)


def test_rees_multiplication_rule():
    c = build_idempotent_cover(builtin_group("C2"), 3)
    rc = c.rees
    mul = c.monoid.mul
    for u in c.ideal.elements[:6]:
        for v in c.ideal.elements[:6]:
            a, g, b = rc.coord[u]
            ap, gp, bp = rc.coord[v]
            h = rc.group.mul(rc.group.mul(g, rc.sandwich[(b, ap)]), gp)
            assert rc.coord[mul(u, v)] == (a, h, bp)


def rees_law_on_all_pairs(m, rc):
    """Oracle: compare coord(x·y) with the Rees product for all |I|² pairs."""
    mul = m.mul
    els = rc.ideal.elements

    def product(cx, cy):
        (a, g, b), (a2, g2, b2) = cx, cy
        return (a, mul(mul(g, rc.sandwich[(b, a2)]), g2), b2)

    return all(rc.coord.get(mul(x, y)) == product(rc.coord[x], rc.coord[y]) for x in els for y in els)


def monoid_with_one_bad_product(c, gen):
    """The cover's elements under a product that is wrong on one pair
    (u, gen), where u lies in row 1 and the last column, and the wrong value
    shares the H-class of the true one."""
    rc = c.rees
    u = next(v for v in c.ideal.elements if rc.coord[v][::2] == (1, rc.n_b - 1))
    a, g, b = rc.coord[c.mul(u, gen)]
    other = next(h for h in rc.group.elements if h != g)
    wrong = rc.point[(a, other, b)]

    def mul(p, q):
        return wrong if (p == u and q == gen) else c.mul(p, q)

    m = c.monoid
    return FiniteMonoid("bad", m.elements, mul, m.identity, m.generators,
                        m.prefix, m.last, m.first, m.suffix)


def test_rees_law_agrees_with_the_all_pairs_oracle():
    for name, n in (("C2", 3), ("C3", 5), ("C2xC2", 7)):
        c = build_idempotent_cover(builtin_group(name), n)
        assert rees_law_on_all_pairs(c.monoid, c.rees)
    m = t3()
    ideal = minimal_ideal(m)
    assert rees_law_on_all_pairs(m, rees_coordinates(m, ideal, ideal.idempotents[0]))
    # the idempotent generator y lies in I, so both see a bad product by y
    c = build_idempotent_cover(builtin_group("C2"), 3)
    bad = monoid_with_one_bad_product(c, c.y)
    assert not rees_law_on_all_pairs(bad, c.rees)
    assert green_structure(bad).r_classes == green_structure(c.monoid).r_classes
    with pytest.raises(InternalInconsistency, match="not multiplicative"):
        rees_coordinates(bad, minimal_ideal(bad), c.y)


def test_rees_coordinates_reject_a_bad_product_by_a_unit():
    # the shift x is a unit outside I, so no pair of I meets the bad product;
    # the generator edges of I do, though Green's classes are unchanged
    c = build_idempotent_cover(builtin_group("C2"), 3)
    bad = monoid_with_one_bad_product(c, c.x)
    assert rees_law_on_all_pairs(bad, c.rees)
    assert green_structure(bad).r_classes == green_structure(c.monoid).r_classes
    with pytest.raises(InternalInconsistency, match="not multiplicative"):
        rees_coordinates(bad, minimal_ideal(bad), c.y)


def test_rees_coordinates_products_are_linear_in_the_ideal():
    c = build_idempotent_cover(builtin_group("C3"), 6)
    count = [0]

    def counting(p, q):
        count[0] += 1
        return c.mul(p, q)

    m = c.monoid
    m = FiniteMonoid("C3-cover", m.elements, counting, m.identity, m.generators,
                     m.prefix, m.last, m.first, m.suffix)
    ideal = minimal_ideal(m)
    assert len(ideal) == 108
    count[0] = 0
    rees_coordinates(m, ideal, c.y)
    # only the maximal subgroup is multiplied out; the labels, sandwich
    # and cells are word walks (278 products when they were multiplied),
    # and the all-pairs check alone took |I|² = 11,664
    assert count[0] <= len(ideal)


def test_is_simple_matches_naive():
    m = t3()
    ideal = minimal_ideal(m)
    sub = SubSemigroup(m, ideal.elements)
    assert is_simple(sub)
    assert naive_is_simple(sub)
    whole = SubSemigroup(m, m.elements)
    assert not is_simple(whole)
    assert not naive_is_simple(whole)


def test_is_simple_agrees_with_naive_on_idempotent_spans():
    m = t3()
    # the idempotents of T3 generate the identity and all 21 singular maps
    spans = [idempotent_generated(SubSemigroup(m, m.elements)),
             idempotent_generated(minimal_ideal(m))]
    for gname, b in (("C2", 2), ("C3", 2), ("S3", 1)):
        spans.append(idempotent_generated(constant_wreath(builtin_group(gname), b).simple))
    assert len(spans[0]) == 22
    assert spans[0].generators == tuple(x for x in m.elements if m.mul(x, x) == x)
    verdicts = [is_simple(span) for span in spans]
    assert verdicts == [naive_is_simple(span) for span in spans]
    assert verdicts == [False, True, True, True, True]


def test_idempotent_generated_of_band_is_everything():
    m = t3()
    ideal = minimal_ideal(m)
    sub = SubSemigroup(m, ideal.elements)
    span = idempotent_generated(sub)
    assert set(span.elements) == set(ideal.elements)


def test_check_min_ideal_image_requires_surjectivity():
    c2 = builtin_group("C2")
    triv = builtin_group("1")
    up = MonoidHom.from_generator_images(triv, c2, [c2.identity])
    with pytest.raises(NotSurjective):
        check_min_ideal_image(up)


def test_check_min_ideal_image_on_group_quotient():
    c4 = builtin_group("C4")
    c2 = builtin_group("C2")
    alpha = MonoidHom.from_generator_images(c4, c2, [c2.generators[0]])
    report = check_min_ideal_image(alpha)
    assert report.passed


def test_green_runs_tarjan_on_the_two_graphs_only(monkeypatch):
    # J = D is read off the R- and L-classes: no third run on a joined graph
    from eggbox import green

    runs = []
    components = green._components

    def counted(succ):
        runs.append(succ)
        return components(succ)

    monkeypatch.setattr(green, "_components", counted)
    t4 = generate_monoid([transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))],
                         compose_transformations, name="T4")
    # the cover's closure again, not yet classified
    c = build_idempotent_cover(builtin_group("C3"), 5, mode="full").monoid
    cover = generate_monoid(c.generators, c.mul, identity=c.identity, name="C3-cover")
    for m in (t4, cover):
        runs.clear()
        gs = green_structure(m)
        assert runs == [m.right, m.left]
        assert set(minimal_ideal(m).elements) == naive_minimal_ideal_elements(m)
    # T4's classes meet the oracle in test_green_products_are_linear_in_the_generators
    assert green_counts_agree(cover)


def test_subgroup_image_fails_on_an_h_class_sent_off_its_image():
    # swap a non-first member x of the ideal's first H-class with an element
    # y of another H-class: the ideal still maps onto the ideal, but that
    # H-class no longer maps onto the H-class of its first member's image
    m = build_idempotent_cover(builtin_group("C2"), 3).monoid
    ideal = minimal_ideal(m)
    gs = green_structure(m)
    h_of = {v: gs.h_class_of[m.index[v]] for v in ideal.elements}
    first = gs.h_classes[h_of[ideal.elements[0]]]
    x = first[1]
    y = next(v for v in ideal.elements if h_of[v] != h_of[x])
    swap = {x: y, y: x}
    phi = MonoidHom(m, m, {v: swap.get(v, v) for v in m.elements}, check=False)
    names = {ch.name: ch for ch in check_min_ideal_image(phi).checks}
    assert names["ideal-image"].status == "pass"
    e = next(v for v in first if m.mul(v, v) == v)
    assert (names["subgroup-image"].status, names["subgroup-image"].witness) == \
        ("fail", f"at idempotent {e!r}")
    # the identity map passes, one H-class per idempotent of the ideal
    names = {ch.name: ch for ch in check_min_ideal_image(MonoidHom(m, m, {v: v for v in m.elements})).checks}
    n_idem = sum(m.mul(v, v) == v for v in ideal.elements)
    assert (names["subgroup-image"].status, names["subgroup-image"].witness) == \
        ("pass", f"idempotents={n_idem}")
