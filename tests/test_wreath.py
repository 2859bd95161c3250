import random

import pytest

import eggbox.wreath as wreath
from eggbox.constructions import build_idempotent_cover
from eggbox.core import FiniteMonoid, MonoidHom, generate_monoid
from eggbox.elements import (
    compose_transformations,
    identity_row_monomial,
    make_rowmono_mul,
    row_monomial,
    transformation,
)
from eggbox.errors import CapExceeded, InternalInconsistency, NotIdempotent, NotInLocalMonoid, NotWellDefined
from eggbox.green import green_structure, minimal_ideal, rees_coordinates
from eggbox.groups import builtin_group
from eggbox.wreath import (
    constant_wreath,
    is_faithful_on_min_ideal,
    psi,
    rlm,
    schutz_faithful_quotient,
    schutz_rep,
)


def test_constant_wreath_sizes():
    # |simple| = |G|^b * b; the adjoined identity is new except when b = 1
    for gname, b, expected in [("1", 3, 3), ("C2", 2, 8), ("C3", 2, 18), ("S3", 1, 6)]:
        w = constant_wreath(builtin_group(gname), b)
        assert len(w.simple.elements) == expected
        assert len(w.monoid.elements) == expected + (1 if b > 1 else 0)


def test_psi_is_iso_on_local_monoid():
    w = constant_wreath(builtin_group("C3"), 2)
    g = w.group
    mul = w.monoid.mul
    for e in w.simple.idempotents:
        local = [s for s in w.simple.elements if mul(e, s) == s == mul(s, e)]
        values = {s: psi(w, e, s) for s in local}
        assert sorted(values.values()) == sorted(g.elements)
        assert values[e] == g.identity


def test_psi_input_validation():
    w = constant_wreath(builtin_group("C2"), 2)
    e = w.simple.idempotents[0]
    with pytest.raises(NotIdempotent):
        psi(w, w.monoid.identity, e)
    other = next(
        s for s in w.simple.elements if w.monoid.mul(e, s) != s
    )
    with pytest.raises(NotInLocalMonoid):
        psi(w, e, other)


def unit_zero():
    return generate_monoid(
        [transformation([0, 1]), transformation([0, 0])],
        compose_transformations,
        name="unit-zero",
    )


def t3():
    return generate_monoid([transformation(t) for t in ((1, 0, 2), (1, 2, 0), (0, 1, 1))],
                           compose_transformations, name="T3")


def t4():
    return generate_monoid([transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))],
                           compose_transformations, name="T4")


def counted(m):
    """M under a product that counts its calls, with M's elements, words
    and right Cayley graph."""
    count = [0]

    def mul(p, q):
        count[0] += 1
        return m.mul(p, q)

    return FiniteMonoid(m.name, m.elements, mul, m.identity, m.generators, m.words, m.right), count


def schutz_is_injective(m):
    """Oracle: the Schützenberger representation at the first idempotent
    of the minimal ideal separates M."""
    ideal = minimal_ideal(m)
    rep = schutz_rep(m, rees_coordinates(m, ideal, ideal.idempotents[0]))
    return len(set(rep.map.values())) == len(m)


def random_transformation_monoids(count, seed):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        d = rnd.randint(2, 4)
        seeds = [transformation([rnd.randrange(d) for _ in range(d)]) for _ in range(rnd.randint(1, 3))]
        try:
            out.append(generate_monoid(seeds, compose_transformations, cap=100, identity=transformation(range(d))))
        except CapExceeded:
            pass
    return out


def test_faithfulness_verdicts():
    # the unit-zero monoid acts trivially on its singleton minimal ideal
    assert not is_faithful_on_min_ideal(unit_zero())
    c = builtin_group("C2")
    w = constant_wreath(c, 2)
    assert is_faithful_on_min_ideal(w.monoid)


def test_schutz_quotient_collapses_unit_zero():
    target, proj = schutz_faithful_quotient(unit_zero())
    assert len(target.elements) == 1
    assert proj.is_surjective()
    assert is_faithful_on_min_ideal(target)


def test_faithfulness_agrees_with_the_schutzenberger_representation():
    fixed = [unit_zero(), t3(), t4(),
             build_idempotent_cover(builtin_group("C2"), 3).monoid,
             build_idempotent_cover(builtin_group("C3"), 5).monoid,
             constant_wreath(builtin_group("C2"), 3).monoid]
    monoids = fixed + random_transformation_monoids(200, seed=2024)
    verdicts = [is_faithful_on_min_ideal(m) for m in monoids]
    assert verdicts == [schutz_is_injective(m) for m in monoids]
    assert verdicts[:len(fixed)] == [False] + [True] * (len(fixed) - 1)
    # both verdicts are common among the random monoids
    assert 50 <= verdicts.count(False) <= 150


def test_the_action_on_the_minimal_ideal_is_read_off_the_cayley_graph():
    m, count = counted(t4())
    ideal = minimal_ideal(m)
    rc = rees_coordinates(m, ideal, ideal.idempotents[0])
    count[0] = 0
    # building a representation to test faithfulness took 1,082 products
    assert is_faithful_on_min_ideal(m)
    assert count[0] == 0
    # only the matrix entries, which lie in G, are multiplied; a product of
    # every column representative by every element took 1,041
    schutz_rep(m, rc)
    assert count[0] <= len(rc.group) ** 2


def test_schutz_rep_is_faithful_on_group():
    w = constant_wreath(builtin_group("C2"), 2)
    m = w.monoid
    rc = rees_coordinates(m, minimal_ideal(m), minimal_ideal(m).idempotents[0])
    rep = schutz_rep(m, rc)
    imgs = {rep(x) for x in m.elements}
    assert len(imgs) == len(m.elements)  # faithful here


def test_schutz_map_with_one_bad_image_is_rejected():
    # T4 has 256 elements; the hom check follows every generator edge, so one
    # wrong image off the generators is found at this size as at any other
    m = t4()
    assert len(m.elements) > 200
    ideal = minimal_ideal(m)
    rep = schutz_rep(m, rees_coordinates(m, ideal, ideal.idempotents[0]))
    bad = dict(rep.map)
    x = m.elements[-1]
    assert x not in m.generators and x != m.identity
    bad[x] = next(img for img in rep.target.elements if img != rep.map[x])
    with pytest.raises(NotWellDefined):
        MonoidHom(m, rep.target, bad)


def test_rlm_action_matches_the_rees_column_labels():
    # oracle: u sends the column of v_b to the column label coord(v_b·u)[2]
    # of the Rees coordinates, each column read through the number rlm
    # gives it: an ideal element x acts as the constant map to x's number,
    # so the oracle holds under any numbering of the columns.  The wreath's
    # generators all lie in its ideal; the cover's shift is a unit.
    cover = build_idempotent_cover(builtin_group("C2"), 3)
    for m, size in ((constant_wreath(builtin_group("C2"), 3).monoid, 3 + 1), (cover.monoid, 3 + 3)):
        target, act = rlm(m)
        ideal = minimal_ideal(m)
        rc = rees_coordinates(m, ideal, ideal.idempotents[0])
        number = {rc.coord[x][2]: act(x).data[0] for x in ideal.elements}
        assert sorted(number) == sorted(number.values()) == [0, 1, 2]
        for u in m.generators:
            for b, vb in enumerate(rc.col_reps):
                assert act(u).data[number[b]] == number[rc.coord[m.mul(vb, u)][2]]
        # the constant maps, plus the identity and the shift's powers
        assert act.is_surjective() and len(target.elements) == size


def test_rlm_is_the_column_part_of_the_schutzenberger_representation():
    for m in (t4(), build_idempotent_cover(builtin_group("C2"), 3).monoid,
              constant_wreath(builtin_group("C3"), 2).monoid):
        _, act = rlm(m)
        ideal = minimal_ideal(m)
        rep = schutz_rep(m, rees_coordinates(m, ideal, ideal.idempotents[0]))
        for u in m.generators:
            assert act(u).data == tuple(b for b, _ in rep(u).data)


def test_rlm_rejects_a_bad_product_inside_an_l_class():
    # u·x is wrong but shares the H-class of the true value, so Green's
    # classes stay as they are.  u lies in the last column and is neither
    # the first nor the last member of its L-class, so a check of each
    # L-class's ends misses it; the Rees law on every edge does not
    c = build_idempotent_cover(builtin_group("C2"), 3)
    m, rc = c.monoid, c.rees
    gs = green_structure(m)

    def ends(v):
        members = gs.l_classes[gs.l_class_of[v]]
        return members[0], members[-1]

    u = next(v for v in c.ideal.elements if rc.coord[v][2] == rc.n_b - 1 and v not in ends(v))
    a, g, b = rc.coord[m.mul(u, c.x)]
    wrong = rc.point[(a, next(h for h in rc.group.elements if h != g), b)]

    def mul(p, q):
        return wrong if (p == u and q == c.x) else m.mul(p, q)

    bad = FiniteMonoid("bad", m.elements, mul, m.identity, m.generators, m.words)
    assert green_structure(bad).h_classes == gs.h_classes
    with pytest.raises(InternalInconsistency, match="not multiplicative"):
        rlm(bad)


def flatten(m, inner_size):
    """Oracle: the (outer·inner)-sized matrix of a block matrix; global row
    J·b + i of block row (C, blk) maps to column C·b + c_blk(i) with entry
    v_blk(i)."""
    return row_monomial((c * inner_size + d, v) for c, blk in m.data for d, v in blk.data)


def test_block_matrix_flatten_multiplicative():
    g = builtin_group("C2")
    inner = list(constant_wreath(g, 2).monoid.elements)
    block_mul = make_rowmono_mul(make_rowmono_mul(g.mul))
    flat_mul = make_rowmono_mul(g.mul)
    blocks = [row_monomial([(1, u), (0, v)]) for u in inner[:4] for v in inner[-3:]]
    for x in blocks:
        assert len(flatten(x, 2).data) == 4
        for y in blocks:
            assert flatten(block_mul(x, y), 2) == flat_mul(flatten(x, 2), flatten(y, 2))


def test_constant_wreath_products_are_linear_in_the_generators(monkeypatch):
    count = [0]

    def counting_rule(entry_mul):
        mul = make_rowmono_mul(entry_mul)

        def counted(x, y):
            count[0] += 1
            return mul(x, y)

        counted.associative = mul.associative
        return counted

    monkeypatch.setattr(wreath, "make_rowmono_mul", counting_rule)
    w = constant_wreath(builtin_group("S3"), 3)
    m = w.monoid
    assert (len(m), len(m.generators)) == (649, 39)  # |G|^(b-1) + b generators
    # the enumeration takes 4,361 over a rule certified associative: it
    # deduces most right edges from shorter words and reads the left graph
    # off the right one (25,391 when every right edge was multiplied, 51,350
    # when the left ones were too); an exact associativity test on an
    # uncertified rule would add |M|² = 421,201
    assert count[0] <= 10 * len(m)


def test_constant_wreath_rejects_a_listed_non_constant_matrix(monkeypatch):
    listing = wreath._constant_column_matrices
    g = builtin_group("C2")
    ident = identity_row_monomial(2, g.identity)
    swap = row_monomial([(1, g.identity), (0, g.identity)])
    # the identity is in the closure but not in the minimal ideal; the
    # swap is not in the closure at all
    for extra in (ident, swap):
        monkeypatch.setattr(wreath, "_constant_column_matrices", lambda g, b: listing(g, b)[1:] + [extra])
        with pytest.raises(InternalInconsistency):
            constant_wreath(g, 2)
        monkeypatch.setattr(wreath, "_constant_column_matrices", lambda g, b: listing(g, b) + [extra])
        with pytest.raises(InternalInconsistency):
            constant_wreath(g, 2)
