import pytest

from eggbox.core import MonoidHom, direct_power, is_isomorphic
from eggbox.errors import (
    InternalInconsistency,
    NotSimple,
    NotSurjective,
    NotWellDefined,
    SizeExceeded,
)
from eggbox import srank
from eggbox.groups import builtin_group
from eggbox.srank import (
    _check_elementary,
    check_rank_monotone,
    is_normal,
    m_s,
    normal_subgroups,
    quotient_group,
    r_s,
)
from eggbox.oracles import naive_all_subgroups, naive_is_normal, naive_rank


def test_normal_subgroup_counts():
    expected = {"S3": 3, "C2xC2": 5, "D4": 6, "Q8": 6, "A4": 3, "C6": 4}
    for name, count in expected.items():
        g = builtin_group(name)
        subs = normal_subgroups(g)
        assert len(subs) == count, name
        assert subs[0] == frozenset({g.identity})
        assert subs[-1] == frozenset(g.elements)


def test_normal_subgroups_match_the_naive_lattice():
    for name in ("S3", "C2xC2", "D4", "Q8", "A4", "C6",
                 "S4", "C2xC2xC2", "D6", "C2xC6", "C3xC3"):
        g = builtin_group(name)
        naive = [n for n in naive_all_subgroups(g) if naive_is_normal(g, n)]
        assert normal_subgroups(g) == naive, name
    assert len(normal_subgroups(builtin_group("C2xC2xC2"))) == 16


def test_normal_subgroups_of_a_simple_group():
    a5 = builtin_group("A5")
    assert normal_subgroups(a5) == [frozenset({a5.identity}), frozenset(a5.elements)]


def test_normal_subgroups_take_no_group_product():
    s5 = builtin_group("S5")
    m = s5
    rule = m.mul
    count = 0

    def counted(a, b):
        nonlocal count
        count += 1
        return rule(a, b)

    m.mul = counted
    try:
        subs = normal_subgroups(s5)
    finally:
        m.mul = rule
    assert [len(n) for n in subs] == [1, 60, 120]
    assert count == 0


def test_rank_takes_no_group_product_and_one_quotient():
    # r_s works on G's Cayley table; only the kernel it returns becomes a
    # quotient group
    for name, simple, rank in (("C2xC2xC2xC2", "C2", 4), ("A5", "A5", 1)):
        g = builtin_group(name)
        rule = g.mul
        products = quotients = 0

        def counted(a, b):
            nonlocal products
            products += 1
            return rule(a, b)

        def counted_quotient(*args, **kwargs):
            nonlocal quotients
            quotients += 1
            return quotient_group(*args, **kwargs)

        g.mul = counted
        srank.quotient_group = counted_quotient
        try:
            res = r_s(g, builtin_group(simple))
        finally:
            g.mul = rule
            srank.quotient_group = quotient_group
        assert res.rank == rank, name
        assert (products, quotients) == (0, 1), name


def test_is_normal_matches_naive():
    g = builtin_group("S3")
    for sub in naive_all_subgroups(g):
        assert is_normal(g, sub) == naive_is_normal(g, sub)


def test_subgroup_lattice_sizes():
    assert len(naive_all_subgroups(builtin_group("S3"))) == 6
    assert len(naive_all_subgroups(builtin_group("Q8"))) == 6
    assert len(naive_all_subgroups(builtin_group("C2xC2"))) == 5


def test_quotient_group():
    s3 = builtin_group("S3")
    a3 = next(n for n in normal_subgroups(s3) if len(n) == 3)
    q, proj = quotient_group(s3, a3)
    assert len(q.elements) == 2
    assert proj.is_surjective()
    assert {x for x in s3.elements if proj(x) == q.identity} == set(a3)


def test_quotient_rejects_bad_subgroups():
    s3 = builtin_group("S3")
    refl = next(x for x in s3.elements if x != s3.identity and s3.mul(x, x) == s3.identity)
    with pytest.raises(NotWellDefined):
        quotient_group(s3, {s3.identity, refl})  # order 2, not normal
    with pytest.raises(NotWellDefined):
        quotient_group(s3, {refl})  # no identity


def test_m_s_kernel_intersections():
    c2 = builtin_group("C2")
    c3 = builtin_group("C3")
    c6 = builtin_group("C6")
    assert m_s(builtin_group("C2xC2"), c2) == frozenset({builtin_group("C2xC2").identity})
    # no surjection C3 ->> C2, so the intersection is everything
    assert m_s(c3, c2) == frozenset(c3.elements)
    assert len(m_s(c6, c2)) == 3
    assert len(m_s(c6, c3)) == 2


def test_rank_values():
    c2 = builtin_group("C2")
    c3 = builtin_group("C3")
    cases = [
        ("C2xC2xC2", c2, 3),
        ("S3", c2, 1),
        ("C3", c2, 0),
        ("Q8", c2, 2),  # Q8 / center is the Klein group
        ("A4", c2, 0),
        ("C3xC3", c3, 2),
        ("C6", c3, 1),
        ("A4", c3, 1),
        ("S3", c3, 0),
    ]
    for name, s, rank in cases:
        res = r_s(builtin_group(name), s)
        assert res.rank == rank, name
        assert is_isomorphic(res.quotient, direct_power(s, rank)) is not None
        assert res.projection.is_surjective()


def test_rank_of_direct_powers():
    for name in ("C2", "C3"):
        s = builtin_group(name)
        for k in range(4):
            assert r_s(direct_power(s, k), s).rank == k


def test_rank_matches_naive_oracle():
    c2 = builtin_group("C2")
    c3 = builtin_group("C3")
    for name in ("1", "C2", "C3", "C4", "C2xC2", "S3", "C6", "D4", "Q8"):
        g = builtin_group(name)
        assert r_s(g, c2).rank == naive_rank(g, c2), name
        assert r_s(g, c3).rank == naive_rank(g, c3), name


def test_elementary_check_catches_an_escaping_power():
    c4 = builtin_group("C4")
    with pytest.raises(InternalInconsistency, match=r"\^2 escapes"):
        _check_elementary(c4, builtin_group("C2"), {c4.identity})


def test_elementary_check_catches_an_escaping_commutator():
    s3 = builtin_group("S3")
    transpositions = {x for x in s3.elements if s3.order_of(x) == 2}
    kernel = {s3.identity} | transpositions
    # every cube lies in the kernel: 3-cycles cube to 1, transpositions to themselves
    assert all(s3.mul(s3.mul(x, x), x) in kernel for x in s3.elements)
    with pytest.raises(InternalInconsistency, match="commutator"):
        _check_elementary(s3, builtin_group("C3"), kernel)


def test_rank_requires_simple_group():
    c2 = builtin_group("C2")
    with pytest.raises(NotSimple):
        r_s(c2, builtin_group("C4"))
    with pytest.raises(NotSimple):
        r_s(c2, builtin_group("S3"))


def test_rank_monotone_check():
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    onto = MonoidHom.from_generator_images(
        c4, c2, [c2.generators[0]])
    report = check_rank_monotone(onto, c2)
    assert report.passed
    inward = MonoidHom.from_generator_images(
        c2, c4, [c4.mul(c4.generators[0], c4.generators[0])])
    with pytest.raises(NotSurjective):
        check_rank_monotone(inward, c2)


def test_normal_enumeration_size_guard():
    big = direct_power(builtin_group("C2"), 8)
    with pytest.raises(SizeExceeded):
        normal_subgroups(big)
