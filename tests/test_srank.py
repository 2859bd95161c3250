import pytest

from eggbox.cli import main
from eggbox.core import FiniteGroup, MonoidHom, closure, direct_power, generate_monoid, is_isomorphic
from eggbox.elements import make_table_mul
from eggbox.errors import (
    CapExceeded,
    NotSimple,
    NotSurjective,
    NotWellDefined,
)
from eggbox import srank
from eggbox.groups import builtin_group
from eggbox.srank import (
    check_rank_monotone,
    is_normal,
    m_s,
    normal_subgroups,
    quotient_group,
    r_s,
)
from eggbox.oracles import (
    naive_all_subgroups,
    naive_is_elementary_quotient,
    naive_is_normal,
    naive_rank,
)

# the S-rank corpus of the benchmark's monoids workload
RANK_CORPUS = (
    ("S4xC2", "C2"), ("S4xC2", "C3"), ("A5", "C2"), ("A5", "A5"), ("S5", "C2"),
    ("C2xC2xC2xC2", "C2"), ("C3xC3", "C3"), ("A4", "C3"), ("D4", "C2"),
    ("Q8", "C2"), ("C2xC6", "C2"),
)


def cyclic_table_group(n):
    """Z/nZ as a table group generated by 1: element products are table
    lookups, so the naive oracles reach it above 200 elements."""
    table = [tuple((i + j) % n for j in range(n)) for i in range(n)]
    mul = make_table_mul(table, f"Z{n}")
    return FiniteGroup.from_monoid(
        generate_monoid([mul.carrier[1]], mul, identity=mul.carrier[0], name=f"Z{n}"))


def lattice_by_set_products(g):
    """Reference lattice by set products: each class's subgroup is the
    right closure of 1 under the whole class, and each join N·P the right
    closure of N under P∖N."""
    table, inverse = g.table, g._inverse
    gens = [g.index[s] for s in g.generators]

    def times(x, y):
        return table[x][y]

    def conjugate(v, s):
        return table[table[inverse[s]][v]][s]

    seen = set()
    principal = {}
    for x in range(len(table)):
        if x in seen:
            continue
        cls = closure([x], gens, conjugate, key=None)[1]
        seen.update(cls)
        sub = closure([0], [c for c in cls if c], times, key=None)[1]
        principal.setdefault(frozenset(sub), None)
    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        fresh = []
        for n in frontier:
            for pc in principal:
                if pc <= n:
                    continue
                join = frozenset(closure(n, pc - n, times, key=None)[1])
                if join not in found:
                    found.add(join)
                    fresh.append(join)
        frontier = fresh
    return [frozenset(g.elements[i] for i in n)
            for n in sorted(found, key=lambda n: (len(n), sorted(n)))]


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


def test_quotient_is_generated_by_the_cosets_of_the_generators(monkeypatch):
    # G/m_s is generated by the cosets of G's generators, so the isomorphism
    # G/m_s -> S^k is validated at |G/m_s|·|gens(G)| products of S^k
    g = builtin_group("A5")
    products = 0

    def counted_isomorphism(q, power):
        rule = power.mul

        def counted(a, b):
            nonlocal products
            products += 1
            return rule(a, b)

        power.mul = counted
        try:
            return is_isomorphic(q, power)
        finally:
            power.mul = rule

    monkeypatch.setattr(srank, "is_isomorphic", counted_isomorphism)
    res = r_s(g, builtin_group("A5"))
    assert res.rank == 1
    assert len(res.quotient.generators) == len(g.generators) == 2
    assert 0 < products <= len(res.quotient.elements) * len(g.generators) == 120


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
    # the oracle that certifies G/m_s elementary rejects a kernel that
    # misses a square, and accepts m_s(C4, C2), the squares
    c4 = builtin_group("C4")
    assert not naive_is_elementary_quotient(c4, 2, {c4.identity})
    squares = {c4.mul(x, x) for x in c4.elements}
    assert m_s(c4, builtin_group("C2")) == squares
    assert naive_is_elementary_quotient(c4, 2, squares)


def test_elementary_check_catches_an_escaping_commutator():
    s3 = builtin_group("S3")
    transpositions = {x for x in s3.elements if s3.order_of(x) == 2}
    kernel = {s3.identity} | transpositions
    # every cube lies in the kernel: 3-cycles cube to 1, transpositions to themselves
    assert all(s3.mul(s3.mul(x, x), x) in kernel for x in s3.elements)
    assert not naive_is_elementary_quotient(s3, 3, kernel)
    assert naive_is_elementary_quotient(s3, 2, m_s(s3, builtin_group("C2")))


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


def test_normal_enumeration_size_guard(monkeypatch):
    # C2^8 has 417,199 normal subgroups; the enumeration stops once it has
    # found more than the cap
    monkeypatch.setattr(srank, "DEFAULT_CAP", 100)
    big = direct_power(builtin_group("C2"), 8)
    with pytest.raises(CapExceeded) as exc:
        normal_subgroups(big)
    assert (exc.value.cap, exc.value.reached) == (100, 101)


def test_conjugation_step_lattice_matches_set_products():
    for name in ("S3", "D4", "Q8", "A4", "S4", "C2xC6", "C3xC3", "A5", "S5",
                 "S4xC2", "C2xC2xC2xC2", "A6", "S6"):
        g = builtin_group(name)
        assert normal_subgroups(g) == lattice_by_set_products(g), name


def test_rank_matches_naive_oracle_on_the_benchmark_corpus():
    for gname, sname in RANK_CORPUS:
        g, s = builtin_group(gname), builtin_group(sname)
        assert r_s(g, s).rank == naive_rank(g, s), (gname, sname)


def test_rank_matches_naive_oracle_above_200_elements():
    g = cyclic_table_group(211)
    for sname, rank in (("C2", 0), ("C211", 1), ("A5", 0)):
        s = builtin_group(sname)
        assert r_s(g, s).rank == naive_rank(g, s) == rank, sname


def test_prime_rank_takes_no_lattice(monkeypatch):
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return normal_subgroups(g)

    monkeypatch.setattr(srank, "normal_subgroups", counted)
    big = direct_power(builtin_group("C2"), 8)
    res = r_s(big, builtin_group("C2"))
    assert res.rank == 8 and res.kernel == frozenset({big.identity})
    assert r_s(builtin_group("S4xC2"), builtin_group("C3")).rank == 0
    assert calls == 0


def test_no_lattice_of_g_unless_the_order_of_s_divides_it(monkeypatch):
    walked = []

    def counted(g):
        walked.append(g.name)
        return normal_subgroups(g)

    monkeypatch.setattr(srank, "normal_subgroups", counted)
    big = direct_power(builtin_group("C2"), 8)
    assert r_s(big, builtin_group("A5")).rank == 0
    assert walked == ["A5"]  # check_simple's, of S alone


def test_prime_kernel_is_the_intersection_of_the_kernels_onto_s():
    # G^p[G, G] from the generators against the lattice's kernels onto C_p
    for gname, sname in RANK_CORPUS:
        s = builtin_group(sname)
        if len(s) in (2, 3):
            g = builtin_group(gname)
            kernels = srank.kernels_with_quotient(g, s)
            expected = frozenset(g.elements).intersection(*kernels)
            assert m_s(g, s) == expected, (gname, sname)


def test_prime_kernel_quotient_is_elementary():
    # r_s certifies G/m_s ≅ C_p^k by an isomorphism; the all-pairs oracle
    # agrees that every p-th power and every commutator of G lies in m_s
    for gname, sname in RANK_CORPUS:
        s = builtin_group(sname)
        p = len(s)
        if p not in (2, 3):
            continue
        g = builtin_group(gname)
        assert naive_is_elementary_quotient(g, p, m_s(g, s)), (gname, sname)


def test_cli_srank_above_200_elements(capsys):
    assert main(["srank", "S6", "C2"]) == 0
    out = capsys.readouterr().out
    assert "rank=1" in out.split("---")[-1].splitlines()
