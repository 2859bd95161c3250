"""Ranks of groups relative to a fixed finite simple group.

For a finite simple group S, m_s(G) is the intersection of all normal
subgroups of G whose quotient is isomorphic to S (all of G when there are
none), and the S-rank r_s(G) is the k with G/m_s(G) isomorphic to S^k.

The quadratic work runs over element indices, on the Cayley table every
:class:`~eggbox.core.FiniteGroup` carries, and only looks entries up:
:func:`normal_subgroups` takes one normal closure per conjugacy class and
joins them, a candidate kernel N is tested by the table isomorphism search
between the coset table of G/N and that of S, with no quotient group built,
and the elementary-abelian check of a prime-order S reads every commutator
and p-th power off the table.  Only the kernel :func:`r_s` returns becomes a
group, through :func:`quotient_group`.

A deliberately naive oracle in :mod:`eggbox.oracles` walks the full
subgroup lattice with element products, so the two can be compared on
small groups.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    FiniteGroup,
    MonoidHom,
    closure,
    direct_power,
    is_isomorphic,
    table_isomorphism,
)
from .errors import (
    InternalInconsistency,
    NotSimple,
    NotSurjective,
    NotWellDefined,
    SizeExceeded,
)
from .groups import group_from_table
from .report import FAIL, PASS, Check, ConstructionReport

NORMAL_LIMIT = 200


def is_normal(g: FiniteGroup, sub) -> bool:
    """Conjugation by the generators preserves the set, read off the
    group's table; a set with an element outside G is not normal in G."""
    table, inverse = g.table, g._inverse
    member = {g.index.get(x) for x in sub}
    if None in member:
        return False
    for s in (g.index[a] for a in g.generators):
        row = table[inverse[s]]
        if any(table[row[v]][s] not in member for v in member):
            return False
    return True


def normal_subgroups(g: FiniteGroup):
    """All normal subgroups, ordered by size then by element order.

    Every normal subgroup is the join of the normal closures of its
    elements, and conjugate elements share one, so the join closure of
    the normal closures of the conjugacy classes is complete.  The walks
    run over the group's Cayley table: a class is the closure of one
    element under conjugation by the generators, its normal closure the
    subgroup the class generates, and the join of normal N and P the set
    product N·P, the right closure of N under P∖N.  Everything is lookups.
    Raises :class:`SizeExceeded` above ``NORMAL_LIMIT`` = 200 elements.
    """
    if len(g.elements) > NORMAL_LIMIT:
        raise SizeExceeded(
            f"normal subgroup enumeration above {NORMAL_LIMIT} elements")
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
                # the right closure of N under P∖N is N·P: each n·p with
                # p in P ∩ N already lies in N
                join = frozenset(closure(n, pc - n, times, key=None)[1])
                if join not in found:
                    found.add(join)
                    fresh.append(join)
        frontier = fresh
    elements = g.elements
    return [frozenset(elements[i] for i in n)
            for n in sorted(found, key=lambda n: (len(n), sorted(n)))]


def _cosets(g: FiniteGroup, member):
    """``(coset, table)`` for a normal subgroup N of G given by element
    indices: ``coset[x]`` numbers xN in the order of least members, and
    ``table`` is the Cayley table of G/N, with N at 0, by lookups."""
    table = g.table
    coset = [None] * len(table)
    reps = []
    for x in range(len(table)):
        if coset[x] is None:
            for v in member:
                coset[table[x][v]] = len(reps)
            reps.append(x)
    return coset, [[coset[table[a][b]] for b in reps] for a in reps]


def quotient_group(g: FiniteGroup, n, name: Optional[str] = None):
    """(G/N, projection) for a normal subgroup given as an element set.

    Cosets and their table are read off G's Cayley table; the quotient is
    a table group whose identity is the coset of N itself.
    """
    member = set(n)
    if g.identity not in member:
        raise NotWellDefined("the subgroup does not contain the identity")
    if not is_normal(g, member):
        raise NotWellDefined("cannot quotient by a non-normal subgroup")
    coset, table = _cosets(g, {g.index[x] for x in member})
    q = group_from_table(name or f"{g.name}/N{len(member)}", table)
    proj = MonoidHom(g, q, {x: q.elements[c] for x, c in zip(g.elements, coset)})
    if not proj.is_surjective():
        raise InternalInconsistency("quotient projection is not onto")
    return q, proj


def check_simple(s: FiniteGroup) -> None:
    """Raise NotSimple unless S has exactly the two trivial normal subgroups."""
    if len(normal_subgroups(s)) != 2:
        raise NotSimple(f"{s.name} is not a (nontrivial) simple group")


def kernels_with_quotient(g: FiniteGroup, s: FiniteGroup):
    """Normal subgroups N with G/N isomorphic to S, in enumeration order.

    Each N of index |S| is tested by the complete table search between the
    tables of G/N and S (:func:`~eggbox.core.table_isomorphism`), with no
    group built.
    """
    size = len(g.elements)
    target = len(s.elements)
    out = []
    for n in normal_subgroups(g):
        if len(n) * target != size:
            continue
        if table_isomorphism(_cosets(g, {g.index[x] for x in n})[1], s.table) is not None:
            out.append(n)
    return out


def m_s(g: FiniteGroup, s: FiniteGroup) -> frozenset:
    """Intersection of all kernels of surjections onto S; G if none."""
    check_simple(s)
    kernels = kernels_with_quotient(g, s)
    if not kernels:
        return frozenset(g.elements)
    out = set(kernels[0])
    for n in kernels[1:]:
        out &= n
    return frozenset(out)


class SRankResult:
    """r_s(G) together with everything that certifies it."""

    __slots__ = ("group", "simple", "rank", "kernel", "quotient", "projection", "iso")

    def __init__(self, group, simple, rank, kernel, quotient, projection, iso):
        self.group = group
        self.simple = simple
        self.rank = rank
        self.kernel = kernel
        self.quotient = quotient
        self.projection = projection
        self.iso = iso

    def __repr__(self):
        return f"SRankResult(r_{self.simple.name}({self.group.name}) = {self.rank})"


def r_s(g: FiniteGroup, s: FiniteGroup) -> SRankResult:
    """S-rank of G: G/m_s(G) must be S^k and k is returned, certified.

    Raises InternalInconsistency when the quotient's size is not a power
    of |S| or the isomorphism with the direct power cannot be found; both
    would contradict the defining property of m_s.
    """
    kernel = m_s(g, s)
    q, proj = quotient_group(g, kernel)
    base = len(s.elements)
    k = 0
    size = 1
    while size < len(q.elements):
        size *= base
        k += 1
    if size != len(q.elements):
        raise InternalInconsistency(
            f"|G/m_s| = {len(q.elements)} is not a power of |S| = {base}")
    iso = is_isomorphic(q, direct_power(s, k))
    if iso is None:
        raise InternalInconsistency("G/m_s is not a direct power of S")
    _check_elementary(g, s, kernel)
    return SRankResult(g, s, k, kernel, q, proj, iso)


def _check_elementary(g: FiniteGroup, s: FiniteGroup, kernel) -> None:
    """For S of prime order the quotient is elementary abelian, so the
    kernel must contain every commutator and every |S|-th power: all |G|²
    and |G| of them, read off the group's Cayley table."""
    p = len(s.elements)
    if not _is_prime(p):
        return
    table, inverse = g.table, g._inverse
    member = {g.index[x] for x in kernel}
    for x, row in enumerate(table):
        xp = 0
        for _ in range(p):
            xp = table[xp][x]
        if xp not in member:
            raise InternalInconsistency(f"{g.elements[x]!r}^{p} escapes m_s")
        # x⁻¹·y⁻¹·x·y for every y
        inv_x = table[inverse[x]]
        for y, xy in enumerate(row):
            if table[inv_x[inverse[y]]][xy] not in member:
                raise InternalInconsistency("a commutator escapes m_s")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_rank_monotone(phi: MonoidHom, s: FiniteGroup) -> ConstructionReport:
    """For a surjection of groups, the S-rank cannot grow: r_s(image) <= r_s(source)."""
    if not phi.is_surjective():
        raise NotSurjective("rank monotonicity concerns surjections")
    src = phi.source
    tgt = phi.target
    if not isinstance(src, FiniteGroup) or not isinstance(tgt, FiniteGroup):
        raise NotWellDefined("rank monotonicity concerns group surjections")
    r_src = r_s(src, s).rank
    r_tgt = r_s(tgt, s).rank
    report = ConstructionReport(
        "rank-monotone",
        params=[
            ("source", src.name),
            ("target", tgt.name),
            ("simple", s.name),
            ("source_rank", r_src),
            ("target_rank", r_tgt),
        ],
    )
    report.add(Check("rank-monotone", PASS if r_tgt <= r_src else FAIL,
                     f"{r_tgt} <= {r_src}" if r_tgt <= r_src else
                     f"target rank {r_tgt} exceeds source rank {r_src}"))
    return report
