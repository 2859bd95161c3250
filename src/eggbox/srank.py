"""Ranks of groups relative to a fixed finite simple group.

For a finite simple group S, m_s(G) is the intersection of all normal
subgroups of G whose quotient is isomorphic to S (all of G when there are
none), and the S-rank r_s(G) is the k with G/m_s(G) isomorphic to S^k.
The fast path enumerates normal subgroups as joins of principal normal
closures; a deliberately naive oracle walks the full subgroup lattice so
the two can be compared on small groups.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    FiniteGroup,
    MonoidHom,
    closure,
    direct_power,
    is_isomorphic,
    monoid_from_elements,
    underlying,
)
from .elements import Element, make_table_mul, table_element
from .errors import (
    InternalInconsistency,
    NotSimple,
    NotSurjective,
    NotWellDefined,
    SizeExceeded,
)
from .report import FAIL, PASS, Check, ConstructionReport

NORMAL_LIMIT = 200


def _subgroup_closure(g: FiniteGroup, seed) -> frozenset:
    """Subgroup generated by ``seed``, as a frozenset: the closure of 1
    under right multiplication by the seed is product-closed and finite,
    hence a subgroup."""
    return frozenset(closure([g.identity], [x for x in seed if x != g.identity], g.mul)[1])


def _normal_closure(g: FiniteGroup, x: Element) -> frozenset:
    mul = g.mul
    inv = g.inverse
    conj = closure([x], g.generators, lambda v, s: mul(mul(inv(s), v), s))[1]
    return _subgroup_closure(g, conj)


def is_normal(g: FiniteGroup, sub) -> bool:
    """Conjugation by the generators preserves the set."""
    mul = g.mul
    member = set(sub)
    for s in g.generators:
        si = g.inverse(s)
        for v in member:
            if mul(mul(si, v), s) not in member:
                return False
    return True


def normal_subgroups(g: FiniteGroup):
    """All normal subgroups, ordered by size then by element order.

    Every normal subgroup is the join of the normal closures of its
    elements, so the join closure of the principal closures is complete;
    the join of normal N and P is the set product N·P.
    Bounded at 200 elements.
    """
    if len(g.elements) > NORMAL_LIMIT:
        raise SizeExceeded(
            f"normal subgroup enumeration above {NORMAL_LIMIT} elements")
    principal = {}
    for x in g.elements:
        principal.setdefault(_normal_closure(g, x), None)
    principal = list(principal)
    found = {frozenset({g.identity})}
    frontier = list(found)
    while frontier:
        fresh = []
        for n in frontier:
            for pc in principal:
                if pc <= n:
                    continue
                # the right closure of N under P∖N is N·P: each n·p with
                # p in P ∩ N already lies in N
                join = frozenset(closure(n, pc - n, g.mul)[1])
                if join not in found:
                    found.add(join)
                    fresh.append(join)
        frontier = fresh
    key = lambda n: (len(n), sorted(g.index[x] for x in n))
    return sorted(found, key=key)


def quotient_group(g: FiniteGroup, n, name: Optional[str] = None):
    """(G/N, projection) for a normal subgroup given as an element set.

    Cosets are represented by their least member; the quotient is a table
    group whose identity is the coset of N itself.
    """
    member = set(n)
    if g.identity not in member:
        raise NotWellDefined("the subgroup does not contain the identity")
    if not is_normal(g, member):
        raise NotWellDefined("cannot quotient by a non-normal subgroup")
    mul = g.mul
    coset_of = {}
    reps = []
    for x in g.elements:
        if x in coset_of:
            continue
        idx = len(reps)
        reps.append(x)
        for v in member:
            coset_of[mul(x, v)] = idx
    label = name or f"{g.name}/N{len(member)}"
    table = [
        [coset_of[mul(a, b)] for b in reps]
        for a in reps
    ]
    tmul = make_table_mul(table, label)
    els = [table_element(label, i) for i in range(len(reps))]
    qm = monoid_from_elements(els, tmul, els[0], name=label)
    q = FiniteGroup.from_monoid(qm)
    proj = MonoidHom(g, q, {x: els[coset_of[x]] for x in g.elements})
    if not proj.is_surjective():
        raise InternalInconsistency("quotient projection is not onto")
    return q, proj


def check_simple(s: FiniteGroup) -> None:
    """Raise NotSimple unless S has exactly the two trivial normal subgroups."""
    if len(normal_subgroups(s)) != 2:
        raise NotSimple(f"{underlying(s).name} is not a (nontrivial) simple group")


def kernels_with_quotient(g: FiniteGroup, s: FiniteGroup):
    """Normal subgroups N with G/N isomorphic to S, in enumeration order."""
    size = len(g.elements)
    target = len(s.elements)
    out = []
    for n in normal_subgroups(g):
        if len(n) * target != size:
            continue
        q, _ = quotient_group(g, n)
        if is_isomorphic(q, s) is not None:
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
        return (f"SRankResult(r_{underlying(self.simple).name}"
                f"({underlying(self.group).name}) = {self.rank})")


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
    kernel must contain every commutator and every |S|-th power."""
    p = len(s.elements)
    if not _is_prime(p):
        return
    mul = g.mul
    member = set(kernel)
    for x in g.elements:
        xp = g.identity
        for _ in range(p):
            xp = mul(xp, x)
        if xp not in member:
            raise InternalInconsistency(f"{x!r}^{p} escapes m_s")
        for y in g.elements:
            comm = mul(mul(g.inverse(x), g.inverse(y)), mul(x, y))
            if comm not in member:
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
            ("source", underlying(src).name),
            ("target", underlying(tgt).name),
            ("simple", underlying(s).name),
            ("source_rank", r_src),
            ("target_rank", r_tgt),
        ],
    )
    report.add(Check("rank-monotone", PASS if r_tgt <= r_src else FAIL,
                     f"{r_tgt} <= {r_src}" if r_tgt <= r_src else
                     f"target rank {r_tgt} exceeds source rank {r_src}"))
    return report


# ---------------------------------------------------------------------------
# naive oracle: full subgroup lattice, per-element normality, brute factor


def naive_all_subgroups(g: FiniteGroup):
    """Every subgroup, by breadth-first extension of known subgroups."""
    triv = frozenset({g.identity})
    found = {triv}
    frontier = [triv]
    while frontier:
        fresh = []
        for sub in frontier:
            for x in g.elements:
                if x in sub:
                    continue
                bigger = _subgroup_closure(g, sorted(sub | {x}, key=g.index.__getitem__))
                if bigger not in found:
                    found.add(bigger)
                    fresh.append(bigger)
        frontier = fresh
    key = lambda n: (len(n), sorted(g.index[x] for x in n))
    return sorted(found, key=key)


def naive_is_normal(g: FiniteGroup, sub) -> bool:
    mul = g.mul
    member = set(sub)
    return all(
        mul(mul(g.inverse(x), v), x) in member
        for x in g.elements
        for v in member
    )


def naive_rank(g: FiniteGroup, s: FiniteGroup) -> int:
    """Oracle for r_s computed from the full subgroup lattice."""
    check_simple(s)
    normals = [n for n in naive_all_subgroups(g) if naive_is_normal(g, n)]
    kernels = []
    for n in normals:
        if len(n) * len(s.elements) != len(g.elements):
            continue
        q, _ = quotient_group(g, n)
        if is_isomorphic(q, s) is not None:
            kernels.append(n)
    if kernels:
        inter = set(kernels[0])
        for n in kernels[1:]:
            inter &= n
    else:
        inter = set(g.elements)
    q, _ = quotient_group(g, frozenset(inter))
    k = 0
    size = len(q.elements)
    while size > 1:
        if size % len(s.elements) != 0:
            raise InternalInconsistency("naive quotient size is not a power of |S|")
        size //= len(s.elements)
        k += 1
    if is_isomorphic(q, direct_power(s, k)) is None:
        raise InternalInconsistency("naive quotient is not the expected direct power")
    return k
