"""Ranks of groups relative to a fixed finite simple group.

For a finite simple group S, m_s(G) is the intersection of all normal
subgroups of G whose quotient is isomorphic to S (all of G when there are
none), and the S-rank r_s(G) is the k with G/m_s(G) isomorphic to S^k.

Everything runs over element indices, on the Cayley table every
:class:`~eggbox.core.FiniteGroup` carries, and only looks entries up; no
group size is refused.  Normal closures are walks by conjugation steps
(:func:`_step_closure`), at |N|·(seeds + |A|) lookups for a closure N
and A the generators of G.

For S of prime order p, m_s(G) is read off the generators with no lattice:
it is G^p[G, G], the normal closure of a^p and [a, b] over generators a, b
(:func:`_prime_kernel`).  For any other S, :func:`normal_subgroups`
enumerates the lattice and a candidate kernel N is tested by the table
isomorphism search between the coset table of G/N and that of S, with no
quotient group built.  Only the kernel :func:`r_s` returns becomes a
group, through :func:`quotient_group`, and an isomorphism with S^k
certifies it; for a prime-order S, that makes G/m_s(G) elementary abelian.

A deliberately naive oracle in :mod:`eggbox.oracles` walks the full
subgroup lattice with element products, so the two can be compared on
small groups.
"""

from __future__ import annotations


from .core import (
    DEFAULT_CAP,
    FiniteGroup,
    MonoidHom,
    closure,
    direct_power,
    generate_monoid,
    is_isomorphic,
    table_isomorphism,
)
from .elements import make_table_mul
from .errors import (
    CapExceeded,
    InternalInconsistency,
    NotSimple,
    NotSurjective,
    NotWellDefined,
)
from .report import FAIL, PASS, Check, ConstructionReport


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


def _conjugations(g: FiniteGroup) -> list:
    """For each generator s of G outside the centre the map v -> s⁻¹·v·s
    on element indices; a central one's is the identity map, which a
    closure walks for nothing."""
    table, inverse = g.table, g._inverse
    fixed = list(range(len(table)))
    out = []
    for s in (g.index[a] for a in g.generators):
        row = table[inverse[s]]
        step = [table[row[v]][s] for v in fixed]
        if step != fixed:
            out.append(step)
    return out


def _column(g: FiniteGroup, x: int) -> list:
    """The map v -> v·x on element indices."""
    return [row[x] for row in g.table]


def _apply(v, step):
    return step[v]


def _step_closure(start, steps) -> dict:
    """The least set of element indices holding ``start`` and closed under
    ``steps``, as the keys of a dict.  With the steps right multiplication
    by each x of a set X (:func:`_column`) and conjugation by each
    generator of G (:func:`_conjugations`), it is the normal closure ⟨⟨X⟩⟩
    from start {1}, and the join N·⟨⟨X⟩⟩ from a normal subgroup N.

    Conjugation by a generator c permutes G, so a power of it is the
    identity map and a set closed under it is closed under conjugation by
    c⁻¹, hence under conjugation by every g in G.  For y in the set and x
    in X, y·(g⁻¹xg) = g⁻¹((gyg⁻¹)·x)g then lies in the set: it is closed
    under right multiplication by every conjugate of X, so it holds
    start·⟨⟨X⟩⟩.  That product is a normal subgroup holding start and
    closed under both steps, so the least such set is no larger.  The walk
    costs |result|·(|X| + |A|) lookups, A the generators of G.
    """
    return closure(start, steps, _apply, key=None)[1]


def _prime_kernel(g: FiniteGroup, p: int) -> dict:
    """G^p[G, G] by element index: the normal closure N of a^p and
    a⁻¹b⁻¹ab over generators a, b of G.

    It is m_s(G) for S = C_p.  The kernel K of a map onto C_p is normal and
    holds every p-th power and commutator, so K holds N.  G/N is generated
    by the cosets of the generators, which commute and have order dividing
    p, so G/N is elementary abelian, (C_p)^r; its r coordinate maps onto
    C_p have kernels meeting in N, so the kernels onto C_p meet in N too,
    and r = 0 gives N = G, as when there are none.
    """
    table, inverse = g.table, g._inverse
    gens = [g.index[a] for a in g.generators]
    seeds = set()
    for a in gens:
        x = 0
        for _ in range(p):
            x = table[x][a]
        seeds.add(x)
        inv_a = table[inverse[a]]
        for b in gens:
            seeds.add(table[inv_a[inverse[b]]][table[a][b]])
    seeds.discard(0)
    steps = [_column(g, x) for x in sorted(seeds)] + _conjugations(g)
    return _step_closure([0], steps)


def normal_subgroups(g: FiniteGroup):
    """All normal subgroups, ordered by size then by element order.

    Every normal subgroup is the join of the normal closures of its
    elements, and conjugate elements share one, so the join closure of
    the normal closures of the conjugacy classes is complete.  A class is
    the closure of one element x under conjugation by the generators; its
    normal closure ⟨⟨x⟩⟩, and the join N·⟨⟨x⟩⟩ of a normal N with it, are
    conjugation-step walks from {1} and from N (:func:`_step_closure`).
    Everything is lookups, at every group size.  The lattice of C2⁸ has
    417,199 members, so the enumeration raises :class:`CapExceeded` once it
    has found more than ``DEFAULT_CAP`` normal subgroups.
    """
    table = g.table
    conj = _conjugations(g)
    seen = set()
    principal = {}  # ⟨⟨x⟩⟩ -> (x, its steps) for the first class that gives it
    for x in range(len(table)):
        if x in seen:
            continue
        seen.update(_step_closure([x], conj))
        steps = [_column(g, x)] + conj
        principal.setdefault(frozenset(_step_closure([0], steps)), (x, steps))
    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        fresh = []
        for n in frontier:
            for x, steps in principal.values():
                if x in n:  # ⟨⟨x⟩⟩ ≤ N
                    continue
                join = frozenset(_step_closure(n, steps))
                if join not in found:
                    found.add(join)
                    if len(found) > DEFAULT_CAP:
                        raise CapExceeded(DEFAULT_CAP, len(found))
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


def quotient_group(g: FiniteGroup, n):
    """(G/N, projection) for a normal subgroup given as an element set.

    Cosets and their table are read off G's Cayley table; the quotient is
    a table group, identity the coset of N, generated by the cosets of G's
    generators, so a map out of it validates at |G/N|·|gens(G)| products.

    The coset rule is certified associative, so the closure skips Light's
    test: N is checked normal (:func:`is_normal`) before the cosets are
    taken, so xN·yN = xyN does not depend on the representatives, and the
    coset table is G's associative product read on cosets.  The closure's
    size check and the projection's surjectivity check stay.
    """
    member = set(n)
    if g.identity not in member:
        raise NotWellDefined("the subgroup does not contain the identity")
    if not is_normal(g, member):
        raise NotWellDefined("cannot quotient by a non-normal subgroup")
    coset, table = _cosets(g, {g.index[x] for x in member})
    label = f"{g.name}/N{len(member)}"
    mul = make_table_mul(table, label)
    mul.associative = True
    cosets = mul.carrier
    m = generate_monoid([cosets[coset[g.index[a]]] for a in g.generators], mul,
                        identity=cosets[0], name=label)
    if len(m) != len(cosets):
        raise InternalInconsistency("the generators' cosets do not generate the quotient")
    q = FiniteGroup.from_monoid(m)
    proj = MonoidHom(g, q, {x: cosets[c] for x, c in zip(g.elements, coset)})
    if not proj.is_surjective():
        raise InternalInconsistency("quotient projection is not onto")
    return q, proj


def check_simple(s: FiniteGroup) -> None:
    """Raise NotSimple unless S has exactly the two trivial normal
    subgroups; a group of prime order has, by Lagrange, with no lattice."""
    if not _is_prime(len(s.elements)) and len(normal_subgroups(s)) != 2:
        raise NotSimple(f"{s.name} is not a (nontrivial) simple group")


def kernels_with_quotient(g: FiniteGroup, s: FiniteGroup):
    """Normal subgroups N with G/N isomorphic to S, in enumeration order.

    Each N of index |S| is tested by the complete table search between the
    tables of G/N and S (:func:`~eggbox.core.table_isomorphism`), with no
    group built.  By Lagrange there is none, and no lattice is walked,
    unless |S| divides |G|.
    """
    size = len(g.elements)
    target = len(s.elements)
    if size % target:
        return []
    out = []
    for n in normal_subgroups(g):
        if len(n) * target != size:
            continue
        if table_isomorphism(_cosets(g, {g.index[x] for x in n})[1], s.table) is not None:
            out.append(n)
    return out


def m_s(g: FiniteGroup, s: FiniteGroup) -> frozenset:
    """Intersection of all kernels of surjections onto S; G if none.  For
    S of prime order p it is G^p[G, G] (:func:`_prime_kernel`), with no
    lattice."""
    check_simple(s)
    if _is_prime(len(s.elements)):
        elements = g.elements
        return frozenset(elements[i] for i in _prime_kernel(g, len(s.elements)))
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
    return SRankResult(g, s, k, kernel, q, proj, iso)


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
