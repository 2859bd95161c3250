"""Naive oracles: each quantity computed straight from its definition.

They share no work between elements or classes, cost up to cubic time,
and exist only to be compared with the production algorithms on small
inputs, by the acceptance criteria and the test suite; no production
module imports them.
"""

from __future__ import annotations

from .core import (
    FiniteGroup,
    FiniteMonoid,
    SubSemigroup,
    closure,
    direct_power,
    is_isomorphic,
)
from .elements import Element
from .errors import InconsistentProduct, InternalInconsistency
from .green import green_structure
from .srank import check_simple, quotient_group

# ---------------------------------------------------------------------------
# Green's relations, per element with no class sharing


def naive_green_partitions(m: FiniteMonoid):
    """Partitions as frozensets of frozensets, from per-element ideals."""
    els = m.elements
    mul = m.mul
    rid = {x: frozenset(mul(x, u) for u in els) for x in els}
    lid = {x: frozenset(mul(u, x) for u in els) for x in els}
    jid = {}
    for x in els:
        two = set()
        for u in lid[x]:
            two |= rid[u]
        jid[x] = frozenset(two)

    def partition(key):
        groups = {}
        for x in els:
            groups.setdefault(key(x), []).append(x)
        return frozenset(frozenset(g) for g in groups.values())

    return {
        "R": partition(rid.__getitem__),
        "L": partition(lid.__getitem__),
        "J": partition(jid.__getitem__),
        "H": partition(lambda x: (rid[x], lid[x])),
    }


def naive_minimal_ideal_elements(m: FiniteMonoid) -> frozenset:
    """Intersection of all principal two-sided ideals."""
    els = m.elements
    mul = m.mul
    rid = {x: frozenset(mul(x, u) for u in els) for x in els}
    lid = {x: frozenset(mul(u, x) for u in els) for x in els}
    kernel = None
    for x in els:
        two = set()
        for u in lid[x]:
            two |= rid[u]
        kernel = two if kernel is None else (kernel & two)
    return frozenset(kernel)


def green_counts_agree(m: FiniteMonoid) -> bool:
    """Compare the fast classification against the naive oracle classwise."""
    gs = green_structure(m)
    oracle = naive_green_partitions(m)
    fast = {
        "R": frozenset(frozenset(c) for c in gs.r_classes),
        "L": frozenset(frozenset(c) for c in gs.l_classes),
        "J": frozenset(frozenset(c) for c in gs.j_classes),
        "H": frozenset(frozenset(c) for c in gs.h_classes),
    }
    return fast == oracle


def naive_is_simple(s: SubSemigroup) -> bool:
    """Cubic oracle: materialize every SxS by direct triple products."""
    els = s.elements
    mul = s.monoid.mul
    full = set(els)
    for x in els:
        if {mul(mul(u, x), v) for u in els for v in els} != full:
            return False
    return True


def naive_omega_power(m: FiniteMonoid, x: Element) -> Element:
    """Scan oracle: the unique idempotent among x, x^2, ..., x^|M|."""
    powers = []
    p = x
    for _ in range(len(m.elements)):
        powers.append(p)
        p = m.mul(p, x)
    idems = {q for q in powers if m.mul(q, q) == q}
    if len(idems) != 1:
        raise InconsistentProduct(f"{len(idems)} idempotent powers of {x!r}")
    return idems.pop()


# ---------------------------------------------------------------------------
# S-ranks: full subgroup lattice, per-element normality, brute factor


def _subgroup_closure(g: FiniteGroup, seed) -> frozenset:
    """Subgroup generated by ``seed``, as a frozenset: the closure of 1
    under right multiplication by the seed is product-closed and finite,
    hence a subgroup."""
    return frozenset(closure([g.identity], [x for x in seed if x != g.identity], g.mul)[1])


def naive_all_subgroups(g: FiniteGroup):
    """Every subgroup, by breadth-first extension of known subgroups.

    A subgroup H is extended by one x from each right coset Hx outside H,
    since ⟨H, x⟩ = ⟨H, hx⟩ for h in H, and each subgroup keeps the
    elements it was generated from, so the closure multiplies by those
    and x."""
    triv = frozenset({g.identity})
    found = {triv: ()}
    frontier = [triv]
    while frontier:
        fresh = []
        for sub in frontier:
            done = set(sub)
            for x in g.elements:
                if x in done:
                    continue
                done.update(g.mul(h, x) for h in sub)
                seed = found[sub] + (x,)
                bigger = _subgroup_closure(g, seed)
                if bigger not in found:
                    found[bigger] = seed
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


def naive_is_elementary_quotient(g: FiniteGroup, p: int, kernel) -> bool:
    """Whether a normal subgroup K holds every p-th power and every
    commutator of G, so that G/K is elementary abelian: all |G| and |G|²
    of them, by element products."""
    mul, member = g.mul, set(kernel)
    for x in g.elements:
        xp = g.identity
        for _ in range(p):
            xp = mul(xp, x)
        if xp not in member:
            return False
        inv_x = g.inverse(x)
        if any(mul(mul(inv_x, g.inverse(y)), mul(x, y)) not in member for y in g.elements):
            return False
    return True


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
