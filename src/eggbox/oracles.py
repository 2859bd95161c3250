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
    MonoidHom,
    SubSemigroup,
    closure,
    direct_power,
    is_isomorphic,
)
from .elements import Element, row_monomial
from .errors import InconsistentProduct, InternalInconsistency
from .green import check_min_ideal_image, green_structure, minimal_ideal
from .report import FAIL, PASS, Check
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
# embeddings: the block and rho checks on every element of M'


def enumerated_embedding_checks(sol) -> list:
    """The checks :func:`eggbox.constructions.verify_embedding` reads off
    the orbits of e', by the same names in the same order, read instead off
    a full-mode solution's M' and ``rho_map``: rho on every edge of M';
    every block of every v over M_rho(v); J', Green's minimal ideal, as the
    flat part of M', holding e', each of its v with ell = nu^b distinct
    blocks over M_rho(v); and :func:`eggbox.green.check_min_ideal_image`
    on rho, failed unrun when rho breaks an edge."""
    m, rho, base = sol.mprime, sol.rho_map, sol.problem.base
    bm, schutz, ahat = base.monoid, base.schutz.map, sol.problem.alpha_hat.map
    ell = sum(ahat[x] == base.group.identity for x in sol.problem.h.elements) ** base.b
    member = minimal_ideal(m).member

    def over(v, blk):
        return row_monomial((c, ahat[x]) for c, x in blk.data) == schutz[rho[v]]

    def flat(v):
        return len({c for c, _ in v.data}) == 1 and len({c for _, blk in v.data for c, _ in blk.data}) == 1

    def held(v):
        return sum(over(v, blk) for blk in {blk for _, blk in v.data})

    gi = next((gi for gi, t in enumerate(sol.raw) if rho.get(t) != bm.generators[gi]), None)
    edge = next(((x, a) for x, row in enumerate(m.right) for a, j in enumerate(row)
                 if rho[m.elements[j]] != bm.mul(rho[m.elements[x]], bm.generators[a])), None)
    if gi is not None:
        checks = [Check("rho-on-generators", FAIL, f"generator {gi}")]
    elif edge is not None:
        w, a = m.word(edge[0]), edge[1]
        checks = [Check("rho-on-generators", FAIL, f"rho(eta({w}) * tilde_x[{a}]) is not rho(eta({w})) * g{a}")]
    else:
        checks = [Check("rho-on-generators", PASS, f"{len(m) * len(sol.raw)} edges of M'")]
    x, row = next(((x, row) for x, v in enumerate(m.elements) for row, (_, blk) in enumerate(v.data)
                   if not over(v, blk)), (None, None))
    checks.append(Check("block-projection", PASS, f"{len(m)} elements x {sol.p} blocks") if x is None
                  else Check("block-projection", FAIL,
                             f"eta({m.word(x)}) block row {row} does not lie over M_w"))
    scope = f"{len(member)} elements of J'"
    x = next((x for x, v in enumerate(m.elements) if v in member and not (flat(v) and held(v) == ell)), None)
    single, coverage = Check("single-column", PASS, scope), Check("preimage-coverage", PASS, scope)
    if x is not None and not flat(m.elements[x]):
        single = Check("single-column", FAIL, f"eta({m.word(x)}) has several columns")
    elif x is not None:
        coverage = Check("preimage-coverage", FAIL,
                         f"eta(w) holds {held(m.elements[x])} of the {ell} preimages of M_w for w={m.word(x)}")
    const = {v for v in m.elements if flat(v)}
    why = (f"constant part {len(const)} vs ideal {len(member)}" if const != member
           else "e' avoids J'" if sol.e_prime not in member else "")
    checks += [single, coverage,
               Check("ideal-identification", FAIL if why else PASS, why or f"|J'| = {len(member)}")]
    if checks[0].status == FAIL:
        return checks + [Check(name, FAIL, "rho breaks an edge of M'")
                         for name in ("rho-ideal-image", "rho-subgroup-image")]
    images = check_min_ideal_image(MonoidHom(m, bm, rho, check=False)).checks
    return checks + [Check(f"rho-{c.name}", c.status, c.witness) for c in images]


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
