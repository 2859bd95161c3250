"""Idempotent covers and kernel-extension embeddings.

Two constructions live here.  The first wraps a finite group H into a
monoid of row-monomial matrices over H whose minimal ideal is generated by
its idempotents while the maximal subgroup stays H, witnessed by explicit
idempotent factorizations.  The second starts from a prepared base monoid
and a surjection alpha: H -> K onto its anchored maximal subgroup and
builds a monoid of block matrices realizing H as the maximal subgroup over
the base, together with the maps rho and theta that certify the extension.

Everything a verification report claims about an enumerated cover is
read off the closure's right Cayley graph, its products walks along
witness words; generators and orbits are multiplied as matrices.  Cover
checks are exact at every size, the idempotent span read off the sandwich
matrix.  The embedding is built unchecked: G' is the monoid on H' inside
the orbit e'M', and M', when it fits the cap, is enumerated with rho read
off the base along witness words, a build artefact that only
:func:`eggbox.oracles.enumerated_embedding_checks` checks.  The verifier
reads none of it: every check is exact, by lemmas, from the two orbits e'M'
and M'e', and theta is checked on every edge of G''s right Cayley graph.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, count, product as iter_product, repeat
from math import gcd
from typing import Optional

from .core import (
    DEFAULT_CAP,
    FiniteGroup,
    MonoidHom,
    along_words,
    canonical_section,
    closure,
    generate_monoid,
    is_isomorphic,
    omega_power,
)
from .elements import (
    Element,
    identity_row_monomial,
    make_rowmono_mul,
    row_monomial,
    short_str,
)
from .errors import (
    CapExceeded,
    InternalInconsistency,
    KMismatch,
    NonSurjectiveAlpha,
    NotWellDefined,
    NTooSmall,
    PrimeBoundViolated,
    TooFewGenerators,
)
from .green import minimal_ideal, rees_coordinates
from .report import FAIL, PASS, SKIPPED, Check, ConstructionReport
from .srank import _is_prime
from .wreath import (
    is_faithful_on_min_ideal,
    schutz_faithful_quotient,
    schutz_rep,
)


def _constant_col(u: Element) -> Optional[int]:
    cols = {c for c, _ in u.data}
    if len(cols) == 1:
        return next(iter(cols))
    return None


def _least_idempotent_power(x: Element, mul, guard: int):
    """(k, x^k) for the least k >= 1 with x^k idempotent."""
    cur = x
    for k in range(1, guard + 1):
        if mul(cur, cur) == cur:
            return k, cur
        cur = mul(cur, x)
    raise InternalInconsistency("no idempotent power within the loop guard")


def _power(x: Element, k: int, mul, ident: Element) -> Element:
    acc = ident
    sq = x
    while k:
        if k & 1:
            acc = mul(acc, sq)
        sq = mul(sq, sq)
        k >>= 1
    return acc


# ---------------------------------------------------------------------------
# idempotent covers


class CoverResult:
    """An idempotent cover of a finite group.

    ``x`` is the invertible column shift of order n, ``y`` the idempotent
    whose row lists the group; in full mode ``monoid`` is the generated
    closure with its minimal ideal coordinatized at y and ``theta`` the
    isomorphism from the maximal subgroup at y back to the group.  Cheap
    mode keeps only the generators and the entry multiplication.
    """

    __slots__ = ("group", "n", "mode", "x", "y", "mul", "monoid", "ideal", "rees", "theta")

    def __init__(self, group, n, mode, x, y, mul, monoid, ideal, rees, theta):
        self.group = group
        self.n = n
        self.mode = mode
        self.x = x
        self.y = y
        self.mul = mul
        self.monoid = monoid
        self.ideal = ideal
        self.rees = rees
        self.theta = theta

    def __repr__(self):
        size = len(self.monoid.elements) if self.monoid is not None else "?"
        return f"CoverResult({self.group.name}, n={self.n}, {self.mode}, {size} elements)"


def cover_modulus_bound(h) -> int:
    return max(2, 2 * len(h.elements) - 1)


def cover_size(h, n: int) -> int:
    """|<x, y>| for the cover of H at modulus n: n + n²|H|, or 2n for H = 1.

    The powers of x are n units; every product with y in it is constant on
    one column, like y.  On those, x on the left rotates the row of entries,
    x on the right moves the column, and a constant on the right scales the
    row by the entry it reads (y·x^j·y is y scaled by its j-th entry).  So
    the rest is the Rees box of n columns by the rotations of y's row
    scaled by H, n|H| distinct rows for H ≠ 1: a row's repeated entry, the
    identity n - |H| + 1 >= 2 times in y's, is its scalar, and the place of
    an entry seen once its rotation.  For H = 1 there is one row."""
    order = len(h.elements)
    return 2 * n if order == 1 else n + n * n * order


def build_idempotent_cover(h: FiniteGroup, n: int, mode: str = "auto",
                           cap: int = DEFAULT_CAP) -> CoverResult:
    """Cover of H by <x, y> inside H wr (shift of Z_n plus constants).

    x cycles the n points with identity entries; row i of y holds the i-th
    group element under the constant-to-0 map, padding with the identity,
    which needs n >= max(2, 2|H| - 1).  Auto mode enumerates the closure
    whenever its size (:func:`cover_size`) fits the cap; full mode always
    does, and raises :class:`CapExceeded` before enumerating anything when
    that exact size does not fit.
    """
    if mode not in ("auto", "full", "cheap"):
        raise ValueError(f"unknown cover mode {mode!r}")
    bound = cover_modulus_bound(h)
    if n < bound:
        raise NTooSmall(n, bound)
    ident = h.identity
    order = len(h.elements)
    x = row_monomial(((i + 1) % n, ident) for i in range(n))
    y = row_monomial((0, h.elements[i] if i < order else ident) for i in range(n))
    mul = make_rowmono_mul(h.mul)
    if mode == "auto":
        mode = "full" if cover_size(h, n) <= cap else "cheap"
    if mode == "cheap":
        return CoverResult(h, n, "cheap", x, y, mul, None, None, None, None)
    if cover_size(h, n) > cap:
        raise CapExceeded(cap, cover_size(h, n))
    monoid = generate_monoid(
        [x, y], mul, cap=cap,
        identity=identity_row_monomial(n, ident),
        name=f"cover[{h.name},{n}]",
    )
    ideal = minimal_ideal(monoid)
    rees = rees_coordinates(monoid, ideal, y)
    theta_map = {z: z.data[0][1] for z in rees.group.elements}
    theta = MonoidHom(rees.group, h, theta_map)
    if len(set(theta_map.values())) != len(h.elements):
        raise InternalInconsistency("first-row entries do not biject the maximal subgroup with H")
    return CoverResult(h, n, "full", x, y, mul, monoid, ideal, rees, theta)


def cover_idempotent_witnesses(c: CoverResult):
    """Idempotent factorizations hitting every element of the group.

    The identity maps to (y,); the j-th further element to
    (y, x^j y x^(n-j), y).  Each factor is idempotent, each product is a
    constant matrix whose first-row entry is the key.
    """
    h = c.group
    mul = c.mul
    n = c.n
    xp = [identity_row_monomial(n, h.identity)]
    for _ in range(n):
        xp.append(mul(xp[-1], c.x))
    out = {h.elements[0]: (c.y,)}
    for j in range(1, len(h.elements)):
        e_j = mul(mul(xp[j], c.y), xp[n - j])
        out[h.elements[j]] = (c.y, e_j, c.y)
    return out


def _check_witness_products(c: CoverResult):
    mul = c.mul
    vals = []
    for target, factors in cover_idempotent_witnesses(c).items():
        prod = factors[0]
        for f in factors:
            if mul(f, f) != f:
                return Check("witness-products", FAIL,
                             f"factor {short_str(f)} for {short_str(target)} is not idempotent"), vals
        for f in factors[1:]:
            prod = mul(prod, f)
        if _constant_col(prod) is None:
            return Check("witness-products", FAIL,
                         f"product for {short_str(target)} is not a constant matrix"), vals
        got = prod.data[0][1]
        vals.append(got)
        if got != target:
            return Check("witness-products", FAIL,
                         f"theta of product is {short_str(got)}, wanted {short_str(target)}"), vals
    return Check("witness-products", PASS, f"{len(vals)} factorizations"), vals


def _check_idempotent_closure(c: CoverResult) -> Check:
    """<E(J)> = J through the three-idempotent factorization.

    Row units u_a = (a, 1, 0) and column units v_b = (0, 1, b) are
    idempotent by the sandwich normalization; the maximal subgroup cell at
    y is exhausted by the witness products, which are products of
    idempotents; and every element (a, g, b) of J is checked to factor as
    u_a·(g·v_b).  With each v_b in R_y = yM and x·y = x for each seed x, a
    row unit or a cell element, x·z for all z in R_y follows along a
    spanning tree of R_y's right edges, x·(z′·t) = (x·z′)·t.
    """
    rc = c.rees
    m = c.monoid
    at = {k: m.index[x] for k, x in rc.point.items()}
    k = rc.group
    one = k.identity
    right, y = m.right, m.index[c.y]
    levels, parent = closure([y], range(len(m.generators)), lambda z, t: right[z][t], key=None)
    sides = [("row", a, at[(a, one, 0)]) for a in range(rc.n_a)]
    for side, i, u in sides + [("column", b, at[(0, one, b)]) for b in range(rc.n_b)]:
        if m.times(u, u) != u:
            return Check("idempotent-closure", FAIL, f"{side} unit {i} is not idempotent")
        if side == "column" and u not in parent:
            return Check("idempotent-closure", FAIL, f"column unit {short_str(m.elements[u])} is not in R_y")
    cell = {c.y}
    for factors in cover_idempotent_witnesses(c).values():
        prod = m.index[factors[0]]
        for f in factors[1:]:
            prod = m.times(prod, m.index[f])
        cell.add(m.elements[prod])
    if cell != set(k.elements):
        return Check("idempotent-closure", FAIL,
                     "witness products do not exhaust the cell at y")

    tree = [(z, parent[z]) for level in levels[1:] for z in level]  # z = right[p][t] in R_y
    rows = {}
    for key in [(a, one, 0) for a in range(rc.n_a)] + [(0, g, 0) for g in k.elements]:
        xz = rows[key] = {y: at[key]}
        if m.times(at[key], y) != at[key]:
            return Check("idempotent-closure", FAIL, f"{short_str(rc.point[key])} is not fixed by y on the right")
        for z, (p, t) in tree:
            xz[z] = right[xz[p]][t]
    units = [rows[(a, one, 0)] for a in range(rc.n_a)]
    cells, cols = {g: rows[(0, g, 0)] for g in k.elements}, [at[(0, one, b)] for b in range(rc.n_b)]
    for u in c.ideal.elements:
        a, g, b = rc.coord[u]
        if units[a].get(cells[g][cols[b]]) != m.index[u]:
            return Check("idempotent-closure", FAIL,
                         f"{short_str(u)} is not its own three-idempotent product")
    return Check("idempotent-closure", PASS, "factorization exhaustive")


def _check_ideal_simple(c: CoverResult) -> Check:
    """I is the Rees matrix semigroup [n_a] x G x [n_b] with its sandwich
    matrix inside G, hence completely simple.

    Rees coordinatization already checked the coordinates multiplicative;
    this re-derives from the stored data that they biject I with the full
    box, with ``point`` inverse to ``coord``, and that no sandwich entry is
    missing or outside G.
    """
    rc = c.rees
    gset = set(rc.group.elements)
    box = f"{rc.n_a}x{len(gset)}x{rc.n_b}"
    if len(c.ideal.elements) != rc.n_a * len(gset) * rc.n_b:
        return Check("ideal-simple", FAIL, f"|I|={len(c.ideal.elements)} does not fill {box}")
    # coord is then injective into a box of |I| cells, hence onto it
    for x in c.ideal.elements:
        k = rc.coord.get(x)
        inside = k is not None and 0 <= k[0] < rc.n_a and k[1] in gset and 0 <= k[2] < rc.n_b
        if not inside or rc.point.get(k) != x:
            return Check("ideal-simple", FAIL, f"{short_str(x)} has no coordinates in {box} leading back to it")
    for b in range(rc.n_b):
        for a in range(rc.n_a):
            if rc.sandwich.get((b, a)) not in gset:
                return Check("ideal-simple", FAIL, f"sandwich entry ({b}, {a}) is not in G")
    return Check("ideal-simple", PASS, f"coordinatized {box}")


def _sandwich_span(rc) -> Optional[int]:
    """|<P>|, the order of the subgroup of G the sandwich entries generate,
    at |G|·|P| table lookups; None if an entry is outside G.

    <E(I)> = I exactly when <P> = G (Graham 1968, Houghton 1977): the
    idempotents (i, 1, 0) and (0, 1, b) of the normalized P multiply to
    (0, p_bi, 0), so <E> holds (i, 1, 0)(0, g, 0)(0, 1, b) = (i, g, b) for
    g in <P>; conversely that set is a subsemigroup holding every idempotent
    (i, p_bi^-1, b)."""
    g = rc.group
    entries = {g.index.get(p) for p in rc.sandwich.values()}
    if None in entries:
        return None
    return len(closure([0], sorted(entries), lambda i, j: g.table[i][j], key=None)[1])


def verify_cover(c: CoverResult, seed: int = 0) -> ConstructionReport:
    """Report on every structural claim the cover makes.

    Full mode checks the generator relations, the witness factorizations,
    that theta is an isomorphism onto H, that the minimal ideal is exactly
    the constant part, that it is simple, and that its idempotents generate
    it.  Cheap mode runs the generator and witness checks directly on
    matrix products and skips the enumeration-bound ones.  No check
    samples and none has a size limit; ``seed`` is unused and kept for
    callers that pass it.
    """
    h = c.group
    mul = c.mul
    n = c.n
    report = ConstructionReport(
        "cover",
        params=[
            ("group", h.name),
            ("n", n),
            ("mode", c.mode),
            ("size", len(c.monoid.elements) if c.monoid is not None else "-"),
        ],
    )
    ident = identity_row_monomial(n, h.identity)
    cur = c.x
    k = 1
    while cur != ident and k <= n:
        cur = mul(cur, c.x)
        k += 1
    report.add(Check("x-order", PASS if (cur == ident and k == n) else FAIL,
                     f"order {k} of modulus {n}"))
    report.add(Check("y-idempotent", PASS if mul(c.y, c.y) == c.y else FAIL))
    wcheck, vals = _check_witness_products(c)
    report.add(wcheck)
    # in a finite group the right closure of 1 is the subgroup generated
    generated = closure([h.identity], vals, h.mul)[1]
    report.add(Check("witness-images-generate",
                     PASS if set(generated) == set(h.elements) else FAIL,
                     f"{len(generated)} of {len(h.elements)} elements"))

    if c.monoid is None:
        for name in ("max-subgroup-iso", "ideal-is-constants", "ideal-simple",
                     "idempotent-closure", "idempotent-closure-exhaustive"):
            report.add(Check(name, SKIPPED, "needs the enumerated cover"))
        return report

    theta_vals = set(c.theta.map.values())
    bij = len(theta_vals) == len(c.theta.map) == len(h.elements)
    report.add(Check("max-subgroup-iso", PASS if bij else FAIL,
                     f"|G_y|={len(c.rees.group.elements)}, |H|={len(h.elements)}"))

    const = {u for u in c.monoid.elements if _constant_col(u) is not None}
    report.add(Check("ideal-is-constants", PASS if const == c.ideal.member else FAIL,
                     "independent recomputation"))

    report.add(_check_ideal_simple(c))

    report.add(_check_idempotent_closure(c))

    span, order = _sandwich_span(c.rees), len(c.rees.group.elements)
    report.add(Check("idempotent-closure-exhaustive", PASS if span == order else FAIL,
                     "a sandwich entry is not in G" if span is None
                     else f"sandwich entries generate {span} of {order}"))
    return report


# ---------------------------------------------------------------------------
# base preparation


class PreparedBase:
    """A base monoid normalized for the extension construction.

    ``word`` is the deterministic full-support word and ``f`` the anchored
    idempotent omega(omega(g1) z omega(g2)), z the word's value; ``group``,
    ``schutz`` and ``b`` are K, the Schutzenberger representation and the
    L-class count at f, and ``matrices`` the generators' images.
    """

    __slots__ = ("monoid", "group", "schutz", "matrices", "f", "b", "word")

    def __init__(self, monoid, group, schutz, matrices, f, b, word):
        self.monoid = monoid
        self.group = group
        self.schutz = schutz
        self.matrices = matrices
        self.f = f
        self.b = b
        self.word = word

    def __repr__(self):
        return (f"PreparedBase({self.monoid.name}, |M|={len(self.monoid.elements)}, "
                f"K={self.group.name}, b={self.b})")


def prepare_base(m) -> PreparedBase:
    """Normalize a base monoid and anchor an idempotent in its kernel.

    Needs at least two listed generators.  A base that is not faithful on
    its minimal ideal is replaced by its Schutzenberger image; the
    extension only ever sees that quotient.  The word w prefixes the
    shortest kernel witness with one occurrence of every generator, and
    f = omega(omega(g1) eval(w) omega(g2)) absorbs omega(g1) on the left
    and omega(g2) on the right.
    """
    if len(m.generators) < 2:
        raise TooFewGenerators(
            f"{m.name} lists {len(m.generators)} generators, the construction needs two")
    if not is_faithful_on_min_ideal(m):
        m = schutz_faithful_quotient(m)[0]
    ideal = minimal_ideal(m)
    idx, times = m.index, m.times
    x0 = min((idx[x] for x in ideal.elements), key=lambda i: (len(m.word(i)), m.word(i)))
    word = m.word(x0) + tuple(range(len(m.generators)))
    # z = eval(w), walked from x0 along the generators, lies in the ideal
    z = reduce(lambda i, t: m.right[i][t], range(len(m.generators)), x0)
    og1 = idx[omega_power(m, m.generators[0])]
    og2 = idx[omega_power(m, m.generators[1])]
    f = omega_power(m, m.elements[times(times(og1, z), og2)])
    fi = idx[f]
    if f not in ideal.member or times(fi, fi) != fi:
        raise InternalInconsistency("anchored element is not a kernel idempotent")
    if times(og1, fi) != fi or times(fi, og2) != fi:
        raise InternalInconsistency("anchored idempotent does not absorb the generator omegas")
    rc = rees_coordinates(m, ideal, f)
    schutz = schutz_rep(m, rc)
    for col, val in schutz.map[f].data:
        if col != 0 or val != rc.group.identity:
            raise InternalInconsistency("matrix of f is not the first-column identity")
    return PreparedBase(m, rc.group, schutz, tuple(schutz.map[g] for g in m.generators),
                        f, rc.n_b, word)


# ---------------------------------------------------------------------------
# embedding problems


class EmbeddingProblem:
    """A surjection alpha: H ->> K matched against a prepared base.

    The codomain is identified with the base's maximal subgroup K by a
    searched isomorphism; ``alpha_hat`` is alpha composed with it, so all
    later arithmetic happens in the base's own copy of K.  ``inner_mul``
    multiplies b×b row-monomial blocks over H, for every solve and check.
    """

    __slots__ = ("alpha", "base", "h", "iso", "alpha_hat", "inner_mul")

    def __init__(self, alpha: MonoidHom, base: PreparedBase):
        if not isinstance(alpha.source, FiniteGroup) or not isinstance(alpha.target, FiniteGroup):
            raise NotWellDefined("the extension map must join finite groups")
        if not alpha.is_surjective():
            raise NonSurjectiveAlpha(
                f"alpha does not cover {alpha.target.name}")
        self.alpha = alpha
        self.base = base
        self.h = alpha.source
        iso = is_isomorphic(alpha.target, base.group)
        if iso is None:
            raise KMismatch(
                f"codomain {alpha.target.name} (order {len(alpha.target.elements)}) "
                f"is not isomorphic to the base subgroup {base.group.name} "
                f"(order {len(base.group.elements)})")
        self.iso = iso
        self.alpha_hat = alpha.then(iso)
        self.inner_mul = make_rowmono_mul(self.h.mul)

    def __repr__(self):
        return (f"EmbeddingProblem({self.h.name} ->> {self.base.group.name} "
                f"over {self.base.monoid.name})")


def _alphabar(ahat: MonoidHom, mat: Element) -> Element:
    """Entrywise alpha_hat on a matrix over H."""
    return row_monomial((c, ahat.map[v]) for c, v in mat.data)


def _kernel(prob: EmbeddingProblem) -> tuple:
    """ker alpha_hat in H's element order."""
    ker = prob.alpha_hat.kernel()
    return tuple(x for x in prob.h.elements if x in ker)


def _kernel_diagonals(prob: EmbeddingProblem) -> tuple:
    """The diagonal b×b matrices over ker alpha_hat, in lexicographic order."""
    return tuple(row_monomial(enumerate(t)) for t in iter_product(_kernel(prob), repeat=prob.base.b))


def _lift_exponent(prob: EmbeddingProblem, blk: Element) -> int:
    """m: the least k >= 1 with blk^k idempotent, for a b×b block over H."""
    guard = len(prob.h.elements) ** prob.base.b * prob.base.b + 2
    return _least_idempotent_power(blk, prob.inner_mul, guard)[0]


def _block_identity(prob: EmbeddingProblem, p: int) -> Element:
    inner = identity_row_monomial(prob.base.b, prob.h.identity)
    return row_monomial((i, inner) for i in range(p))


def _anchor(prob: EmbeddingProblem, p: int, raw, mul) -> Element:
    """e' = omega(omega(x~_1)·eta(w)·omega(x~_2)) for the base's word w."""
    base = prob.base
    guard = p * (len(prob.h.elements) ** base.b * base.b + 2)
    o1, o2 = (_least_idempotent_power(t, mul, guard)[1] for t in raw[:2])
    eta_w = reduce(mul, (raw[gi] for gi in base.word), _block_identity(prob, p))
    return _least_idempotent_power(mul(mul(o1, eta_w), o2), mul, guard)[1]


class EmbeddingSolution:
    """Solved extension data as built; :func:`verify_embedding` checks it
    and derives the parameters nu, ell, m and r itself.

    ``raw`` holds the block generators; ``mprime`` is their closure in
    full mode and None when the cap was hit.  ``group`` is G', the monoid
    on H' = {z in e'M' : z·e' = z}, in every mode.  In full mode
    ``rho_map`` sends each element of M' to the base element its witness
    word reaches, a build artefact that the verifier does not read and
    :func:`eggbox.oracles.enumerated_embedding_checks` checks on every
    edge; capped mode leaves it empty.  ``rho_of`` reads the base element
    off an element's first block.
    """

    __slots__ = ("problem", "p", "raw", "mprime", "rho_map", "e_prime", "group",
                 "group_elements", "theta_map", "mode", "block_mul", "schutz_inverse")

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw[slot])

    def __repr__(self):
        size = f", |M'|={len(self.mprime.elements)}" if self.mprime is not None else ""
        return f"EmbeddingSolution(p={self.p}, {self.mode}{size})"

    def rho_of(self, v: Element) -> Optional[Element]:
        """Base element under the first block, if its projection is one."""
        return self.schutz_inverse.get(_alphabar(self.problem.alpha_hat, v.data[0][1]))


def solve_embedding(prob: EmbeddingProblem, p_override: Optional[int] = None,
                    cap: int = DEFAULT_CAP, require_full: bool = False) -> EmbeddingSolution:
    """Build the block generators and assemble the extension.

    nu = |ker alpha_hat|, m the least idempotent power of the sigma-lift of
    M_g1, ell = nu^b; the shift modulus is the least prime above
    max(m, ell), and an explicit override must also clear the bound.
    Generator 1 becomes the shift matrix with constant lift blocks; every
    other generator is the single-column matrix whose first ell blocks are
    scaled by the kernel diagonals in lexicographic order.
    """
    sigma = canonical_section(prob.alpha_hat)
    lifts = [row_monomial((c, sigma[v]) for c, v in mat.data) for mat in prob.base.matrices]
    m_power = _lift_exponent(prob, lifts[0])
    nbt = _kernel_diagonals(prob)
    bound = max(m_power, len(nbt))
    if p_override is None:
        p = next(q for q in count(bound + 1) if _is_prime(q))
    else:
        p = p_override
    if not _is_prime(p) or p <= bound:
        raise PrimeBoundViolated(f"override {p} is not a prime above max(m, ell) = {bound}")

    tilde = [row_monomial(((i + 1) % p, lifts[0]) for i in range(p))]
    for lift in lifts[1:]:
        tilde.append(row_monomial(
            (0, prob.inner_mul(nbt[t], lift) if t < len(nbt) else lift) for t in range(p)))
    return assemble_embedding(prob, p, tilde, cap=cap, require_full=require_full)


def assemble_embedding(prob: EmbeddingProblem, p: int, tilde_x, strict: bool = False,
                       cap: int = DEFAULT_CAP, require_full: bool = False) -> EmbeddingSolution:
    """Close the given block generators and read off the extension data.

    Nothing is checked here that :func:`verify_embedding` checks, so any
    generators, even corrupted ones or ones built for a modulus that is
    not a prime above max(m, ell), assemble and the report names what
    fails.  G' is the monoid on H' = {z in e'M' : z·e' = z}, from one
    closure of e' in every mode.  M' is enumerated up to the cap, and rho is
    read off the base along its witness words: rho(1) = 1 and rho(x·x~_a) =
    rho(x)·g_a, |M'| lookups in the base's right Cayley graph and no
    product.  The closure cap switches to capped mode, which leaves M'
    unenumerated.  ``strict`` is accepted for old callers and ignored.
    """
    base = prob.base
    h = prob.h
    raw = tuple(tilde_x)
    if len(raw) != len(base.matrices):
        raise NotWellDefined(
            f"{len(raw)} block generators for {len(base.matrices)} base generators")
    block_mul = make_rowmono_mul(prob.inner_mul)

    e_prime = _anchor(prob, p, raw, block_mul)

    schutz_inverse = {mat: u for u, mat in base.schutz.map.items()}
    if len(schutz_inverse) != len(base.schutz.map):
        raise InternalInconsistency("base representation is not faithful")

    mprime = None
    rho_map = {}
    try:
        mprime = generate_monoid(
            raw, block_mul, cap=cap, identity=_block_identity(prob, p),
            name=f"ext[{h.name}->{base.monoid.name}]",
        )
    except CapExceeded:
        if require_full:
            raise
    else:
        bm = base.monoid
        at = along_words(mprime, bm.index[bm.identity], lambda i, t: bm.right[i][t])
        rho_map = {v: bm.elements[i] for v, i in zip(mprime.elements, at)}
    right = closure([e_prime], raw, block_mul)[1]  # e'M'
    group = generate_monoid([z for z in right if block_mul(z, e_prime) == z], block_mul,
                            identity=e_prime, name=f"G'[{h.name}]")
    theta_map = {s: s.data[0][1].data[0][1] for s in group.elements}

    return EmbeddingSolution(
        problem=prob, p=p, raw=raw, mprime=mprime, rho_map=rho_map,
        e_prime=e_prime, group=group, group_elements=group.elements, theta_map=theta_map,
        mode="capped" if mprime is None else "full", block_mul=block_mul,
        schutz_inverse=schutz_inverse,
    )


# ---------------------------------------------------------------------------
# embedding verification


def _flat(v: Element) -> bool:
    """Constant on one column, outside and inside, as the elements of J' are."""
    inner = {_constant_col(blk) for _, blk in v.data}
    return _constant_col(v) is not None and len(inner) == 1 and None not in inner


def _check_block_projection(sol: EmbeddingSolution) -> Check:
    """Each block of each generator x~_a lies over M_ga.  By induction every
    v lies over one M_v, as a block of x·y is a block of x times one of y:
    v -> M_v is multiplicative, the Schutzenberger image of rho."""
    base = sol.problem.base
    for gi, t in enumerate(sol.raw):
        for row, (_, blk) in enumerate(t.data):
            if _alphabar(sol.problem.alpha_hat, blk) != base.matrices[gi]:
                return Check("block-projection", FAIL,
                             f"tilde_x[{gi}] block row {row} does not lie over M_g{gi}")
    return Check("block-projection", PASS,
                 f"{len(sol.raw)} generators x {sol.p} blocks")


def _check_blocks(sol: EmbeddingSolution, ell: int, left, word):
    """Single-column and preimage coverage over L', each distinct block's
    image made once; ``word`` names an element of L' that a witness names.

    Each fibre of alpha_hat is a coset of its kernel, so M_l, the image of
    l's first block, has nu^b = ell preimages, all in M_l's columns: l holds
    them all exactly when ell of its distinct blocks lie over M_l."""
    ahat = sol.problem.alpha_hat
    scope = f"{len(left)} elements of L'"
    images = {}  # block -> its image under alpha_hat
    for z in left:
        if not _flat(z):
            return (Check("single-column", FAIL, f"eta({word(z)}) has several columns"),
                    Check("preimage-coverage", PASS, scope))
        blocks = {blk for _, blk in z.data}
        images.update((blk, _alphabar(ahat, blk)) for blk in blocks if blk not in images)
        held = sum(images[blk] == images[z.data[0][1]] for blk in blocks)
        if held != ell:
            return (Check("single-column", PASS, scope),
                    Check("preimage-coverage", FAIL,
                          f"eta(w) holds {held} of the {ell} preimages of M_w for w={word(z)}"))
    return Check("single-column", PASS, scope), Check("preimage-coverage", PASS, scope)


def _check_on_orbits(sol: EmbeddingSolution, ell: int) -> tuple:
    """(|M'|, checks): the block and rho image checks, exact from R' = e'M',
    L' = M'e', H' = {z in R' : z·e' = z} = e'M'e' and <x~_1>, all walked
    here, whether or not M' was enumerated.  eta(w)·e' in L' is named
    w * e'.

    single-column: L' is flat, e' in it, and flat matrices form an ideal (a
    block of x·y is a block of x times one of y), so J' = M'e'M' is flat.
    preimage-coverage: each l in L' holds the ell preimages of M_l, the
    image of its first block; then so does each v = l·r of J' = L'·R', as
    P -> P·B, for B the block of r in l's column, carries them onto those
    of M_l·M_r = M_v (h -> h·s carries cosets of ker alpha_hat to cosets).
    ideal-identification: the flat part of M' is its minimal ideal J', of
    |R'|·|L'|/|H'| elements, and M' = J' ⊔ <x~_1>:
    - e' is the only idempotent of H', so the finite monoid e'M'e' is a
      group, and e' is the anchor, a product of generators, so e' lies in
      J' (Howie, 1995, ch. 3), which is M'e'M' = L'·R';
    - each generator a but x~_1 is flat and a = (a·e')·(e'·a·e')^-1·(e'·a),
      in L'·H'·R' = J', so M' = J' ∪ <x~_1>;
    - no power of x~_1 is flat, while J' is, so the union is disjoint;
    - ``sol.group`` is exactly H'; a missing or extra element is named.
    rho-ideal-image: rho is onto M (block-projection) and rho(e') = f, which
    :func:`prepare_base` puts in K(M), so rho(J') = rho(M'e'M') = MfM =
    K(M); failed premises are named.
    rho-subgroup-image: rho(H') = H_f, element by element."""
    mul, e, base = sol.block_mul, sol.e_prime, sol.problem.base
    right = closure([e], sol.raw, mul)[1]
    group = [z for z in right if mul(z, e) == z]
    left = closure([e], sol.raw, lambda z, a: mul(a, z))[1]
    powers = list(closure([_block_identity(sol.problem, sol.p)], sol.raw[:1], mul)[1])
    size = len(right) * len(left) // len(group) if group else 0

    def word(z):
        w = ()
        while left[z] is not None:
            z, gi = left[z]
            w += (gi,)
        return f"{w} * e'"

    def ideal_fault():
        idempotents = [z for z in group if mul(z, z) == z]
        if idempotents != [e]:
            return f"H' holds {len(idempotents)} idempotents, not e' alone"
        if e != _anchor(sol.problem, sol.p, sol.raw, mul):
            return "e' is not omega(omega(x~_1) eta(w) omega(x~_2))"
        for gi, a in enumerate(sol.raw[1:], 1):
            ae = mul(a, e)  # z·a·e' = z·(e'·a·e') for z in H'
            inverse = next(z for z in group if mul(z, ae) == e)
            if not _flat(a) or mul(mul(ae, inverse), mul(e, a)) != a:
                return f"tilde_x[{gi}] does not factor through H'"
        k = next((k for k, z in enumerate(powers) if _flat(z)), None)
        missing = [z for z in group if z not in sol.group.index]
        extra = [z for z in sol.group.elements if z not in group]
        return (f"tilde_x[0]^{k} is flat" if k is not None
                else f"G' misses {short_str(missing[0])} of H'" if missing
                else f"G' holds {short_str(extra[0])} outside H'" if extra else "")

    why = ideal_fault()
    checks = [_check_block_projection(sol), *_check_blocks(sol, ell, left, word),
              Check("ideal-identification", FAIL if why else PASS, why or f"|J'| = {size}")]
    lacking = [c.name for c in (checks[0], checks[3]) if c.status != PASS]
    if sol.rho_of(e) != base.f:
        lacking.append("rho(e') = f")
    image = [sol.rho_of(z) for z in group]
    odd = [u for u in image if u not in base.group.index] or [k for k in base.group.elements if k not in image]
    differ = f"rho(H') and H_f differ at {odd[0] and short_str(odd[0])}" if odd else ""
    checks.append(Check("rho-ideal-image", FAIL if lacking else PASS,
                        f"needs {', '.join(lacking)}" if lacking else "rho(M'e'M') = MfM = K(M)"))
    checks.append(Check("rho-subgroup-image", FAIL if differ else PASS, differ or f"|H'| = {len(group)}"))
    return size + len(powers), checks


def _check_rho(sol: EmbeddingSolution) -> Check:
    """rho, read off the first block by ``rho_of``, sends x~_i to g_i.

    With block projection that makes rho the homomorphism M' ->> M fixed by
    x~_i -> g_i: the first block of x·y is B_0(x)·B_c(y), over M_x·M_y, and
    the Schutzenberger representation is faithful, so rho(x·y) =
    rho(x)·rho(y); its image holds 1 and is closed under the generators."""
    bm = sol.problem.base.monoid
    for gi, t in enumerate(sol.raw):
        if sol.rho_of(t) != bm.generators[gi]:
            return Check("rho-on-generators", FAIL, f"generator {gi}")
    return Check("rho-on-generators", PASS)


def _check_theta(sol: EmbeddingSolution) -> Check:
    """theta is an isomorphism of G' onto H: injective, onto, and
    theta(s·a) = theta(s)·theta(a) on every edge of G''s right Cayley graph.

    The edges out of e' give theta(e') = 1, and along a witness word
    a_1...a_k of y, theta(s·y) = theta(s)·theta(a_1)...theta(a_k) =
    theta(s)·theta(y), so theta is multiplicative."""
    h = sol.problem.h
    g = sol.group
    theta = sol.theta_map
    for s, row in zip(g.elements, g.right):
        for a, j in zip(g.generators, row):
            if theta[g.elements[j]] != h.mul(theta[s], theta[a]):
                return Check("theta-iso", FAIL,
                             f"theta({short_str(s)} * {short_str(a)}) breaks multiplicativity")
    values = set(theta.values())
    ok = len(values) == len(theta) and values == set(h.elements)
    return Check("theta-iso", PASS if ok else FAIL,
                 f"|G'| = {len(theta)}, |H| = {len(h.elements)}")


def _check_prime_bound(p: int, m: int, ell: int) -> Check:
    """p is a prime above max(m, ell): the shift's p rows hold the ell kernel
    diagonals, and the cycler needs m invertible mod p."""
    bound = max(m, ell)
    if not _is_prime(p):
        return Check("prime-bound", FAIL, f"p = {p} is not prime")
    if p <= bound:
        return Check("prime-bound", FAIL, f"p = {p} is not above max(m, ell) = {bound}")
    return Check("prime-bound", PASS, f"p = {p} > max(m, ell) = {bound}")


def _check_kernel_coverage(sol: EmbeddingSolution, kernel, m: int, r: Optional[int]) -> Check:
    """The sweep e'·c^j·e', j < p, of the cycler c = x~_1^(m·r) stays in G' and covers ker alpha_hat."""
    if r is None:
        return Check("kernel-coverage", FAIL, f"no cycler: m has no inverse modulo p = {sol.p}")
    mul, e = sol.block_mul, sol.e_prime
    ident = _block_identity(sol.problem, sol.p)
    cycler = _power(sol.raw[0], m * r, mul, ident)
    sweep = [mul(mul(e, c), e) for c in accumulate(repeat(cycler, sol.p - 1), mul, initial=ident)]
    got = {s.data[0][1].data[0][1] for s in sweep}
    lack = next((x for x in kernel if x not in got), None)
    if lack is not None:
        return Check("kernel-coverage", FAIL, f"kernel element {short_str(lack)} not swept")
    escaped = next((j for j, s in enumerate(sweep) if s not in sol.group.index), None)
    if escaped is not None:
        return Check("kernel-coverage", FAIL, f"sweep element {escaped} escapes the subgroup at e'")
    return Check("kernel-coverage", PASS, f"{len(kernel)} kernel elements in {sol.p} steps")


def _check_section(sol: EmbeddingSolution) -> Check:
    """sigma, the canonical section of alpha_hat, is a section, alpha_hat(sigma(k))
    = k for every k of K, and its values lie in theta(G')."""
    ahat = sol.problem.alpha_hat
    ks = sol.problem.base.group.elements
    sigma = canonical_section(ahat)
    theta_vals = set(sol.theta_map.values())
    wrong = next((k for k in ks if ahat.map.get(sigma.get(k)) != k), None)
    if wrong is not None:
        return Check("section-coverage", FAIL, f"sigma({short_str(wrong)}) does not lie over it")
    lack = next((k for k in ks if sigma[k] not in theta_vals), None)
    if lack is not None:
        return Check("section-coverage", FAIL, f"sigma({short_str(lack)}) misses the theta image")
    return Check("section-coverage", PASS, f"section of {len(ks)} elements")


def verify_embedding(sol: EmbeddingSolution, seed: int = 0) -> ConstructionReport:
    """Report on every claim of the extension construction.

    nu = |ker alpha_hat|, ell = nu^b, m, r = m^-1 mod p and the cycler are
    derived here from the problem and the block generators alone, shown
    as the params and checked against p by ``prime-bound``.  Every check is
    exact and none reads M', so all modes are verified alike: foundational
    checks pin e' and rho on the generators; block projection on the
    generators, and single-column, preimage coverage, ideal identification
    and the minimal ideal images of rho from the orbits e'M' and M'e'
    (:func:`_check_on_orbits`); kernel and section coverage, the theta
    isomorphism and alpha o theta = rho certify the group extension.
    ``seed`` is ignored.
    """
    prob = sol.problem
    base = prob.base
    h = prob.h
    mul = sol.block_mul
    kernel = _kernel(prob)
    ell = len(kernel) ** base.b
    m_power = _lift_exponent(prob, sol.raw[0].data[0][1])
    r = pow(m_power, -1, sol.p) if gcd(m_power, sol.p) == 1 else None
    size, orbits = _check_on_orbits(sol, ell)
    report = ConstructionReport(
        "embed",
        params=[
            ("base", base.monoid.name),
            ("group", h.name),
            ("subgroup", base.group.name),
            ("p", sol.p), ("nu", len(kernel)), ("ell", ell),
            ("m", m_power), ("r", "-" if r is None else r), ("mode", sol.mode),
            ("size", size),
        ],
    )

    report.add(_check_prime_bound(sol.p, m_power, ell))
    ok = mul(sol.e_prime, sol.e_prime) == sol.e_prime
    report.add(Check("e-prime-idempotent", PASS if ok else FAIL))
    entry = sol.e_prime.data[0][1].data[0][1]
    report.add(Check("e-prime-identity-entry", PASS if entry == h.identity else FAIL,
                     "" if entry == h.identity else f"entry {short_str(entry)}"))
    rho_e = sol.rho_of(sol.e_prime)
    report.add(Check("e-prime-maps-to-f", PASS if rho_e == base.f else FAIL,
                     "" if rho_e == base.f else f"rho(e') = {rho_e and short_str(rho_e)}"))
    report.add(_check_rho(sol))

    for check in orbits[:4]:
        report.add(check)

    report.add(_check_kernel_coverage(sol, kernel, m_power, r))
    report.add(_check_section(sol))
    report.add(_check_theta(sol))

    bad = ""
    for s in sol.group.elements:
        if prob.alpha_hat.map[sol.theta_map[s]] != sol.rho_of(s):
            bad = f"at {short_str(s)}"
            break
    report.add(Check("alpha-rho-compatible", PASS if not bad else FAIL, bad))

    for check in orbits[4:]:
        report.add(check)
    return report
