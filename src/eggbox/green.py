"""Green's relations, minimal ideals, maximal subgroups, Rees coordinates.

The classification follows Froidure and Pin: the right Cayley graph of M
over its generators A has an edge x -> xa for every generator a, the
left graph an edge x -> ax.  Both are kept on the monoid by the
enumeration that found M (:func:`~eggbox.core.generate_monoid`), which
reads the left one off the right one with no product: for x = p·b on x's
witness word, a·x = (a·p)·b.  Since M is generated by A, y lies in xM
exactly when a path leads from x to y in the right graph, so the
R-classes are its strongly connected components; likewise the L-classes
are those of the left graph, and H = R ∩ L.  The J-classes are read off
those two partitions: in a finite monoid J = D = L∘R, a union of whole
R-classes and whole L-classes.

The minimal ideal K = MeM and its Rees coordinates need none of that:
they are read off the translations by an idempotent e, and the same edges
certify the coordinates at every size.  Other products of M, but for the
maximal subgroup's table, are walks (:meth:`~eggbox.core.FiniteMonoid.times`).
"""

from __future__ import annotations

import weakref
from typing import Optional

from .core import (
    FiniteGroup,
    FiniteMonoid,
    MonoidHom,
    SubSemigroup,
    closure,
    generate_monoid,
    omega_power,
)
from .elements import Element
from .errors import (
    InternalInconsistency,
    NoIdempotents,
    NotClosed,
    NotIdempotent,
    NotInMinimalIdeal,
    NotSurjective,
)
from .report import Check, ConstructionReport


class GreenStructure:
    """Eggbox data of a monoid: the four partitions, and for R, L and H each
    element's class number, by element index."""

    __slots__ = ("r_classes", "l_classes", "j_classes", "h_classes", "r_class_of",
                 "l_class_of", "h_class_of")

    def __init__(self, r, l, j, h):
        self.r_classes, self.r_class_of = r
        self.l_classes, self.l_class_of = l
        self.j_classes = j
        self.h_classes, self.h_class_of = h


def _group_classes(elements, values):
    """Group elements by their values, listed in element order: the classes,
    by first member and members in element order, and each element's class."""
    class_of, classes, seen = [], [], {}
    for x, v in zip(elements, values):
        ci = seen.setdefault(v, len(classes))
        if ci == len(classes):
            classes.append([])
        classes[ci].append(x)
        class_of.append(ci)
    return tuple(map(tuple, classes)), class_of


def _components(succ):
    """Strongly connected component number of every vertex of the graph on
    0..n-1 with successor lists ``succ``.

    Tarjan's algorithm with an explicit stack of (vertex, successor
    iterator) frames, so path length is bounded by memory, not by the
    interpreter's recursion limit.  A visited vertex without a component
    is still on the Tarjan stack.
    """
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack = []
    seen = 0
    found = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, edges = frames[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                frames.pop()
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def green_structure(m: FiniteMonoid) -> GreenStructure:
    """Classify M under Green's relations R, L, J, H (cached on M).

    R and L are the strongly connected components of the right and left
    Cayley graphs; a monoid built without the left graph has it multiplied
    out here, once, and kept as ``m.left``.  Each element's J-class is
    labelled by the least R-class met by its L-class.  That label is a
    J-invariant: in a finite monoid J = D = L∘R (Howie, *Fundamentals of
    Semigroup Theory*, 1995, ch. 2), and by Green's lemma every L-class of
    a D-class meets every R-class of it, so the least R-class met by L_x
    is the least R-class in D_x.  D-classes share no R-class, so distinct
    D-classes get distinct labels.
    """
    if m._green is not None:
        return m._green
    els = m.elements
    r_comp = _components(m.right)
    l_comp = _components(m.left_graph())
    j_of_l = {}
    for rc, lc in zip(r_comp, l_comp):
        if j_of_l.get(lc, rc) >= rc:
            j_of_l[lc] = rc
    j_comp = [j_of_l[lc] for lc in l_comp]
    gs = GreenStructure(_group_classes(els, r_comp), _group_classes(els, l_comp),
                        _group_classes(els, j_comp)[0], _group_classes(els, zip(r_comp, l_comp)))
    m._green = gs
    return gs


def minimal_ideal(m: FiniteMonoid) -> SubSemigroup:
    """The minimal ideal K = MeM for an idempotent e whose local monoid eMe
    is a group (cached on M by a weak reference: K's pointer makes no cycle).

    e starts at the ω-power of the last element.  An idempotent f ≠ e in
    eMe = {(e·x)·e} has f = ef = fe, so f lies strictly below e in the
    J-order (f J e would give f H e in a stable monoid, so f = e); e moves
    to f, which ends as M is finite.  When e is the only idempotent of eMe,
    each x^ω = e and eMe is a group; then e lies in K, as for k in K, eke
    lies in eMe ∩ K and so does e = (eke)(eke)⁻¹ (Howie, *Fundamentals of
    Semigroup Theory*, 1995, ch. 3).  K = (Me)M is the right closure of Me.
    """
    ideal = m._ideal and m._ideal()
    if ideal is not None:
        return ideal
    if any(t >= len(m.generators) for t in m.last[1:]):
        raise InternalInconsistency(f"the witness words of {m.name!r} use letters that are not generators")
    f = m.index[omega_power(m, m.elements[-1])]
    while f is not None:
        e, xe = f, m.right_translation(f)
        local = sorted({xe[j] for j in m.left_translation(e)})
        f = next((z for z in local if z != e and m.times(z, z) == z), None)
    right = m.right
    found = closure(xe, range(len(m.generators)), lambda z, t: right[z][t], len(m), key=None)[1]
    ideal = SubSemigroup(m, [m.elements[i] for i in found])
    m._ideal = weakref.ref(ideal)
    return ideal


def maximal_subgroup(m: FiniteMonoid, e: Element, ideal: Optional[SubSemigroup] = None) -> FiniteGroup:
    """Group of units of eMe, read off Green's structure as the H-class of e
    in element order; each member must be fixed by e on both sides and lie
    in a supplied minimal ideal holding e, and the class must be a group."""
    idx, times = m.index, m.times
    ei = idx[e]
    if times(ei, ei) != ei:
        raise NotIdempotent(f"{e!r} is not idempotent")
    gs = green_structure(m)
    units = gs.h_classes[gs.h_class_of[ei]]
    for u in units:
        if times(ei, idx[u]) != idx[u] or times(idx[u], ei) != idx[u]:
            raise InternalInconsistency(f"{u!r} in the H-class of e is not fixed by e")
    if ideal is not None and e in ideal and not all(u in ideal for u in units):
        raise InternalInconsistency("the H-class of a kernel idempotent leaves the minimal ideal")
    return _group_on(m, e, units)


def _group_on(m: FiniteMonoid, e: Element, units) -> FiniteGroup:
    """The group closed from ``units``, H_e in element order, as seeds."""
    gm = generate_monoid(units, m.mul, identity=e, name=f"G[{m.name}]")
    if len(gm.elements) != len(units):
        raise InternalInconsistency("unit set of eMe is not closed")
    return FiniteGroup.from_monoid(gm)


class ReesCoordinates:
    """Normalized Rees coordinates of a minimal ideal.

    ``coord`` maps each element of I to (a, g, b) with a indexing R-classes,
    b indexing L-classes and g in the maximal subgroup at the base
    idempotent; ``point`` is the inverse map.  Row b0 = 0 and column a0 = 0
    of the sandwich matrix are the identity, and the base idempotent sits at
    (0, 1, 0).  ``row_reps`` and ``col_reps`` are the idempotents at
    (a, 1, 0) and (0, 1, b), which realize the normalization.
    """

    __slots__ = (
        "monoid",
        "ideal",
        "base",
        "group",
        "n_a",
        "n_b",
        "a0",
        "b0",
        "row_reps",
        "col_reps",
        "sandwich",
        "coord",
        "point",
    )

    def __init__(self, monoid, ideal, base, group, row_reps, col_reps, sandwich, coord, point):
        self.monoid = monoid
        self.ideal = ideal
        self.base = base
        self.group = group
        self.n_a = len(row_reps)
        self.n_b = len(col_reps)
        self.a0 = 0
        self.b0 = 0
        self.row_reps = row_reps
        self.col_reps = col_reps
        self.sandwich = sandwich
        self.coord = coord
        self.point = point

    def __repr__(self):
        return f"ReesCoordinates({self.n_a}x{self.n_b}, group order {len(self.group)})"


def rees_coordinates(m: FiniteMonoid, ideal: SubSemigroup, e: Element) -> ReesCoordinates:
    """Coordinatize the minimal ideal I as a normalized Rees matrix
    semigroup from the translations by e, checked on every generator edge
    by :func:`_check_rees_law`.

    By Rees's theorem I has coordinates with e at (0, 1, 0) and row 0 and
    column 0 of the sandwich matrix P trivial (Howie, 1995, ch. 3).  There
    x = (i, p, λ) has x·e = (i, p, 0), e·x = (0, p, λ), e·x·e = p, so
    G = eIe = H_e; z = x·e gives z·(e·z)⁻¹ = (i, 1, 0) = u_i, w = e·x gives
    (w·e)⁻¹·w = (0, 1, λ) = v_λ, and v_λ·u_i = P(λ, i).  So x sits at
    (row of x·e, e·x·e, column of e·x), labels numbered as they first appear
    in I, e's first, and G is closed from eIe as :func:`maximal_subgroup`
    closes H_e.  Words are walked per label and entry of P, none per cell.
    """
    if e not in ideal:
        raise NotInMinimalIdeal(f"{e!r} is not in the minimal ideal")
    idx, els, times = m.index, m.elements, m.times
    ei = idx[e]
    ex, xe = m.left_translation(ei), m.right_translation(ei)
    if xe[ei] != ei:
        raise NotIdempotent(f"{e!r} is not idempotent")
    at = [idx[x] for x in ideal.elements]
    group = _group_on(m, e, [els[i] for i in sorted({xe[ex[i]] for i in at})])
    inv = {idx[g]: idx[group.inverse(g)] for g in group.elements}  # by index in M
    rows, cols = {ei: 0}, {ei: 0}  # label -> its number: e's first, then as they appear
    row_at, col_at = {}, {}  # x·e -> its row, e·x -> its column
    for i in at:
        z, w = xe[i], ex[i]
        if z not in row_at:
            if ex[z] not in inv:
                raise InternalInconsistency(f"e·z escapes the maximal subgroup at z = {els[z]!r}")
            row_at[z] = rows.setdefault(times(z, inv[ex[z]]), len(rows))
        if w not in col_at:  # (e·x)·e lies in G, closed from these
            col_at[w] = cols.setdefault(times(inv[xe[w]], w), len(cols))
    row_reps, col_reps = list(rows), list(cols)

    sandwich = {(b, a): els[times(vb, ua)] for b, vb in enumerate(col_reps) for a, ua in enumerate(row_reps)}
    if not all(p in group.index for p in sandwich.values()):
        raise InternalInconsistency("sandwich entry escapes the maximal subgroup")
    if any(sandwich[(0, a)] != e for a in range(len(row_reps))):
        raise InternalInconsistency("row b0 of the sandwich matrix is not the identity")
    if any(sandwich[(b, 0)] != e for b in range(len(col_reps))):
        raise InternalInconsistency("column a0 of the sandwich matrix is not the identity")

    cells = [(row_at[xe[i]], els[xe[ex[i]]], col_at[ex[i]]) for i in at]
    coord = dict(zip(ideal.elements, cells))
    point = dict(zip(cells, ideal.elements))
    if len(point) != len(at) or len(at) != len(row_reps) * len(group) * len(col_reps):
        raise InternalInconsistency("cell enumeration is not a bijection onto I")

    rc = ReesCoordinates(m, ideal, e, group, tuple(els[u] for u in row_reps),
                         tuple(els[v] for v in col_reps), sandwich, coord, point)
    _check_rees_law(m, rc)
    return rc


def _check_rees_law(m: FiniteMonoid, rc: ReesCoordinates) -> None:
    """Check coord(x·y) = coord(x)∘coord(y) on I along generator edges.

    With u_i = ``row_reps[i]``, v_λ = ``col_reps[λ]`` and, per generator a,
    (0, h, λ′) = coord(v_λ·a) and (i′, k, 0) = coord(a·u_i), every x in I
    with coord(x) = (i, g, λ) must have coord(x·a) = (i, g·h, λ′) and
    coord(a·x) = (i′, k·g, λ); also coord(p) = (0, p, 0) for p in G,
    coord(u_i) = (i, 1, 0) and coord(v_λ) = (0, 1, λ).  x·a and a·x are
    read off the stored edges and G multiplies by its Cayley table.

    This suffices when the product is associative, which generate_monoid
    establishes for every monoid it returns, by a certified product rule
    or by Light's exact test.  For coord(y) = (j, h, μ), following y's
    witness word from x along right edges gives coord(x·y) = (i, g·H, μ′)
    with H, μ′ fixed by λ and y, so coord(v_λ·y) = (0, H, μ′).  Following
    v_λ's word from y along left edges gives coord(v_λ·y) = (r, K·h, μ)
    with r, K fixed by λ and j; at y = u_j, v_λ·u_j is the sandwich entry
    P in G, at (0, P, 0), so K = P.  Hence coord(x·y) = (i, g·P·h, μ).
    """
    idx = m.index
    one = rc.group.identity
    gels, gpos, gtab = rc.group.elements, rc.group.index, rc.group.table
    anchors = [(p, (0, p, 0)) for p in gels] + [(u, (i, one, 0)) for i, u in enumerate(rc.row_reps)]
    for x, want in anchors + [(v, (0, one, b)) for b, v in enumerate(rc.col_reps)]:
        if rc.coord.get(x) != want:
            raise InternalInconsistency(f"{x!r} does not have the coordinates {want!r}")
    # coordinates by element index, the group part as a table index; edges
    # from the ideal I stay in I
    cix = {idx[x]: (a, gpos[g], b) for x, (a, g, b) in rc.coord.items()}
    right, left = m.right, m.left_graph()
    gens = range(len(m.generators))
    col_step = [[cix[right[idx[v]][t]][1:] for v in rc.col_reps] for t in gens]
    row_step = [[cix[left[idx[u]][t]][:2] for u in rc.row_reps] for t in gens]
    for xi, (i, g, b) in cix.items():
        for t in gens:
            h, b2 = col_step[t][b]
            i2, k = row_step[t][i]
            if cix.get(right[xi][t]) != (i, gtab[g][h], b2) or cix.get(left[xi][t]) != (i2, gtab[k][g], b):
                raise InternalInconsistency(
                    f"coordinates are not multiplicative on {m.elements[xi]!r} and generator {t}")


def is_simple(s: SubSemigroup) -> bool:
    """True iff SxS = S for every x in S.

    On the right Cayley graph of S over its generators, with an edge
    x -> x·a per generator a, the vertices reachable from x form the right
    ideal xS¹.  S is simple iff each xS¹ is a minimal right ideal, i.e. iff
    no edge leaves a strongly connected component: then for any x, y the
    element xy lies in xS¹ = xyS¹, so x = xys lies in S¹yS¹ and S is one
    J-class; conversely a finite simple S is stable, so y in xS¹ with y J x
    gives y R x (Howie, Fundamentals of Semigroup Theory, 1995, ch. 3).
    Costs |S|·|A| word walks in M for |A| generators, none when S kept the
    edges of its closure as ``s.right``, and no product.
    """
    m = s.monoid
    pos = {m.index[x]: i for i, x in enumerate(s.elements)}
    gens = [m.index[a] for a in s.generators]
    right = s.right or {i: [m.times(i, a) for a in gens] for i in pos}
    try:
        succ = [[pos[j] for j in right[i]] for i in pos]
    except KeyError:
        raise NotClosed("a product with a generator escapes the subsemigroup") from None
    comp = _components(succ)
    return all(comp[w] == comp[v] for v, ws in enumerate(succ) for w in ws)


def idempotent_generated(s: SubSemigroup) -> SubSemigroup:
    """The subsemigroup generated by the idempotents of S, which it records
    as its generators, closed over element indices by word walks in M.
    The span keeps the walk's successor rows as its ``right``."""
    m = s.monoid
    idem = [m.index[e] for e in s.idempotents]
    if not idem:
        raise NoIdempotents("no idempotents to generate from")
    right = {}

    def step(i, t):
        if i not in right:
            right[i] = [m.times(i, e) for e in idem]
        return right[i][t]

    # products of idempotent words are closed under concatenation
    levels, _ = closure(idem, range(len(idem)), step, key=None)
    return SubSemigroup(m, [m.elements[i] for level in levels for i in level],
                        generators=s.idempotents, right=right)


def check_min_ideal_image(phi: MonoidHom) -> ConstructionReport:
    """Verify that a surjection carries the minimal ideal onto the minimal
    ideal and each kernel maximal subgroup onto its counterpart.

    The minimal ideal K of a finite monoid is completely simple, so each of
    its H-classes is a maximal subgroup holding exactly one idempotent
    (Howie, 1995, ch. 3), and the subgroups are checked one H-class at a
    time, with no product.  A homomorphism keeps R and L (x = y·s gives
    φ(x) = φ(y)·φ(s)), hence H: φ sends an H-class H of the source's K into
    the target's H-class of φ(x) for any x in H, which for the idempotent
    e of H is the maximal subgroup at φ(e).  So φ(H_e) is that subgroup
    exactly when {φ(x) : x ∈ H} equals the target H-class of φ(H[0]).  The
    witness counts H-classes, which is the number of idempotents of K; a
    failure names the idempotent of its class, the ω-power of H[0].
    """
    if not phi.is_surjective():
        raise NotSurjective("minimal ideal image check needs a surjective map")
    ideal_s = minimal_ideal(phi.source)
    ideal_t = minimal_ideal(phi.target)
    report = ConstructionReport(
        "min-ideal-image",
        params=[
            ("source", phi.source.name),
            ("target", phi.target.name),
            ("ideal", len(ideal_s)),
            ("target_ideal", len(ideal_t)),
        ],
    )

    image = {phi(x) for x in ideal_s.elements}
    if image == ideal_t.member:
        report.add(Check("ideal-image", "pass"))
    else:
        extra = sorted(image - ideal_t.member, key=repr)
        missing = sorted(ideal_t.member - image, key=repr)
        report.add(Check("ideal-image", "fail", f"extra={extra[:3]!r} missing={missing[:3]!r}"))

    gs, gt = green_structure(phi.source), green_structure(phi.target)
    at_s, at_t = phi.source.index, phi.target.index
    h_ids = dict.fromkeys(gs.h_class_of[at_s[x]] for x in ideal_s.elements)
    for hi in h_ids:
        h = gs.h_classes[hi]
        if {phi(x) for x in h} != set(gt.h_classes[gt.h_class_of[at_t[phi(h[0])]]]):
            bad = omega_power(phi.source, h[0])
            report.add(Check("subgroup-image", "fail", f"at idempotent {bad!r}"))
            break
    else:
        report.add(Check("subgroup-image", "pass", f"idempotents={len(h_ids)}"))
    return report
