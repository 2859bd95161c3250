"""Green's relations, minimal ideals, maximal subgroups, Rees coordinates.

The classification follows Froidure and Pin: the right Cayley graph of M
over its generators A has an edge x -> xa for every generator a, the
left graph an edge x -> ax.  Both are kept on the monoid by the
enumeration that found M (:func:`~eggbox.core.generate_monoid`), which
reads the left one off the right one with no product: for x = p·b on x's
witness word, a·x = (a·p)·b.  Later products of M, but for the maximal subgroup's table, are walks
along the right graph (:meth:`~eggbox.core.FiniteMonoid.times`).  Since
M is generated by A, y lies in xM exactly when a path leads from x to y
in the right graph, so the R-classes are its strongly connected
components; likewise the L-classes are those of the left graph, and
H = R ∩ L.  The J-classes are read off those two partitions: in a finite
monoid J = D = L∘R, a union of whole R-classes and whole L-classes.

A J-class that no edge leaves is closed under the generators on both
sides, hence an ideal; the minimal ideal is the one such class, and the
library refuses to hand one out unless there is exactly one.  The same
edges certify the Rees coordinates of that ideal, at every size and with
no sampling.
"""

from __future__ import annotations

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
    """Eggbox data of a monoid: the four partitions; for R, L and H each
    element's class number, by element index; and in ``j_sinks`` the
    J-classes that no Cayley-graph edge leaves, i.e. those closed under the
    generators on both sides."""

    __slots__ = ("r_classes", "l_classes", "j_classes", "h_classes", "r_class_of",
                 "l_class_of", "h_class_of", "j_sinks")

    def __init__(self, r, l, j, h, j_sinks):
        self.r_classes, self.r_class_of = r
        self.l_classes, self.l_class_of = l
        self.j_classes = j
        self.h_classes, self.h_class_of = h
        self.j_sinks = j_sinks


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
    idx = m.index
    right = m.right
    if m.left is None:
        m.left = [[idx[m.mul(a, x)] for a in m.generators] for x in els]
    left = m.left
    r_comp = _components(right)
    l_comp = _components(left)
    j_of_l = {}
    for rc, lc in zip(r_comp, l_comp):
        if j_of_l.get(lc, rc) >= rc:
            j_of_l[lc] = rc
    j_comp = [j_of_l[lc] for lc in l_comp]

    r = _group_classes(els, r_comp)
    l = _group_classes(els, l_comp)
    j, j_of = _group_classes(els, j_comp)
    h = _group_classes(els, zip(r_comp, l_comp))

    # a J-class is a sink when no edge of either graph leaves it
    exits = set()
    for graph in (right, left):
        for ji, succ in zip(j_of, graph):
            for w in succ:
                if j_of[w] != ji:
                    exits.add(ji)
    j_sinks = tuple(ci for ci in range(len(j)) if ci not in exits)
    gs = GreenStructure(r, l, j, h, j_sinks)
    m._green = gs
    return gs


def minimal_ideal(m: FiniteMonoid) -> SubSemigroup:
    """The unique minimal two-sided ideal K (cached on M).

    Green's classification already tested every J-class for closure under
    the generators on both sides, edge by edge of the Cayley graphs.  A
    closed class is an ideal, and one is reachable from every element, so
    exactly one closed class must exist and it is MxM for each of its x.
    K holds an idempotent with no search: for x in K every power x^k lies
    in the ideal K, and so does x^ω, the idempotent among them.
    """
    if m._ideal is not None:
        return m._ideal
    gs = green_structure(m)
    if len(gs.j_sinks) != 1:
        raise InternalInconsistency(f"{len(gs.j_sinks)} J-classes are closed under the generators; "
                                    "the minimal ideal must be the only one")
    m._ideal = SubSemigroup(m, gs.j_classes[gs.j_sinks[0]])
    return m._ideal


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
    (0, 1, 0).  The rescaled class representatives that realize the
    normalization are kept in ``row_reps`` and ``col_reps``.
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
    """Coordinatize the minimal ideal as a normalized Rees matrix semigroup,
    checked on every generator edge by :func:`_check_rees_law`.  Products
    of M are walks by element index (:meth:`FiniteMonoid.times`)."""
    if e not in ideal:
        raise NotInMinimalIdeal(f"{e!r} is not in the minimal ideal")
    idx, els, times = m.index, m.elements, m.times
    group = maximal_subgroup(m, e, ideal=ideal)
    ei = idx[e]
    gset = set(group.elements)

    # row label of the R-class of x: the idempotent of the cell (R-class of
    # x, L-class of e); column label: the idempotent of (R-class of e,
    # L-class of x); both in order of first appearance in I
    gs = green_structure(m)
    a_of = {}
    b_of = {}
    for x in ideal.elements:
        r, l = gs.r_class_of[idx[x]], gs.l_class_of[idx[x]]
        if r not in a_of:
            a_of[r] = idx[omega_power(m, els[times(idx[x], ei)])]
        if l not in b_of:
            b_of[l] = idx[omega_power(m, els[times(ei, idx[x])])]
    # e's own row and column come first, the others keep their order
    a_labels = sorted(a_of.values(), key=lambda lab: lab != ei)
    b_labels = sorted(b_of.values(), key=lambda lab: lab != ei)

    # rescale so row b0 and column a0 of the sandwich matrix become 1
    row_reps = []
    for ua in a_labels:
        g = els[times(ei, ua)]
        if g not in gset:
            raise InternalInconsistency("row rescaling factor escapes the maximal subgroup")
        row_reps.append(times(ua, idx[group.inverse(g)]))
    col_reps = []
    for vb in b_labels:
        g = els[times(vb, ei)]
        if g not in gset:
            raise InternalInconsistency("column rescaling factor escapes the maximal subgroup")
        col_reps.append(times(idx[group.inverse(g)], vb))

    sandwich = {}
    for b, vb in enumerate(col_reps):
        for a, ua in enumerate(row_reps):
            c = els[times(vb, ua)]
            if c not in gset:
                raise InternalInconsistency("sandwich entry escapes the maximal subgroup")
            sandwich[(b, a)] = c
    for a in range(len(row_reps)):
        if sandwich[(0, a)] != e:
            raise InternalInconsistency("row b0 of the sandwich matrix is not the identity")
    for b in range(len(col_reps)):
        if sandwich[(b, 0)] != e:
            raise InternalInconsistency("column a0 of the sandwich matrix is not the identity")

    coord = {}
    point = {}
    for a, ua in enumerate(row_reps):
        for g in group.elements:
            uag = times(ua, idx[g])
            for b, vb in enumerate(col_reps):
                x = els[times(uag, vb)]
                if x not in ideal or x in coord:
                    raise InternalInconsistency("cell enumeration is not a bijection onto I")
                coord[x] = (a, g, b)
                point[(a, g, b)] = x
    if len(coord) != len(ideal.elements):
        raise InternalInconsistency("coordinate map misses part of the ideal")

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
    green_structure(m)  # cached; fills m.left on a monoid built without it
    idx = m.index
    one = rc.group.identity
    gels, gpos, gtab = rc.group.elements, rc.group.index, rc.group.table
    anchors = [(p, (0, p, 0)) for p in gels] + [(u, (i, one, 0)) for i, u in enumerate(rc.row_reps)]
    for x, want in anchors + [(v, (0, one, b)) for b, v in enumerate(rc.col_reps)]:
        if rc.coord.get(x) != want:
            raise InternalInconsistency(f"{x!r} does not have the coordinates {want!r}")
    # coordinates by element index, the group part as a table index; edges
    # from I stay in I, the J-class that no edge leaves
    cix = {idx[x]: (a, gpos[g], b) for x, (a, g, b) in rc.coord.items()}
    right, left = m.right, m.left
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
