"""Wreath products as row-monomial matrices.

A wreath product S ≀ ([n], T) is realized as the monoid of n×n matrices
with exactly one non-zero entry per row, entries drawn from S; the pair
(f, t) corresponds to the matrix whose row i holds f(i) in column t(i).
Zero is implicit in the row-monomial storage, never an entry value.
Matrices are plain row-monomial :class:`Element` values multiplied by a
rule from :func:`make_rowmono_mul`; iterated wreath products are matrices
whose entries are matrices, under a rule built over the inner rule.

The module hosts the group-to-wreath dictionary: constant wreaths
G ≀ (B, constants), generated from a few matrices and checked against the
listed set, with the projection psi of the local monoid at an idempotent
onto G; and M's right action on its minimal ideal.  That action is read
off the right Cayley graph and extended along witness words: the
Schützenberger representation from the Rees coordinates of the
generators' translates, the RLM as its column part, and the faithfulness
test as the distinctness of translate rows, which builds no
representation.
"""

from __future__ import annotations

from itertools import product as iter_product

from .core import (
    DEFAULT_CAP,
    FiniteGroup,
    FiniteMonoid,
    MonoidHom,
    SubSemigroup,
    along_words,
    generate_monoid,
)
from .elements import (
    Element,
    compose_transformations,
    identity_row_monomial,
    make_rowmono_mul,
    row_monomial,
    transformation,
)
from .errors import (
    CapExceeded,
    InternalInconsistency,
    NotIdempotent,
    NotInLocalMonoid,
)
from .green import ReesCoordinates, green_structure, minimal_ideal, rees_coordinates


def constant_transformation(n: int, target: int) -> Element:
    return transformation([target] * n)


class ConstantWreath:
    """G ≀ (B, constants) with an identity adjoined; the simple part (all
    matrices with a constant column) is tracked separately."""

    __slots__ = ("group", "points", "monoid", "simple")

    def __init__(self, group, points, monoid, simple):
        self.group = group
        self.points = points
        self.monoid = monoid
        self.simple = simple

    def __repr__(self):
        return f"ConstantWreath({self.group.name!r}, {self.points} points)"


def _constant_column_matrices(g: FiniteGroup, b: int):
    """The simple part of G ≀ (B, B̄), listed: every (f, constant) pair."""
    return [
        row_monomial((k, fi) for fi in f)
        for f in iter_product(g.elements, repeat=b)
        for k in range(b)
    ]


def constant_wreath(g: FiniteGroup, points) -> ConstantWreath:
    """G ≀ (B, B̄) generated from |G|^(b−1) + b matrices.

    The generators are the maps f with f(0) = 1 at column 0 and the b
    constant identity-entry matrices c_k.  They give every (f, k): c_k·(f, 0)
    is constant with value f(k) at column 0, (f, 0)·(h, 0) = (f·h, 0) for a
    constant h reaches every f, and (f, 0)·c_k = (f, k).  At b = 1 both
    kinds are the identity, so G's own generators stand in.  The closure
    must equal the listed simple part S plus the identity.  S is an ideal
    of M = S ∪ {1}, so it is simple exactly when it is M's minimal ideal,
    which one Green computation finds, on the Cayley graphs the enumeration
    kept.  It multiplies about |M| of the |M|·|A| right edges, not all.
    """
    b = points if isinstance(points, int) else len(points)
    total = (len(g) ** b) * b + 1
    if total > DEFAULT_CAP:
        raise CapExceeded(DEFAULT_CAP, total)
    one = g.identity
    ident = identity_row_monomial(b, one)
    if b == 1:
        gens = [row_monomial([(0, x)]) for x in g.generators]
    else:
        gens = [row_monomial([(0, one)] + [(0, fi) for fi in f]) for f in iter_product(g.elements, repeat=b - 1)]
        gens += [row_monomial([(k, one)] * b) for k in range(b)]
    monoid = generate_monoid(gens, make_rowmono_mul(g.mul), identity=ident, name=f"{g.name}w{b}")
    listed = set(_constant_column_matrices(g, b))
    if set(monoid.elements) != listed | {ident}:
        raise InternalInconsistency("the generated constant wreath is not the listed set")
    simple = SubSemigroup(monoid, listed)
    if minimal_ideal(monoid).member != simple.member:
        raise InternalInconsistency("constant wreath simple part is not the minimal ideal")
    return ConstantWreath(g, b, monoid, simple)


def psi(w: ConstantWreath, e: Element, s: Element) -> Element:
    """Value of the local-monoid isomorphism eSe → G at s.

    For e = (f, b̄) idempotent and s = (f', b̄) in eSe, returns f'(b); psi is
    a bijective homomorphism onto the entry group with psi(e) = 1.
    """
    mul = w.monoid.mul
    if e not in w.simple or mul(e, e) != e:
        raise NotIdempotent(f"{e!r} is not an idempotent of the simple part")
    if s not in w.simple or mul(e, s) != s or mul(s, e) != s:
        raise NotInLocalMonoid(f"{s!r} is not in the local monoid at {e!r}")
    b = e.data[0][0]
    return s.data[b][1]


def rlm(m: FiniteMonoid):
    """Action of M on the right of the L-classes of its minimal ideal.

    Returns (transformation monoid on B, MonoidHom onto it).  The action is
    the column part of the Schützenberger representation at the ideal's
    first idempotent: u sends column b to the column of v_b·u, with the
    columns numbered as the Rees columns.  It is well defined because the
    Rees coordinates were checked on every edge out of the ideal: the
    column of x·a depends only on the column of x.  Elements of the
    minimal ideal act as constants and every constant map arises.
    """
    rep = _schutz_at_first_idempotent(m)
    nb = len(rep.target.identity.data)
    seeds = [transformation(b for b, _ in rep(a).data) for a in m.generators]
    target = generate_monoid(
        seeds, compose_transformations, identity=transformation(range(nb)),
        name=f"rlm[{m.name}]",
    )
    hom = MonoidHom.from_generator_images(m, target, seeds)
    for x in minimal_ideal(m).elements:
        img = hom(x).data
        if any(t != img[0] for t in img):
            raise InternalInconsistency("minimal ideal element does not act as a constant")
    for k in range(nb):
        if constant_transformation(nb, k) not in target.index:
            raise InternalInconsistency("a constant map is missing from the RLM image")
    return target, hom


def schutz_rep(m: FiniteMonoid, rc: ReesCoordinates) -> MonoidHom:
    """Schützenberger representation by row-monomial matrices over G.

    s maps to the matrix whose row b' holds the G-coordinate of v_{b'}·s in
    the column of its L-class; the representation is a homomorphism,
    faithful on the maximal subgroup at the base idempotent.  A
    generator's matrix is read off the right Cayley graph and the map is
    extended along witness words, so M's own product is used only on the
    matrix entries, which lie in G.
    """
    g = rc.group
    idx = m.index
    els = m.elements
    cols = [m.right[idx[vb]] for vb in rc.col_reps]
    seeds = []
    for t in range(len(m.generators)):
        rows = []
        for succ in cols:
            a, gg, b = rc.coord[els[succ[t]]]
            if a != rc.a0:
                raise InternalInconsistency("column representative left its R-class")
            rows.append((b, gg))
        seeds.append(row_monomial(rows))
    target = generate_monoid(
        seeds, make_rowmono_mul(g.mul), identity=identity_row_monomial(rc.n_b, g.identity),
        name=f"schutz[{m.name}]",
    )
    hom = MonoidHom.from_generator_images(m, target, seeds)
    if len({hom(x) for x in g.elements}) != len(g):
        raise InternalInconsistency("representation is not faithful on the maximal subgroup")
    return hom


def is_faithful_on_min_ideal(m: FiniteMonoid) -> bool:
    """True iff the Schützenberger representation separates all of M.

    It separates s from s′ exactly when x·s ≠ x·s′ for some x in the
    minimal ideal.  Fix an R-class R of the ideal and one r per H-class of
    R; any x of the ideal is z·r for z in the ideal and r the one in x's
    L-class, so x·s = z·(r·s) and the row of translates r·s fixes the
    action of s on the whole ideal.
    The rows are folded along witness words over the right Cayley graph,
    with no products, and M is faithful iff they are distinct.
    """
    ideal = minimal_ideal(m)
    gs = green_structure(m)
    at = [m.index[x] for x in ideal.elements]
    reps = {gs.h_class_of[i]: i for i in at if gs.r_class_of[i] == gs.r_class_of[at[0]]}
    right = m.right
    rows = along_words(m, tuple(reps.values()), lambda row, t: tuple([right[i][t] for i in row]))
    return len(set(rows)) == len(rows)


def _schutz_at_first_idempotent(m: FiniteMonoid) -> MonoidHom:
    ideal = minimal_ideal(m)
    rc = rees_coordinates(m, ideal, ideal.idempotents[0])
    return schutz_rep(m, rc)


def schutz_faithful_quotient(m: FiniteMonoid):
    """Image of M under the Schützenberger representation, with the quotient
    map; the image is always faithful on its own minimal ideal."""
    rep = _schutz_at_first_idempotent(m)
    target = rep.target
    if not is_faithful_on_min_ideal(target):
        raise InternalInconsistency("Schützenberger image is not faithful")
    return target, rep
