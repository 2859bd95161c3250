"""Values the benchmark computes without eggbox, to check eggbox against.

Transformations are plain tuples of 0-based images here, composed on the
right as in eggbox: ``(x * y)[i] = y[x[i]]``.  Nothing in this module
imports the package under test.
"""

from __future__ import annotations


def compose(x, y):
    return tuple(y[i] for i in x)


def closure(gens, degree, cap):
    """The monoid generated by ``gens`` as a set of image tuples, by its own
    breadth-first search; None once it grows past ``cap`` elements."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
                    if len(seen) > cap:
                        return None
        frontier = fresh
    return seen


def rank(x) -> int:
    return len(set(x))


def kernel(x):
    """The partition of points by image, as a canonical relabelling."""
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in x)


def minimum_rank_elements(elements) -> frozenset:
    """The minimal ideal of a finite transformation monoid is exactly its set
    of elements of least rank: every element of the ideal has least rank,
    and an element x of least rank satisfies x = (x k x)(k x)^(m-1) for any
    k of the ideal and some m >= 1, because k x permutes the image of x."""
    least = min(rank(x) for x in elements)
    return frozenset(x for x in elements if rank(x) == least)


def h_class_size(elements, e) -> int:
    """|H_e| for e of least rank: elements of least rank sharing e's image
    and kernel, which within the minimal ideal is the H-class of e."""
    image = frozenset(e)
    ker = kernel(e)
    return sum(1 for x in elements
               if len(x) and frozenset(x) == image and kernel(x) == ker)


def faithful_on_minimal_ideal(elements) -> bool:
    """Whether M acts faithfully on the right of one R-class of its minimal
    ideal.  eM is that R-class for any idempotent e of the ideal, and all
    R-classes of the ideal are isomorphic right M-sets (Green's lemma), so
    the answer does not depend on e."""
    ideal = minimum_rank_elements(elements)
    e = min(x for x in ideal if compose(x, x) == x)
    r_class = sorted({compose(e, s) for s in elements})
    actions = {tuple(compose(x, s) for x in r_class) for s in elements}
    return len(actions) == len(elements)


def cayley_table(elements):
    """Elements listed identity first then sorted, and the index table of
    their products."""
    degree = len(next(iter(elements)))
    identity = tuple(range(degree))
    order = [identity] + sorted(x for x in elements if x != identity)
    index = {x: i for i, x in enumerate(order)}
    table = [[index[compose(x, y)] for y in order] for x in order]
    return order, table


def order_profile(elements, mul, identity):
    """Sorted element orders of a finite group given by its multiplication."""
    orders = []
    for x in elements:
        k, p = 1, x
        while p != identity:
            p = mul(p, x)
            k += 1
            if k > len(elements):
                return None
        orders.append(k)
    return tuple(sorted(orders))


# Element-order profiles of the groups the embedding examples must realise.
ORDER_PROFILES = {
    "C2": (1, 2),
    "C4": (1, 2, 4, 4),
}

# r_S(G) from group theory, with |G|.  For S = C_p, r_S(G) is the dimension
# of the largest elementary abelian p-quotient of G, read off the
# abelianisation (or, for a p-group, the Frattini quotient); for S
# non-abelian simple it counts the normal subgroups with quotient S here.
RANKS = {
    ("S4xC2", "C2"): (48, 2),   # (S4 x C2)^ab = C2 x C2
    ("S4xC2", "C3"): (48, 0),   # the abelianisation has no 3-part
    ("A5", "C2"): (60, 0),      # A5 is perfect
    ("A5", "A5"): (60, 1),      # S^1
    ("S5", "C2"): (120, 1),     # S5^ab = C2
    ("C2xC2xC2xC2", "C2"): (16, 4),  # S^4
    ("C3xC3", "C3"): (9, 2),    # S^2
    ("A4", "C3"): (12, 1),      # A4^ab = C3
    ("D4", "C2"): (8, 2),       # Frattini quotient C2 x C2
    ("Q8", "C2"): (8, 2),       # Frattini quotient C2 x C2
    ("C2xC6", "C2"): (12, 2),   # invariant factors 2, 6
    ("C2xC2", "C2"): (4, 2),    # S^2
    ("S3", "C2"): (6, 1),       # S3^ab = C2
}

SIMPLE_ORDERS = {"C2": 2, "C3": 3, "A5": 60}
