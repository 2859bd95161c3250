"""A small library of standard finite groups.

Builders for cyclic, symmetric, alternating, dihedral, and dicyclic groups
plus direct products, a table-based constructor for anything else, name
resolution for the command line ("C4", "S3", "C2xC2", "Q8", ...), and
identification of a group against the library entries of order up to 16.

Permutation groups are realized on 0-based points internally; only the
display layer is 1-based.
"""

from __future__ import annotations

from math import factorial

from .core import FiniteGroup, generate_monoid, greedy_generators, is_isomorphic, product_group
from .elements import compose_transformations, make_table_mul, table_element, transformation
from .errors import InconsistentProduct, UnknownObject


def _perm_group(name, degree, gens) -> FiniteGroup:
    seeds = [transformation(g) for g in gens]
    m = generate_monoid(seeds, compose_transformations,
                        identity=transformation(range(degree)), name=name)
    return FiniteGroup.from_monoid(m)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InconsistentProduct("cyclic group order must be positive")
    gen = [(i + 1) % n for i in range(n)]
    return _perm_group(f"C{n}", n, [gen])


def trivial_group() -> FiniteGroup:
    return cyclic(1)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise InconsistentProduct("degree must be positive")
    if n == 1:
        gens = [[0]]
    elif n == 2:
        gens = [[1, 0]]
    else:
        swap = [1, 0] + list(range(2, n))
        cycle = [(i + 1) % n for i in range(n)]
        gens = [swap, cycle]
    g = _perm_group(f"S{n}", n, gens)
    if len(g) != factorial(n):
        raise InconsistentProduct(f"S{n} came out with order {len(g)}")
    return g


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise InconsistentProduct("degree must be positive")
    if n <= 2:
        gens = [list(range(n))]
    elif n == 3:
        gens = [[1, 2, 0]]
    elif n % 2 == 1:
        gens = [[1, 2, 0] + list(range(3, n)), [(i + 1) % n for i in range(n)]]
    else:
        # even degree: a 3-cycle and an (n-1)-cycle fixing the first point
        long = [0] + [1 + (i % (n - 1)) for i in range(1, n)]
        gens = [[1, 2, 0] + list(range(3, n)), long]
    g = _perm_group(f"A{n}", n, gens)
    expected = 1 if n <= 2 else factorial(n) // 2
    if len(g) != expected:
        raise InconsistentProduct(f"A{n} came out with order {len(g)}")
    return g


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; D1 = C2, D2 = Klein."""
    if n < 1:
        raise InconsistentProduct("dihedral parameter must be positive")
    if n == 1:
        gens = [[1, 0]]
        g = _perm_group("D1", 2, gens)
    elif n == 2:
        g = _perm_group("D2", 4, [[1, 0, 3, 2], [1, 0, 2, 3]])
    else:
        rot = [(i + 1) % n for i in range(n)]
        ref = [(n - i) % n for i in range(n)]
        g = _perm_group(f"D{n}", n, [rot, ref])
    if len(g) != 2 * n:
        raise InconsistentProduct(f"D{n} came out with order {len(g)}")
    return g


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1.

    dicyclic(2) is the quaternion group Q8, dicyclic(4) is Q16.
    """
    if n < 2:
        raise InconsistentProduct("dicyclic parameter must be at least 2")
    name = {2: "Q8", 4: "Q16"}.get(n, f"Dic{n}")
    order = 4 * n
    two_n = 2 * n

    def idx(k, j):
        return 2 * k + j

    table = [[0] * order for _ in range(order)]
    for k in range(two_n):
        for j in (0, 1):
            for k2 in range(two_n):
                for j2 in (0, 1):
                    if j == 0:
                        r = idx((k + k2) % two_n, j2)
                    elif j2 == 0:
                        r = idx((k - k2) % two_n, 1)
                    else:
                        r = idx((k - k2 + n) % two_n, 0)
                    table[idx(k, j)][idx(k2, j2)] = r
    return group_from_table(name, table)


def group_from_table(name: str, table) -> FiniteGroup:
    """Group from a full multiplication table of 0-based indices, generated
    from the table's :func:`~eggbox.core.greedy_generators`, which reach
    every element; :func:`~eggbox.core.generate_monoid` then checks the
    table's associativity and :meth:`FiniteGroup.from_monoid` its inverses."""
    k = len(table)
    for row in table:
        if len(row) != k or any(not isinstance(v, int) or not 0 <= v < k for v in row):
            raise InconsistentProduct("table is not square over valid indices")
    ident = None
    for i in range(k):
        if all(table[i][j] == j and table[j][i] == j for j in range(k)):
            ident = i
            break
    if ident is None:
        raise InconsistentProduct("table has no identity element")
    elems = [table_element(name, i) for i in range(k)]
    mul = make_table_mul([tuple(r) for r in table], name)
    seeds = [elems[x] for x in greedy_generators(table, ident)]
    m = generate_monoid(seeds, mul, cap=k, identity=elems[ident], name=name)
    return FiniteGroup.from_monoid(m)


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a standard group name.

    Accepts C<n>, S<n>, A<n> (n at most 6), D<n>, Dic<n>, Q8, Q16, the
    aliases 1/triv/trivial/klein, and x-separated direct products of any of
    these such as C2xC2 or D4xC2.
    """
    label = name.strip()
    if "x" in label:
        parts = label.split("x")
        if all(p and p[0] in "CSADQ1tk" for p in parts) and len(parts) > 1:
            try:
                return product_group([builtin_group(p) for p in parts], name=label)
            except UnknownObject:
                pass
    low = label.lower()
    if low in ("1", "triv", "trivial"):
        return trivial_group()
    if low == "klein":
        return product_group([cyclic(2), cyclic(2)], name="C2xC2")
    if label in ("Q8", "Q16"):
        return dicyclic(2 if label == "Q8" else 4)
    for prefix, builder, bound in (
        ("Dic", dicyclic, 16),
        ("C", cyclic, 512),
        ("S", symmetric, 6),
        ("A", alternating, 6),
        ("D", dihedral, 64),
    ):
        if label.startswith(prefix) and label[len(prefix):].isdigit():
            arg = int(label[len(prefix):])
            if (prefix, arg) == ("Dic", 2) or (prefix, arg) == ("Dic", 4):
                return dicyclic(arg)
            if arg > bound:
                raise UnknownObject(f"{label}: parameter {arg} too large")
            return builder(arg)
    raise UnknownObject(f"unknown group name {name!r}")


# identification library: names per order, tried in listed order; complete
# through order 15, representative (not exhaustive) at order 16
_LIBRARY = {
    1: ["C1"],
    2: ["C2"],
    3: ["C3"],
    4: ["C4", "C2xC2"],
    5: ["C5"],
    6: ["C6", "S3"],
    7: ["C7"],
    8: ["C8", "C2xC4", "C2xC2xC2", "D4", "Q8"],
    9: ["C9", "C3xC3"],
    10: ["C10", "D5"],
    11: ["C11"],
    12: ["C12", "C2xC6", "D6", "A4", "Dic3"],
    13: ["C13"],
    14: ["C14", "D7"],
    15: ["C15"],
    16: ["C16", "C2xC8", "C4xC4", "C2xC2xC4", "C2xC2xC2xC2", "D8", "Q16",
         "D4xC2", "Q8xC2"],
}

_cache: dict = {}


def _library_group(name: str) -> FiniteGroup:
    if name not in _cache:
        _cache[name] = builtin_group(name)
    return _cache[name]


def identify(g: FiniteGroup) -> str:
    """Name of a library group isomorphic to g, else a size description."""
    order = len(g)
    for name in _LIBRARY.get(order, ()):
        if is_isomorphic(g, _library_group(name)) is not None:
            return name
    return f"group of order {order}"
