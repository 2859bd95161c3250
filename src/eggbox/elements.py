"""Concrete element values and their structural products.

Every semigroup element in the library is an :class:`Element`, a small
immutable value of one of four kinds:

``transf``
    a total transformation of ``[n]``, stored as the tuple of 0-based
    images ``(0f, 1f, ..., (n-1)f)``; composition acts on the right.
``table``
    an abstract element of a multiplication-table monoid, stored as a
    ``(label, index)`` pair so elements of distinct tables never compare
    equal.
``rowmono``
    a row-monomial matrix of size ``n`` over some entry monoid: every row
    holds exactly one non-zero entry, stored as ``(column, entry)`` with a
    0-based column and an :class:`Element` entry.
``tuple``
    a componentwise product of elements, used for direct products.

Elements are hash-consed: building a value that is alive returns the live
object, so equality is identity and hashing is by address, both in C.
Nothing assigns to an element's fields after construction, and one thread
builds elements: the table of live ones takes no lock.  Elements order by
a canonical key, which deterministic tie-breaking compares.  Result order
comes from these keys and breadth-first discovery, never from iterating a
set, so output is stable across processes and hash seeds.

Every product rule made here carries a certificate, its ``associative``
attribute: True means the rule is associative on every input it accepts,
with the proof in the docstring of the function that makes the rule.
Composition of transformations always is; row-monomial and componentwise
rules are when their entry or component rules are; a table rule starts
uncertified and :func:`~eggbox.core.generate_monoid` certifies it once a
closure over its whole table passes the exact associativity test.  A
plain callable without the attribute counts as uncertified.
"""

from __future__ import annotations

import weakref

from .errors import InconsistentProduct, NotRowMonomial


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the key of the element referred to


def _drop(ref):
    if _live.get(ref.key) is ref:  # else a new element holds the key already
        del _live[ref.key]


_live = {}  # key -> _Ref of the one live element with that key


class Element:
    """``Element(kind, data, key)`` is the live element with ``key`` if there
    is one (E. Goto, "Monocopy and associative algorithms in an extended
    Lisp", 1974; J.-C. Filliâtre and S. Conchon, "Type-safe modular
    hash-consing", 2006).  Keys hold sub-elements, not their keys:
    ``("m", n, rows)`` with the (column, entry) rows that are a matrix's
    ``data``, and ``("p", components)``.  Equal sub-elements are one object,
    so key equality is value equality and a key hashes one pointer per
    entry.  The order is that of fully nested keys: comparing key tuples
    finds the first unequal items by identity and orders them by ``<``,
    which on distinct elements compares their keys, by induction on depth.
    """

    __slots__ = ("kind", "data", "key", "__weakref__")

    def __new__(cls, kind: str, data, key):
        ref = _live.get(key)
        x = ref and ref()
        if x is None:
            x = object.__new__(cls)
            x.kind, x.data, x.key = kind, data, key
            ref = _live[key] = _Ref(x, _drop)
            ref.key = key
        return x

    def __reduce__(self):
        # a copy or an unpickled element is the live one
        return Element, (self.kind, self.data, self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __repr__(self):
        return f"<{short_str(self)}>"


def transformation(images) -> Element:
    """Transformation of [n] from a tuple of 0-based images."""
    images = tuple(images)
    n = len(images)
    for i in images:
        if not isinstance(i, int) or not 0 <= i < n:
            raise InconsistentProduct(f"image {i!r} out of range for degree {n}")
    return Element("transf", images, ("t", images))


def table_element(label: str, index: int) -> Element:
    """Abstract element ``index`` of the table monoid named ``label``."""
    return Element("table", (label, index), ("i", label, index))


def row_monomial(rows) -> Element:
    """Row-monomial matrix from a sequence of (column, entry) rows."""
    rows = tuple(map(tuple, rows))
    n = len(rows)
    for col, entry in rows:
        if not isinstance(col, int) or not 0 <= col < n:
            raise NotRowMonomial(f"column {col!r} out of range for size {n}")
        if not isinstance(entry, Element):
            raise NotRowMonomial(f"entry {entry!r} is not an Element")
    return Element("rowmono", rows, ("m", n, rows))


def tuple_element(components) -> Element:
    """Componentwise product element."""
    components = tuple(components)
    return Element("tuple", components, ("p", components))


def compose_transformations(a: Element, b: Element) -> Element:
    """(a*b) maps i to (i a) b; right action.

    Builds the product without :func:`transformation`'s range check: every
    image is an image of ``b``, which was checked when ``b`` was built.
    Certified associative: composition of maps is, since both (ab)c and
    a(bc) send i to ((i a) b) c.
    """
    fa, fb = a.data, b.data
    if len(fa) != len(fb):
        raise InconsistentProduct("transformation degrees differ")
    t = tuple(map(fb.__getitem__, fa))
    return Element("transf", t, ("t", t))


compose_transformations.associative = True


def make_table_mul(table, label: str):
    """Product rule for a table monoid: ``table[i][j]`` is the index of the
    product of elements i and j.

    Nothing about an arbitrary table is known, so the rule starts
    uncertified.  Its ``carrier`` lists the k elements it multiplies, and
    :func:`~eggbox.core.generate_monoid` sets ``associative`` once a
    closure containing all of them passes the exact test: associativity
    on the closure is then associativity of the whole table.
    """
    k = len(table)
    cache = tuple(table_element(label, i) for i in range(k))

    def mul(a: Element, b: Element) -> Element:
        if a.kind != "table" or b.kind != "table":
            raise InconsistentProduct("table product on non-table elements")
        la, ia = a.data
        lb, ib = b.data
        if la != label or lb != label:
            raise InconsistentProduct(f"elements of table {la!r}/{lb!r} fed to table {label!r}")
        return cache[table[ia][ib]]

    mul.associative = False
    mul.carrier = cache
    return mul


def make_rowmono_mul(entry_mul):
    """Product rule for row-monomial matrices over a given entry product.

    Row i of X*Y: if row i of X is (c, v) and row c of Y is (d, w) then row i
    of the product is (d, v*w).

    Each rule multiplies each distinct entry pair (v, w) once and remembers
    the product e, checked to be an :class:`Element`, with one row (d, e)
    per column d, shared by every pair whose product is e: the garbage
    collector tracks every tuple that holds an element.  The memo belongs
    to the returned rule and is freed with it.

    The product is built without :func:`row_monomial`, whose checks hold
    already: each column is a column of the validated operand Y, of the
    same size, and each entry passed the Element check when it entered the
    memo, which is the only way an entry gets there.  A wrong entry product
    is remembered as it is, so a product rule that is wrong on one pair
    gives the same matrices as without the memo.

    The rule is certified associative when ``entry_mul`` is at the time
    the rule is made (Rhodes and Steinberg, *The q-theory of Finite
    Semigroups*, 2009: row-monomial matrices over a monoid form a monoid).
    With row i of X at (c, u), row c of Y at (d, v) and row d of Z at
    (f, w), row i of both (XY)Z and X(YZ) sits in column f, with entries
    (uv)w and u(vw), which agree.  The memo hands back the value
    ``entry_mul`` gave for the pair, so it changes nothing here.
    """
    memo = {}  # (v, w) -> (v*w, its rows by column)
    rows_of = {}  # e -> (e, its rows by column), shared by every pair with product e

    def mul(x: Element, y: Element) -> Element:
        if x.kind != "rowmono" or y.kind != "rowmono":
            raise InconsistentProduct("row-monomial product on non-matrix elements")
        rx, ry = x.data, y.data
        n = len(rx)
        if n != len(ry):
            raise InconsistentProduct("matrix sizes differ")
        rows = []
        for c, v in rx:
            d, w = ry[c]
            hit = memo.get((v, w))
            if hit is None:
                e = entry_mul(v, w)
                if not isinstance(e, Element):
                    raise NotRowMonomial(f"entry {e!r} is not an Element")
                hit = memo[v, w] = rows_of.setdefault(e, (e, {}))
            e, by_column = hit
            row = by_column.get(d)
            if row is None:
                row = by_column[d] = (d, e)
            rows.append(row)
        rows = tuple(rows)
        return Element("rowmono", rows, ("m", n, rows))

    mul.associative = getattr(entry_mul, "associative", False)
    return mul


def make_tuple_mul(muls):
    """Componentwise product rule, certified associative when every
    component rule is at the time it is made: both bracketings of a
    triple agree in each component."""
    muls = tuple(muls)

    def mul(a: Element, b: Element) -> Element:
        if a.kind != "tuple" or b.kind != "tuple":
            raise InconsistentProduct("componentwise product on non-tuple elements")
        ca, cb = a.data, b.data
        if len(ca) != len(muls) or len(cb) != len(muls):
            raise InconsistentProduct("component counts differ")
        return tuple_element(tuple(f(x, y) for f, x, y in zip(muls, ca, cb)))

    mul.associative = all(getattr(f, "associative", False) for f in muls)
    return mul


def identity_transformation(n: int) -> Element:
    return transformation(range(n))


def identity_row_monomial(n: int, entry_identity: Element) -> Element:
    return row_monomial((i, entry_identity) for i in range(n))


def same_shape(a: Element, b: Element) -> bool:
    """True when b is structurally compatible with a (same kind and size)."""
    if a.kind != b.kind:
        return False
    if a.kind in ("transf", "rowmono", "tuple"):
        return len(a.data) == len(b.data)
    if a.kind == "table":
        return a.data[0] == b.data[0]
    return True


def short_str(e: Element) -> str:
    """Compact human-readable rendering, 1-based where points appear."""
    if e.kind == "transf":
        return "[" + " ".join(str(i + 1) for i in e.data) + "]"
    if e.kind == "table":
        return f"{e.data[0]}#{e.data[1]}"
    if e.kind == "rowmono":
        rows = ", ".join(f"{c + 1}:{short_str(v)}" for c, v in e.data)
        return "{" + rows + "}"
    if e.kind == "tuple":
        return "(" + ", ".join(short_str(c) for c in e.data) + ")"
    return repr(e.data)
