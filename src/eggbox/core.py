"""Finite monoids, groups, homomorphisms, and sections.

A :class:`FiniteMonoid` is a fully enumerated monoid: a tuple of elements
with the identity first, a product function, a distinguished generator list,
and for every element a witness word over the generators.  A
:class:`FiniteGroup` is a finite monoid whose elements are all units: it
is passed wherever a monoid is expected and adds its Cayley table, which
every group computation reads instead of multiplying elements.

Monoids come from Froidure and Pin's walk, :func:`generate_monoid`: it
keeps both Cayley graphs, x -> x·a and x -> a·x, and multiplies only the
right edges that shorter words do not give.  Other generated sets
(subgroups, normal closures, idempotent spans) come from the
breadth-first walk :func:`closure`, and :func:`along_words` extends a
value along witness words.

Both monoid builders validate what they return, exactly and at every
size.  A product rule certified associative (see :mod:`eggbox.elements`)
needs its identity checked on the seeds only; any other rule gets the full
identity check and Light's associativity test on all of M.

Element order is deterministic: breadth-first level, then canonical key
within a level.  Nothing downstream iterates over raw sets, so all derived
data (Green's classes, coordinates, reports) is reproducible bit for bit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Optional

from .elements import (
    Element,
    identity_transformation,
    make_tuple_mul,
    same_shape,
    tuple_element,
)
from .errors import (
    CapExceeded,
    InconsistentProduct,
    NotSurjective,
    NotWellDefined,
)

DEFAULT_CAP = 500_000


class FiniteMonoid:
    """A fully enumerated finite monoid with generator witness words.

    ``right[i][t]`` is the index of x·a for the i-th element x and the t-th
    generator a: the right Cayley graph; ``left[i][t]``, that of a·x, is
    the left one.  :func:`generate_monoid` hands in both graphs and the
    index of its enumeration, with the product associative on M; a monoid
    built without them multiplies the right graph out here and Green's
    classification (:func:`~eggbox.green.green_structure`) multiplies the
    left one out into ``left``.
    """

    __slots__ = (
        "name",
        "elements",
        "mul",
        "identity",
        "generators",
        "index",
        "words",
        "right",
        "left",
        "_green",
        "_ideal",
    )

    def __init__(self, name, elements, mul, identity, generators, words, right=None, left=None, index=None):
        self.name = name
        self.elements = tuple(elements)
        self.mul = mul
        self.identity = identity
        self.generators = tuple(generators)
        self.index = index = index or {x: i for i, x in enumerate(self.elements)}
        self.words = words
        if right is None:
            right = [[index[mul(x, a)] for a in self.generators] for x in self.elements]
        self.right = right
        self.left = left
        self._green = None
        self._ideal = None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteMonoid({self.name!r}, {len(self.elements)} elements)"

    def __contains__(self, x):
        return x in self.index

    def times(self, i: int, j: int) -> int:
        """Index of x·y for the i-th element x and the j-th y, by associativity
        y's witness word walked from x along ``right``: |w_y| lookups."""
        right = self.right
        for t in self.words[self.elements[j]]:
            i = right[i][t]
        return i

    def eval_word(self, word) -> Element:
        """Fold a tuple of generator indices into an element."""
        acc = self.identity
        for gi in word:
            acc = self.mul(acc, self.generators[gi])
        return acc


def _check_identity(mul, identity, elements):
    for x in elements:
        if mul(identity, x) != x or mul(x, identity) != x:
            raise InconsistentProduct(f"identity is not neutral on {x!r}")


def _check_light(mul, elements, index, right):
    """Exact check that ``mul`` is associative on a closure with the
    identity first: the full identity check and Light's test.

    Tabulates all |M|² products by index, then checks that the identity is
    neutral and that (x·a)·y = x·(a·y) for every x, y in M and every
    generator a, with x·a read off ``right`` (Light's test, Clifford and
    Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2).  That
    suffices: every z in M is reached from the identity 1 as z = z′·a, so
    if (x·z′)·y = x·(z′·y) for all x, y, then
    (x·z)·y = ((x·z′)·a)·y = (x·z′)·(a·y) = x·(z′·(a·y)) = x·((z′·a)·y) = x·(z·y),
    using the case of z′ with y = a and with y = a·y, and Light's test
    twice; the induction starts from z = 1, which is neutral.

    The column y = 1 compares each edge x·a of ``right`` with the product
    x·a itself, so it also validates the edges :func:`generate_monoid`
    deduced by associativity rather than multiplied.
    """
    n = len(elements)
    try:
        table = [tuple([index[mul(x, y)] for y in elements]) for x in elements]
    except KeyError:
        raise InconsistentProduct("a product leaves the closure of the generators") from None
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise InconsistentProduct(f"identity is not neutral on {elements[i]!r}")
    # row 0 of ``right`` lists the generators' indices, since 1·a = a; a
    # generator listed twice is tested once
    for a, t in {a: t for t, a in enumerate(right[0])}.items():
        ta = table[a]
        for i, ti in enumerate(table):
            # (x·a)·y against x·(a·y) for every y at once
            xa_y = table[right[i][t]]
            if xa_y != tuple(map(ti.__getitem__, ta)):
                j = next(j for j in range(n) if xa_y[j] != ti[ta[j]])
                raise InconsistentProduct(
                    f"associativity fails on ({elements[i]!r}, {elements[a]!r}, {elements[j]!r})")


def closure(start, gens, step, cap: int = DEFAULT_CAP, key=attrgetter("key")):
    """Breadth-first closure of ``start`` under x -> step(x, g), g in ``gens``.

    Returns ``(levels, words)``.  ``levels[0]`` holds the distinct start
    elements and ``levels[k]`` those first reached in k steps, each level
    sorted by ``key`` (the canonical key of an :class:`Element`; callers
    that walk element indices pass ``None`` to sort them by value), so the
    levels do not depend on the order of ``gens``.  ``words[x]`` is the
    tuple of generator indices along which x was first reached, () for a
    start element; it doubles as the membership test.  Raises
    :class:`CapExceeded` once a level takes the count past ``cap``.
    """
    words = {}
    level = []
    for x in start:
        if x not in words:
            words[x] = ()
            level.append(x)
    gens = list(gens)
    count = 0
    levels = []
    while level:
        count += len(level)
        if count > cap:
            raise CapExceeded(cap, count)
        level.sort(key=key)
        levels.append(level)
        fresh = []
        for x in level:
            wx = words[x]
            for gi, g in enumerate(gens):
                y = step(x, g)
                if y not in words:
                    words[y] = wx + (gi,)
                    fresh.append(y)
        level = fresh
    return levels, words


def along_words(m: FiniteMonoid, start, step) -> list:
    """The value f(x) of every element x, by element index, with f(1) =
    ``start`` and f(x′·a) = step(f(x′), t) for x′·a x's witness word and a
    the t-th generator.

    One step per element: breadth-first order puts the prefix x′ of each
    witness word before x.
    """
    at_word = {}
    values = []
    for i, x in enumerate(m.elements):
        word = m.words[x]
        at_word[word] = i
        values.append(step(values[at_word[word[:-1]]], word[-1]) if word else start)
    return values


def generate_monoid(
    seeds,
    product_rule: Callable[[Element, Element], Element],
    cap: int = DEFAULT_CAP,
    identity: Optional[Element] = None,
    name: Optional[str] = None,
) -> FiniteMonoid:
    """Closure of ``seeds`` under ``product_rule``, with both Cayley graphs.

    Returns the smallest product-closed set containing the seeds and the
    identity, as a :class:`FiniteMonoid` whose element order is breadth-first
    by word length with ties broken by canonical key.  The witness word
    recorded for each element is its first discovery, scanning each level
    in order, element by element and generator by generator.

    The walk is Froidure and Pin's ("Algorithms for computing finite
    semigroups", 1997), level by level on element indices.  Each x = p·b
    keeps its first letter f and suffix s, x = f·s, with suffix(p·b) =
    suffix(p)·b.  When r = s·a lies on an earlier level than x, the right
    edge x·a = f·r is a left edge of r; otherwise it costs a product, the
    only kind that can find a new element.  A level's left edges then
    follow with no product, a·x = (a·p)·b.  The cost is one product per
    right edge not so deduced: about |M| for a wreath or a cover.

    The identity is inferred for transformation seeds and must be supplied
    for the other element kinds.  Raises :class:`CapExceeded` when the
    closure grows past ``cap`` and :class:`InconsistentProduct` when the
    product rule yields a value of the wrong shape, the identity fails to
    fix a seed, or the product is not associative.

    Every element is reached from the identity 1 as x = x′·a for a seed a.
    A rule certified associative (its ``associative`` attribute, see
    :mod:`eggbox.elements`) therefore needs only 1·1 = 1 and 1·a = a = a·1
    for the seeds: then 1·x = (1·x′)·a = x′·a = x and x·1 = x′·(a·1) = x
    along witness words.  Any other rule gets the identity checked on every
    element and Light's test on all of M (:func:`_check_light`), at |M|²
    products, which also checks every deduced edge; a table rule whose
    whole table the closure covers is then certified for later closures.
    """
    seeds = list(seeds)
    if identity is None:
        if seeds and seeds[0].kind == "transf":
            identity = identity_transformation(len(seeds[0].data))
        else:
            raise InconsistentProduct("identity element required for these seeds")
    for s in seeds:
        if not same_shape(identity, s):
            raise InconsistentProduct(f"seed {s!r} has the wrong shape")
    # with 1 neutral on the seeds, each seed is its own product 1·a, so its
    # word is (gi,) for its first gi
    _check_identity(product_rule, identity, [identity] + seeds)

    elements, index, words, right, left = [], {}, {}, [], []
    origin = []  # (p, b, f, s) for x = p·b = f·s, with first letter f and suffix s
    fresh, pending = {identity: None}, []  # the next level, each found as (p, b, s)
    start = end = 0  # the level walked is elements[start:end]
    while True:
        count = end + len(fresh)
        if count > cap:
            raise CapExceeded(cap, count)
        for y in sorted(fresh, key=attrgetter("key")):
            p, b, s = fresh[y] or (None, None, None)
            words[y] = () if p is None else words[elements[p]] + (b,)
            origin.append((p, b, origin[p][2] if p else b, s))
            index[y] = len(elements)
            elements.append(y)
        for row, t, y in pending:
            row[t] = index[y]
        # a·1 = 1·a, and a·x = (a·p)·b
        for x in range(start, end):
            p, b = origin[x][:2]
            left.append([right[q][b] for q in left[p]] if x else right[0])
        if not fresh:
            break
        start, end = end, count
        fresh, pending = {}, []
        for x in range(start, end):
            f, s = origin[x][2:]
            row = []
            for t, a in enumerate(seeds):
                r = right[s][t] if x else 0
                if r < start:  # x·a = f·(s·a), a left edge of an earlier level
                    row.append(left[r][f])
                    continue
                y = product_rule(elements[x], a)
                if not isinstance(y, Element) or not same_shape(identity, y):
                    raise InconsistentProduct(f"product of {elements[x]!r} and {a!r} is {y!r}")
                j = index.get(y)
                if j is None:
                    fresh.setdefault(y, (x, t, r))
                    pending.append((row, t, y))
                row.append(j)
            right.append(row)
    if not getattr(product_rule, "associative", False):
        _check_light(product_rule, elements, index, right)
        carrier = getattr(product_rule, "carrier", None)
        if carrier is not None and all(x in index for x in carrier):
            product_rule.associative = True
    return FiniteMonoid(name or "monoid", elements, product_rule, identity, seeds, words, right, left, index)


def omega_power(m: FiniteMonoid, x: Element) -> Element:
    """The unique idempotent positive power of ``x``, by word walks."""
    p = i = m.index[x]
    for _ in range(len(m.elements) + 1):
        if m.times(p, p) == p:
            return m.elements[p]
        p = m.times(p, i)
    raise InconsistentProduct(f"no idempotent power of {x!r} found")


class FiniteGroup(FiniteMonoid):
    """A :class:`FiniteMonoid` whose elements are all units.  It shares every
    field of the monoid it is made from and adds its Cayley table:
    ``table[i][j]`` is the index of x·y for the i-th element x and the j-th
    y, with the identity at index 0; inverses and orders are read off it."""

    __slots__ = ("table", "_inverse", "_orders")

    def __init__(self, monoid: FiniteMonoid, table, inverse):
        for slot in FiniteMonoid.__slots__:
            setattr(self, slot, getattr(monoid, slot))
        self.table = table
        self._inverse = inverse
        self._orders = _element_orders(table)

    @classmethod
    def from_monoid(cls, m: FiniteMonoid) -> "FiniteGroup":
        """The group on a monoid whose elements are all units, at |M|²
        lookups and no product.  Column y of the table, x·y for every x,
        follows from the column of y's word prefix along the right Cayley
        graph (:func:`along_words`), since y = y′·a gives x·y = (x·y′)·a:
        associativity, which :func:`generate_monoid` established."""
        right = m.right
        columns = along_words(m, list(range(len(m))), lambda column, a: [right[t][a] for t in column])
        table = list(zip(*columns))
        inverse = [column.index(0) if 0 in column else None for column in columns]
        for j, i in enumerate(inverse):
            if i is None or table[j][i] != 0:
                raise InconsistentProduct(f"{m.elements[j]!r} has no two-sided inverse")
        return cls(m, table, inverse)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order {len(self)})"

    def inverse(self, x: Element) -> Element:
        return self.elements[self._inverse[self.index[x]]]

    def order_of(self, x: Element) -> int:
        return self._orders[self.index[x]]

    def order_profile(self):
        """Sorted tuple of element orders, an isomorphism invariant."""
        return tuple(sorted(self._orders))


def _element_orders(table) -> list:
    """The order of every element of a group table, identity at index 0."""
    orders = []
    for x, row in enumerate(table):
        k, p = 1, x
        while p:
            p = table[p][x]
            k += 1
        orders.append(k)
    return orders


def underlying(obj) -> FiniteMonoid:
    """The monoid of ``obj``, which is ``obj`` itself: a group is a monoid."""
    return obj


class MonoidHom:
    """A homomorphism stored as a total element map, validated on every
    edge of the source unless the caller has proved it (``check=False``)."""

    __slots__ = ("source", "target", "map", "_image")

    def __init__(self, source, target, mapping: dict, check: bool = True):
        self.source = source
        self.target = target
        self.map = mapping
        self._image = None
        if check:
            self._validate()

    def _validate(self):
        src = self.source
        tgt = self.target
        for x in src.elements:
            y = self.map.get(x)
            if y is None:
                raise NotWellDefined(f"no image recorded for {x!r}")
            if y not in tgt.index:
                raise NotWellDefined(f"image of {x!r} is outside the target")
        if self.map[src.identity] != tgt.identity:
            raise NotWellDefined("identity does not map to identity")
        # f(x·g) = f(x)·f(g) for every generator g gives f(x·y) = f(x)·f(y)
        # by induction along y's witness word: |M|·|A| pairs, at every size,
        # with x·g read off the source's right Cayley graph
        els = src.elements
        for x, row in zip(els, src.right):
            fx = self.map[x]
            for g, xg in zip(src.generators, row):
                if self.map[els[xg]] != tgt.mul(fx, self.map[g]):
                    raise NotWellDefined(f"map breaks on the pair ({x!r}, {g!r})")

    @classmethod
    def from_generator_images(cls, source, target, images):
        """Extend generator images along witness words, then validate.

        The extension takes one target product per element past the
        identity (:func:`along_words`), the validation one per edge of the
        source's right Cayley graph.  A generator's word fixes its image,
        so a generator listed twice with two images raises
        :class:`NotWellDefined`, as does any map that :meth:`_validate`
        rejects.
        """
        images = list(images)
        if len(images) != len(source.generators):
            raise NotWellDefined(
                f"{len(images)} images for {len(source.generators)} generators"
            )
        for y in images:
            if y not in target.index:
                raise NotWellDefined(f"generator image {y!r} is outside the target")
        tmul = target.mul
        values = along_words(source, target.identity, lambda acc, t: tmul(acc, images[t]))
        mapping = dict(zip(source.elements, values))
        for t, (g, y) in enumerate(zip(source.generators, images)):
            if mapping[g] != y:
                raise NotWellDefined(f"generator {t} is given the image {y!r}, "
                                     f"its word the image {mapping[g]!r}")
        return cls(source, target, mapping)

    def __call__(self, x: Element) -> Element:
        return self.map[x]

    def __repr__(self):
        return f"MonoidHom({self.source.name!r} -> {self.target.name!r})"

    def image_elements(self):
        """Distinct image elements in target order."""
        if self._image is None:
            seen = set(self.map.values())
            self._image = tuple(x for x in self.target.elements if x in seen)
        return self._image

    def is_surjective(self) -> bool:
        return len(self.image_elements()) == len(self.target.elements)

    def then(self, other: "MonoidHom") -> "MonoidHom":
        """Composite map: first self, then other."""
        mapping = {x: other.map[y] for x, y in self.map.items()}
        return MonoidHom(self.source, other.target, mapping, check=False)

    def kernel(self):
        """Preimage of the target identity, as a frozenset."""
        one = self.target.identity
        return frozenset(x for x, y in self.map.items() if y == one)


def canonical_section(alpha: MonoidHom) -> dict:
    """Deterministic section of a surjective homomorphism, as a map from
    the target's elements, in target order, to their chosen preimages.

    The identity lifts to the identity; every other element lifts to its
    preimage least in the source element order.
    """
    if not alpha.is_surjective():
        raise NotSurjective("cannot take a section of a non-surjective map")
    mapping = {}
    for h in alpha.source.elements:
        k = alpha.map[h]
        if k not in mapping:
            mapping[k] = h
    if mapping[alpha.target.identity] != alpha.source.identity:
        raise NotWellDefined("identity is not the first preimage of the identity")
    for k, h in mapping.items():
        if alpha.map[h] != k:
            raise NotWellDefined("section disagrees with the map")
    return {k: mapping[k] for k in alpha.target.elements}


def greedy_generators(table, identity: int = 0) -> list:
    """A generating set of a finite monoid given by its table of indices:
    in index order, each element that the ones before it do not generate."""
    gens = []
    reached = {identity}
    for x in range(len(table)):
        if x not in reached:
            gens.append(x)
            reached = closure([identity], gens, lambda y, g: table[y][g], key=None)[1]
    return gens


def table_isomorphism(t1, t2) -> Optional[list]:
    """An isomorphism between two group tables with the identity at index
    0, as the list of images of t1's indices, or None.  Exhaustive
    backtracking over the images, of equal order, of t1's
    :func:`greedy_generators`; a map :func:`_close_with_map` completes to
    all of t1 is an isomorphism, as it checks f(x·g) = f(x)·f(g) on every
    x and g."""
    if len(t1) != len(t2):
        return None
    o1, o2 = _element_orders(t1), _element_orders(t2)
    if sorted(o1) != sorted(o2):
        return None

    gens = greedy_generators(t1)
    by_order = {}
    for y, k in enumerate(o2):
        by_order.setdefault(k, []).append(y)

    def dfs(chosen):
        f = _close_with_map(t1, t2, list(zip(gens, chosen)))
        if f is None:
            return None
        if len(chosen) == len(gens):
            return f if None not in f else None
        for y in by_order.get(o1[gens[len(chosen)]], ()):
            result = dfs(chosen + [y])
            if result is not None:
                return result
        return None

    return dfs([])


def _close_with_map(t1, t2, gen_images):
    """Close the partial assignment, as a list with None for the elements
    it does not reach; None when it breaks injectivity or
    well-definedness on some (element, generator) pair."""
    f = [None] * len(t1)
    f[0] = 0
    used = {0}
    elems = [0]
    for x in elems:
        fx = f[x]
        for g, y in gen_images:
            xg = t1[x][g]
            fxy = t2[fx][y]
            cur = f[xg]
            if cur is None:
                if fxy in used:
                    return None
                f[xg] = fxy
                used.add(fxy)
                elems.append(xg)
            elif cur != fxy:
                return None
    return f


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Optional[MonoidHom]:
    """Search for an isomorphism; returns a verified MonoidHom or None.

    The search runs on the two Cayley tables (:func:`table_isomorphism`)
    at any group size; the map it finds is validated again with element
    products as a :class:`MonoidHom`.
    """
    f = table_isomorphism(g1.table, g2.table)
    if f is None:
        return None
    return MonoidHom(g1, g2, {x: g2.elements[j] for x, j in zip(g1.elements, f)})


def product_group(groups, name: Optional[str] = None) -> FiniteGroup:
    """Direct product with componentwise tuple elements."""
    groups = list(groups)
    muls = make_tuple_mul(tuple(g.mul for g in groups))
    ident = tuple_element(tuple(g.identity for g in groups))
    seeds = []
    for i, g in enumerate(groups):
        for gen in g.generators:
            parts = [h.identity for h in groups]
            parts[i] = gen
            seeds.append(tuple_element(parts))
    label = name or "x".join(g.name for g in groups)
    pm = generate_monoid(seeds, muls, identity=ident, name=label)
    return FiniteGroup.from_monoid(pm)


def direct_power(g: FiniteGroup, k: int, name=None) -> FiniteGroup:
    if k == 0:
        ident = tuple_element(())
        pm = generate_monoid([], make_tuple_mul(()), identity=ident, name=name or "1")
        return FiniteGroup.from_monoid(pm)
    return product_group([g] * k, name=name or f"{g.name}^{k}")


class SubSemigroup:
    """A product-closed subset of an ambient monoid, with the generators it
    was closed from (all of its elements when none are given) and its
    idempotents, found on first use.  Closure is the caller's to vouch for:
    every caller hands in an ideal or a closure result.  ``right``, if the
    closure kept it, maps the index in M of each element x to those of x·a
    for its generators a."""

    __slots__ = ("monoid", "elements", "member", "generators", "right", "_idempotents")

    def __init__(self, monoid: FiniteMonoid, elements, generators=None, right=None):
        self.monoid = monoid
        order = monoid.index
        self.elements = tuple(sorted(set(elements), key=lambda x: order[x]))
        self.member = frozenset(self.elements)
        self.generators = self.elements if generators is None else tuple(generators)
        self.right = right
        self._idempotents = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.member

    def __repr__(self):
        return f"SubSemigroup({len(self.elements)} of {self.monoid.name!r})"

    @property
    def idempotents(self) -> tuple:
        if self._idempotents is None:
            m, at = self.monoid, self.monoid.index
            self._idempotents = tuple(x for x in self.elements if m.times(at[x], at[x]) == at[x])
        return self._idempotents
