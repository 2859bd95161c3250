"""Line-oriented definition files for groups, monoids, homs and problems.

One declaration per line, a line starting with ``#`` is a comment (inline
comments are not supported since ``#i`` names the i-th element), indices
are 1-based:

    group NAME perm K: (1 2)(3 4), (1 3)
    group NAME table K: 1 2; 2 1
    monoid NAME transf K: [2 1 3], [1 1 1]
    monoid NAME rowmono K over GNAME: 2 #1; 1 #3, 1 #2; 1 #1
    hom NAME from A to B: #2, (1 2)
    problem NAME base MNAME alpha HOMNAME

Generators are comma-separated; matrix and table rows are semicolon-
separated within a generator; element expressions are ``#i`` (the i-th
element of the object, see :func:`_numbered`), cycle notation for
permutations, or ``[..]`` transformation images; a hom lists one image per
generator of its source.  Names declared earlier in the file and built-in
group names are both usable wherever an object is referenced.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import FiniteGroup, MonoidHom, generate_monoid
from .elements import (
    Element,
    compose_transformations,
    identity_row_monomial,
    make_rowmono_mul,
    row_monomial,
    transformation,
)
from .errors import ParseError, UnknownObject
from .groups import builtin_group, group_from_table

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class Definitions:
    """Objects declared by one definition file, in declaration order."""

    __slots__ = ("groups", "monoids", "homs", "problems")

    def __init__(self):
        self.groups = {}
        self.monoids = {}
        self.homs = {}
        self.problems = {}

    def resolve_container(self, name: str):
        """A declared group or monoid, else a built-in group; never a hom."""
        for table in (self.groups, self.monoids):
            if name in table:
                return table[name]
        return builtin_group(name)


def _fail(lineno: int, col: int, message: str):
    raise ParseError(lineno, col, message)


def _resolve(defs: Definitions, name: str, lineno: int):
    try:
        return defs.resolve_container(name)
    except UnknownObject as ex:
        _fail(lineno, 1, str(ex))


def _parse_cycles(text: str, degree: int, lineno: int, col: int) -> Element:
    """Permutation from cycle notation like (1 2 3)(4 5); fixed points omitted."""
    images = list(range(degree))
    body = text.strip()
    if body == "()":
        return transformation(images)
    pos = 0
    seen_any = False
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        if body[pos] != "(":
            _fail(lineno, col + pos, f"expected '(' in cycle notation, found {body[pos]!r}")
        end = body.find(")", pos)
        if end < 0:
            _fail(lineno, col + pos, "unclosed cycle")
        inner = body[pos + 1:end].replace(",", " ").split()
        try:
            cycle = [int(t) for t in inner]
        except ValueError:
            _fail(lineno, col + pos, f"non-integer point in cycle {body[pos:end + 1]!r}")
        if any(not 1 <= t <= degree for t in cycle):
            _fail(lineno, col + pos, f"cycle point out of range 1..{degree}")
        if len(set(cycle)) != len(cycle):
            _fail(lineno, col + pos, "repeated point in a cycle")
        for i, t in enumerate(cycle):
            images[t - 1] = cycle[(i + 1) % len(cycle)] - 1
        pos = end + 1
        seen_any = True
    if not seen_any:
        _fail(lineno, col, "empty cycle notation")
    return transformation(images)


def _parse_images(text: str, lineno: int, col: int, degree: Optional[int] = None) -> Element:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        _fail(lineno, col, f"expected [images], found {body!r}")
    try:
        images = [int(t) for t in body[1:-1].replace(",", " ").split()]
    except ValueError:
        _fail(lineno, col, f"non-integer image in {body!r}")
    if degree is not None and len(images) != degree:
        _fail(lineno, col, f"{len(images)} images for degree {degree}")
    if any(not 1 <= t <= len(images) for t in images):
        _fail(lineno, col, f"image out of range 1..{len(images)} in {body!r}")
    return transformation(t - 1 for t in images)


def _int(text: str, lineno: int, col: int, message: str) -> int:
    """``int(text)``, or a parse error with ``message``."""
    try:
        return int(text)
    except ValueError:
        _fail(lineno, col, message)


def _numbered(m) -> list:
    """``m``'s elements as ``#i`` counts them: a table group's identity and
    then its other rows in table order, else in enumeration order."""
    if m.identity.kind != "table":
        return m.elements
    return sorted(m.elements, key=lambda e: (e != m.identity, e.data[1]))


def _element_expr(text: str, m, lineno: int, col: int) -> Element:
    """Resolve ``#i``, cycle notation or [images] inside the monoid ``m``."""
    body = text.strip()
    if not body:
        _fail(lineno, col, "empty element expression")
    if body.startswith("#"):
        i = _int(body[1:], lineno, col, f"bad element index {body!r}")
        if not 1 <= i <= len(m.elements):
            _fail(lineno, col, f"element index {i} out of range 1..{len(m.elements)}")
        return _numbered(m)[i - 1]
    if body.startswith("("):
        degree = len(m.identity.data) if m.identity.kind == "transf" else 0
        if degree == 0:
            _fail(lineno, col, f"cycle notation needs a permutation object, {m.name} is not one")
        el = _parse_cycles(body, degree, lineno, col)
    elif body.startswith("["):
        el = _parse_images(body, lineno, col)
    else:
        _fail(lineno, col, f"unrecognized element expression {body!r}")
    if el not in m.index:
        _fail(lineno, col, f"{body!r} is not an element of {m.name}")
    return el


def _split_top(payload: str):
    """Comma-separated chunks with their 0-based offsets in payload."""
    out = []
    start = 0
    for i, ch in enumerate(payload):
        if ch == ",":
            out.append((payload[start:i], start))
            start = i + 1
    out.append((payload[start:], start))
    return out


def _head_and_payload(line: str, lineno: int):
    if ":" not in line:
        _fail(lineno, len(line) + 1, "missing ':' in declaration")
    head, payload = line.split(":", 1)
    return head.split(), payload, line.index(":") + 2


def _declare(defs: Definitions, kind: str, name: str, obj, lineno: int):
    if not NAME_RE.match(name):
        _fail(lineno, 1, f"bad name {name!r}")
    for table in (defs.groups, defs.monoids, defs.homs, defs.problems):
        if name in table:
            _fail(lineno, 1, f"{name!r} is already declared")
    getattr(defs, kind)[name] = obj


def parse_definitions(text: str) -> Definitions:
    defs = Definitions()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # whole-line comments only: '#' also prefixes element indices
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        line = raw.rstrip()
        words = line.split()
        kind = words[0]
        if kind == "group":
            _parse_group(defs, line, lineno)
        elif kind == "monoid":
            _parse_monoid(defs, line, lineno)
        elif kind == "hom":
            _parse_hom(defs, line, lineno)
        elif kind == "problem":
            _parse_problem(defs, line, lineno)
        else:
            _fail(lineno, 1, f"unknown declaration {kind!r}")
    return defs


def load_definitions(path: str) -> Definitions:
    """The definitions in a file; a :class:`ParseError` names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_definitions(fh.read())
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _parse_group(defs: Definitions, line: str, lineno: int):
    head, payload, pcol = _head_and_payload(line, lineno)
    if len(head) != 4:
        _fail(lineno, 1, "group declarations read: group NAME perm|table K: ...")
    _, name, form, knum = head
    k = _int(knum, lineno, 1, f"bad size {knum!r}")
    if form == "perm":
        if k < 1:
            _fail(lineno, 1, "perm degree must be at least 1")
        gens = []
        for chunk, off in _split_top(payload):
            gens.append(_parse_cycles(chunk, k, lineno, pcol + off))
        monoid = generate_monoid(gens, compose_transformations,
                                 identity=transformation(range(k)), name=name)
        group = FiniteGroup.from_monoid(monoid)
    elif form == "table":
        rows = payload.split(";")
        if len(rows) != k:
            _fail(lineno, pcol, f"{len(rows)} table rows for size {k}")
        table = []
        for row in rows:
            try:
                entries = [int(t) - 1 for t in row.split()]
            except ValueError:
                _fail(lineno, pcol, f"non-integer table entry in {row.strip()!r}")
            if len(entries) != k or any(not 0 <= e < k for e in entries):
                _fail(lineno, pcol, f"table row {row.strip()!r} does not list 1..{k}")
            table.append(entries)
        group = group_from_table(name, table)
    else:
        _fail(lineno, 1, f"unknown group form {form!r}")
    _declare(defs, "groups", name, group, lineno)


def _parse_monoid(defs: Definitions, line: str, lineno: int):
    head, payload, pcol = _head_and_payload(line, lineno)
    if len(head) == 4 and head[2] == "transf":
        _, name, _, knum = head
        k = _int(knum, lineno, 1, f"bad degree {knum!r}")
        gens = []
        for chunk, off in _split_top(payload):
            gens.append(_parse_images(chunk, lineno, pcol + off, degree=k))
        monoid = generate_monoid(gens, compose_transformations,
                                 identity=transformation(range(k)), name=name)
        _declare(defs, "monoids", name, monoid, lineno)
        return
    if len(head) == 6 and head[2] == "rowmono" and head[4] == "over":
        _, name, _, knum, _, gname = head
        k = _int(knum, lineno, 1, f"bad size {knum!r}")
        entry = _resolve(defs, gname, lineno)
        gens = []
        for chunk, off in _split_top(payload):
            rows = chunk.split(";")
            if len(rows) != k:
                _fail(lineno, pcol + off, f"{len(rows)} matrix rows for size {k}")
            built = []
            for row in rows:
                parts = row.strip().split(None, 1)
                if len(parts) != 2:
                    _fail(lineno, pcol + off, f"matrix row {row.strip()!r} is not 'COL ENTRY'")
                col = _int(parts[0], lineno, pcol + off, f"bad column {parts[0]!r}")
                if not 1 <= col <= k:
                    _fail(lineno, pcol + off, f"column {col} out of range 1..{k}")
                built.append((col - 1, _element_expr(parts[1], entry, lineno, pcol + off)))
            gens.append(row_monomial(built))
        mul = make_rowmono_mul(entry.mul)
        monoid = generate_monoid(gens, mul, identity=identity_row_monomial(k, entry.identity),
                                 name=name)
        _declare(defs, "monoids", name, monoid, lineno)
        return
    _fail(lineno, 1, "monoid declarations read: monoid NAME transf K: ... "
                     "or monoid NAME rowmono K over GNAME: ...")


def _parse_hom(defs: Definitions, line: str, lineno: int):
    head, payload, pcol = _head_and_payload(line, lineno)
    if len(head) != 6 or head[2] != "from" or head[4] != "to":
        _fail(lineno, 1, "hom declarations read: hom NAME from A to B: images")
    _, name, _, aname, _, bname = head
    source = _resolve(defs, aname, lineno)
    target = _resolve(defs, bname, lineno)
    images = []
    for chunk, off in _split_top(payload):
        images.append(_element_expr(chunk, target, lineno, pcol + off))
    if len(images) != len(source.generators):
        _fail(lineno, pcol,
              f"{len(images)} images for {len(source.generators)} generators of {source.name}")
    hom = MonoidHom.from_generator_images(source, target, images)
    _declare(defs, "homs", name, hom, lineno)


def _parse_problem(defs: Definitions, line: str, lineno: int):
    words = line.split()
    if len(words) != 6 or words[2] != "base" or words[4] != "alpha":
        _fail(lineno, 1, "problem declarations read: problem NAME base MNAME alpha HOMNAME")
    _, name, _, mname, _, hname = words
    base = _resolve(defs, mname, lineno)
    if hname not in defs.homs:
        _fail(lineno, 1, f"hom {hname!r} is not declared")
    _declare(defs, "problems", name, {"base": base, "alpha": defs.homs[hname]}, lineno)


# ---------------------------------------------------------------------------
# writing


def _sanitize(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")
    if not out or not NAME_RE.match(out):
        out = "obj"
    return out


def group_as_lines(g):
    """Declaration lines for a group, as a table whose row i is ``#i``."""
    name = _sanitize(g.name)
    order = [g.index[e] for e in _numbered(g)]
    row = {x: r + 1 for r, x in enumerate(order)}
    rows = [" ".join(str(row[g.table[x][y]]) for y in order) for x in order]
    return name, [f"group {name} table {len(rows)}: " + "; ".join(rows)]


def cover_as_lines(c):
    """Declaration lines for a cover's generators over its entry group."""
    gname, lines = group_as_lines(c.group)
    number = {e: i + 1 for i, e in enumerate(_numbered(c.group))}
    def fmt(mat):
        return "; ".join(f"{col + 1} #{number[v]}" for col, v in mat.data)
    mname = _sanitize(f"cover_{c.group.name}_{c.n}")
    lines.append(
        f"monoid {mname} rowmono {c.n} over {gname}: {fmt(c.x)}, {fmt(c.y)}")
    return mname, lines


def write_cover_definition(c, path: str) -> str:
    """Write a reloadable definition of the cover; returns the monoid name."""
    mname, lines = cover_as_lines(c)
    header = [
        f"# idempotent cover of {c.group.name} with modulus {c.n}",
        f"# reload and analyze to reproduce the construction",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header + lines) + "\n")
    return mname
