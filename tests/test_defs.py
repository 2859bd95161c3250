from pathlib import Path

import pytest

from eggbox.constructions import build_idempotent_cover
from eggbox.core import is_isomorphic
from eggbox.defs import (
    cover_as_lines,
    group_as_lines,
    load_definitions,
    parse_definitions,
    write_cover_definition,
)
from eggbox.elements import table_element
from eggbox.errors import ParseError, UnknownObject
from eggbox.green import maximal_subgroup, minimal_ideal
from eggbox.groups import builtin_group, identify

DEFS_DIR = Path(__file__).resolve().parent.parent / "definitions"


def test_all_declaration_forms():
    defs = parse_definitions(
        """
        # a comment line
        group G perm 3: (1 2), (1 2 3)
        group T table 2: 1 2; 2 1

        monoid M transf 2: [1 2], [1 1]
        monoid R rowmono 2 over T: 2 #1; 1 #2, 1 #1; 1 #1
        hom a from T to G: (1 2)
        problem P base M alpha a
        """
    )
    assert len(defs.groups["G"].elements) == 6
    assert len(defs.groups["T"].elements) == 2
    assert len(defs.monoids["M"].elements) == 2
    assert len(defs.monoids["R"].elements) > 2
    assert defs.homs["a"].is_surjective() is False
    assert defs.problems["P"]["base"] is defs.monoids["M"]


def test_hash_names_elements_not_comments():
    # '#1' in a payload is the first element, never a trailing comment
    defs = parse_definitions("group T table 1: 1\nmonoid R rowmono 2 over T: 2 #1; 1 #1")
    assert len(defs.monoids["R"].elements) == 2


def test_hash_counts_table_rows():
    # Q8 is generated from two of its rows, so it enumerates them out of
    # row order; #i still names row i
    q8 = builtin_group("Q8")
    assert [e.data[1] for e in q8.elements] != list(range(8))
    for i in range(1, 9):
        defs = parse_definitions(f"monoid R rowmono 2 over Q8: 2 #{i}; 1 #1")
        assert defs.monoids["R"].generators[0].data[0][1] == table_element("Q8", i - 1)
    # Q8 is generated by rows 2 and 3, so a hom out of it takes two images
    identity = parse_definitions("hom h from Q8 to Q8: #2, #3").homs["h"]
    assert identity.is_surjective()
    assert "2 generators" in str(parse_error("hom h from Q8 to Q8: #2, #3, #4"))
    # the identity counts first wherever its row is, then the other rows
    defs = parse_definitions("group T table 3: 2 3 1; 3 1 2; 1 2 3\n"
                             "monoid R rowmono 2 over T: 2 #1; 1 #2, 2 #3; 1 #1")
    x, y = defs.monoids["R"].generators
    assert [e.data[1] for _, e in x.data + y.data] == [2, 0, 1, 2]


def test_resolution():
    defs = parse_definitions("group T table 2: 1 2; 2 1\nhom h from T to T: #2")
    assert defs.resolve_container("T") is defs.groups["T"]
    assert len(defs.resolve_container("C4").elements) == 4  # built-in fallback
    # a hom is found only among the homs, never as a container
    assert defs.homs["h"].source is defs.groups["T"]
    with pytest.raises(UnknownObject):
        defs.resolve_container("h")
    with pytest.raises(UnknownObject):
        defs.resolve_container("no-such-group")


def parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    return exc.value


def test_parse_error_positions():
    err = parse_error("group G perm 2 (1 2)")
    assert err.line == 1 and err.column == len("group G perm 2 (1 2)") + 1
    err = parse_error("group T table 1: 1\nwidget W: 1")
    assert err.line == 2 and err.column == 1


def test_bad_declarations_raise():
    assert "unknown group form" in str(parse_error("group G cayley 2: 1 2; 2 1"))
    assert "table rows" in str(parse_error("group T table 2: 1 2"))
    assert "does not list" in str(parse_error("group T table 2: 1 2; 2 3"))
    assert "images for" in str(parse_error(
        "group G perm 2: (1 2)\nhom a from G to G: (1 2), (1 2)"))
    assert "already declared" in str(parse_error(
        "group T table 1: 1\nmonoid T transf 1: [1]"))
    assert "out of range" in str(parse_error(
        "group T table 1: 1\nmonoid R rowmono 2 over T: 3 #1; 1 #1"))
    assert "COL ENTRY" in str(parse_error(
        "group T table 1: 1\nmonoid R rowmono 2 over T: 2; 1 #1"))
    assert "element index" in str(parse_error(
        "group T table 1: 1\nmonoid R rowmono 2 over T: 2 #9; 1 #1"))
    assert "not declared" in str(parse_error(
        "monoid M transf 2: [1 2], [1 1]\nproblem P base M alpha nope"))
    assert "not an element" in str(parse_error(
        "group G perm 3: (1 2 3)\nhom a from G to G: (1 2)"))


def test_group_round_trip():
    c4 = builtin_group("C4")
    name, lines = group_as_lines(c4)
    defs = parse_definitions("\n".join(lines))
    assert is_isomorphic(defs.groups[name], c4) is not None


def test_cover_round_trip(tmp_path):
    c = build_idempotent_cover(builtin_group("C2"), 3)
    mname, lines = cover_as_lines(c)
    defs = parse_definitions("\n".join(lines))
    reloaded = defs.monoids[mname]
    assert len(reloaded.elements) == len(c.monoid.elements) == 21
    ideal = minimal_ideal(reloaded)
    sub = maximal_subgroup(reloaded, ideal.idempotents[0], ideal=ideal)
    assert identify(sub) == "C2"

    path = tmp_path / "cover.defs"
    assert write_cover_definition(c, str(path)) == mname
    again = load_definitions(str(path))
    assert len(again.monoids[mname].elements) == 21


def test_cover_round_trip_keeps_every_element():
    # G lists a generator the others generate; the table written for it is
    # enumerated from fewer generators on reload, in another order, and
    # the reloaded cover is still the same set of matrices once each entry,
    # row r of the written table, is read as element r of G
    g = parse_definitions("group G perm 3: (1 2), (1 3), (2 3)").groups["G"]
    c = build_idempotent_cover(g, 11)
    mname, lines = cover_as_lines(c)
    defs = parse_definitions("\n".join(lines))
    (written,) = defs.groups.values()
    assert [e.data[1] for e in written.elements] != list(range(6))
    reloaded = defs.monoids[mname]
    assert len(reloaded.elements) == len(c.monoid.elements) == 737
    def back(b):
        return tuple((col, g.elements[e.data[1]]) for col, e in b.data)
    assert [back(b) for b in reloaded.generators] == [a.data for a in c.monoid.generators]
    assert {back(b) for b in reloaded.elements} == {a.data for a in c.monoid.elements}


def test_shipped_definition_files():
    covers = load_definitions(str(DEFS_DIR / "covers.defs"))
    assert set(covers.groups) == {"T", "C2", "C3", "C4", "V4", "S3"}
    e1 = load_definitions(str(DEFS_DIR / "unit-zero.defs"))
    assert "E1" in e1.problems
    e23 = load_definitions(str(DEFS_DIR / "doubled-swap.defs"))
    assert {"E2", "E3"} <= set(e23.problems)
    assert e23.homs["a"].is_surjective()
    cover_base = load_definitions(str(DEFS_DIR / "cover-base.defs"))
    assert len(cover_base.problems["P"]["base"].elements) == 21
