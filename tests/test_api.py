import ast
import os
import subprocess
import sys
from pathlib import Path

import eggbox
from eggbox.constructions import CoverResult, EmbeddingSolution, PreparedBase

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_has_a_caller():
    # a name exported from eggbox must be used by the library, a demo or the
    # benchmark; a definition or a re-export in __init__.py is no use
    used = set()
    for folder in ("src", "demos", "benchmark"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(name for name in eggbox.__all__ if name not in used) == []


def result_slot_reads(cls, makers) -> set:
    """Attribute loads on a value of ``cls`` in src/, demos/ and benchmark/:
    on a name assigned from a call to one of ``makers`` or a parameter
    annotated ``cls``, in the same file, or on ``self`` in a method of
    ``cls`` other than its constructor."""
    def loads_on(node, names):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load) and isinstance(n.value, ast.Name) and n.value.id in names}

    read = set()
    for folder in ("src", "demos", "benchmark"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            holders = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    func = node.value.func
                    if getattr(func, "id", getattr(func, "attr", None)) in makers:
                        holders.update(t.id for t in node.targets if isinstance(t, ast.Name))
                elif isinstance(node, ast.arg) and getattr(node.annotation, "id", None) == cls.__name__:
                    holders.add(node.arg)
                elif isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                    for fn in node.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
                            read |= loads_on(fn, {"self"})
            read |= loads_on(tree, holders)
    return read


def test_every_result_slot_has_a_reader():
    # a slot of a construction result must be read by the library, a demo or
    # the benchmark; one that only its constructor sets, or only the tests
    # read, is dead.  A read is a load on a value known to be the result, so
    # a same-named attribute of another object does not count
    makers = {EmbeddingSolution: ("solve_embedding", "assemble_embedding"),
              CoverResult: ("build_idempotent_cover",),
              PreparedBase: ("prepare_base",)}
    for cls, names in makers.items():
        read = result_slot_reads(cls, names)
        assert sorted(slot for slot in cls.__slots__ if slot not in read) == [], cls.__name__
    # names read only off other objects (a prepared base's word, f and b)
    assert not {"word", "f", "b"} & result_slot_reads(EmbeddingSolution, makers[EmbeddingSolution])


def test_import_loads_neither_the_selftest_nor_the_oracles():
    # the selftest and the naive oracles it compares against are for
    # checking; a fresh import of the library compiles neither
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, eggbox; print([m for m in ('eggbox.acceptance', 'eggbox.oracles') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
