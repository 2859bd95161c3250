import ast
import os
import subprocess
import sys
from pathlib import Path

import eggbox

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


def test_import_loads_neither_the_selftest_nor_the_oracles():
    # the selftest and the naive oracles it compares against are for
    # checking; a fresh import of the library compiles neither
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, eggbox; print([m for m in ('eggbox.acceptance', 'eggbox.oracles') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
