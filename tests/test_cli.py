import os
import subprocess
import sys
from pathlib import Path

import pytest

from eggbox import cli
from eggbox.cli import main
from eggbox.core import MonoidHom
from eggbox.srank import r_s

DEFS_DIR = Path(__file__).resolve().parent.parent / "definitions"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def trailer(out):
    lines = out.splitlines()
    start = len(lines) - 1 - lines[::-1].index("---")
    pairs = dict(ln.split("=", 1) for ln in lines[start + 1:] if "=" in ln)
    return pairs


def test_analyze_builtin_group(capsys):
    code, out, _ = run(capsys, "analyze", "C4")
    assert code == 0
    t = trailer(out)
    assert t["max_subgroup"] == "C4"
    assert t["elements"] == "4"
    assert t["j_classes"] == "1"


def test_analyze_declared_monoid(capsys):
    code, out, _ = run(capsys, "analyze", "M",
                       "--defs", str(DEFS_DIR / "unit-zero.defs"))
    assert code == 0
    t = trailer(out)
    assert t["min_ideal"] == "1"
    assert t["faithful_on_min_ideal"] == "no"


def test_analyze_unknown_name(capsys):
    code, out, err = run(capsys, "analyze", "no-such-thing")
    assert code == 2
    assert "error" in err


def test_cover_full_and_reload(capsys, tmp_path):
    path = tmp_path / "c2.defs"
    code, out, _ = run(capsys, "cover", "C2", "3", "--out", str(path))
    assert code == 0
    t = trailer(out)
    assert t["result"] == "pass"
    assert t["size"] == "21"
    assert t["mode"] == "full"

    mname = next(
        ln.split()[1] for ln in path.read_text().splitlines()
        if ln.startswith("monoid "))
    code, out, _ = run(capsys, "analyze", mname, "--defs", str(path))
    assert code == 0
    t = trailer(out)
    assert t["elements"] == "21"
    assert t["max_subgroup"] == "C2"


def test_cover_cheap_mode_cannot_be_written(capsys, tmp_path):
    code, out, err = run(capsys, "cover", "S3", "11", "--mode", "cheap",
                         "--out", str(tmp_path / "s3.defs"))
    assert code == 2
    assert "--mode full" in err


def test_cover_modulus_too_small(capsys):
    code, _, err = run(capsys, "cover", "C2", "2")
    assert code == 2
    assert "need n >=" in err


def test_cover_cap_exceeded(capsys):
    code, _, err = run(capsys, "cover", "S3", "11", "--mode", "full", "--cap", "100")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("embed", "E1", "--defs", str(DEFS_DIR / "unit-zero.defs"), "--cap", "0"),
    ("embed", "E1", "--defs", str(DEFS_DIR / "unit-zero.defs"), "--cap", "-3"),
    ("cover", "C2", "3", "--mode", "full", "--cap", "-5"),
    ("cover", "C2", "3", "--cap", "0"),
    ("cover", "C2", "3", "--cap", "many"),
    ("cover", "C2", "3", "--mode", "bogus"),
    ("cover", "C2", "three"),
])
def test_counts_below_one_are_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    # one line on stderr, with no usage block before it
    assert len(err.splitlines()) == 1
    assert err.startswith("eggbox: error: argument ") and f"'{argv[-1]}'" in err
    if argv[-2] == "--cap":
        assert f"error: argument {argv[-2]}: '{argv[-1]}' is not an integer of at least 1" in err


def test_cover_auto_falls_back_to_cheap(capsys):
    # auto mode compares the cover's exact size, 737 at S3 n = 11, with the cap
    code, out, _ = run(capsys, "cover", "S3", "11", "--cap", "736")
    assert code == 0
    t = trailer(out)
    assert t["mode"] == "cheap"
    assert t["result"] == "pass"
    assert "skipped" in out
    code, out, _ = run(capsys, "cover", "S3", "11")
    assert code == 0
    t = trailer(out)
    assert (t["mode"], t["size"], t["result"]) == ("full", "737", "pass")


def test_cover_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "cover", "C2xC2", "7")
    _, second, _ = run(capsys, "cover", "C2xC2", "7")
    assert first == second


def fresh_stdout(hashseed, *argv):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-m", "eggbox", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ("cover", "C3", "6"),
    ("analyze", "S3", "--defs", str(DEFS_DIR / "covers.defs")),
])
def test_output_is_the_same_in_fresh_processes(argv):
    # elements hash by address, which differs from process to process, so
    # no output may follow the iteration order of a set of elements
    assert fresh_stdout("0", *argv) == fresh_stdout("31337", *argv)


def test_embed_declared_problem(capsys):
    code, out, _ = run(capsys, "embed", "E2",
                       "--defs", str(DEFS_DIR / "doubled-swap.defs"))
    assert code == 0
    t = trailer(out)
    assert t["result"] == "pass"
    assert t["p"] == "5"
    assert t["size"] == "120"
    assert t["group"] == "C4"


def test_embed_base_alpha_pair(capsys):
    code, out, _ = run(capsys, "embed", "M", "a",
                       "--defs", str(DEFS_DIR / "unit-zero.defs"))
    assert code == 0
    assert trailer(out)["result"] == "pass"


def test_embed_prime_override(capsys):
    code, out, _ = run(capsys, "embed", "E2", "--prime", "7",
                       "--defs", str(DEFS_DIR / "doubled-swap.defs"))
    assert code == 0
    assert trailer(out)["p"] == "7"
    code, _, err = run(capsys, "embed", "E2", "--prime", "4",
                       "--defs", str(DEFS_DIR / "doubled-swap.defs"))
    assert code == 2
    assert "prime" in err


def test_embed_unknown_problem(capsys):
    code, _, err = run(capsys, "embed", "E9",
                       "--defs", str(DEFS_DIR / "doubled-swap.defs"))
    assert code == 2
    assert "error" in err


def test_srank(capsys):
    code, out, _ = run(capsys, "srank", "C2xC2", "C2")
    assert code == 0
    assert trailer(out)["rank"] == "2"
    code, _, err = run(capsys, "srank", "C3", "C4")
    assert code == 2
    assert "simple" in err


def _raise_rank(g, res):
    res.rank += 1


def _collapse_projection(g, res):
    q = res.quotient
    res.projection = MonoidHom(g, q, {x: q.identity for x in g.elements}, check=False)


def _shift_kernel(g, res):
    moved = next(x for x in g.elements if x not in res.kernel)
    res.kernel = frozenset(res.kernel - {g.identity} | {moved})


@pytest.mark.parametrize("doctor, witness", [
    (_raise_rank, "is not |M_S(G)|"),
    (_collapse_projection, "is not onto"),
    (_shift_kernel, "not the preimage of the identity"),
])
def test_srank_reports_a_doctored_result(capsys, monkeypatch, doctor, witness):
    def doctored(g, s):
        res = r_s(g, s)
        doctor(g, res)
        return res

    monkeypatch.setattr(cli, "r_s", doctored)
    code, out, _ = run(capsys, "srank", "S3", "C2")
    assert code == 1
    assert trailer(out)["check.rank-computed"].startswith("fail;witness=")
    assert witness in out


def test_analyze_rejects_a_non_associative_table_group(capsys, tmp_path):
    # Z_211 with the entry 3 + 4 changed to 9 (0-based): the identity and
    # every inverse survive, only associativity fails, on a few of the
    # 211³ triples
    n = 211
    rows = []
    for i in range(n):
        row = [(i + j) % n for j in range(n)]
        if i == 3:
            row[4] = 9
        rows.append(" ".join(str(v + 1) for v in row))
    path = tmp_path / "bad.defs"
    path.write_text(f"group G table {n}: " + "; ".join(rows) + "\n")
    code, out, err = run(capsys, "analyze", "G", "--defs", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "associativity fails" in err
