"""Command-line front end.

Subcommands drive the constructions and print a human-readable body
followed by a ``---`` separated machine-readable trailer of key=value
lines.  Exit codes: 0 all checks passed, 1 a verification check failed,
2 bad input, 3 a closure cap was exceeded or memory ran out.
"""

from __future__ import annotations

import argparse
import sys

from .acceptance import run_acceptance, selftest_report, selftest_text
from .constructions import (
    EmbeddingProblem,
    build_idempotent_cover,
    prepare_base,
    solve_embedding,
    verify_cover,
    verify_embedding,
    DEFAULT_CAP,
)
from .core import FiniteGroup
from .defs import Definitions, load_definitions, write_cover_definition
from .errors import (
    CapExceeded,
    EggboxError,
    InternalInconsistency,
    UnknownObject,
)
from .green import green_structure, maximal_subgroup, minimal_ideal
from .groups import identify
from .report import FAIL, PASS, Check, ConstructionReport
from .srank import r_s
from .wreath import is_faithful_on_min_ideal

__all__ = ["main"]


def _load(args) -> Definitions:
    """The definition file named by --defs; with none, an empty set of
    definitions, which resolves every name to a builtin group."""
    return load_definitions(args.defs) if args.defs else Definitions()


def _resolve_group(defs: Definitions, name: str) -> FiniteGroup:
    obj = defs.resolve_container(name)
    if not isinstance(obj, FiniteGroup):
        raise UnknownObject(f"{name!r} is not a group")
    return obj


def _emit(report: ConstructionReport) -> int:
    sys.stdout.write(report.text() + "\n")
    sys.stdout.write(report.trailer())
    return report.exit_code()


def cmd_analyze(args) -> int:
    defs = _load(args)
    m = defs.resolve_container(args.name)
    gs = green_structure(m)
    ideal = minimal_ideal(m)
    e = ideal.idempotents[0]
    sub = maximal_subgroup(m, e, ideal=ideal)
    label = identify(sub)
    faithful = is_faithful_on_min_ideal(m)
    report = ConstructionReport(
        "analyze",
        params=[
            ("object", args.name),
            ("elements", len(m.elements)),
            ("generators", len(m.generators)),
            ("r_classes", len(gs.r_classes)),
            ("l_classes", len(gs.l_classes)),
            ("j_classes", len(gs.j_classes)),
            ("h_classes", len(gs.h_classes)),
            ("min_ideal", len(ideal)),
            ("ideal_idempotents", len(ideal.idempotents)),
            ("max_subgroup", label),
            ("faithful_on_min_ideal", "yes" if faithful else "no"),
        ],
    )
    report.add(Check("analyzed", "pass", f"|G_e| = {len(sub.elements)}"))
    return _emit(report)


def cmd_cover(args) -> int:
    defs = _load(args)
    h = _resolve_group(defs, args.group)
    cover = build_idempotent_cover(h, args.n, mode=args.mode, cap=args.cap)
    report = verify_cover(cover)
    if args.out:
        name = write_cover_definition(cover, args.out)
        report.set_param("written", f"{args.out}:{name}")
    return _emit(report)


def cmd_embed(args) -> int:
    defs = _load(args)
    if len(args.names) == 1:
        if args.names[0] not in defs.problems:
            raise UnknownObject(f"no problem named {args.names[0]!r}")
        decl = defs.problems[args.names[0]]
        base, alpha = decl["base"], decl["alpha"]
    else:
        base = defs.resolve_container(args.names[0])
        if args.names[1] not in defs.homs:
            raise UnknownObject(f"no hom named {args.names[1]!r}")
        alpha = defs.homs[args.names[1]]
    prob = EmbeddingProblem(alpha, prepare_base(base))
    sol = solve_embedding(prob, p_override=args.prime, cap=args.cap)
    return _emit(verify_embedding(sol))


def cmd_srank(args) -> int:
    defs = _load(args)
    g = _resolve_group(defs, args.group)
    s = _resolve_group(defs, args.simple)
    res = r_s(g, s)
    report = ConstructionReport(
        "srank",
        params=[
            ("group", g.name),
            ("simple", s.name),
            ("rank", res.rank),
            ("kernel", len(res.kernel)),
        ],
    )
    problems = []
    if len(g.elements) != len(res.kernel) * len(s.elements) ** res.rank:
        problems.append(f"|G| = {len(g.elements)} is not "
                        f"|M_S(G)|·|S|^r = {len(res.kernel)}·{len(s.elements)}^{res.rank}")
    if not res.projection.is_surjective():
        problems.append("the projection onto G/M_S(G) is not onto")
    if res.projection.kernel() != frozenset(res.kernel):
        problems.append("M_S(G) is not the preimage of the identity")
    report.add(
        Check(
            "rank-computed",
            FAIL if problems else PASS,
            "; ".join(problems) or f"r = {res.rank}, |M_S(G)| = {len(res.kernel)}",
        )
    )
    return _emit(report)


def cmd_selftest(args) -> int:
    outcome = run_acceptance()
    sys.stdout.write(selftest_text(outcome, verbose=args.verbose))
    return selftest_report(outcome).exit_code()


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return int(text)


def _add_common(sub, cap=False):
    sub.add_argument("--defs", metavar="PATH", help="definition file to load")
    if cap:
        sub.add_argument("--cap", type=_at_least_one, default=DEFAULT_CAP, metavar="N",
                         help="closure size cap")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr, exit 2;
    its subcommand parsers are of the same class."""

    def error(self, message):
        sys.stderr.write(f"eggbox: error: {message}\n")
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eggbox",
        description="Finite-semigroup constructions with verification reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="Green structure of a declared object")
    p.add_argument("name", help="declared or builtin object name")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("cover", help="idempotent cover of a group")
    p.add_argument("group", help="entry group name")
    p.add_argument("n", type=int, help="modulus, at least max(2, 2|H|-1)")
    p.add_argument("--mode", choices=("auto", "full", "cheap"), default="auto")
    p.add_argument("--out", metavar="PATH", help="write the cover as a definition file")
    _add_common(p, cap=True)
    p.set_defaults(func=cmd_cover)

    p = subs.add_parser("embed", help="extend a base monoid along a group surjection")
    p.add_argument("names", nargs="+", metavar="NAME",
                   help="a declared problem, or BASE ALPHA")
    p.add_argument("--prime", type=int, default=None,
                   help="override the modulus prime")
    _add_common(p, cap=True)
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("srank", help="S-rank of a group")
    p.add_argument("group")
    p.add_argument("simple")
    _add_common(p)
    p.set_defaults(func=cmd_srank)

    p = subs.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--verbose", action="store_true",
                   help="print every criterion report in full")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EggboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
