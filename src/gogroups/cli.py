"""Command-line front end.

Subcommands work on a .gog file and print deterministic text reports:
identical inputs give byte-identical outputs.  Exit codes: 0 success,
1 violated preconditions, 2 parse/usage errors (a non-positive cap
included), 3 inconclusive oracles (enumeration cap hit).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import rank_bound, recognize_abelian
from .errors import GogError, GogParseError, OracleIncomplete
from .gog import classify, pi1_presentation, presentation_to_text, relator_to_text, validate_gog
from .gogfile import dump_yaml, group_descriptor, hom_descriptor, parse_gog, serialize_gog
from .moves import (
    QuotientOracle,
    collapse_tree,
    contract_edge,
    convert_diagram,
    decompose_along_edge,
)
from .quotients import abelianization, coset_enumeration
from .words import format_loop_word, is_trivial, parse_loop_word, reduce as reduce_word


def _cap(text: str) -> int:
    """An enumeration cap: a positive integer."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0  # not an integer: rejected below
    if cap < 1:
        raise argparse.ArgumentTypeError(f"enumeration cap {text!r} is not a positive integer")
    return cap


def _oracle(text: str) -> QuotientOracle:
    if text == "abel":
        return QuotientOracle.abelianization()
    if text == "free":
        return QuotientOracle.free_reduction()
    if text.startswith("enum:"):
        return QuotientOracle.finite_enumeration(_cap(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"unknown oracle {text!r}: expected abel, enum:CAP, or free"
    )


def _flow(data) -> str:
    return dump_yaml(data, default_flow_style=True, width=10 ** 6).strip()


def cmd_validate(args):
    report = validate_gog(parse_gog(args.file))
    if report.ok:
        print("valid")
        return 0
    for violation in report.violations:
        print(violation)
    return 1


def cmd_classify(args):
    print(classify(parse_gog(args.file)).value)
    return 0


def cmd_pi1(args):
    sys.stdout.write(presentation_to_text(pi1_presentation(parse_gog(args.file))))
    return 0


def cmd_abelianize(args):
    inv = abelianization(pi1_presentation(parse_gog(args.file)))
    print(f"free rank: {inv.free_rank}")
    print("torsion:", " ".join(str(d) for d in inv.torsion) or "-")
    return 0


def cmd_contract(args):
    sys.stdout.write(serialize_gog(contract_edge(parse_gog(args.file), args.edge)))
    return 0


def cmd_collapse(args):
    sys.stdout.write(serialize_gog(collapse_tree(parse_gog(args.file))))
    return 0


def cmd_convert(args):
    converted = convert_diagram(parse_gog(args.file), args.oracle)
    sys.stdout.write(serialize_gog(converted))
    return 0


def cmd_decompose(args):
    g = parse_gog(args.file)
    dec = decompose_along_edge(g, args.edge)
    print(f"shape: {dec.shape}")
    print(f"orbit: {dec.orbit}")
    print(f"letter: {dec.glue_letter.name}")
    print(f"edge group: {_flow(group_descriptor(dec.edge_group))}")
    print(f"attach fwd: {_flow(hom_descriptor(dec.attach_plus))}")
    print(f"attach back: {_flow(hom_descriptor(dec.attach_minus))}")
    print("-- left --")
    sys.stdout.write(presentation_to_text(dec.left))
    if dec.right is not None:
        print("-- right --")
        sys.stdout.write(presentation_to_text(dec.right))
    print("-- glue relators --")
    for rel in dec.glue_relators:
        print(relator_to_text(rel))
    return 0


def cmd_reduce(args):
    g = parse_gog(args.file)
    form = reduce_word(g, parse_loop_word(g, args.word))
    print(f"reduced: {format_loop_word(g, form.word)}")
    print(f"pinch-free: {str(form.pinch_free).lower()}")
    print(f"edge letters: {len(form.word)}")
    return 0


def cmd_trivial(args):
    g = parse_gog(args.file)
    print(str(is_trivial(g, parse_loop_word(g, args.word))).lower())
    return 0


def cmd_recognize_abelian(args):
    sys.stdout.write(recognize_abelian(parse_gog(args.file)).to_text())
    return 0


def cmd_rank_bound(args):
    print(rank_bound(parse_gog(args.file)))
    return 0


def cmd_enumerate(args):
    table = coset_enumeration(pi1_presentation(parse_gog(args.file)), args.cap)
    sys.stdout.write(table.dump())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gog`` parser: built on the first call, shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="gog",
        description="Graphs of groups: presentations, word problems, moves, and rank analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **options):
        p = sub.add_parser(name, help=help_text)
        for flag, kw in options.items():
            p.add_argument(f"--{flag}", **kw)
        p.add_argument("file", help="path to a .gog file")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the structural invariants")
    add("classify", cmd_classify, "graph-of-groups or diagram")
    add("pi1", cmd_pi1, "print the fundamental-group presentation")
    add("abelianize", cmd_abelianize, "invariant factors of the abelianized pi1")
    add("contract", cmd_contract, "contract a non-loop edge with an isomorphic map",
        edge={"required": True, "help": "edge id to contract"})
    add("collapse", cmd_collapse, "collapse a spanning tree to one vertex")
    add("convert", cmd_convert, "turn a diagram into a graph of groups via an oracle",
        oracle={"required": True, "type": _oracle, "help": "abel | enum:CAP | free"})
    add("decompose", cmd_decompose, "split pi1 along an edge orbit (amalgam/HNN)",
        edge={"required": True, "help": "orbit (plus edge) id"})
    add("reduce", cmd_reduce, "pinch-reduce a loop word",
        word={"required": True, "help": "word in the CLI word grammar"})
    add("trivial", cmd_trivial, "decide triviality of a loop word",
        word={"required": True, "help": "word in the CLI word grammar"})
    add("recognize-abelian", cmd_recognize_abelian,
        "decide abelianness for graphs of free abelian groups")
    add("rank-bound", cmd_rank_bound, "statement-level geometric rank bound")
    add("enumerate", cmd_enumerate, "coset enumeration of pi1 over the trivial subgroup",
        cap={"required": True, "type": _cap, "help": "max cosets ever defined"})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GogParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OracleIncomplete as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except GogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
