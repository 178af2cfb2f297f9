"""Command-line surface: one verb for each of the library's main operations,
plus ``paper-suite`` running the full property battery.  Other operations,
among them ``preimages``, ``automorphisms``, ``classify`` and
``griddability_verdict``, have no verb and are reached from Python only.

Exit codes: 0 = true / success, 1 = false (boolean verbs) or a failing
suite, 2 = usage error, 3 = size-guard refusal.  With ``--json`` every
verb prints exactly one JSON object on stdout; ``decompose`` gives its tree
as a flat pre-order list of nodes.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Optional, Tuple

from . import antichains as ac
from . import classes as cl
from . import grids as gr
from . import invgraph as ig
from . import labels as lb
from . import perm as pm
from .guards import SizeGuardError, check_size

Outcome = Tuple[int, List[str], dict]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_or_print(text: str, path: Optional[str], lines: List[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        lines.extend(text.splitlines())


def _class_from_flag(args) -> cl.PermClass:
    if not args.class_file:
        raise ValueError("this verb needs --class <file>")
    return cl.class_from_json(_load_json(args.class_file))


def _matrix_from_flag(args) -> gr.ZeroPmOneMatrix:
    if not args.matrix:
        raise ValueError("this verb needs --matrix <file>")
    return gr.matrix_from_json(_load_json(args.matrix))


def _poset_from_flag(args) -> lb.FinitePoset:
    if args.poset:
        return lb.poset_from_json(_load_json(args.poset))
    return lb.TWO_ANTICHAIN


def _labeled_from_arg(text: str) -> lb.LabeledPermutation:
    """Inline ``perm:labels`` syntax (e.g. ``21:*,*``) or a JSON object."""
    text = text.strip()
    if text.startswith("{"):
        return lb.labeled_from_json(json.loads(text))
    if ":" in text:
        perm_part, label_part = text.split(":", 1)
        perm = pm.parse_perm(perm_part)
        labels = tuple(label_part.split(",")) if label_part else ()
        return lb.LabeledPermutation(perm, labels)
    return lb.constant_labels(pm.parse_perm(text), lb.FILLED)


def _format_labeled(p: lb.LabeledPermutation) -> str:
    return " ".join(f"{v}:{p.labels[i]}" for i, v in enumerate(p.perm))


# ---------------------------------------------------------------------------
# named oracles for the basis verb

#: Each fixed oracle name, with a builder taking the size cap.
_ORACLES = {
    "separable": lambda max_n: cl.avoiding((2, 4, 1, 3), (3, 1, 4, 2)).member,
    "skew-merged": lambda max_n: cl.avoiding((2, 1, 4, 3), (3, 4, 1, 2)).member,
    "x-monotone": lambda max_n: lambda p: gr.grid_member(p, gr.X_MATRIX, max_n=max_n) is not None,
    "x-geometric": lambda max_n: lambda p: gr.geom_member(p, gr.X_MATRIX, max_n=max_n) is not None,
}
ORACLE_HELP = ", ".join(["av:<patterns> (comma-separated)", *_ORACLES])


def _named_oracle(name: str, max_n: Optional[int]):
    if name.startswith("av:"):
        basis = tuple(pm.parse_perm(tok) for tok in name[3:].split(",") if tok)
        if not basis:
            raise ValueError("av: oracle needs at least one pattern")
        return cl.PermClass(basis).member
    if name not in _ORACLES:
        raise ValueError(f"unknown oracle {name!r}; choose from: {ORACLE_HELP}")
    return _ORACLES[name](max_n)


# ---------------------------------------------------------------------------
# verb handlers — each returns (exit code, plain lines, json object)


def _do_contains(args) -> Outcome:
    sigma = pm.parse_perm(args.pattern)
    pi = pm.parse_perm(args.text)
    witness = pm.containment_witness(sigma, pi)
    if witness is None:
        return 1, [], {"contains": False, "witness": None}
    return 0, [" ".join(map(str, witness))], {"contains": True, "witness": list(witness)}


def _do_reduce(args) -> Outcome:
    from fractions import Fraction  # only this verb reads rationals; it loads decimal too

    try:
        values = [Fraction(tok) for tok in args.values]
    except ValueError as exc:
        raise ValueError(f"entries must be rational numbers: {exc}") from exc
    result = pm.reduce_sequence(values)
    return 0, [pm.format_perm(result)], {"reduction": list(result)}


def _do_symmetry(args) -> Outcome:
    result = pm.apply_symmetry(pm.parse_perm(args.perm), args.name)
    return 0, [pm.format_perm(result)], {"image": list(result)}


def _do_decompose(args) -> Outcome:
    tree = pm.decompose_tree(pm.parse_perm(args.perm))
    # a flat pre-order list, so the JSON nests no deeper for a deeper tree
    nodes = [
        {"kind": node.kind, "arity": k} | ({"skeleton": list(node.skeleton)} if node.skeleton else {})
        for node, k in tree.preorder()
    ]
    return 0, [tree.shape()], {"tree": nodes}


def _do_intervals(args) -> Outcome:
    ivs = pm.intervals(pm.parse_perm(args.perm))
    return 0, [f"{i} {j}" for i, j in ivs], {"intervals": [list(iv) for iv in ivs]}


def _do_simple(args) -> Outcome:
    verdict = pm.is_simple(pm.parse_perm(args.perm))
    return (0 if verdict else 1), [str(verdict).lower()], {"simple": verdict}


def _do_inflate(args) -> Outcome:
    skeleton = pm.parse_perm(args.skeleton)
    blocks = [pm.parse_perm(b) for b in args.blocks]
    result = pm.inflate(skeleton, blocks)
    return 0, [pm.format_perm(result)], {"inflation": list(result)}


def _do_invgraph(args) -> Outcome:
    g = ig.inversion_graph(pm.parse_perm(args.perm))
    lines: List[str] = []
    _write_or_print(ig.to_dot(g), args.dot, lines)
    return 0, lines, ig.graph_to_json(g)


def _do_member(args) -> Outcome:
    c = _class_from_flag(args)
    verdict = c.member(pm.parse_perm(args.perm))
    return (0 if verdict else 1), [str(verdict).lower()], {"member": verdict}


def _counts_by_length(layers, args, what: str, cap: int) -> Tuple[List[str], dict]:
    """Count (and with ``--members`` list) the sorted members of each length
    n = 1..N, read from the iterator ``layers``.  N is refused above the size
    cap before the first layer is read."""
    check_size(what, args.n, cap, args.max_n)
    lines = ["length,count"]
    out = {"counts": {}}
    if args.members:
        out["members"] = {}
    for n, ms in enumerate(layers, start=1):
        out["counts"][n] = len(ms)
        lines.append(f"{n},{len(ms)}")
        if args.members:
            out["members"][n] = [list(p) for p in ms]
            lines.extend(f"  {pm.format_perm(p)}" for p in ms)
    return lines, out


def _do_enumerate(args) -> Outcome:
    c = _class_from_flag(args)

    def layers():
        # one pass of the layer generator serves every length, and refuses
        # a length it cannot pack before the first; packed permutations sort
        # as their tuples do
        for members, _ in itertools.islice(cl._class_layers(c, args.n), 1, None):
            yield sorted(members)

    lines, out = _counts_by_length(layers(), args, "enumerate", cl.ENUMERATE_MAX_N)
    return 0, lines, out


def _do_basis(args) -> Outcome:
    oracle = _named_oracle(args.oracle, args.max_n)
    found = cl.minimal_nonmembers(oracle, args.n, max_n=args.max_n)
    return (
        0,
        [pm.format_perm(b) for b in found],
        {"oracle": args.oracle, "searched_to": args.n, "basis": [list(b) for b in found]},
    )


def _do_plus_one_basis(args) -> Outcome:
    c = _class_from_flag(args)
    r = cl.plus_one_basis(c, cap=args.cap, max_n=args.max_n)
    lines = [f"searched_to {r.searched_to} exact {str(r.exact).lower()}"]
    lines.extend(pm.format_perm(b) for b in r.basis_class.basis)
    return 0, lines, {
        "basis": [list(b) for b in r.basis_class.basis],
        "searched_to": r.searched_to,
        "exact": r.exact,
    }


def _do_closure_member(args) -> Outcome:
    c = _class_from_flag(args)
    verdict = cl.closure_member(pm.parse_perm(args.perm), c, args.kind)
    return (0 if verdict else 1), [str(verdict).lower()], {"member": verdict, "closure": args.kind}


def _do_grid_member(args) -> Outcome:
    m = _matrix_from_flag(args)
    gp = gr.grid_member(pm.parse_perm(args.perm), m, max_n=args.max_n)
    if gp is None:
        return 1, [], {"member": False}
    cells = " ".join(f"{k},{l}" for k, l in gp.cells)
    return 0, [cells], {"member": True, "cells": [list(c) for c in gp.cells]}


def _do_geom_member(args) -> Outcome:
    m = _matrix_from_flag(args)
    hit = gr.geom_member(pm.parse_perm(args.perm), m, max_n=args.max_n)
    if hit is None:
        return 1, [], {"member": False}
    gp, params = hit
    points = gr.drawing_coordinates(gp, m, params)
    lines = [
        f"{gp.cells[i][0]},{gp.cells[i][1]} t={params[i]} x={points[i][0]} y={points[i][1]}"
        for i in range(len(params))
    ]
    return 0, lines, {
        "member": True,
        "cells": [list(c) for c in gp.cells],
        "parameters": [str(t) for t in params],
        "points": [[str(x), str(y)] for x, y in points],
    }


def _do_grid_enum(args) -> Outcome:
    m = _matrix_from_flag(args)
    # one pass serves every length
    layers = gr._grid_layers(m, args.n, args.kind, args.max_n)
    lines, out = _counts_by_length(
        itertools.islice(layers, 1, None), args, "enumerate_grid", gr.ENUMERATE_GRID_MAX_N
    )
    return 0, lines, {"kind": args.kind, **out}


def _do_cellgraph(args) -> Outcome:
    m = _matrix_from_flag(args)
    g = gr.cell_graph(m)
    lines: List[str] = []
    _write_or_print(ig.to_dot(g, "cells"), args.dot, lines)
    return 0, lines, ig.graph_to_json(g)


def _do_antichain(args) -> Outcome:
    member = ac._family(args.family)(args.k)
    out = {"family": args.family, "k": args.k}
    if isinstance(member, lb.LabeledPermutation):
        line = _format_labeled(member)
        graph = ig.inversion_graph(member.perm, member.labels)
        out["perm"] = list(member.perm)
        out["labels"] = list(member.labels)
    else:
        line = pm.format_perm(member)
        graph = ig.inversion_graph(member)
        out["perm"] = list(member)
    out["length"] = len(out["perm"])
    lines = [line]
    if args.dot:
        _write_or_print(ig.to_dot(graph), args.dot, lines)
    return 0, lines, out


def _do_labeled_contains(args) -> Outcome:
    poset = _poset_from_flag(args)
    s = _labeled_from_arg(args.pattern)
    p = _labeled_from_arg(args.text)
    witness = lb.labeled_containment_witness(s, p, poset)
    if witness is None:
        return 1, [], {"contains": False, "witness": None}
    return 0, [" ".join(map(str, witness))], {"contains": True, "witness": list(witness)}


def _do_paper_suite(args) -> Outcome:
    from .suite import run_suite  # only this verb loads the battery

    lines: List[str] = []
    result = run_suite(seed=args.seed, report=lines.append, only=args.only)
    out = {
        "passed": result.passed,
        "seconds": round(result.seconds, 2),
        "checks": [
            {
                "id": r.check_id,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 2),
            }
            for r in result.results
        ],
    }
    return (0 if result.passed else 1), lines, out


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb.  Its choice lists are literal copies of
    ``SYMMETRY_NAMES``, ``CLOSURE_KINDS``, ``GRID_KINDS`` and ``FAMILY_IDS``,
    so building it runs no layer module: a verb runs only the layers its
    handler uses."""
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Permutation patterns: containment, graphs, classes, "
        "grids, antichains.",
    )
    flags = {
        "--seed": dict(type=int, default=0, help="sampling seed (default 0)"),
        "--max-n": dict(type=int, default=None, dest="max_n", help="raise a size guard (prints a warning)"),
        "--matrix": dict(help="matrix JSON file"),
        "--class": dict(dest="class_file", help="class JSON file"),
        "--poset": dict(help="label poset JSON file"),
        "--dot": dict(help="write DOT output to this file"),
    }

    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name, handler, help_text, *names):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="print one JSON object")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(handler=handler, max_n=None)
        return p

    p = verb("contains", _do_contains, "containment witness, exit 0/1")
    p.add_argument("pattern")
    p.add_argument("text")

    p = verb("reduce", _do_reduce, "reduce distinct rationals to a permutation")
    p.add_argument("values", nargs="+")

    p = verb("symmetry", _do_symmetry, "apply a symmetry by name")
    p.add_argument("name", choices=("inverse", "reverse-complement", "rc-inverse"))
    p.add_argument("perm")

    p = verb("decompose", _do_decompose, "substitution decomposition tree")
    p.add_argument("perm")

    p = verb("intervals", _do_intervals, "proper intervals, one per line")
    p.add_argument("perm")

    p = verb("simple", _do_simple, "simplicity check, exit 0/1")
    p.add_argument("perm")

    p = verb("inflate", _do_inflate, "inflate a skeleton by blocks")
    p.add_argument("skeleton")
    p.add_argument("blocks", nargs="+")

    p = verb("invgraph", _do_invgraph, "inversion graph as DOT", "--dot")
    p.add_argument("perm")

    p = verb("member", _do_member, "class membership, exit 0/1 (needs --class)", "--class")
    p.add_argument("perm")

    p = verb("enumerate", _do_enumerate, "CSV counts by length (needs --class)", "--class", "--max-n")
    p.add_argument("n", type=int)
    p.add_argument("--members", action="store_true", help="also list members")

    p = verb("basis", _do_basis, "minimal nonmembers of a named oracle", "--max-n")
    p.add_argument("oracle", help=ORACLE_HELP)
    p.add_argument("n", type=int)

    p = verb("plus-one-basis", _do_plus_one_basis, "basis of the one-point extension (needs --class)",
             "--class", "--max-n")
    p.add_argument("--cap", type=int, default=None, help="stop the search at this length")

    p = verb("closure-member", _do_closure_member, "closure membership, exit 0/1 (needs --class)",
             "--class")
    p.add_argument("kind", choices=("sum", "skew", "substitution", "separable"))
    p.add_argument("perm")

    p = verb("grid-member", _do_grid_member, "monotone gridding, exit 0/1 (needs --matrix)",
             "--matrix", "--max-n")
    p.add_argument("perm")

    p = verb("geom-member", _do_geom_member, "geometric membership with drawing, exit 0/1 (needs --matrix)",
             "--matrix", "--max-n")
    p.add_argument("perm")

    p = verb("grid-enum", _do_grid_enum, "CSV counts for a grid class (needs --matrix)",
             "--matrix", "--max-n")
    p.add_argument("n", type=int)
    p.add_argument("--kind", choices=("monotone", "geometric"), default="monotone")
    p.add_argument("--members", action="store_true", help="also list members")

    p = verb("cellgraph", _do_cellgraph, "cell graph of a matrix as DOT (needs --matrix)",
             "--matrix", "--dot")

    p = verb("antichain", _do_antichain, "a member of an antichain family", "--dot")
    p.add_argument("family", choices=("amr-oscillation", "amr-tarjan", "widdershins", "labeled-path"))
    p.add_argument("k", type=int)

    p = verb("labeled-contains", _do_labeled_contains, "labeled containment, exit 0/1", "--poset")
    p.add_argument("pattern", help="perm:labels (e.g. 21:*,*) or JSON")
    p.add_argument("text", help="perm:labels or JSON")

    p = verb("paper-suite", _do_paper_suite, "run the full property battery", "--seed")
    p.add_argument("--only", default=None, help="run only checks whose id contains this")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.max_n is not None:
        print(f"warning: size guards raised to {args.max_n}", file=sys.stderr)
    try:
        code, lines, payload = args.handler(args)
    except SizeGuardError as exc:
        print(f"size-guard refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
