"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (not isomorphic / not equivalent),
2 usage error, 3 data error, 4 inconclusive or undetermined.

Graph inputs: graph6 (.g6), edge list with an "n m" header (.al/.el), or a
0/1 adjacency matrix (.am); anything else is sniffed from content.  Walk
matrices are accepted directly (reconstruction operates without A): either
the JSON schema of the walk module or an integer matrix with a '# set: ...'
header line.  '-' reads stdin.  Integers outside the 53-bit range render as
decimal strings in JSON output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import canonical, spectral, walk
from .errors import MalformedHeader, WalkmatError
from .exact import ExactMatrix
from .graphs import (Graph, VertexSet, _ints, emit_graph6,
                     parse_adjacency_text, parse_edge_list_text, parse_graph6)
from .reconstruct import ReconstructionInput, reconstruct, result_to_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INCONCLUSIVE = 4

DEFAULT_STATS_SEED = 20240901


def _json_int(v: int):
    return v if abs(v) < (1 << 53) else str(v)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str) -> Graph:
    text = _read(path)
    suffix = Path(path).suffix.lower()
    if suffix == ".g6":
        return parse_graph6(text)
    if suffix in (".al", ".el"):
        return parse_edge_list_text(text)
    if suffix in (".am", ".adj"):
        return parse_adjacency_text(text)
    return _sniff_graph(text)


def _sniff_graph(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise WalkmatError("empty graph input")
    tokened = [ln.split() for ln in lines]
    if all(all(t in ("0", "1") for t in row) for row in tokened) \
            and all(len(row) == len(tokened) for row in tokened):
        return parse_adjacency_text(text)
    if len(tokened[0]) == 2 and all(len(r) == 2 for r in tokened) \
            and all(t.isdigit() for r in tokened for t in r):
        return parse_edge_list_text(text)
    if len(lines) == 1:
        return parse_graph6(lines[0])
    raise WalkmatError("could not detect graph format")


def _load_walk(path: str) -> walk.WalkMatrix:
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return walk.from_json(text)
    return walk.from_text(text)


def _parse_set(spec: str, n: int) -> VertexSet:
    if spec.upper() == "V":
        return VertexSet.full(n)
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text()
    members = _ints(spec.replace(",", " "), MalformedHeader, "vertex set")
    return VertexSet.of(n, members)


def _print_matrix(m: ExactMatrix, out) -> None:
    cells = [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows))
              for j in range(m.cols)] if m.rows else []
    for row in cells:
        print(" ".join(c.rjust(w) for c, w in zip(row, widths)), file=out)


def _matrix_json(m: ExactMatrix) -> list[list]:
    return [[_json_int(x) if isinstance(x, int) else str(x) for x in m.row(i)]
            for i in range(m.rows)]


def _emit(obj: dict, fmt: str, out, matrix: ExactMatrix | None = None) -> None:
    if fmt in ("table", "matrix") and matrix is not None:
        _print_matrix(matrix, out)
        return
    print(json.dumps(obj), file=out)


# --- subcommands ---

def _cmd_walk(args, out) -> int:
    g = _load_graph(args.graph)
    s = _parse_set(args.set, g.n)
    w = walk.walk_matrix(g, s)
    obj = json.loads(walk.to_json(w))
    _emit(obj, args.format, out, w.w)
    return EXIT_OK


def _cmd_mainpoly(args, out) -> int:
    g = _load_graph(args.graph)
    s = _parse_set(args.set, g.n)
    summary = spectral.spectral_summary(g, s)
    if args.format in ("table", "matrix"):
        print(f"rank {summary.r}", file=out)
        print(f"main polynomial {summary.main_poly}", file=out)
    else:
        print(json.dumps({"rank": summary.r,
                          "main_poly": [_json_int(c) for c in
                                        summary.main_poly.coeffs]}), file=out)
    return EXIT_OK


def _cmd_spectral(args, out) -> int:
    g = _load_graph(args.graph)
    s = _parse_set(args.set, g.n)
    # one record of W serves the summary and the realization; the summary
    # goes first, as its elimination also gives the realization's rank
    record = spectral._Certified(walk.walk_matrix(g, s), g)
    summary = record.summary
    realization = record.realization() if args.numeric else None
    print(spectral.summary_to_json(summary, realization), file=out)
    return EXIT_OK


def _cmd_restrict(args, out) -> int:
    g = _load_graph(args.graph)
    s = _parse_set(args.set, g.n)
    a_w = spectral.restriction(g, s).a_w
    _emit({"a_w": _matrix_json(a_w)}, args.format, out, a_w)
    return EXIT_OK


def _cmd_reconstruct(args, out) -> int:
    w = _load_walk(args.walk)
    res = reconstruct(ReconstructionInput(w, args.edges))
    if args.format in ("table", "matrix"):
        print(res.status + ("" if res.reason is None else f" ({res.reason})"),
              file=out)
        for g in res.graphs:
            print(emit_graph6(g), file=out)
    else:
        print(result_to_json(res), file=out)
    return EXIT_INCONCLUSIVE if res.status == "undetermined" else EXIT_OK


def _cmd_canon(args, out) -> int:
    text = _read(args.input)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("# set"):
        w = _load_walk(args.input)
        labels: tuple = tuple(f"v{i+1}" for i in range(w.n))
    else:
        g = _load_graph(args.input)
        s = _parse_set(args.set, g.n)
        w = walk.walk_matrix(g, s)
        labels = g.labels
    lf = canonical.lex_form(w)
    # the label of the input row at each sorted position
    row_labels = [labels[orig] for orig in
                  sorted(range(w.n), key=lf.perm.__getitem__)]
    if args.format in ("table", "matrix"):
        if args.labels:
            for pos, label in enumerate(row_labels):
                row = " ".join(str(x) for x in lf.matrix.row(pos))
                print(f"{row}  {label}", file=out)
        else:
            _print_matrix(lf.matrix, out)
        print("permutation " + canonical.format_cycles(lf.perm, labels),
              file=out)
    else:
        obj = {"lex": _matrix_json(lf.matrix),
               "permutation": [p + 1 for p in lf.perm],
               "cycles": canonical.format_cycles(lf.perm, labels)}
        if args.labels:
            obj["row_labels"] = row_labels
        print(json.dumps(obj), file=out)
    return EXIT_OK


def _cmd_iso(args, out) -> int:
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    s1 = _parse_set(args.set, g1.n)
    s2 = _parse_set(args.set2 or args.set, g2.n)
    cert = canonical.certify_isomorphism(g1, s1, g2, s2)
    print(canonical.certificate_to_json(cert), file=out)
    if cert.verdict == canonical.NOT_ISOMORPHIC:
        return EXIT_NEGATIVE
    if cert.verdict == canonical.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_equiv(args, out) -> int:
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    s1 = _parse_set(args.set, g1.n)
    s2 = _parse_set(args.set2 or args.set, g2.n)
    w1 = walk.walk_matrix(g1, s1)
    w2 = walk.walk_matrix(g2, s2)
    eq = canonical.walk_equivalent(w1, w2)
    print(json.dumps({"walk_equivalent": eq}), file=out)
    return EXIT_OK if eq else EXIT_NEGATIVE


def _cmd_stats(args, out) -> int:
    from . import oracle
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("WALKMAT_SEED", DEFAULT_STATS_SEED))
    stats = oracle.rank_statistics(args.n, args.trials, seed,
                                   random_sets=args.random_sets,
                                   jobs=args.jobs)
    for line in stats.json_lines():
        print(line, file=out)
    print(json.dumps({"n": stats.n, "trials": stats.trials,
                      "full_rank_fraction": stats.full_rank_fraction}),
          file=out)
    return EXIT_OK


def _cmd_roundtrip(args, out) -> int:
    from . import oracle
    report = oracle.exhaustive_roundtrip(args.n, extra_samples=args.samples,
                                         seed=args.seed, jobs=args.jobs)
    for line in report.json_lines():
        print(line, file=out)
    print(json.dumps({"n": report.n, "classes": report.classes,
                      "failures": len(report.failures)}), file=out)
    return EXIT_OK if not report.failures else EXIT_NEGATIVE


def _int_from(low: int):
    """An argparse type: an integer >= low, else a usage error."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    parse.__name__ = "int"  # argparse's messages name the type
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="walkmat",
        description="walk matrices, spectral decomposition, adjacency "
                    "reconstruction and isomorphism certificates")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, graph_args=("graph",)):
        for name in graph_args:
            sp.add_argument(name)
        sp.add_argument("--set", default="V",
                        help="V, a comma list like 1,3,4, or @file")
        sp.add_argument("--format", default="json",
                        choices=["json", "table", "matrix"])

    sp = sub.add_parser("walk", help="print the walk matrix W^S")
    add_common(sp)
    sp.set_defaults(func=_cmd_walk)

    sp = sub.add_parser("mainpoly", help="print the main polynomial and rank")
    add_common(sp)
    sp.set_defaults(func=_cmd_mainpoly)

    sp = sub.add_parser("spectral", help="print the spectral summary")
    add_common(sp)
    sp.add_argument("--numeric", action="store_true",
                    help="include numeric main eigenvalues")
    sp.set_defaults(func=_cmd_spectral)

    sp = sub.add_parser("restrict", help="print the W-restriction of A")
    add_common(sp)
    sp.set_defaults(func=_cmd_restrict)

    sp = sub.add_parser("reconstruct",
                        help="recover adjacency matrices from a walk matrix")
    sp.add_argument("walk")
    sp.add_argument("--edges", type=int, default=None,
                    help="edge count (needed at rank n-2 when S != V)")
    sp.add_argument("--format", default="json",
                    choices=["json", "table", "matrix"])
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("canon", help="print lex(W) and the reordering "
                                      "permutation")
    sp.add_argument("input", help="graph file or walk-matrix file")
    sp.add_argument("--set", default="V")
    sp.add_argument("--format", default="json",
                    choices=["json", "table", "matrix"])
    sp.add_argument("--labels", action="store_true",
                    help="append vertex labels (vertex lex-form)")
    sp.set_defaults(func=_cmd_canon)

    sp = sub.add_parser("iso", help="isomorphism certificate for two graphs")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.add_argument("--set", default="V")
    sp.add_argument("--set2", default=None)
    sp.set_defaults(func=_cmd_iso)

    sp = sub.add_parser("equiv", help="walk-equivalence verdict")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.add_argument("--set", default="V")
    sp.add_argument("--set2", default=None)
    sp.set_defaults(func=_cmd_equiv)

    sp = sub.add_parser("stats", help="rank statistics over G(n,1/2)")
    sp.add_argument("--n", type=_int_from(1), required=True)
    sp.add_argument("--trials", type=_int_from(1), required=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="default from WALKMAT_SEED or built-in")
    sp.add_argument("--random-sets", action="store_true")
    sp.add_argument("--jobs", type=_int_from(1), default=1)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("roundtrip",
                        help="exhaustive reconstruction round trip, n <= 7")
    sp.add_argument("--n", type=_int_from(1), required=True)
    sp.add_argument("--samples", type=_int_from(0), default=0)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--jobs", type=_int_from(1), default=1)
    sp.set_defaults(func=_cmd_roundtrip)

    return p


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except (WalkmatError, OSError, ValueError) as exc:
        print(f"walkmat: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
