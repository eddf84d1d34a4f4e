"""Seeded equivalence corpus for the walk-matrix entry points.

The inputs are drawn from the package's own SplitMix64, so they are fixed
forever:

* random (graph, set) pairs, G(n, 1/2) with n 1..14 and a random non-empty
  set;
* graphs with one false twin plus one false or true twin, n 8..18, S = V
  (rank n-2 or lower);
* the rank n-2 mate pair on 8 vertices;
* garbage: non-negative integer matrices with a 0/1 first column that are
  mostly no walk matrix at all, reconstructed with the edge-count hints
  none, 5 and 0.

For each input `record` keeps the reconstruction (status, graph6 list in
order, reason), the spectral summary, digests of A_W and of the projector
onto ker W^T, and the realization's main eigenvalues mu; an entry point
that raises a WalkmatError keeps the error's class name instead.
`CLI_CASES` are a few command lines per subcommand, run in-process.

The golden file tests/data/corpus_golden.json holds these outputs as they
were when it was written, once, by

    PYTHONPATH=src python tests/corpus.py --write

and never regenerated to make a failing comparison pass: an output that a
change moves on purpose is edited by hand, entry by entry, and named in
CHANGES.md.  tests/test_corpus.py compares the live outputs with it.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import refdata
from walkmat import (ExactMatrix, Graph, ReconstructionInput, VertexSet,
                     WalkMatrix, edge_count, emit_graph6, reconstruct,
                     walk_matrix)
from walkmat.errors import WalkmatError
from walkmat.oracle import SplitMix64, random_graph, random_nonempty_set
from walkmat.spectral import (kernel_projector_from_walk, realize_from_walk,
                              restriction_from_walk, summary_from_walk)
from walkmat.walk import to_json

GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_golden.json"
MU_TOL = 1e-9

RANDOM_PAIRS = 300
TWIN_GRAPHS = 40
GARBAGE = 400
GARBAGE_HINTS = (None, 5, 0)


def _twin_graph(rng: SplitMix64, true_twin: bool) -> Graph | None:
    """G(m, 1/2) with m 6..16 plus a false twin of one vertex and a false
    (or, with true_twin, a true) twin of another."""
    m = 6 + rng.below(11)
    g = random_graph(m, rng)
    u, v = rng.below(m), rng.below(m)
    if u == v:
        return None
    n = m + 2
    adj = [list(row) + [0, 0] for row in g.adj] + [[0] * n, [0] * n]
    for j in range(m):
        adj[m][j] = adj[j][m] = g.adj[u][j]
        adj[m + 1][j] = adj[j][m + 1] = g.adj[v][j]
    adj[m][m + 1] = adj[m + 1][m] = g.adj[u][v]
    if true_twin:
        adj[v][m + 1] = adj[m + 1][v] = 1
    return Graph(n, tuple(tuple(r) for r in adj))


def _garbage(rng: SplitMix64) -> WalkMatrix:
    n = 2 + rng.below(7)
    grid = [[rng.next_bit()] + [rng.below(9) for _ in range(n - 1)]
            for _ in range(n)]
    if not any(row[0] for row in grid):
        grid[0][0] = 1
    return WalkMatrix.from_matrix(ExactMatrix(grid))


def inputs():
    """(id, graph or None, walk matrix, edge-count hints) in a fixed order."""
    rng = SplitMix64(0x5EED_C0DE)
    for i in range(RANDOM_PAIRS):
        n = 1 + rng.below(14)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        yield f"random/{i}", g, walk_matrix(g, s), (None,)
    rng = SplitMix64(0x7717_5EED)
    i = 0
    while i < TWIN_GRAPHS:
        g = _twin_graph(rng, true_twin=i % 2 == 1)
        if g is None:
            continue
        yield f"twins/{i}", g, walk_matrix(g, VertexSet.full(g.n)), (None,)
        i += 1
    g = Graph(8, tuple(tuple(r) for r in refdata.MATES8_A1))
    yield "mates8", g, walk_matrix(g, VertexSet.full(8)), (None,)
    rng = SplitMix64(0x6A2B_A6E0)
    for i in range(GARBAGE):
        yield f"garbage/{i}", None, _garbage(rng), GARBAGE_HINTS


def _digest(m: ExactMatrix) -> str:
    return hashlib.sha256(str(m).encode()).hexdigest()[:16]


def _guard(fn):
    """fn()'s value, or the class name of the WalkmatError it raises."""
    try:
        return fn()
    except WalkmatError as exc:
        return type(exc).__name__


def _summary(w: WalkMatrix):
    s = summary_from_walk(w)
    return [s.r, list(s.main_poly.coeffs),
            None if s.char_poly is None else list(s.char_poly.coeffs)]


def _reconstruction(w: WalkMatrix, hint):
    res = reconstruct(ReconstructionInput(w, hint))
    return [res.status, [emit_graph6(g) for g in res.graphs], res.reason]


def record(key: str, g: Graph | None, w: WalkMatrix, hints) -> dict:
    if g is not None:
        source = [emit_graph6(g), list(w.vertex_set.members)]
    else:
        source = [list(w.w.row(i)) for i in range(w.n)]
    recons = {str(h): _reconstruction(w, h) for h in hints}
    if g is not None and recons["None"][2] == "missing_edge_count":
        m = edge_count(g)
        recons[str(m)] = _reconstruction(w, m)
    return {
        "id": key,
        "input": source,
        "reconstruct": recons,
        "summary": _guard(lambda: _summary(w)),
        "a_w": _guard(lambda: _digest(restriction_from_walk(w).a_w)),
        "projector": _guard(lambda: _digest(kernel_projector_from_walk(w))),
        "mu": _guard(lambda: list(realize_from_walk(w).mu)),
    }


# --- command lines ---

# (name, argv); "{g6:ID}", "{am:ID}" and "{walk:ID}" stand for files
# holding that corpus input as graph6, as a 0/1 matrix (relabelled by
# reversing the vertex order) and as walk-matrix JSON
CLI_CASES = [
    ("walk/json", ["walk", "{g6:random/5}", "--set", "1,3"]),
    ("walk/matrix", ["walk", "{g6:random/9}", "--format", "matrix"]),
    ("walk/table", ["walk", "{g6:twins/0}", "--format", "table"]),
    ("mainpoly/json", ["mainpoly", "{g6:random/12}"]),
    ("mainpoly/table", ["mainpoly", "{g6:twins/1}", "--format", "table"]),
    ("mainpoly/set", ["mainpoly", "{g6:random/20}", "--set", "2"]),
    ("spectral/json", ["spectral", "{g6:random/12}"]),
    ("spectral/numeric", ["spectral", "{g6:random/12}", "--numeric"]),
    ("spectral/twins", ["spectral", "{g6:twins/2}", "--numeric"]),
    ("restrict/json", ["restrict", "{g6:random/9}", "--set", "1,2"]),
    ("restrict/matrix", ["restrict", "{g6:twins/3}", "--format", "matrix"]),
    ("restrict/full", ["restrict", "{g6:random/12}"]),
    ("reconstruct/json", ["reconstruct", "{walk:random/12}"]),
    ("reconstruct/pair", ["reconstruct", "{walk:mates8}"]),
    ("reconstruct/table", ["reconstruct", "{walk:twins/1}", "--format",
                           "table"]),
    ("reconstruct/garbage", ["reconstruct", "{walk:garbage/0}", "--edges",
                             "5"]),
    ("canon/json", ["canon", "{g6:random/9}", "--labels"]),
    ("canon/table", ["canon", "{g6:twins/0}", "--format", "table",
                     "--labels"]),
    ("canon/walk", ["canon", "{walk:mates8}"]),
    ("iso/full", ["iso", "{g6:random/12}", "{am:random/12}"]),
    ("iso/twins", ["iso", "{g6:twins/1}", "{am:twins/1}"]),
    ("iso/no", ["iso", "{g6:random/12}", "{am:random/1}"]),
    ("equiv/yes", ["equiv", "{g6:random/9}", "{am:random/9}"]),
    ("equiv/no", ["equiv", "{g6:random/12}", "{g6:random/1}"]),
    ("stats", ["stats", "--n", "6", "--trials", "20", "--seed", "7"]),
    ("roundtrip", ["roundtrip", "--n", "4"]),
]


def write_cli_inputs(directory: Path, items) -> dict[str, str]:
    """The files CLI_CASES name, written to `directory`: placeholder -> path."""
    by_id = {key: (g, w) for key, g, w, _ in items}
    files = {}
    for _, argv in CLI_CASES:
        for arg in argv:
            if not arg.startswith("{"):
                continue
            kind, key = arg[1:-1].split(":", 1)
            g, w = by_id[key]
            path = directory / f"{kind}-{key.replace('/', '-')}"
            if kind == "g6":
                path.write_text(emit_graph6(g) + "\n")
            elif kind == "am":
                rev = g.relabel(list(range(g.n - 1, -1, -1)))
                path.write_text("\n".join(" ".join(map(str, r))
                                          for r in rev.adj) + "\n")
            else:
                path.write_text(to_json(w))
            files[arg] = str(path)
    return files


def cli_outputs(directory: Path, items) -> dict[str, list]:
    from walkmat.cli import main
    files = write_cli_inputs(directory, items)
    out = {}
    for name, argv in CLI_CASES:
        buf = io.StringIO()
        code = main([files.get(a, a) for a in argv], out=buf)
        out[name] = [code, buf.getvalue()]
    return out


def same_mu(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return len(a) == len(b) and all(
        abs(x - y) <= MU_TOL * max(1.0, abs(y)) for x, y in zip(a, b))


def same_cli(name: str, got: list, want: list) -> bool:
    """Exit code and stdout equal; a numeric spectral line's mu within
    MU_TOL."""
    if got == want:
        return True
    if got[0] != want[0] or not name.startswith("spectral/"):
        return False
    g, w = json.loads(got[1]), json.loads(want[1])
    return (same_mu(g.pop("mu", None) or [], w.pop("mu", None) or [])
            and g == w)


def main() -> None:
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/corpus.py --write")
    items = list(inputs())
    with tempfile.TemporaryDirectory() as tmp:
        cli = cli_outputs(Path(tmp), items)
    recs = [record(*item) for item in items]
    GOLDEN.parent.mkdir(exist_ok=True)
    # one line per entry, so that an entry edited by hand is a one-line diff
    with open(GOLDEN, "w") as fh:
        fh.write('{"cli": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in cli.items()))
        fh.write('},\n"records": [\n')
        fh.write(",\n".join(json.dumps(r) for r in recs))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
