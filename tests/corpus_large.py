"""Seeded large-n equivalence corpus: the record format of corpus.py at
n = 32 and n = 40, where every rank class of `reconstruct` runs its
modular attempt and, when that does not settle the call, the exact path.

The inputs are drawn from the package's own SplitMix64, so they are fixed
forever (S = V unless named):

* G(32, 1/2) at rank n;
* G(32 - k, 1/2) with k false twins, k = 1, 2, 3 (rank n-1, n-2, n-3);
* MATES8_A1 joined with, and disjoint from, one G(24, 1/2): the rank n-2
  walk-mate pair, as MATES8_A2 in the same place has the same W;
* two false twins and a proper subset S that holds both or neither vertex
  of each twin pair, kept at rank n-2, with no edge-count hint, the edge
  count plus one and (added by `corpus.record`) the edge count;
* "near" walk matrices: a genuine W (rank n, n-1 or n-2) with one entry
  past column 0 moved by +-1, reconstructed with no hint;
* at n = 40: G(40, 1/2), two false twins and the joined mate pair.

The golden file tests/data/corpus_large_golden.json was written once, from
the tree before the modular and exact reconstruction tails were folded into
one routine, by

    PYTHONPATH=src python tests/corpus_large.py --write

and is never regenerated to make a failing comparison pass (corpus.py
says how an intended change is edited in).  tests/test_corpus.py compares
the live outputs with it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import corpus
import refdata
from walkmat import ExactMatrix, Graph, VertexSet, WalkMatrix, walk_matrix
from walkmat.exact import rank
from walkmat.oracle import SplitMix64, random_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_large_golden.json"


def _blow_up(h: Graph, base: list[int]) -> Graph:
    """h with one false twin of each vertex in `base` appended, in order:
    vertex x of the result copies the adjacency of vertex f(x) of h."""
    f = list(range(h.n)) + base
    return Graph(len(f), tuple(tuple(h.adj[a][b] for b in f) for a in f))


def _with_false_twins(n: int, k: int, rng: SplitMix64) -> Graph:
    """G(n - k, 1/2) with false twins of k distinct vertices."""
    h = random_graph(n - k, rng)
    base: list[int] = []
    while len(base) < k:
        u = rng.below(n - k)
        if u not in base:
            base.append(u)
    return _blow_up(h, base)


def _with_mates(h: Graph, join: bool) -> Graph:
    """MATES8_A1 on vertices 0..7 and h after it, every mate vertex
    adjacent to every vertex of h when `join`, to none otherwise."""
    n, link = 8 + h.n, int(join)
    adj = [list(row) + [link] * h.n for row in refdata.MATES8_A1]
    adj += [[link] * 8 + list(row) for row in h.adj]
    return Graph(n, tuple(map(tuple, adj)))


def _paired_subset(g: Graph, twins: int, rng: SplitMix64) -> VertexSet:
    """A random proper non-empty S holding both or neither vertex of each
    twin pair (the last `twins` vertices pair with their base vertices)."""
    n = g.n
    # the base vertex of each twin: the one whose row it copies
    base = {t: next(u for u in range(n - twins) if g.adj[u] == g.adj[t])
            for t in range(n - twins, n)}
    while True:
        inside = [bool(rng.next_bit()) for _ in range(n)]
        for t, u in base.items():
            inside[t] = inside[u]
        members = tuple(v + 1 for v in range(n) if inside[v])
        if 0 < len(members) < n:
            return VertexSet(n, members)


def _nudged(w: WalkMatrix, rng: SplitMix64) -> WalkMatrix:
    """W with one entry past column 0 moved by +1 or -1, kept >= 0."""
    grid = [list(w.w.row(i)) for i in range(w.n)]
    i, j = rng.below(w.n), 1 + rng.below(w.n - 1)
    step = 1 if rng.next_bit() or grid[i][j] == 0 else -1
    grid[i][j] += step
    return WalkMatrix.from_matrix(ExactMatrix(grid))


def _full(g: Graph) -> WalkMatrix:
    return walk_matrix(g, VertexSet.full(g.n))


def inputs():
    """(id, graph or None, walk matrix, edge-count hints) in a fixed order."""
    rng = SplitMix64(0x1A26_E532)
    for i in range(2):
        g = random_graph(32, rng)
        yield f"n32/full/{i}", g, _full(g), (None,)
    for k, count in ((1, 2), (2, 2), (3, 1)):
        for i in range(count):
            g = _with_false_twins(32, k, rng)
            yield f"n32/twins{k}/{i}", g, _full(g), (None,)
    h = random_graph(24, rng)
    for join in (True, False):
        g = _with_mates(h, join)
        yield f"n32/mates/{'join' if join else 'disjoint'}", g, _full(g), \
            (None,)
    i = 0
    while i < 2:
        g = _with_false_twins(32, 2, rng)
        w = walk_matrix(g, _paired_subset(g, 2, rng))
        if rank(w.w) != g.n - 2:
            continue
        m = sum(map(sum, g.adj)) // 2
        yield f"n32/subset2/{i}", g, w, (None, m + 1)
        i += 1
    for i, k in enumerate((0, 0, 1, 2)):
        g = random_graph(32, rng) if k == 0 else _with_false_twins(32, k, rng)
        yield f"n32/near/{i}", None, _nudged(_full(g), rng), (None,)
    g = random_graph(40, rng)
    yield "n40/full/0", g, _full(g), (None,)
    g = _with_false_twins(40, 2, rng)
    yield "n40/twins2/0", g, _full(g), (None,)
    g = _with_mates(random_graph(32, rng), True)
    yield "n40/mates/join", g, _full(g), (None,)


def main() -> None:
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/corpus_large.py --write")
    recs = [corpus.record(*item) for item in inputs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write('{"records": [\n')
        fh.write(",\n".join(json.dumps(r) for r in recs))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
