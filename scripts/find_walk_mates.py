#!/usr/bin/env python3
"""Find every adjacency matrix that generates a given standard walk matrix.

The shift identity A W_[0,n-2] = W_[1,n-1] pins each row of A to an affine
space; with 0/1 entries there are at most 2^n candidates per row, and
symmetry cuts the assembly down to a small backtracking search.  Every
assembled matrix is verified by regenerating the walk matrix exactly.

Usage: find_walk_mates.py FILE   (walk matrix in the '# set:' text format,
or a bare integer matrix, assumed S = V)

Prints one graph6 string per solution, then pairwise isomorphism verdicts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walkmat import Graph, emit_graph6
from walkmat.exact import ExactMatrix
from walkmat.oracle import brute_force_isomorphic
from walkmat.walk import WalkMatrix, from_text, walk_matrix


def row_candidates(w: WalkMatrix, i: int) -> list[tuple[int, ...]]:
    """All 0/1 rows with zero diagonal satisfying row . W_[0,n-2] = shifted row."""
    n = w.n
    cols = [w.w.col(k) for k in range(n - 1)]
    target = [w.w[i, k] for k in range(1, n)]
    out = []
    for mask in range(1 << n):
        if (mask >> i) & 1:
            continue
        row = [(mask >> v) & 1 for v in range(n)]
        if all(sum(row[v] * cols[k][v] for v in range(n)) == target[k]
               for k in range(n - 1)):
            out.append(tuple(row))
    return out


def all_mates(w: WalkMatrix) -> list[Graph]:
    n = w.n
    cands = [row_candidates(w, i) for i in range(n)]
    sols: list[Graph] = []
    rows: list[tuple[int, ...]] = []

    def place(i: int) -> None:
        if i == n:
            g = Graph(n, tuple(rows))
            if walk_matrix(g, w.vertex_set).w == w.w:
                sols.append(g)
            return
        for row in cands[i]:
            if all(row[j] == rows[j][i] for j in range(i)):
                rows.append(row)
                place(i + 1)
                rows.pop()

    place(0)
    return sols


def main() -> None:
    text = Path(sys.argv[1]).read_text()
    try:
        w = from_text(text)
    except Exception:
        rows = [[int(t) for t in ln.split()] for ln in text.splitlines()
                if ln.strip() and not ln.startswith("#")]
        w = WalkMatrix.from_matrix(ExactMatrix(rows))
    mates = all_mates(w)
    print(f"{len(mates)} adjacency matrices generate this walk matrix")
    for g in mates:
        print(" ", emit_graph6(g))
    for a in range(len(mates)):
        for b in range(a + 1, len(mates)):
            iso = brute_force_isomorphic(mates[a], mates[b])
            verdict = "isomorphic" if iso else "NOT isomorphic"
            print(f"  #{a} vs #{b}: {verdict}")


if __name__ == "__main__":
    main()
