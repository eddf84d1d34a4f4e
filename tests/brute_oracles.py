"""Brute-force cross-checks for the tests, each by a route of its own.

The characteristic polynomial by Faddeev-LeVerrier, walk counting by
integer matrix powers of the 0/1 grid (no neighbour lists) and the rank of
a walk matrix by counting eigenspaces not perpendicular to e, numerically.
None of them shares an algorithm with the package code they check.
"""

from dataclasses import dataclass

from walkmat import (ExactMatrix, Graph, IntPolynomial, VertexSet, rank,
                     walk_matrix)
from walkmat.errors import EmptySet


# --- exact cross-check: characteristic polynomial ---

def char_poly(a: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial of an integer matrix, exactly.

    Faddeev-LeVerrier recurrence in pure integer arithmetic; the division of
    the k-th trace by k is exact for integer matrices and is checked.
    """
    if not a.is_square():
        raise ValueError("matrix must be square")
    if not a.is_integer():
        raise ValueError("char_poly needs integer entries")
    n = a.rows
    grid = [a.row(i) for i in range(n)]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]  # leading coefficient, descending order
    for k in range(1, n + 1):
        am = [[sum(grid[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        # exact for integer matrices: the k-th trace is divisible by k
        ck, rem = divmod(-tr, k)
        if rem:
            raise ValueError("characteristic polynomial not integral")
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)]
             for i in range(n)]
    return IntPolynomial(list(reversed(coeffs)))


# --- walk counting oracle ---

@dataclass(frozen=True)
class WalkCountTable:
    """counts[v][k] = number of k-walks from vertex v ending in S."""

    counts: tuple[tuple[int, ...], ...]
    max_k: int


def count_walks(g: Graph, s: VertexSet, max_k: int) -> WalkCountTable:
    """Row sums over S of the integer matrix powers A^0 .. A^max_k; reads
    the 0/1 grid g.adj, so it shares no code with the neighbour-list
    recurrence of walk_matrix."""
    if s.is_empty():
        raise EmptySet("count_walks needs a non-empty vertex set")
    n, a = g.n, g.adj
    cols = [u - 1 for u in s.members]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    table = []
    for k in range(max_k + 1):
        if k:
            power = [[sum(row[t] * a[t][j] for t in range(n))
                      for j in range(n)] for row in power]
        table.append([sum(row[u] for u in cols) for row in power])
    per_vertex = tuple(tuple(table[k][v] for k in range(max_k + 1))
                       for v in range(n))
    return WalkCountTable(per_vertex, max_k)


# --- float eigenspace cross-check ---

EIGENCHECK_TOL = 1e-7
_EIG_GROUP_EPS = 1e-6


def float_eigencheck(g: Graph, s: VertexSet, tol: float = EIGENCHECK_TOL) -> bool:
    """Count eigenspaces not perpendicular to e, numerically; compare with
    the exact rank of W^S.  An entirely independent route to the same number.
    """
    import numpy as np

    vals, vecs = np.linalg.eigh(np.array(g.adj, dtype=float))
    e = np.array(s.characteristic, dtype=float)
    proj = vecs.T @ e
    count = 0
    start = 0
    for k in range(1, g.n + 1):
        if k == g.n or vals[k] - vals[start] > _EIG_GROUP_EPS:
            if np.linalg.norm(proj[start:k]) > tol:
                count += 1
            start = k
    return count == rank(walk_matrix(g, s).w)
