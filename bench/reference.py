"""Input generation and output checks that share no code with walkmat.

Graphs are plain tuples of 0/1 rows and vertex sets are sorted tuples of
1-based indices, so nothing here imports the package under test.  Every
random draw comes from a ``random.Random`` the caller seeds.
"""

from __future__ import annotations

import json
import random

Adj = tuple[tuple[int, ...], ...]


def gnp_half(n: int, rng: random.Random) -> Adj:
    """Erdos-Renyi G(n, 1/2)."""
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i][j] = adj[j][i] = 1
    return tuple(tuple(r) for r in adj)


def with_false_twins(base: Adj, of: list[int]) -> Adj:
    """Append one false twin (same neighbours, not adjacent to it) per entry
    of `of`; twins of two distinct vertices copy the edge between those."""
    m = len(base)
    n = m + len(of)
    adj = [list(r) + [0] * len(of) for r in base] + [[0] * n for _ in of]
    for k, u in enumerate(of):
        t = m + k
        for j in range(m):
            adj[t][j] = adj[j][t] = base[u][j]
    for k1, u in enumerate(of):
        for k2, v in enumerate(of):
            if k1 != k2:
                adj[m + k1][m + k2] = base[u][v]
    return tuple(tuple(r) for r in adj)


def random_perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(adj: Adj, perm: list[int]) -> Adj:
    """Vertex i becomes vertex perm[i]."""
    n = len(adj)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = adj[i][j]
    return tuple(tuple(r) for r in out)


def flip_edge(adj: Adj, i: int, j: int) -> Adj:
    out = [list(r) for r in adj]
    out[i][j] = out[j][i] = 1 - out[i][j]
    return tuple(tuple(r) for r in out)


def walk_rows(adj: Adj, members: tuple[int, ...]) -> list[list[int]]:
    """Rows of W^S = [e, Ae, ..., A^(n-1) e] by neighbour sums."""
    n = len(adj)
    nbrs = [[j for j in range(n) if adj[i][j]] for i in range(n)]
    col = [0] * n
    for v in members:
        col[v - 1] = 1
    cols = [col]
    for _ in range(n - 1):
        col = [sum(col[u] for u in nbrs[v]) for v in range(n)]
        cols.append(col)
    return [[cols[k][v] for k in range(n)] for v in range(n)]


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            a[i] = [(a[i][j] * p - f * a[r][j]) // prev for j in range(ncols)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def annihilates(adj: Adj, members: tuple[int, ...],
                coeffs_ascending: list[int]) -> bool:
    """True iff p(A) e_S = 0 for p with the given ascending coefficients."""
    n = len(adj)
    nbrs = [[j for j in range(n) if adj[i][j]] for i in range(n)]
    e = [0] * n
    for v in members:
        e[v - 1] = 1
    acc = [0] * n
    for c in reversed(coeffs_ascending):
        acc = [sum(acc[u] for u in nbrs[v]) + c * e[v] for v in range(n)]
    return not any(acc)


def is_isomorphism(a1: Adj, a2: Adj, perm: list[int]) -> bool:
    """True iff perm (0-based images) is a bijection carrying edges of a1
    exactly onto edges of a2."""
    n = len(a1)
    if sorted(perm) != list(range(n)):
        return False
    return all(a1[i][j] == a2[perm[i]][perm[j]]
               for i in range(n) for j in range(n))


def walk_json(rows: list[list[int]], members: tuple[int, ...]) -> str:
    """Walk-matrix file in the documented JSON schema (decimal strings)."""
    n = len(rows)
    cols = [[str(rows[v][k]) for v in range(n)] for k in range(n)]
    return json.dumps({"n": n, "set": list(members), "columns": cols})


def graph6(adj: Adj) -> str:
    """graph6 encoding for n <= 62."""
    n = len(adj)
    bits = [adj[i][j] for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def decode_graph6(text: str) -> Adj:
    """Inverse of graph6() for n <= 62."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        v = ord(ch) - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    adj = [[0] * n for _ in range(n)]
    t = 0
    for j in range(1, n):
        for i in range(j):
            adj[i][j] = adj[j][i] = bits[t]
            t += 1
    return tuple(tuple(r) for r in adj)


def entry_bits_max(rows: list[list[int]]) -> int:
    return max(x.bit_length() for r in rows for x in r)


def is_simple(adj: Adj) -> bool:
    """Symmetric 0/1 with zero diagonal."""
    n = len(adj)
    return all(len(r) == n for r in adj) and all(
        adj[i][j] in (0, 1) and adj[i][j] == adj[j][i] and (i != j or not
                                                           adj[i][j])
        for i in range(n) for j in range(n))


def realizes(rows: list[list[int]], vec: list[list[float]],
             eig: list[list[float]], tol: float) -> bool:
    """True iff vec @ eig matches W within tol * max(1, max |W|)."""
    n = len(rows)
    scale = max(1.0, float(max(max(r) for r in rows)))
    for v in range(n):
        for k in range(n):
            got = sum(vec[v][i] * eig[i][k] for i in range(len(eig)))
            if not abs(got - rows[v][k]) <= tol * scale:
                return False
    return True


def check_lex(rows: list[list[int]], lex: list[list[int]],
              perm: list[int]) -> list[str]:
    """Failures of a claimed lex form: descending row order, and perm sends
    input row i to lex row perm[i]."""
    fails = []
    if lex != sorted(rows, reverse=True):
        fails.append("lex form is not W with rows in descending order")
    elif sorted(perm) != list(range(len(rows))) or any(
            lex[perm[i]] != rows[i] for i in range(len(rows))):
        fails.append("lex permutation does not carry W to its lex form")
    return fails
