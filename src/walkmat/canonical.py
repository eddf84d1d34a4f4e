"""Lex forms of walk matrices and isomorphism certificates.

Rows are sorted in descending lexicographic order (entry-by-entry, leftmost
first); ties keep their original relative order, so the reordering permutation
is deterministic.  Two (graph, set) pairs are walk equivalent iff their lex
forms agree, and at rank >= n-1 agreement certifies an isomorphism that maps
the first set onto the second.  Every certificate permutation is verified
edge-by-edge before it is returned; lex agreement alone is never trusted.

Below rank n-1 the verdict is Inconclusive even when the lex forms agree:
there are walk-equivalent non-isomorphic graphs at rank n-3 and n-4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import OrderMismatch, TheoremViolation
from .exact import ExactMatrix
from .graphs import Graph, VertexSet
from .spectral import _rank_at_least, restriction
from .walk import WalkMatrix, walk_matrix

ISOMORPHIC = "isomorphic"
ISOMORPHIC_PAIR = "isomorphic_pair"
NOT_ISOMORPHIC = "not_isomorphic"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LexForm:
    """Row-sorted walk matrix with the permutation that sorts it.

    perm maps input row -> sorted position (0-based): sorted row perm[i] is
    input row i.  ties lists the maximal groups of identical rows, each group
    given by the original row indices in sorted-position order.
    """

    matrix: ExactMatrix
    perm: tuple[int, ...]
    ties: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IsoCertificate:
    """Verdict plus verified permutation(s), 0-based image lists.

    A permutation p means: vertex i of the first graph corresponds to vertex
    p[i] of the second.
    """

    verdict: str
    perm: tuple[int, ...] | None = None
    perm2: tuple[int, ...] | None = None
    reason: str | None = None


def lex_form(w: WalkMatrix) -> LexForm:
    rows = [w.w.row(i) for i in range(w.n)]
    # stable sort keeps the original order inside tied groups
    order = sorted(range(w.n), key=lambda i: rows[i], reverse=True)
    perm = [0] * w.n
    for pos, orig in enumerate(order):
        perm[orig] = pos
    ties = []
    start = 0
    for k in range(1, w.n + 1):
        if k == w.n or rows[order[k]] != rows[order[start]]:
            if k - start > 1:
                ties.append(tuple(order[start:k]))
            start = k
    return LexForm(ExactMatrix([rows[i] for i in order]),
                   tuple(perm), tuple(ties))


def walk_equivalent(w1: WalkMatrix, w2: WalkMatrix) -> bool:
    """True iff some row permutation carries w1 to w2."""
    if w1.n != w2.n:
        raise OrderMismatch(f"orders differ: {w1.n} vs {w2.n}")
    return lex_form(w1).matrix == lex_form(w2).matrix


def _is_isomorphism(g1: Graph, g2: Graph, perm: Sequence[int]) -> bool:
    a1, a2 = g1.adj, g2.adj
    n = g1.n
    return all(a1[i][j] == a2[perm[i]][perm[j]]
               for i in range(n) for j in range(i + 1, n))


def _maps_set(s1: VertexSet, s2: VertexSet, perm: Sequence[int]) -> bool:
    return sorted(perm[i - 1] + 1 for i in s1.members) == list(s2.members)


def _candidate_perms(l1: LexForm, l2: LexForm) -> list[tuple[int, ...]]:
    """g = (h*)^{-1} h, plus its composition with the tied-row transposition."""
    inv2 = [0] * len(l2.perm)
    for orig, pos in enumerate(l2.perm):
        inv2[pos] = orig
    g = tuple(inv2[p] for p in l1.perm)
    cands = [g]
    if l1.ties:
        i1, i2 = l1.ties[0][0], l1.ties[0][1]
        swapped = list(g)
        swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
        cands.append(tuple(swapped))
    return cands


def certify_isomorphism(g1: Graph, s1: VertexSet,
                        g2: Graph, s2: VertexSet) -> IsoCertificate:
    """Certificate for an isomorphism g1 -> g2 carrying s1 onto s2.

    With s1 = V and s2 = V this decides plain graph isomorphism.  Requires
    rank(W^{s1}) >= n-1 for a definitive verdict.
    """
    if g1.n != g2.n:
        raise OrderMismatch(f"orders differ: {g1.n} vs {g2.n}")
    w1 = walk_matrix(g1, s1)
    w2 = walk_matrix(g2, s2)
    if not _rank_at_least(w1, g1.n - 1):
        return IsoCertificate(INCONCLUSIVE, reason="rank_too_low")
    l1, l2 = lex_form(w1), lex_form(w2)
    if l1.matrix != l2.matrix:
        return IsoCertificate(NOT_ISOMORPHIC)
    good = []
    for perm in _candidate_perms(l1, l2):
        if _is_isomorphism(g1, g2, perm) and _maps_set(s1, s2, perm):
            good.append(perm)
    if not good:
        return IsoCertificate(NOT_ISOMORPHIC)
    if len(good) == 1:
        return IsoCertificate(ISOMORPHIC, good[0])
    return IsoCertificate(ISOMORPHIC_PAIR, good[0], good[1])


def certify_set_automorphism(g: Graph, s1: VertexSet,
                             s2: VertexSet) -> IsoCertificate:
    """Automorphism of g carrying s1 onto s2 (Theorem-backed at rank >= n-1)."""
    return certify_isomorphism(g, s1, g, s2)


def restriction_equivalence_check(g1: Graph, s1: VertexSet,
                                  g2: Graph, s2: VertexSet) -> bool:
    """Check W^{s1} = W^{s2}  <=>  (s1 = s2 and A_W = A*_W*).

    Returns the common truth value; raises TheoremViolation if the two sides
    ever disagree (that would be an implementation bug, not a data error).
    """
    if g1.n != g2.n:
        raise OrderMismatch(f"orders differ: {g1.n} vs {g2.n}")
    lhs = walk_matrix(g1, s1).w == walk_matrix(g2, s2).w
    rhs = (s1.members == s2.members
           and restriction(g1, s1).a_w == restriction(g2, s2).a_w)
    if lhs != rhs:
        raise TheoremViolation(
            f"walk-matrix equality ({lhs}) and restriction equality ({rhs}) "
            "disagree")
    return lhs


# --- presentation helpers ---

def perm_cycles(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles of a 0-based permutation, as 1-based tuples.

    Cycles start at their smallest element; fixed points are included.
    """
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        k = perm[start]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = perm[k]
        cycles.append(tuple(i + 1 for i in cyc))
    return cycles


def format_cycles(perm: Sequence[int], labels: Sequence[str] = ()) -> str:
    parts = []
    for cyc in perm_cycles(perm):
        names = [labels[i - 1] if labels else f"v{i}" for i in cyc]
        parts.append("(" + ",".join(names) + ")")
    return "".join(parts)


def certificate_to_json(cert: IsoCertificate) -> str:
    obj: dict = {"verdict": cert.verdict}
    if cert.perm is not None:
        obj["permutation"] = [p + 1 for p in cert.perm]
    if cert.perm2 is not None:
        obj["permutation2"] = [p + 1 for p in cert.perm2]
    if cert.reason is not None:
        obj["reason"] = cert.reason
    return json.dumps(obj)
