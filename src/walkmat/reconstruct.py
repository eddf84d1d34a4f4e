"""Adjacency matrix recovery from a walk matrix of rank r >= n-2.

Every candidate comes from one exact formula,

    A = A_W + K S K^T,

where A_W = W_[1,r] W^+ is the part of A seen through the column space of W,
K is an integer basis of ker W^T (no columns at r = n, one at n-1, two at
n-2) and S is an unknown symmetric (n-r) x (n-r) matrix: ker W^T is
A-invariant, so A acts on it as K S K^T.

* The zero diagonal of A gives n linear equations in the entries of S.  At
  r = n there is no S (A = A_W); at r = n-1 they fix S; at r = n-2 they fix
  S or leave a line S_0 + t D.
* On a line, A_W K = 0 gives ||A||_F^2 = ||A_W||_F^2 + tr(S G S G) with
  G = K^T K, and ||A||_F^2 = 2m (m = edge count) is a quadratic in t with at
  most two rational roots.

This is the constructive form of "W determines A at rank n and n-1 and
allows at most two graphs at rank n-2".  All arithmetic is exact and every
candidate regenerates W exactly before it is returned.  r < n-2 is
undetermined (the theory provides counterexamples); so is a W that no graph
has (not_a_walk_matrix) and one whose candidates all fail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress

from .errors import (CandidateNotGraph, MissingEdgeCount,
                     NegativeDiscriminant, NotAWalkMatrix, WalkmatError)
from .exact import QQ, ExactMatrix, Number, kernel_basis
from .graphs import Graph, edge_count, emit_graph6
from .spectral import _Analysis, _analyse, _restriction, _summary
from .walk import WalkMatrix

RANK_TOO_LOW = "rank_too_low"
NOT_A_WALK_MATRIX = "not_a_walk_matrix"
NO_VALID_CANDIDATE = "no_valid_candidate"
MISSING_EDGE_COUNT = "missing_edge_count"


@dataclass(frozen=True)
class ReconstructionResult:
    """Unique(graph) | Pair(graph, graph) | Undetermined(reason)."""

    status: str                      # "unique" | "pair" | "undetermined"
    graphs: tuple[Graph, ...] = ()
    reason: str | None = None

    @classmethod
    def unique(cls, g: Graph) -> "ReconstructionResult":
        return cls("unique", (g,))

    @classmethod
    def pair(cls, g1: Graph, g2: Graph) -> "ReconstructionResult":
        return cls("pair", (g1, g2))

    @classmethod
    def undetermined(cls, reason: str) -> "ReconstructionResult":
        return cls("undetermined", (), reason)


@dataclass(frozen=True)
class ReconstructionInput:
    w: WalkMatrix
    edge_count_hint: int | None = None


def verify_candidate(a: ExactMatrix, w: WalkMatrix) -> bool:
    """True iff a is a valid adjacency matrix (0/1, symmetric, zero
    diagonal) that regenerates w exactly.

    The walk recurrence col_{k+1} = a col_k runs on a's own rows and stops
    at the first column that differs from w.
    """
    n = w.n
    if a.shape != (n, n):
        return False
    rows = [a.row(i) for i in range(n)]
    if any(row[i] or not set(row) <= {0, 1} or row != a.col(i)
           for i, row in enumerate(rows)):
        return False
    col = w.vertex_set.characteristic
    for k in range(n):
        if k:
            col = tuple(sum(compress(col, row)) for row in rows)
        if col != w.w.col(k):
            return False
    return True


def _symmetric(d: int, upper) -> ExactMatrix:
    """The symmetric d x d matrix whose upper triangle, row by row, is upper."""
    s = [[0] * d for _ in range(d)]
    it = iter(upper)
    for a in range(d):
        for b in range(a, d):
            s[a][b] = s[b][a] = next(it)
    return ExactMatrix(s)


def _trace(x: ExactMatrix) -> Number:
    return sum(x[i, i] for i in range(x.rows))


def _rational_sqrt(q: Number) -> QQ | None:
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return QQ(num, den)


def _kernel_parts(kt: ExactMatrix, a_w: ExactMatrix,
                  m: int | None) -> list[ExactMatrix]:
    """Every S giving A_W + K S K^T a zero diagonal; on a line of such S,
    only the points where ||A||_F^2 = 2m.  kt is K^T."""
    d, n = kt.shape
    # diagonal entry i is a_w[i,i] + sum_{a<=b} (1 or 2) K[i,a] K[i,b] S[a,b],
    # so each solution S is a kernel vector (upper triangle of S, 1) of these
    # rows
    rows = [[(1 if a == b else 2) * kt[a, i] * kt[b, i]
             for a in range(d) for b in range(a, d)] + [a_w[i, i]]
            for i in range(n)]
    # kernel_basis sets one free variable to 1 in each vector, the last
    # column last, so only a consistent system ends in a vector (s0, 1)
    basis = kernel_basis(ExactMatrix(rows))
    if not basis or basis[-1][-1] != 1:
        return []
    s0 = _symmetric(d, basis[-1][:-1])
    if len(basis) == 1:
        return [s0]
    # K has full column rank: at d = 1 the one unknown is fixed, at d = 2 two
    # non-parallel rows of K give independent equations, so what is left is
    # at most a line S = s0 + t step, and only at r = n-2, where m is known
    (line,) = basis[:-1]
    step = _symmetric(d, line[:-1])
    g = kt * kt.transpose()
    x0, y = s0 * g, step * g
    # ||A_W||_F^2 + tr((x0 + t y)^2) = 2m, i.e. qa t^2 + qb t + qc = 0, with
    # qa = tr((step G)^2) > 0 because G = K^T K is positive definite
    qa, qb = _trace(y * y), 2 * _trace(x0 * y)
    qc = (_trace(x0 * x0) - 2 * m
          + sum(x * x for i in range(n) for x in a_w.row(i)))
    root = _rational_sqrt(qb * qb - 4 * qa * qc)
    if root is None:
        return []
    ts = dict.fromkeys(((-qb + root) / (2 * qa), (-qb - root) / (2 * qa)))
    return [s0 + t * step for t in ts]


def _reconstruct(analysis: _Analysis,
                 m: int | None = None) -> ReconstructionResult:
    """Every graph A = A_W + K S K^T that regenerates the analysed W, at
    rank r >= n-2; m is the edge count, given exactly when r = n-2.

    Raises NotAWalkMatrix when W is visibly not a walk matrix.
    """
    w = analysis.w
    summary = _summary(analysis)
    if m is not None:
        # the two non-main eigenvalues are real only if d >= 0
        a2, a1 = ((0, 0) + summary.main_poly.coeffs)[-3:-1]
        d = 4 * (a2 + m) - 3 * a1 * a1
        if d < 0:
            raise NegativeDiscriminant(
                f"discriminant {d} < 0; not a genuine walk matrix")
    a_w = _restriction(analysis, summary)
    if analysis.kernel:
        kt = ExactMatrix(analysis.kernel)
        candidates = [a_w + kt.transpose() * s * kt
                      for s in _kernel_parts(kt, a_w, m)]
    else:
        candidates = [a_w]
    graphs = []
    for a in candidates:
        if verify_candidate(a, w):
            g = Graph(w.n, tuple(a.row(i) for i in range(w.n)))
            # the edge count is part of the input at rank n-2
            if m is None or edge_count(g) == m:
                graphs.append(g)
    if not graphs:
        return ReconstructionResult.undetermined(NO_VALID_CANDIDATE)
    if len(graphs) == 1:
        return ReconstructionResult.unique(graphs[0])
    return ReconstructionResult.pair(*graphs)


def _unique_graph(w: WalkMatrix, r: int, wrong_rank: str) -> Graph:
    analysis = _analyse(w)
    if analysis.r != r:
        raise ValueError(wrong_rank)
    res = _reconstruct(analysis)
    if res.status != "unique":
        raise CandidateNotGraph("no candidate regenerates W")
    return res.graphs[0]


def rank_n(w: WalkMatrix) -> Graph:
    """Full rank: A = A_W, the solution of A W = W_[1,n]."""
    return _unique_graph(w, w.n, "rank_n needs a full-rank walk matrix")


def rank_n1(w: WalkMatrix) -> Graph:
    """Rank n-1: A = A_W + s k k^T, s read off the zero diagonal."""
    return _unique_graph(w, w.n - 1, "rank_n1 needs rank exactly n-1")


def rank_n2(w: WalkMatrix, m: int | None = None) -> ReconstructionResult:
    """Rank n-2: at most two graphs share W; both are found and verified.

    m is the edge count; when omitted it is derived from column 1 of W for
    S = V, otherwise MissingEdgeCount is raised.
    """
    m = _edge_count(w, m)
    analysis = _analyse(w)
    if analysis.r != w.n - 2:
        raise ValueError("rank_n2 needs rank exactly n-2")
    return _reconstruct(analysis, m)


def _edge_count(w: WalkMatrix, m: int | None) -> int:
    if m is None:
        m = derive_edge_count(w)
    if m is None:
        raise MissingEdgeCount(
            "rank n-2 with a proper subset S needs the edge count")
    return m


def derive_edge_count(w: WalkMatrix) -> int | None:
    """Edge count from column 1 when S = V (that column is the degree
    sequence); None when S is a proper subset."""
    if not w.vertex_set.is_full():
        return None
    total = sum(w.w.col(1)) if w.n > 1 else 0
    if total % 2 != 0:
        raise NotAWalkMatrix("degree sum is odd; not a walk matrix")
    return total // 2


def reconstruct(inp: ReconstructionInput) -> ReconstructionResult:
    """Dispatch on rank; every returned graph regenerates W exactly."""
    w = inp.w
    analysis = _analyse(w)
    r = analysis.r
    if r < w.n - 2:
        return ReconstructionResult.undetermined(RANK_TOO_LOW)
    try:
        m = _edge_count(w, inp.edge_count_hint) if r == w.n - 2 else None
        return _reconstruct(analysis, m)
    except MissingEdgeCount:
        return ReconstructionResult.undetermined(MISSING_EDGE_COUNT)
    except NotAWalkMatrix:
        return ReconstructionResult.undetermined(NOT_A_WALK_MATRIX)
    except WalkmatError:
        return ReconstructionResult.undetermined(NO_VALID_CANDIDATE)


def result_to_json(result: ReconstructionResult) -> str:
    obj: dict = {"status": result.status,
                 "graphs": [emit_graph6(g) for g in result.graphs]}
    if result.reason is not None:
        obj["reason"] = result.reason
    return json.dumps(obj)
