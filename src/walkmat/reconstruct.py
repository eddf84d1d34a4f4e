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
allows at most two graphs at rank n-2".  Every candidate regenerates W
exactly before it is returned.  r < n-2 is undetermined (the theory
provides counterexamples); so is a W that no graph has (not_a_walk_matrix)
and one whose candidates all fail.

`reconstruct` first runs the same formulas modulo the prime p = PRIME: one
elimination of [W | I] over GF(p), and every division by an inverse mod p.
A candidate's residues lift to a 0/1 matrix when they are all 0 or 1, and
the candidate is kept only if that matrix passes the exact
`verify_candidate` and, at rank_p = n-2, has m edges; at rank_p = n that
is `spectral._full_rank_graph`, which the forward calls share.  Exactly
one kept graph is the whole answer:

* rank_Q >= rank_p, since a minor that is non-zero mod p is non-zero.
* If rank_Q > rank_p >= n-2, then rank_Q >= n-1, where W determines A: the
  verified graph is the only one.
* If rank_Q = rank_p, the saturated integer basis of ker W^T reduces onto
  ker_p W^T, which every graph with this W leaves invariant mod p.  Every
  such graph therefore reduces mod p to A_W + K S K^T with S on the same
  zero-diagonal system and the same edge-count quadratic mod p, that is, to
  one of the enumerated candidates, and lifting recovers it exactly.  A
  second graph would have been found too.

Every other outcome runs the exact path unchanged: no or two verified
graphs (the exact path fixes a pair's order), rank_p < n-2, pivots other
than 0..r-1 mod p, a divisor that is 0 mod p (t.t at rank n, K^T K, or
2 qa on a line), more than a line of S, and rank_p = n-2 with no edge
count.  So every undetermined reason and every error is the exact path's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (CandidateNotGraph, MissingEdgeCount,
                     NegativeDiscriminant, NonUnique, NotAWalkMatrix,
                     WalkmatError)
from .exact import PRIME, ExactMatrix, _dot, _kernel, _ratio
from .graphs import Graph, edge_count, emit_graph6
from .spectral import (_Analysis, _analyse, _full_rank_graph, _restriction,
                       _summary)
# bench/tracing.py wraps walkmat.reconstruct.verify_candidate
from .walk import WalkMatrix, verify_candidate

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


def _symmetric(d: int, upper) -> list[list[int]]:
    """The symmetric d x d matrix whose upper triangle, row by row, is upper."""
    s = [[0] * d for _ in range(d)]
    it = iter(upper)
    for a in range(d):
        for b in range(a, d):
            s[a][b] = s[b][a] = next(it)
    return s


def _trace_of_product(x, y) -> int:
    return sum(_dot(row, col) for row, col in zip(x, zip(*y)))


def _sqrt(x: int, modulus: int) -> int | None:
    """A square root of x, None if it has none: over Q the root of an
    integer square; modulo a prime p = 3 mod 4, x^((p+1)/4)."""
    if modulus:
        root = pow(x, (modulus + 1) // 4, modulus)
        return root if (root * root - x) % modulus == 0 else None
    if x < 0:
        return None
    root = math.isqrt(x)
    return root if root * root == x else None


def _kernel_parts(kt, num: list[list[int]], den: int, m: int | None,
                  modulus: int) -> list[tuple[list[list[int]], int]]:
    """Every A = A_W + K S K^T with a zero diagonal, as integer rows over a
    denominator; on a line of such S, only the points where ||A||_F^2 = 2m.
    A_W is num / den and kt is K^T; with a prime modulus (0: exact) each
    quotient is meant mod p."""
    k = len(kt)
    kcols = list(zip(*kt))  # the rows of K
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    # den times diagonal entry i is num[i][i] + den sum_{a<=b} (1 or 2)
    # K[i,a] K[i,b] S[a,b], so each solution S is a kernel vector (upper
    # triangle of S, 1) of these rows
    rows = [[den * (1 if a == b else 2) * ki[a] * ki[b] for a, b in pairs]
            + [num[i][i]] for i, ki in enumerate(kcols)]
    # _kernel gives each free column a vector, e there, the last column
    # last, so only a consistent system ends in a vector e (S_0, 1)
    basis, e = _kernel(rows, modulus)
    if not basis or basis[-1][-1] != e:
        return []
    u = _symmetric(k, basis[-1])  # e S_0
    if len(basis) == 1:
        parts = [(u, e)]
    elif len(basis) == 2:
        # K has full column rank: at k = 1 the one unknown is fixed, at
        # k = 2 two non-parallel rows of K give independent equations, so
        # what is left is at most a line S = (u + t v) / e, and only at
        # r = n-2, where m is known
        v = _symmetric(k, basis[0])
        g = [[_dot(ka, kb) for kb in kt] for ka in kt]  # G = K^T K
        x0 = [[_dot(row, gc) for gc in g] for row in u]  # G is symmetric
        y = [[_dot(row, gc) for gc in g] for row in v]
        # (e den)^2 (||A||_F^2 - 2m) = qa t^2 + qb t + qc, as A_W K = 0 and
        # ||A_W||_F^2 = ||num||_F^2 / den^2; qa > 0 as G is positive definite
        qa = den * den * _trace_of_product(y, y)
        qb = 2 * den * den * _trace_of_product(x0, y)
        qc = den * den * _trace_of_product(x0, x0) + e * e * (
            sum(_dot(row, row) for row in num) - 2 * m * den * den)
        root = _sqrt(qb * qb - 4 * qa * qc, modulus)
        if root is None:
            return []
        # t = tau / (2 qa), so S = (2 qa u + tau v) / (2 qa e)
        parts = [([[2 * qa * x + tau * z for x, z in zip(ur, vr)]
                   for ur, vr in zip(u, v)], 2 * qa * e)
                 for tau in dict.fromkeys((-qb + root, -qb - root))]
    else:
        raise NonUnique("the zero diagonal leaves more than a line of S")
    # A = num / den + K (s / f) K^T = (f num + den K s K^T) / (den f)
    out = []
    for s, f in parts:
        skt = list(zip(*([_dot(row, kc) for kc in kcols] for row in s)))
        out.append(([[f * x + den * _dot(ki, c) for x, c in zip(nrow, skt)]
                     for nrow, ki in zip(num, kcols)], den * f))
    return out


def _reconstruct(analysis: _Analysis,
                 m: int | None = None) -> ReconstructionResult:
    """Every graph A = A_W + K S K^T that regenerates the analysed W, at
    rank r >= n-2; m is the edge count, given exactly when r = n-2.

    Raises NotAWalkMatrix when W is visibly not a walk matrix.  On an
    analysis mod a prime the candidates are residues, kept only when they
    are 0/1 and pass the same exact verification; a division by a residue
    0 raises ZeroDivisionError.
    """
    w, p = analysis.w, analysis.modulus
    summary = _summary(analysis)
    if m is not None and not p:
        # the two non-main eigenvalues are real only if d >= 0
        a2, a1 = ((0, 0) + summary.main_poly.coeffs)[-3:-1]
        d = 4 * (a2 + m) - 3 * a1 * a1
        if d < 0:
            raise NegativeDiscriminant(
                f"discriminant {d} < 0; not a genuine walk matrix")
    num, den = _restriction(analysis, summary)
    if analysis.kernel:
        candidates = _kernel_parts(analysis.kernel, num, den, m, p)
    else:
        candidates = [(num, den)]
    graphs = []
    for rows, f in candidates:
        a = ExactMatrix([[_ratio(x, f, p) for x in row] for row in rows])
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


def _modular_graph(w: WalkMatrix, hint: int | None) -> Graph | None:
    """The one graph the pipeline mod PRIME finds and verifies, or None,
    which leaves the call to the exact path (module docstring)."""
    analysis = _analyse(w, PRIME)
    if analysis.r == w.n:
        a = _full_rank_graph(analysis)
        return None if a is None else Graph(w.n, tuple(map(a.row, range(w.n))))
    if analysis.r < w.n - 2:
        return None
    try:
        m = _edge_count(w, hint) if analysis.r == w.n - 2 else None
        res = _reconstruct(analysis, m)
    except (WalkmatError, ZeroDivisionError):
        return None
    return res.graphs[0] if res.status == "unique" else None


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
    """The one graph found mod PRIME, or else the exact path's answer
    (module docstring); every returned graph regenerates W exactly."""
    w = inp.w
    g = _modular_graph(w, inp.edge_count_hint)
    if g is not None:
        return ReconstructionResult.unique(g)
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
