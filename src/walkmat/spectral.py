"""Spectral decomposition recovered from a walk matrix.

One fraction-free elimination of [W | I_n] (`_analyse`) gives r = rank(W),
an integer basis K of ker W^T and, by r:

* r < n: the column A^r e as a unique rational combination of the first r
  columns; negating those coefficients gives the monic main polynomial.
* r = n: the characteristic polynomial follows from the 2n-1 walk numbers
  by solving (W_[0,n-2]^T W_[0,n-2]) c^T = -w^T with the x^{n-1}
  coefficient pinned to 0 (trace of an adjacency matrix).

The exact layer never represents irrational eigenvalues: it carries the main
polynomial.  Numeric eigenvalues, the Vandermonde eigenvalue matrix M and the
eigenvector matrix E form a derived floating-point view with an explicit
tolerance; every consumer that needs exactness re-verifies rationally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (EmptySet, NotAWalkMatrix, RealizationFailed,
                     RootsNotSeparated)
from .exact import (ExactMatrix, IntPolynomial, _echelon, rank, solve,
                    solve_matrix)
from .graphs import Graph, VertexSet
from .walk import WalkMatrix, walk_matrix, walk_slice

# root polishing happens at the caller-supplied tolerance (default below);
# E*M = W and related float identities are checked at REALIZE_CHECK_TOL
ROOT_TOL = 1e-10
REALIZE_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SpectralSummary:
    """Rank, main polynomial and (at full rank) the characteristic polynomial."""

    r: int
    main_poly: IntPolynomial
    full_rank: bool
    char_poly: IntPolynomial | None = None


@dataclass(frozen=True)
class NumericRealization:
    """Floating-point view of the decomposition: W ~ E * M at `tolerance`."""

    mu: tuple[float, ...]          # ascending main eigenvalues
    eig_matrix: np.ndarray         # r x n Vandermonde rows (mu_i^k)
    vec_matrix: np.ndarray         # n x r main eigenvector columns
    tolerance: float


@dataclass(frozen=True)
class Restriction:
    """The part of A visible through the column space of W."""

    a_w: ExactMatrix


# --- exact core, from the walk matrix alone ---

@dataclass(frozen=True)
class _Analysis:
    """Rank, main polynomial and left kernel of W, from `_analyse`."""

    w: WalkMatrix
    r: int
    # None at r = n, and when W_[0,r-1] is dependent or the polynomial is
    # not integral: then W is not a walk matrix
    main_poly: IntPolynomial | None
    kernel: tuple[tuple[int, ...], ...]  # primitive integer basis of ker W^T


def _analyse(w: WalkMatrix) -> _Analysis:
    """One fraction-free elimination of [W | I_n], pivoting in W's columns.

    The W-part ends as d times the reduced row echelon form of W.  Each row
    past r is zero there, and its I-part is a vanishing combination of rows
    of W: d at its own vertex v minus the pivot rows before v that row v
    depends on.  These n - r rows are a basis of ker W^T.
    """
    n = w.n
    rows = [list(w.w.row(v)) + [int(u == v) for u in range(n)]
            for v in range(n)]
    rows, pivots, d = _echelon(rows, n)
    r = len(pivots)
    # a kernel row has d at its own vertex: dividing by the gcd, with the
    # sign of d, leaves the primitive vector that is positive there
    kernel = tuple(tuple(x // (math.gcd(*row) * (1 if d > 0 else -1))
                         for x in row[n:]) for row in rows[r:])
    main_poly = None
    # column r of the reduced W holds A^r e over e, Ae, ..., A^{r-1} e
    if (r < n and pivots == list(range(r))
            and all(row[r] % d == 0 for row in rows[:r])):
        main_poly = IntPolynomial([-row[r] // d for row in rows[:r]] + [1])
    return _Analysis(w, r, main_poly, kernel)


def _char_from_hankel(w: WalkMatrix) -> IntPolynomial:
    """Full-rank branch: characteristic polynomial from the walk numbers
    N_k = e^T A^k e = (A^i e).(A^j e), i + j = k."""
    n = w.n
    cols = [w.w.col(k) for k in range(n)]
    walks = [sum(x * y for x, y in zip(cols[k // 2], cols[k - k // 2]))
             for k in range(2 * n - 1)]
    hankel = ExactMatrix([walks[j:j + n - 1] for j in range(n - 1)])
    c = solve(hankel, [-walks[n + j] for j in range(n - 1)])
    if not all(isinstance(x, int) for x in c):
        raise NotAWalkMatrix("recovered polynomial is not integral; "
                             "input is not a genuine walk matrix")
    return IntPolynomial(c + (0, 1))


def _summary(a: _Analysis) -> SpectralSummary:
    """The spectral summary of an analysed W, or NotAWalkMatrix."""
    if a.r == a.w.n:
        char = _char_from_hankel(a.w)
        return SpectralSummary(a.r, char, True, char)
    if a.main_poly is None:
        raise NotAWalkMatrix("leading columns are dependent or the main "
                             "polynomial is not integral; input is not a "
                             "genuine walk matrix")
    return SpectralSummary(a.r, a.main_poly, False, None)


def summary_from_walk(w: WalkMatrix) -> SpectralSummary:
    """Spectral summary computed from W alone (no graph needed)."""
    return _summary(_analyse(w))


def spectral_summary(g: Graph, s: VertexSet) -> SpectralSummary:
    if s.is_empty():
        raise EmptySet("spectral summary needs a non-empty vertex set")
    return summary_from_walk(walk_matrix(g, s))


def main_poly_via_dependence(g: Graph, s: VertexSet) -> IntPolynomial:
    """Main polynomial from the A^r e dependence, for any rank.

    At full rank this uses the extra column A^n e from the graph, giving an
    independent route to cross-check the Hankel branch.
    """
    w = walk_matrix(g, s)
    r = rank(w.w)
    sl = walk_slice(g, s, 0, r).m
    f = solve(sl.take_cols(range(r)), sl.col(r))
    return IntPolynomial([-x for x in f] + [1])


def _restriction(a: _Analysis,
                 summary: SpectralSummary | None = None) -> ExactMatrix:
    """A_W = W_[1,r] W^+ (W^+ the pseudo-inverse of W_[0,r-1]).

    A_W maps W_[0,r-1] to W_[1,r] and K to 0, so X = A_W^T is the unique
    solution of [W_[0,r-1] | K]^T X = [W_[1,r]^T ; 0].  At r = n, K is
    empty, A^n e comes from the characteristic recurrence and A_W = A;
    summary is the analysis's, when the caller already has it.
    """
    w, r, k = a.w, a.r, a.kernel
    n = w.n
    upper = [w.w.col(j) for j in range(1, min(r + 1, n))]
    if r == n:
        # A^n e = -sum_i c_i A^i e, c the characteristic polynomial
        cs = (summary or _summary(a)).char_poly.coeffs
        upper.append([-sum(c * x for c, x in zip(cs, w.w.row(v)))
                      for v in range(n)])
    lhs = ExactMatrix([w.w.col(j) for j in range(r)] + list(k))
    rhs = ExactMatrix(upper + [[0] * n] * len(k))
    return solve_matrix(lhs, rhs).transpose()


def restriction_from_walk(w: WalkMatrix) -> Restriction:
    """A_W = W_[1,r] W^+, exact (W^+ the pseudo-inverse of W_[0,r-1])."""
    return Restriction(_restriction(_analyse(w)))


def restriction(g: Graph, s: VertexSet) -> Restriction:
    if s.is_empty():
        raise EmptySet("restriction needs a non-empty vertex set")
    return restriction_from_walk(walk_matrix(g, s))


def kernel_projector_from_walk(w: WalkMatrix) -> ExactMatrix:
    """K (K^T K)^{-1} K^T: exact orthogonal projector onto ker(W^T)."""
    k = _analyse(w).kernel
    if not k:
        return ExactMatrix.zeros(w.n, w.n)
    kt = ExactMatrix(k)
    return kt.transpose() * solve_matrix(kt * kt.transpose(), kt)


def kernel_projector(g: Graph, s: VertexSet) -> ExactMatrix:
    if s.is_empty():
        raise EmptySet("kernel projector needs a non-empty vertex set")
    return kernel_projector_from_walk(walk_matrix(g, s))


# --- numeric realization ---

def _polished_roots(poly: IntPolynomial, tol: float) -> list[float]:
    """Real roots of a real-rooted polynomial, Newton-polished to |p| <= tol."""
    import numpy as np

    desc = [float(c) for c in reversed(poly.coeffs)]
    roots = [z.real for z in np.roots(desc)]
    deriv = poly.derivative()
    out = []
    for x in roots:
        for _ in range(60):
            px = float(poly(x))
            if abs(px) <= tol:
                break
            dpx = float(deriv(x))
            if dpx == 0.0:
                break
            step = px / dpx
            x -= step
            if abs(step) < 1e-300:
                break
        out.append(x)
    out.sort()
    return out


def realize_from_walk(w: WalkMatrix, tol: float = ROOT_TOL) -> NumericRealization:
    """Numeric (mu, M, E) with W = E*M checked at REALIZE_CHECK_TOL."""
    import numpy as np

    summary = summary_from_walk(w)
    r, n = summary.r, w.n
    mu = _polished_roots(summary.main_poly, tol)
    if len(mu) != r:
        raise RootsNotSeparated("lost a root while polishing")
    for a, b in zip(mu, mu[1:]):
        if b - a <= tol:
            raise RootsNotSeparated(f"roots {a} and {b} coincide within {tol}")
    # scale column k by s^-k before the float solve so entries stay O(1)
    s = max(1.0, max(abs(x) for x in mu))
    ws = np.array([[float(w.w[v, k]) / s**k for k in range(r)]
                   for v in range(n)])
    ms = np.array([[(x / s)**k for k in range(r)] for x in mu])
    vec = np.linalg.solve(ms.T, ws.T).T
    eig = np.array([[x**k for k in range(n)] for x in mu])
    check = REALIZE_CHECK_TOL
    wf = np.array(w.w.to_float_rows())
    scale = max(1.0, np.max(np.abs(wf)))
    # written as "not <=" so that a NaN residual fails too
    if not np.max(np.abs(vec @ eig - wf)) <= check * scale:
        raise RealizationFailed("realization failed the E*M = W check")
    e_char = np.array([float(x) for x in w.vertex_set.characteristic])
    if not np.max(np.abs(vec.sum(axis=1) - e_char)) <= check:
        raise RealizationFailed("eigenvector columns do not sum to e")
    return NumericRealization(tuple(mu), eig, vec, check)


def main_eigen_realize(g: Graph, s: VertexSet,
                       tol: float = ROOT_TOL) -> NumericRealization:
    if s.is_empty():
        raise EmptySet("realization needs a non-empty vertex set")
    return realize_from_walk(walk_matrix(g, s), tol)


# --- serialization ---

def summary_to_json(summary: SpectralSummary,
                    realization: NumericRealization | None = None) -> str:
    obj = {"rank": summary.r, "main_poly": list(summary.main_poly.coeffs)}
    if summary.char_poly is not None:
        obj["char_poly"] = list(summary.char_poly.coeffs)
    if realization is not None:
        obj["mu"] = list(realization.mu)
    return json.dumps(obj)
