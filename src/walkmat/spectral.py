"""Spectral decomposition recovered from a walk matrix.

One fraction-free elimination of [W | I_n] (`_analyse`) gives r = rank(W),
an integer basis K of ker W^T, the I-part T of the r pivot rows and the last
pivot d; for a genuine walk matrix the pivots are 0..r-1, so
T W_[0,r-1] = d I_r (at r = n, T = d W^-1).  By r:

* r < n: the column A^r e as a unique rational combination of the first r
  columns; negating those coefficients gives the monic main polynomial.
* r = n: the characteristic polynomial follows from T with no further
  elimination.  W^T A^n e is the walk numbers N_n..N_{2n-1}, all known from
  W but N_{2n-1}, so d A^n e = T^T (N_n, ..., N_{2n-2}, t); the
  coefficients are c = -T A^n e / d, and tr A = 0 (no x^{n-1} term) fixes t.

The restriction A_W = W_[1,r] W^+ is then a product: with B = W_[1,r] T and
G = K^T K, A_W = (B - B K G^-1 K^T) / d, the only further elimination being
the small one of [G | K^T] (none at r = n).  All of it runs on Python ints;
only the answer is divided, once.  The same code runs modulo a prime when
the analysis is (`_analyse(w, modulus)`): d = 1, each division is by an
inverse mod p, and one that does not exist raises ZeroDivisionError.

The exact layer never represents irrational eigenvalues: it carries the main
polynomial.  The numeric realization W = E M (main eigenvalues mu, their
Vandermonde matrix M and the main eigenvector matrix E) is a derived
floating-point view: one symmetric eigensolver call on A_W - n P_K, P_K the
exact projector onto ker W^T, whose r largest eigenpairs are the main ones.
It is checked against W at REALIZE_CHECK_TOL; every consumer that needs
exactness re-verifies rationally.

Each public call analyses W once, through one record (`_Certified`): one
elimination modulo the prime p = PRIME always, and the exact one only when
the modular answer does not settle the call.  The rank mod p is at most the
rank over Q, so rank n mod p proves rank n, where W determines A
(A = W_[1,n] W^-1): there is one graph with this W, the restriction is A,
and A_W - n P_K = A is what the realization diagonalises.  Rank n mod p
alone also proves ker W^T = 0, so the kernel projector is then zero with no
exact elimination.  Where that graph comes from depends on the caller:

* From W alone (`*_from_walk`, `reconstruct`'s candidates): the
  elimination is of [W | I], and at rank n mod p the same formulas give
  A = A_W mod p; residues that are all 0 or 1 are read as that 0/1
  matrix, kept only if it regenerates W exactly (`_graph_rows`).
* From the graph g that built W (`spectral_summary`, `restriction`,
  `main_eigen_realize`, `kernel_projector`): at rank n mod p the graph is
  g's own rows, with nothing rebuilt or re-verified, since g regenerates
  W by construction and is the only graph that does.  The restriction,
  the realization and the projector need only that rank, so their one
  modular elimination is of W alone (n columns); the summary's is of
  [W | I], for T.

The characteristic polynomial c solves W c = -A^n e (Cayley-Hamilton) with
A^n e = A W_{n-1}; it is lifted p-adically on T = W^-1 mod p, and an exact
residual 0 certifies it, so it is the integral solution that the pivot-row
route computes.  Any other outcome runs the exact route unchanged: rank
below n mod p, a residue 0 to invert, no verified graph or a residual left.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import NotAWalkMatrix, RealizationFailed
from .exact import (PRIME, ExactMatrix, IntPolynomial, _divide_rows,
                    _divmod, _dot, _echelon, _pack, _ratio, _slot_bits,
                    _unpack, rank)
from .graphs import Graph, VertexSet
from .walk import WalkMatrix, verify_candidate, walk_matrix

# E*M = W and related float identities are checked at REALIZE_CHECK_TOL
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
    """Rank, main polynomial, left kernel and the pivot rows' I-part of W,
    from `_analyse`."""

    w: WalkMatrix
    r: int
    # None at r = n, and when W_[0,r-1] is dependent or the polynomial is
    # not integral: then W is not a walk matrix
    main_poly: IntPolynomial | None
    kernel: tuple[tuple[int, ...], ...]  # primitive integer basis of ker W^T
    t: tuple[tuple[int, ...], ...]  # r x n: T W_[0,r-1] = d I_r when genuine
    d: int  # the last pivot
    modulus: int  # a prime when every number above is a residue mod it, or 0


def _analyse(w: WalkMatrix, modulus: int = 0) -> _Analysis:
    """One fraction-free elimination of [W | I_n], pivoting in W's columns.

    The W-part ends as d times the reduced row echelon form of W.  Each row
    past r is zero there, and its I-part is a vanishing combination of rows
    of W: d at its own vertex v minus the pivot rows before v that row v
    depends on.  These n - r rows are a basis of ker W^T.

    With a prime `modulus` the elimination runs over GF(p) (d = 1) and
    everything is the same but mod p: r is then the rank mod p, at most
    the rank over Q, and the polynomial's coefficients are residues.
    """
    n = w.n
    rows = [list(w.w.row(v)) + [int(u == v) for u in range(n)]
            for v in range(n)]
    rows, pivots, d = _echelon(rows, n, modulus)
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
    return _Analysis(w, r, main_poly, kernel,
                     tuple(tuple(row[n:]) for row in rows[:r]), d, modulus)


def _char_from_pivots(a: _Analysis) -> IntPolynomial:
    """Full-rank branch: the characteristic polynomial from T = d W^-1 and
    the walk numbers N_k = e^T A^k e = (A^i e).(A^j e), i + j = k.

    With v = (N_n, ..., N_{2n-2}, 0), d A^n e = T^T v + t T_{n-1} for the
    unknown t = N_{2n-1}, and c_{n-1} = -T_{n-1}.A^n e / d = 0 fixes t.  A W
    that no graph has shows as a t, A^n e or c that is not integral, or as
    a c that misses the Hankel equations sum_i c_i N_{i+j} + N_{n+j} = 0,
    j < n-1, which every walk matrix satisfies.  Modulo a prime every
    division is by an inverse, and one that does not exist raises
    ZeroDivisionError.
    """
    w, t, d, p = a.w, a.t, a.d, a.modulus
    n = w.n
    cols = [w.w.col(k) for k in range(n)]
    walks = [_dot(cols[k // 2], cols[k - k // 2]) for k in range(2 * n - 1)]
    if p:
        walks = [x % p for x in walks]
    tv = [_dot(walks[n:], tc) for tc in zip(*t)]  # T^T v
    top, rem = _divmod(-_dot(t[-1], tv), _dot(t[-1], t[-1]), p)
    ane, rems = zip(*(_divmod(x + top * y, d, p) for x, y in zip(tv, t[-1])))
    c, crems = zip(*(_divmod(-_dot(row, ane), d, p) for row in t))
    c += (1,)
    hankel = (_dot(c, walks[j:j + n + 1]) for j in range(n - 1))
    if rem or any(rems) or any(crems) or any(
            x % p if p else x for x in hankel):
        raise NotAWalkMatrix("recovered polynomial is not integral or misses "
                             "the walk-number recurrence; input is not a "
                             "genuine walk matrix")
    return IntPolynomial(c)


def _summary(a: _Analysis) -> SpectralSummary:
    """The spectral summary of an analysed W, or NotAWalkMatrix."""
    if a.r == a.w.n:
        char = _char_from_pivots(a)
        return SpectralSummary(a.r, char, True, char)
    if a.main_poly is None:
        raise NotAWalkMatrix("leading columns are dependent or the main "
                             "polynomial is not integral; input is not a "
                             "genuine walk matrix")
    return SpectralSummary(a.r, a.main_poly, False, None)


def summary_from_walk(w: WalkMatrix) -> SpectralSummary:
    """Spectral summary computed from W alone (no graph needed)."""
    return _Certified(w).summary


def spectral_summary(g: Graph, s: VertexSet) -> SpectralSummary:
    return _Certified(walk_matrix(g, s), g).summary


def _gram_solve(kt, n: int, modulus: int = 0
                ) -> tuple[list[tuple[int, ...]], int]:
    """The n columns of X = dg G^-1 K^T (G = K^T K, kt = K^T) and dg, from
    one elimination of [G | K^T]; empty columns and dg = 1 when K is.

    G is positive definite over Q; modulo a prime it can be singular, and
    then ZeroDivisionError is raised.
    """
    k = len(kt)
    if not kt:
        return [()] * n, 1
    rows, pivots, dg = _echelon([[_dot(ki, kj) for kj in kt] + list(ki)
                                 for ki in kt], k, modulus)
    if len(pivots) < k:
        raise ZeroDivisionError("K^T K is singular modulo the prime")
    return [tuple(row[k + u] for row in rows) for u in range(n)], dg


def _restriction(a: _Analysis, shift: int = 0) -> tuple[list[list[int]], int]:
    """A_W - shift P_K as integer rows over one common denominator:
    A_W = W_[1,r] W^+ (W^+ the pseudo-inverse of W_[0,r-1]), and
    P_K = K G^-1 K^T (G = K^T K) projects onto ker W^T.

    With B = W_[1,r] T, B / d maps W_[0,r-1] to W_[1,r], and I - P_K fixes
    the column space of W and sends K to 0, so A_W = B (I - P_K) / d and
    A_W - shift P_K = (dg B - (B K + shift d K) X) / (d dg) with
    X = dg G^-1 K^T from `_gram_solve`: the rows returned are that
    numerator, the denominator d dg.  At r = n, K is empty, A^n e comes
    from the characteristic recurrence and A_W = A.  The summary of the
    analysis, made here, raises NotAWalkMatrix when W is visibly no walk
    matrix.  Modulo a prime, B is formed on packed rows of T
    (`exact._pack`): row v of B is sum_k W_[1,r][v][k] T_k, one bigint
    multiply-add per k, with every factor reduced into [0, p) first, since
    a negative one (the column A^n e at r = n is one before its reduction)
    would borrow across slots.  The numerator is a residue only after its
    division.
    """
    summary = _summary(a)
    w, r, d, kt, p = a.w, a.r, a.d, a.kernel, a.modulus
    n = w.n
    rows = [w.w.row(v) for v in range(n)]
    if p:
        rows = [[x % p for x in row] for row in rows]
    upper = [list(row[1:r + 1]) for row in rows]
    if r == n:
        # A^n e = -sum_i c_i A^i e, c the characteristic polynomial
        cs = summary.char_poly.coeffs
        for row, wrow in zip(upper, rows):
            row.append(-_dot(cs, wrow))
    if p:
        bits = _slot_bits(p, r)
        packed = [_pack(trow, bits) for trow in a.t]
        b = [_unpack(_dot([x % p for x in row], packed), bits, n, p)
             for row in upper]
    else:
        tcols = list(zip(*a.t))
        b = [[_dot(row, tc) for tc in tcols] for row in upper]
    if not kt:
        return b, d
    xcols, dg = _gram_solve(kt, n, p)
    out = []
    for v, bv in enumerate(b):
        cv = [_dot(bv, kj) + shift * d * kj[v] for kj in kt]
        out.append([dg * y - _dot(cv, xc) for y, xc in zip(bv, xcols)])
    return out, d * dg


def restriction_from_walk(w: WalkMatrix) -> Restriction:
    """A_W = W_[1,r] W^+, exact (W^+ the pseudo-inverse of W_[0,r-1])."""
    return _Certified(w).restriction()


def restriction(g: Graph, s: VertexSet) -> Restriction:
    return _Certified(walk_matrix(g, s), g).restriction()


def kernel_projector_from_walk(w: WalkMatrix) -> ExactMatrix:
    """K (K^T K)^{-1} K^T: exact orthogonal projector onto ker(W^T); zero
    when W has rank n modulo PRIME, which proves ker W^T = 0."""
    return _Certified(w).kernel_projector()


def kernel_projector(g: Graph, s: VertexSet) -> ExactMatrix:
    return _Certified(walk_matrix(g, s), g).kernel_projector()


# --- the one record per walk matrix ---

class _Certified:
    """The analyses of one W that the public calls read, each made at most
    once and only when a call reads it (module docstring).  g, passed only
    by the graph-facing calls, is the graph that W was built from."""

    def __init__(self, w: WalkMatrix, g: Graph | None = None):
        self.w = w
        self._g = g

    @cached_property
    def modular(self) -> _Analysis:
        """The elimination of [W | I] modulo PRIME."""
        return _analyse(self.w, PRIME)

    @cached_property
    def full_rank_mod_p(self) -> bool:
        """rank W = n modulo PRIME, which proves it over Q: from `modular`
        when the record has made it or has no g, else from W alone."""
        if self._g is None or "modular" in vars(self):
            return self.modular.r == self.w.n
        return _rank_mod_prime(self.w) == self.w.n

    @cached_property
    def graph(self) -> tuple[tuple[int, ...], ...] | None:
        """The rows of the one graph with this W, at rank n mod PRIME: g's
        own, else A_W mod PRIME (for the walk-facing forward calls only);
        None below that rank, or (without g) when a residue 0 is met, a
        check fails or the residues are no graph with this W."""
        if not self.full_rank_mod_p:
            return None
        if self._g is not None:
            return self._g.adj
        a = self.modular
        try:
            return _graph_rows(self.w, *_restriction(a), a.modulus)
        except (NotAWalkMatrix, ZeroDivisionError):
            return None

    @cached_property
    def exact(self) -> _Analysis:
        return _analyse(self.w)

    @cached_property
    def summary(self) -> SpectralSummary:
        """From the graph and the Dixon lift, else from the exact analysis.
        The lift reads T of `modular`, made first, so the graph's rank is
        read from it too."""
        a = self.modular
        if self.graph is not None:
            char = _char_from_graph(a, self.graph)
            if char is not None:
                return SpectralSummary(self.w.n, char, True, char)
        return _summary(self.exact)

    def restriction(self) -> Restriction:
        """The graph, else A_W of the exact analysis."""
        if self.graph is not None:
            return Restriction(ExactMatrix(self.graph))
        num, den = _restriction(self.exact)
        return Restriction(ExactMatrix(_divide_rows(num, den)))

    def kernel_projector(self) -> ExactMatrix:
        """Zero at rank n mod PRIME, else from the exact kernel."""
        n = self.w.n
        if self.full_rank_mod_p:
            return ExactMatrix.zeros(n, n)
        kt = self.exact.kernel
        xcols, dg = _gram_solve(kt, n)
        return ExactMatrix([[_ratio(_dot([kj[v] for kj in kt], xc), dg)
                             for xc in xcols] for v in range(n)])

    def realization(self) -> NumericRealization:
        """From the graph, else from A_W - n P_K of the exact analysis."""
        w = self.w
        if self.graph is not None:
            return _realize(w, w.n, self.graph, 1)
        a = self.exact
        return _realize(w, a.r, *_restriction(a, shift=w.n))


def _graph_rows(w: WalkMatrix, rows, den: int, modulus: int) -> tuple | None:
    """The rows of rows / den (residues mod a prime) if they are a 0/1
    graph with this W, else None; den 0 mod p raises ZeroDivisionError."""
    adj = ExactMatrix(_divide_rows(rows, den, modulus))
    if not verify_candidate(adj, w):
        return None
    return tuple(map(adj.row, range(w.n)))


def _rank_mod_prime(w: WalkMatrix) -> int:
    """rank W modulo PRIME, from the elimination of W alone; at most the
    rank over Q."""
    return len(_echelon([w.w.row(v) for v in range(w.n)], modulus=PRIME)[1])


def _rank_at_least(w: WalkMatrix, r: int) -> bool:
    """rank W >= r: only a rank mod PRIME below r needs the exact rank."""
    return _rank_mod_prime(w) >= r or rank(w.w) >= r


def _char_from_graph(a: _Analysis, adj) -> IntPolynomial | None:
    """The characteristic polynomial of the graph with the 0/1 rows adj,
    with the analysis a of its walk matrix modulo p: the c with
    W c = -A^n e.

    A^n e = A W_{n-1} exactly, and c is lifted p-adically (Dixon) on
    T = W^-1 mod p: each step takes the balanced digit x = T b mod p of
    the residual b and divides b - W x, exactly, by p.  Every coefficient
    of the characteristic polynomial of a graph satisfies
    |c_k| <= C(n, k) (n-1)^(n-k), as its eigenvalues lie in [-(n-1), n-1],
    so the loop needs no more digits than that bound has.  The residual
    that ends at 0 certifies W c + A^n e = 0 exactly; None otherwise.
    """
    w, p = a.w, a.modulus
    n = w.n
    rows = [w.w.row(v) for v in range(n)]
    last = w.w.col(n - 1)
    b = [-sum(compress(last, row)) for row in adj]
    bound = max(math.comb(n, k) * (n - 1) ** (n - k) for k in range(n))
    half = p // 2
    c, scale = [0] * n, 1
    while any(b) and scale <= 2 * bound:
        residues = [x % p for x in b]
        x = [(_dot(trow, residues) + half) % p - half for trow in a.t]
        b, rems = zip(*(divmod(bv - _dot(row, x), p)
                        for bv, row in zip(b, rows)))
        if any(rems):
            return None
        c = [cv + scale * xv for cv, xv in zip(c, x)]
        scale *= p
    return None if any(b) else IntPolynomial(c + [1])


# --- numeric realization ---

def realize_from_walk(w: WalkMatrix) -> NumericRealization:
    """Numeric (mu, M, E) with W = E*M checked at REALIZE_CHECK_TOL."""
    return _Certified(w).realization()


def _realize(w: WalkMatrix, r: int, shifted, den: int) -> NumericRealization:
    """The realization of W of rank r from A_W - n P_K, given as integer
    rows over the denominator den (P_K the projector onto ker W^T).

    A_W is A on the column space of W, spanned by the main eigenvectors,
    and 0 on ker W^T; shifting ker W^T to -n puts it below every eigenvalue
    of A, all in [-(n-1), n-1], so the r largest eigenpairs (mu_i, v_i) of
    A_W - n P_K are the main ones, and E = V diag(V^T e).
    """
    import numpy as np

    n = w.n
    vals, vecs = np.linalg.eigh(np.array([[x / den for x in row]
                                          for row in shifted]))
    mu, v = vals[n - r:], vecs[:, n - r:]
    e_char = np.array([float(x) for x in w.vertex_set.characteristic])
    vec = v * (v.T @ e_char)
    eig = np.vander(mu, n, increasing=True)
    check = REALIZE_CHECK_TOL
    wf = np.array(w.w.to_float_rows())
    scale = max(1.0, np.max(np.abs(wf)))
    # written as "not <=" so that a NaN residual fails too
    if not np.max(np.abs(vec @ eig - wf)) <= check * scale:
        raise RealizationFailed("realization failed the E*M = W check")
    if not np.max(np.abs(vec.sum(axis=1) - e_char)) <= check:
        raise RealizationFailed("eigenvector columns do not sum to e")
    return NumericRealization(tuple(mu.tolist()), eig, vec, check)


def main_eigen_realize(g: Graph, s: VertexSet) -> NumericRealization:
    return _Certified(walk_matrix(g, s), g).realization()


# --- serialization ---

def summary_to_json(summary: SpectralSummary,
                    realization: NumericRealization | None = None) -> str:
    obj = {"rank": summary.r, "main_poly": list(summary.main_poly.coeffs)}
    if summary.char_poly is not None:
        obj["char_poly"] = list(summary.char_poly.coeffs)
    if realization is not None:
        obj["mu"] = list(realization.mu)
    return json.dumps(obj)
