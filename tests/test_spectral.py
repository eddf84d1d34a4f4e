"""Spectral recovery from walk matrices: both rank branches, the numeric
realization, the W-restriction and the kernel projector."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_oracles import char_poly, count_walks
from fraction_oracles import kernel_oracle, poly_remainder, rref_oracle
import refdata
from walkmat import (ExactMatrix, IntPolynomial, VertexSet, from_edge_list,
                     kernel_basis, kernel_projector, main_eigen_realize, rank,
                     restriction, spectral_summary, walk_matrix, walk_slice)
from walkmat.oracle import SplitMix64, random_graph, random_nonempty_set
from walkmat.spectral import summary_from_walk

seeds = st.integers(0, 2**32 - 1)


def sample_instance(seed, max_n=9, min_n=2):
    rng = SplitMix64(seed)
    n = min_n + rng.below(max_n - min_n + 1)
    g = random_graph(n, rng)
    s = random_nonempty_set(n, rng)
    return g, s


def test_summary_paw_singletons(paw, paw_sets):
    for key in (1, 2, "V"):
        s = spectral_summary(paw, paw_sets[key])
        assert s.r == 3 and not s.full_rank and s.char_poly is None
        assert s.main_poly == IntPolynomial(refdata.PAW_MAIN)
    for key in (3, 4):
        s = spectral_summary(paw, paw_sets[key])
        assert s.r == 4 and s.full_rank
        assert s.main_poly == IntPolynomial(refdata.PAW_CHAR)
        assert s.char_poly == s.main_poly


def test_summary_single_vertex():
    g = from_edge_list(1, [])
    s = spectral_summary(g, VertexSet.full(1))
    assert s.r == 1 and s.main_poly == IntPolynomial([0, 1])


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_full_rank_branch_matches_char_poly(seed):
    g, s = sample_instance(seed, max_n=8)
    summary = spectral_summary(g, s)
    if summary.full_rank:
        assert summary.char_poly == char_poly(g.adjacency)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_branches_agree_via_dependence(seed):
    # the main polynomial as the first dependence among e, Ae, ..., A^n e:
    # walk counts from integer matrix powers and a Fraction kernel, sharing
    # no code with walk_matrix or walkmat.exact.  At full rank it uses the
    # extra column A^n e, which the pivot-row branch never sees.
    g, s = sample_instance(seed, max_n=8)
    summary = spectral_summary(g, s)
    counts = count_walks(g, s, g.n).counts
    r = len(rref_oracle(counts)[1])
    (dependence,) = kernel_oracle([row[:r + 1] for row in counts])
    assert dependence == summary.main_poly.coeffs


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_main_poly_divides_char_and_annihilates(seed):
    g, s = sample_instance(seed)
    summary = spectral_summary(g, s)
    assert summary.main_poly.coeffs[-1] == 1
    assert summary.main_poly.degree == summary.r == rank(walk_matrix(g, s).w)
    char = char_poly(g.adjacency).coeffs
    assert not any(poly_remainder(summary.main_poly.coeffs, char))
    # main(A) e = 0 exactly
    r = summary.r
    cols = walk_slice(g, s, 0, r).m
    acc = [F(0)] * g.n
    for i, c in enumerate(summary.main_poly.coeffs):
        if c:
            col = cols.col(i)
            acc = [a + c * x for a, x in zip(acc, col)]
    assert all(x == 0 for x in acc)


def test_realize_paw(paw, paw_sets):
    real = main_eigen_realize(paw, paw_sets["V"])
    assert len(real.mu) == 3
    assert abs(real.mu[0] - -1.48) < 0.01
    assert abs(real.mu[1] - 0.31) < 0.01
    assert abs(real.mu[2] - 2.17) < 0.01


def test_realize_regular_graph():
    k4 = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    real = main_eigen_realize(k4, VertexSet.full(4))
    assert len(real.mu) == 1
    assert abs(real.mu[0] - 3.0) < 1e-9
    assert np.allclose(real.vec_matrix[:, 0], 1.0, atol=1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_realize_invariants(seed):
    g, s = sample_instance(seed, max_n=12)
    real = main_eigen_realize(g, s)
    a = np.array(g.adj, dtype=float)
    w = walk_matrix(g, s)
    wf = np.array(w.w.to_float_rows())
    scale = max(1.0, np.max(np.abs(wf)))
    # W = E M at tolerance
    assert np.max(np.abs(real.vec_matrix @ real.eig_matrix - wf)) \
        <= real.tolerance * scale
    # columns of E sum to e
    e = np.array(s.characteristic, dtype=float)
    assert np.max(np.abs(real.vec_matrix.sum(axis=1) - e)) <= real.tolerance
    # each column is an eigenvector for its mu
    for i, mu in enumerate(real.mu):
        col = real.vec_matrix[:, i]
        assert np.max(np.abs(a @ col - mu * col)) <= 1e-6 * scale
    # ... and is the projection of e onto the eigenspace of mu
    lam, u = np.linalg.eigh(a)
    for i, mu in enumerate(real.mu):
        space = u[:, np.abs(lam - mu) <= 1e-6]
        assert np.max(np.abs(real.vec_matrix[:, i] - space @ (space.T @ e))) \
            <= 1e-9
    # det(M_[0,r-1])^2 is an integer (Vandermonde in the main eigenvalues)
    r = len(real.mu)
    m0 = np.array([[real.mu[i] ** k for k in range(r)] for i in range(r)])
    det2 = np.linalg.det(m0) ** 2
    assert abs(det2 - round(det2)) <= 1e-6 * max(1.0, det2)


def test_restriction_regular(paw):
    k4 = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    r = restriction(k4, VertexSet.full(4))
    assert r.a_w == ExactMatrix([[F(3, 4)] * 4] * 4)
    # 2-regular 5-cycle
    c5 = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert restriction(c5, VertexSet.full(5)).a_w == \
        ExactMatrix([[F(2, 5)] * 5] * 5)


def test_restriction_full_rank_is_adjacency(paw, paw_sets):
    a_w = restriction(paw, paw_sets[3]).a_w
    assert a_w == paw.adjacency
    assert all(type(x) is int for i in range(4) for x in a_w.row(i))


def test_restriction_paw_rank(paw, paw_sets):
    a_w = restriction(paw, paw_sets["V"]).a_w
    assert rank(a_w) == 3


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_restriction_properties(seed):
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    r = rank(w.w)
    a_w = restriction(g, s).a_w
    summary = summary_from_walk(w)
    assert a_w == a_w.transpose()
    assert g.adjacency * a_w == a_w * g.adjacency
    expected_rank = r if summary.main_poly.coeffs[0] != 0 else r - 1
    assert rank(a_w) == expected_rank
    # columns of A_W lie in the column space of W
    stacked = ExactMatrix([list(w.w.row(i)[:r]) + list(a_w.row(i))
                           for i in range(g.n)])
    assert rank(stacked) == r


def test_kernel_projector_full_rank(paw, paw_sets):
    p = kernel_projector(paw, paw_sets[3])
    assert p == ExactMatrix.zeros(4, 4)


def test_kernel_projector_paw(paw, paw_sets):
    p = kernel_projector(paw, paw_sets["V"])
    assert p == ExactMatrix([[0, 0, 0, 0], [0, 0, 0, 0],
                             [0, 0, F(1, 2), F(-1, 2)],
                             [0, 0, F(-1, 2), F(1, 2)]])


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_kernel_projector_properties(seed):
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    r = rank(w.w)
    p = kernel_projector(g, s)
    assert p == p.transpose()
    assert p * p == p
    assert rank(p) == g.n - r
    assert p * w.w == ExactMatrix.zeros(g.n, g.n)
    # it projects onto ker(W^T): kernel vectors are fixed
    for v in kernel_basis(w.w.transpose()):
        assert (p * ExactMatrix.from_columns([v])).col(0) == v


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_analysis_kernel_is_the_null_space_basis_of_w_transpose(seed):
    # the I-part of the [W | I] elimination must give, vector for vector,
    # the standard null-space basis of W^T scaled to primitive integers:
    # reconstruction orders the two graphs of a pair along this basis
    from math import lcm
    from walkmat.spectral import _analyse
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    expected = [tuple(int(x * lcm(*(y.denominator for y in v))) for x in v)
                for v in kernel_basis(w.w.transpose())]
    assert list(_analyse(w).kernel) == expected


def test_full_rank_branch_at_n16():
    # walk entries reach ~15^15 here; the pivot-row route must stay exact
    rng = SplitMix64(777)
    g = random_graph(16, rng)
    w = walk_matrix(g, VertexSet.full(16))
    if rank(w.w) == 16:
        assert summary_from_walk(w).char_poly == char_poly(g.adjacency)


@pytest.mark.parametrize("n", [32, 48, 64])
def test_full_rank_branch_at_large_n(n):
    # on the first G(n, 1/2) by seed of rank n mod the prime (a lower bound
    # of the rank, which takes seconds exactly at n = 64): the public route
    # (the certified graph, c lifted p-adically) and, at n = 32 and 48, the
    # exact pivot-row route it falls back to, against Faddeev-LeVerrier
    # (`char_poly`), which shares no code with either
    from walkmat.exact import PRIME
    from walkmat.spectral import _analyse, _summary, realize_from_walk
    for seed in range(20):
        g = random_graph(n, SplitMix64(seed))
        w = walk_matrix(g, VertexSet.full(n))
        if _analyse(w, PRIME).r == n:
            break
    else:
        raise AssertionError(f"no full-rank G({n}, 1/2) in 20 seeds")
    coeffs = summary_from_walk(w).char_poly.coeffs
    if n < 64:
        assert coeffs == _summary(_analyse(w)).char_poly.coeffs == \
            char_poly(g.adjacency).coeffs
        return
    # char_poly takes seconds here too.  At rank n, e, Ae, ..., A^{n-1} e
    # are independent, so the characteristic polynomial (Cayley-Hamilton)
    # is the only monic c of degree n with c(A) e = 0: Horner's rule on
    # the neighbour lists checks that
    v = [0] * n
    for c in reversed(coeffs):
        v = [sum(v[u] for u in g.neighbors[i]) + c for i in range(n)]
    assert len(coeffs) == n + 1 and coeffs[-1] == 1 and not any(v)
    assert len(realize_from_walk(w).mu) == n


def test_restriction_mod_prime_is_the_exact_one_reduced(paw, paw_sets):
    # A_W from the analysis mod PRIME (the packed product B = W_[1,r] T)
    # against the exact A_W reduced mod PRIME, entry for entry, at rank n
    # (where the column -sum_i c_i W_i appended to W_[1,n-1] is negative
    # before it is reduced), n-1 (a false twin) and n-2 (mates8)
    from walkmat import Graph, WalkMatrix
    from walkmat.exact import PRIME
    from walkmat.spectral import _analyse, _restriction
    g = random_graph(15, SplitMix64(3))
    twin = Graph(16, tuple(tuple(row) + (g.adj[0][i],)
                           for i, row in enumerate(g.adj))
                 + (tuple(g.adj[0]) + (0,),))
    full = next(w for w in (walk_matrix(random_graph(24, SplitMix64(seed)),
                                        VertexSet.full(24))
                            for seed in range(20))
                if _analyse(w, PRIME).r == 24)
    cases = ((walk_matrix(paw, paw_sets[3]), 0), (full, 0),
             (walk_matrix(twin, VertexSet.full(16)), 1),
             (WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W)), 2))
    for w, offset in cases:
        modular, exact = _analyse(w, PRIME), _analyse(w)
        assert modular.r == exact.r == w.n - offset
        reduced = []
        for rows, den in (_restriction(modular), _restriction(exact)):
            inv = pow(den, -1, PRIME)
            reduced.append([[x * inv % PRIME for x in row] for row in rows])
        assert reduced[0] == reduced[1]


def test_full_rank_non_walk_matrix_fails_the_hankel_equations():
    # no graph has this full-rank matrix (found by a seeded search over
    # 4 x 4 matrices with first column e and entries below 6): its
    # pivot-row polynomial x^4 + 493 x^2 - 102 x - 1833 is integral, so
    # only the walk-number recurrence sum_i c_i N_{i+j} + N_{n+j} = 0
    # rejects it
    from walkmat import ReconstructionInput, WalkMatrix, reconstruct
    from walkmat.errors import NotAWalkMatrix
    w = WalkMatrix.from_matrix(ExactMatrix(
        [[1, 4, 5, 5], [1, 1, 4, 3], [1, 3, 4, 5], [1, 3, 4, 3]]))
    assert rank(w.w) == 4
    with pytest.raises(NotAWalkMatrix):
        summary_from_walk(w)
    res = reconstruct(ReconstructionInput(w))
    assert res.status == "undetermined" and res.reason == "not_a_walk_matrix"


def test_empty_set_errors(paw):
    from walkmat.errors import EmptySet
    empty = VertexSet.of(4, [])
    for fn in (spectral_summary, restriction, kernel_projector,
               main_eigen_realize):
        with pytest.raises(EmptySet):
            fn(paw, empty)


def test_realize_check_survives_python_O():
    # the realization checks must hold under `python -O`, which strips
    # asserts, and the realization must succeed at scale: G(32, 1/2) and
    # G(40, 1/2) at S = V (rank n), and G(30, 1/2) with two false twins of
    # its last vertex at S = {1..15} (rank n-2, S != V).  Each returns E, M
    # with E*M = W and rows of E summing to e, both within its stated
    # tolerance (as in test_realize_invariants), and each column of E is
    # the projection of e onto the eigenspace of its mu.
    code = textwrap.dedent("""
        import json, sys
        import numpy as np
        from walkmat import Graph, VertexSet, rank, walk_matrix
        from walkmat.oracle import SplitMix64, random_graph
        from walkmat.spectral import main_eigen_realize
        g0 = random_graph(30, SplitMix64(30))
        twins = Graph(32, tuple(
            tuple(r) + (r[29], r[29]) for r in g0.adj) + 2 * (
            tuple(g0.adj[29]) + (0, 0),))
        cases = [(random_graph(32, SplitMix64(32)), VertexSet.full(32)),
                 (random_graph(40, SplitMix64(40)), VertexSet.full(40)),
                 (twins, VertexSet.of(32, range(1, 16)))]
        out = {"optimize": sys.flags.optimize, "cases": []}
        for g, s in cases:
            real = main_eigen_realize(g, s)
            w = walk_matrix(g, s)
            wf = np.array(w.w.to_float_rows())
            e = np.array(s.characteristic, dtype=float)
            lam, u = np.linalg.eigh(np.array(g.adj, dtype=float))
            proj = np.column_stack([
                u[:, np.abs(lam - mu) <= 1e-6]
                @ (u[:, np.abs(lam - mu) <= 1e-6].T @ e) for mu in real.mu])
            out["cases"].append(dict(
                n=g.n, rank=rank(w.w), mus=len(real.mu),
                tolerance=real.tolerance,
                scale=max(1.0, float(np.max(np.abs(wf)))),
                residual=float(np.max(np.abs(
                    real.vec_matrix @ real.eig_matrix - wf))),
                row_sum_error=float(np.max(np.abs(
                    real.vec_matrix.sum(axis=1) - e))),
                projection_error=float(np.max(np.abs(
                    real.vec_matrix - proj)))))
        print(json.dumps(out))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert [(c["n"], c["rank"]) for c in out["cases"]] == \
        [(32, 32), (40, 40), (32, 30)]
    for case in out["cases"]:
        assert case["mus"] == case["rank"]
        assert case["residual"] <= case["tolerance"] * case["scale"]
        assert case["row_sum_error"] <= case["tolerance"]
        assert case["projection_error"] <= 1e-9
