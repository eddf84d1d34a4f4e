"""Adjacency recovery: round trips, the rank-6 mate pair, degenerate cases."""

import numpy as np
import pytest

import refdata
from walkmat import (ExactMatrix, Graph, SplitMix64, VertexSet, WalkMatrix,
                     from_edge_list, random_graph, rank, rank_n, rank_n1,
                     rank_n2, reconstruct, verify_candidate, walk_matrix,
                     ReconstructionInput)
from walkmat.errors import (MissingEdgeCount, NegativeDiscriminant,
                            NotAWalkMatrix)
from walkmat.oracle import random_nonempty_set
from walkmat.reconstruct import derive_edge_count
from walkmat.spectral import summary_from_walk


def instances_with_rank(target_offset, count, max_n=9, full_set=None,
                        seed0=0):
    """First `count` random (graph, set) instances with rank = n - offset."""
    out = []
    seed = seed0
    while len(out) < count:
        rng = SplitMix64(seed)
        seed += 1
        n = 3 + rng.below(max_n - 2)
        g = random_graph(n, rng)
        s = VertexSet.full(n) if full_set else random_nonempty_set(n, rng)
        if full_set is False and s.is_full():
            continue
        w = walk_matrix(g, s)
        if rank(w.w) == n - target_offset:
            out.append((g, s, w))
        assert seed - seed0 < 60000, "instance hunt exhausted"
    return out


def test_rank_n_paw(paw, paw_sets):
    w = walk_matrix(paw, paw_sets[3])
    assert rank_n(w).adj == paw.adj


def test_rank_n_single_vertex():
    w = WalkMatrix.from_matrix(ExactMatrix([[1]]))
    g = rank_n(w)
    assert g.n == 1 and g.adj == ((0,),)


def test_rank_n_roundtrip_random():
    for g, s, w in instances_with_rank(0, 25, max_n=10):
        assert rank_n(w).adj == g.adj


def test_rank_n1_paw(paw, paw_sets):
    w = walk_matrix(paw, paw_sets["V"])
    summary = summary_from_walk(w)
    # the non-main eigenvalue is the rational root -1
    assert summary.main_poly.coeffs[summary.r - 1] == -1
    assert rank_n1(w).adj == paw.adj


def test_rank_n1_p3():
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    w = walk_matrix(p3, VertexSet.full(3))
    assert rank(w.w) == 2
    assert rank_n1(w).adj == p3.adj


def test_rank_n1_roundtrip_random():
    for g, s, w in instances_with_rank(1, 20, max_n=10):
        assert rank_n1(w).adj == g.adj


def test_rank_n2_mates8(mates8):
    g1, g2 = mates8
    w = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))
    assert rank(w.w) == 6
    assert derive_edge_count(w) == 10
    res = rank_n2(w, 10)
    assert res.status == "pair"
    assert {g.adj for g in res.graphs} == {g1.adj, g2.adj}
    # and without the explicit count (S = V derives m from the degrees)
    res2 = rank_n2(w)
    assert {g.adj for g in res2.graphs} == {g1.adj, g2.adj}


def test_rank_n2_zero_discriminant_star():
    n, edges = refdata.D0_STAR_EDGES
    star = from_edge_list(n, edges)
    w = walk_matrix(star, VertexSet.full(n))
    assert rank(w.w) == n - 2
    res = rank_n2(w)
    assert res.status == "unique" and res.graphs[0].adj == star.adj


def test_rank_n2_zero_discriminant_with_isolated_vertex():
    n, edges = refdata.D0_STAR_ISOLATED_EDGES
    g = from_edge_list(n, edges)
    w = walk_matrix(g, VertexSet.full(n))
    assert rank(w.w) == n - 2
    # here 0 is both a main and the repeated non-main eigenvalue
    res = reconstruct(ReconstructionInput(w))
    assert res.status == "unique" and res.graphs[0].adj == g.adj


def test_rank_n2_contains_original_random():
    for g, s, w in instances_with_rank(2, 12, max_n=9, full_set=True):
        res = rank_n2(w)
        assert res.status in ("unique", "pair")
        assert any(c.adj == g.adj for c in res.graphs)
        assert len(res.graphs) <= 2
        for c in res.graphs:
            assert walk_matrix(c, s).w == w.w


def test_rank_n2_subset_instances_need_edge_count():
    found = instances_with_rank(2, 3, max_n=8, full_set=False)
    for g, s, w in found:
        with pytest.raises(MissingEdgeCount):
            rank_n2(w)
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "undetermined" and res.reason == "missing_edge_count"
        from walkmat.graphs import edge_count
        res2 = reconstruct(ReconstructionInput(w, edge_count(g)))
        assert any(c.adj == g.adj for c in res2.graphs)


def test_rank_n2_negative_discriminant():
    n, edges = refdata.D0_STAR_EDGES
    star = from_edge_list(n, edges)
    w = walk_matrix(star, VertexSet.full(n))
    with pytest.raises(NegativeDiscriminant):
        rank_n2(w, 0)   # lying about the edge count drives d negative


def test_rank_n2_honours_the_given_edge_count():
    # the edge count is part of a rank n-2 input: when the zero diagonal
    # alone fixes the candidate, a graph with another edge count is still
    # not returned
    empty3 = from_edge_list(3, [])
    w = walk_matrix(empty3, VertexSet.full(3))
    assert rank(w.w) == 1
    res = reconstruct(ReconstructionInput(w, 4))
    assert res.status == "undetermined" and res.reason == "no_valid_candidate"
    res = reconstruct(ReconstructionInput(w, 0))
    assert res.status == "unique" and res.graphs[0].adj == empty3.adj


def test_not_a_walk_matrix_reason():
    # S = V at rank n-2 with an odd degree sum (column 1 sums to 3), and a
    # rank n-1 matrix whose first two columns coincide: no graph has either
    odd = WalkMatrix.from_matrix(ExactMatrix([[1, 1, 1]] * 3))
    dependent = WalkMatrix.from_matrix(
        ExactMatrix([[1, 1, 0], [1, 1, 1], [1, 1, 2]]))
    assert rank(odd.w) == 1 and rank(dependent.w) == 2
    for w in (odd, dependent):
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "undetermined"
        assert res.reason == "not_a_walk_matrix"
    with pytest.raises(NotAWalkMatrix):
        derive_edge_count(odd)
    with pytest.raises(NotAWalkMatrix):
        summary_from_walk(dependent)


def test_verify_candidate(mates8):
    g1, g2 = mates8
    w = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))
    assert verify_candidate(ExactMatrix(refdata.MATES8_A1), w)
    assert verify_candidate(ExactMatrix(refdata.MATES8_A2), w)
    flipped = [list(r) for r in refdata.MATES8_A1]
    flipped[0][1] ^= 1
    flipped[1][0] ^= 1
    assert not verify_candidate(ExactMatrix(flipped), w)
    assert not verify_candidate(ExactMatrix([[1] * 8] * 8), w)


def test_reconstruct_dispatch_unique(paw, paw_sets):
    for key in (3, "V"):
        w = walk_matrix(paw, paw_sets[key])
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique" and res.graphs[0].adj == paw.adj


def test_reconstruct_dispatch_rank_too_low():
    w = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES7_W))
    assert rank(w.w) == 4    # n-3
    res = reconstruct(ReconstructionInput(w))
    assert res.status == "undetermined" and res.reason == "rank_too_low"


def test_reconstruct_roundtrip_random_mixed():
    hits = 0
    for seed in range(250):
        rng = SplitMix64(seed)
        n = 3 + rng.below(8)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        w = walk_matrix(g, s)
        if rank(w.w) < n - 1:
            continue
        hits += 1
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique"
        assert res.graphs[0].adj == g.adj
    assert hits > 100


def _with_twin_pair(seed, m, true_twin=False):
    """Random graph on m vertices plus twins of two of them.

    The first added vertex is a false twin of its original (same open
    neighbourhood, non-main eigenvalue 0); the second is a false twin too,
    or with true_twin a true twin adjacent to its original (same closed
    neighbourhood, non-main eigenvalue -1).  Twin rows coincide in the walk
    matrix, forcing rank <= n-2.
    """
    rng = SplitMix64(seed)
    g = random_graph(m, rng)
    u, v = rng.below(m), rng.below(m)
    if u == v:
        return None
    n = m + 2
    adj = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            adj[i][j] = g.adj[i][j]
    for j in range(m):
        adj[m][j] = adj[j][m] = g.adj[u][j]
        adj[m + 1][j] = adj[j][m + 1] = g.adj[v][j]
    adj[m][m + 1] = adj[m + 1][m] = g.adj[u][v]
    if true_twin:
        adj[v][m + 1] = adj[m + 1][v] = 1
    return Graph(n, tuple(tuple(r) for r in adj))


def _with_false_twin(seed, m):
    """Random graph on m vertices plus a false twin of one of them: the twin
    rows coincide in the walk matrix, forcing rank <= n-1."""
    rng = SplitMix64(seed)
    g = random_graph(m, rng)
    u = rng.below(m)
    adj = [list(row) + [g.adj[u][j]] for j, row in enumerate(g.adj)]
    adj.append([g.adj[u][j] for j in range(m)] + [0])
    return Graph(m + 1, tuple(tuple(r) for r in adj))


def test_reconstruct_at_n40_in_every_rank_class():
    # n = 40, S = V: a G(40, 1/2) graph at rank n, then one false twin
    # (rank n-1) and two false twins (rank n-2) added to random graphs
    makers = ((0, lambda seed: random_graph(40, SplitMix64(seed))),
              (1, lambda seed: _with_false_twin(seed, 39)),
              (2, lambda seed: _with_twin_pair(seed, 38)))
    for offset, make in makers:
        for seed in range(50):
            g = make(seed)
            if g is None:
                continue
            w = walk_matrix(g, VertexSet.full(40))
            if rank(w.w) == 40 - offset:
                break
        else:
            raise AssertionError(f"no rank n-{offset} instance found")
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique" and res.graphs[0].adj == g.adj


@pytest.fixture
def echelon_calls(monkeypatch):
    """The modulus of every `_echelon` call while the test runs (0: exact)."""
    import walkmat.exact
    import walkmat.spectral
    calls = []
    echelon = walkmat.exact._echelon

    def counted(rows, width=None, modulus=0):
        calls.append(modulus)
        return echelon(rows, width, modulus)

    monkeypatch.setattr(walkmat.exact, "_echelon", counted)
    monkeypatch.setattr(walkmat.spectral, "_echelon", counted)
    return calls


def _rank_mod_prime(w):
    from walkmat.exact import PRIME, _echelon
    return len(_echelon([w.w.row(i) for i in range(w.n)],
                        modulus=PRIME)[1])


def test_reconstruct_at_n64_in_every_rank_class():
    # as at n = 40; the exact rank is too slow to pick the instances, so the
    # rank mod the prime, a lower bound, meets the upper bound of the twins
    # (one false twin: rank <= n-1, two: rank <= n-2)
    makers = ((0, lambda seed: random_graph(64, SplitMix64(seed))),
              (1, lambda seed: _with_false_twin(seed, 63)),
              (2, lambda seed: _with_twin_pair(seed, 62)))
    for offset, make in makers:
        for seed in range(50):
            g = make(seed)
            if g is None:
                continue
            w = walk_matrix(g, VertexSet.full(64))
            if _rank_mod_prime(w) == 64 - offset:
                break
        else:
            raise AssertionError(f"no rank n-{offset} instance found")
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique" and res.graphs[0].adj == g.adj


def _fallback_inputs():
    """Seeded unique, pair, garbage and hinted inputs: (walk matrix, hint)."""
    from walkmat.graphs import edge_count
    out = [(WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W)), None),
           (WalkMatrix.from_matrix(ExactMatrix(refdata.MATES7_W)), None)]
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 3 + rng.below(8)
        g = random_graph(n, rng)
        s = VertexSet.full(n) if seed % 2 else random_nonempty_set(n, rng)
        w = walk_matrix(g, s)
        out += [(w, None), (w, edge_count(g)), (w, edge_count(g) + 1)]
    for seed in range(20):
        g = _with_twin_pair(seed, 6 + seed % 5, bool(seed % 2))
        if g is not None:
            out.append((walk_matrix(g, VertexSet.full(g.n)), None))
    rng = SplitMix64(4242)
    for _ in range(60):
        n = 2 + rng.below(6)
        grid = [[rng.next_bit() if k == 0 else rng.below(9)
                 for k in range(n)] for _ in range(n)]
        grid[0][0] = 1
        out.append((WalkMatrix.from_matrix(ExactMatrix(grid)), rng.below(6)))
    return out


def _forward_outputs(w):
    """The summary, A_W and mu of W, each the exception type it raised."""
    from walkmat.spectral import realize_from_walk, restriction_from_walk
    out = []
    for fn in (summary_from_walk, lambda w: restriction_from_walk(w).a_w,
               lambda w: realize_from_walk(w).mu):
        try:
            out.append(fn(w))
        except Exception as exc:
            out.append(type(exc))
    return out


def test_forced_fallback_keeps_every_output(monkeypatch, echelon_calls):
    # with the prime 7 many eliminations meet a residue 0 or a rank that
    # drops mod p, and the exact path must then give the same answer; the
    # forward calls take a full-rank answer from the same modular analysis
    import sys
    inputs = _fallback_inputs()
    expected = [reconstruct(ReconstructionInput(w, hint))
                for w, hint in inputs]
    assert {res.status for res in expected} == \
        {"unique", "pair", "undetermined"}
    forward = [_forward_outputs(w) for w, _ in inputs]
    # walkmat.reconstruct is the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["walkmat.reconstruct"], "PRIME", 7)
    monkeypatch.setattr(sys.modules["walkmat.spectral"], "PRIME", 7)
    fell_back = forward_fell_back = 0
    for (w, hint), want, want_forward in zip(inputs, expected, forward):
        echelon_calls.clear()
        assert reconstruct(ReconstructionInput(w, hint)) == want
        fell_back += want.status == "unique" and 0 in echelon_calls
        echelon_calls.clear()
        summary, a_w, mu = _forward_outputs(w)
        assert [summary, a_w] == want_forward[:2]
        if isinstance(mu, tuple):
            assert len(mu) == len(want_forward[2])
            assert np.allclose(mu, want_forward[2], rtol=0, atol=1e-12)
        else:
            assert mu == want_forward[2]
        # a unique answer means that W is a walk matrix
        forward_fell_back += (want.status == "unique" and summary.full_rank
                              and 0 in echelon_calls)
    assert fell_back >= 10 and forward_fell_back >= 10


def test_unique_answer_runs_no_exact_elimination(echelon_calls):
    # a unique answer found mod p is certified by verify_candidate alone; a
    # pair and an undetermined answer come from the exact path
    def exact_eliminations(w, hint=None):
        echelon_calls.clear()
        res = reconstruct(ReconstructionInput(w, hint))
        return res, echelon_calls.count(0)

    g = random_graph(20, SplitMix64(7))
    w = walk_matrix(g, VertexSet.full(20))
    res, n_exact = exact_eliminations(w)
    assert res.status == "unique" and res.graphs[0].adj == g.adj
    assert n_exact == 0
    # so is a full-rank summary and realization, from the same graph
    from walkmat.spectral import realize_from_walk
    echelon_calls.clear()
    assert summary_from_walk(w).full_rank and realize_from_walk(w).mu
    assert echelon_calls and 0 not in echelon_calls
    twins = _with_twin_pair(3, 12)
    res, n_exact = exact_eliminations(walk_matrix(twins, VertexSet.full(14)))
    assert res.status == "unique" and n_exact == 0
    mates = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))
    res, n_exact = exact_eliminations(mates)
    assert res.status == "pair" and n_exact > 0
    low = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES7_W))
    res, n_exact = exact_eliminations(low)
    assert res.reason == "rank_too_low" and n_exact > 0
    res, n_exact = exact_eliminations(mates, 11)
    assert res.status == "undetermined" and n_exact > 0


def test_one_analysis_per_walk_matrix(echelon_calls, paw, paw_sets):
    # each call eliminates [W | I] once, and at rank n that is all: the
    # characteristic polynomial comes from the pivot rows T and A_W is a
    # product.  Below rank n the restriction, the realization and the
    # projector add the elimination of [G | K^T] (G = K^T K) and
    # reconstruct also the zero-diagonal system.  reconstruct runs these
    # modulo a prime and repeats them exactly only when it does not find
    # exactly one graph there: mates8 is a pair.  At rank n the summary,
    # the restriction and the realization read the graph certified from
    # the one modular elimination; n1 and n2 have equal rows of W, which
    # rule out rank n before any elimination
    from walkmat.spectral import (kernel_projector_from_walk,
                                  realize_from_walk, restriction_from_walk)
    full = walk_matrix(paw, paw_sets[3])
    n1 = walk_matrix(paw, paw_sets["V"])
    n2 = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))

    def count(fn, w):
        """(exact, modular) eliminations of one call."""
        echelon_calls.clear()
        fn(w)
        exact = echelon_calls.count(0)
        return exact, len(echelon_calls) - exact

    for w, offset in ((full, 0), (n1, 1), (n2, 2)):
        forward = (0, 1) if offset == 0 else (2, 0)
        assert count(summary_from_walk, w) == \
            ((0, 1) if offset == 0 else (1, 0))
        assert count(restriction_from_walk, w) == forward
        assert count(lambda w: reconstruct(ReconstructionInput(w)), w) == \
            ((3 if offset == 2 else 0), (1 if offset == 0 else 3))
        assert count(realize_from_walk, w) == forward
        # at rank n, ker W^T is trivial and the projector needs no solve
        assert count(kernel_projector_from_walk, w) == \
            ((1 if offset == 0 else 2), 0)


def test_rank_n2_twin_stress_up_to_n16():
    # rank n-2 well past the random-sampling sizes: two false twins give the
    # double non-main eigenvalue 0 (discriminant d = 0); a false and a true
    # twin give the distinct non-main eigenvalues 0 and -1 (d > 0)
    for true_twin in (False, True):
        found = 0
        seed = 0
        while found < 10:
            g = _with_twin_pair(seed, 10 + seed % 5, true_twin)
            seed += 1
            assert seed < 5000, "twin hunt exhausted"
            if g is None:
                continue
            v = VertexSet.full(g.n)
            w = walk_matrix(g, v)
            if rank(w.w) != g.n - 2:
                continue
            found += 1
            coeffs = summary_from_walk(w).main_poly.coeffs
            a1, a2 = coeffs[-2], coeffs[-3]
            d = 4 * (a2 + derive_edge_count(w)) - 3 * a1 * a1
            assert (d > 0) == true_twin
            res = reconstruct(ReconstructionInput(w))
            assert any(c.adj == g.adj for c in res.graphs)
            assert all(walk_matrix(c, v).w == w.w for c in res.graphs)


def test_tiny_graphs_roundtrip():
    k2 = from_edge_list(2, [(1, 2)])
    empty2 = from_edge_list(2, [])
    for g in (k2, empty2):
        w = walk_matrix(g, VertexSet.full(2))
        assert rank(w.w) == 1           # twin rows: rank n-1
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique" and res.graphs[0].adj == g.adj


def test_reconstruct_never_raises_on_garbage():
    # arbitrary non-negative integer matrices with a 0/1 first column are
    # accepted as input; reconstruct must answer with a result, never an
    # exception, and any returned graph must regenerate the input exactly
    rng = SplitMix64(31337)
    for _ in range(500):
        n = 2 + rng.below(7)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            grid[i][0] = rng.next_bit()
        if not any(grid[i][0] for i in range(n)):
            grid[0][0] = 1
        for i in range(n):
            for k in range(1, n):
                grid[i][k] = rng.below(9)
        w = WalkMatrix.from_matrix(ExactMatrix(grid))
        res = reconstruct(ReconstructionInput(w, 5))
        assert res.status in ("unique", "pair", "undetermined")
        for g in res.graphs:
            assert walk_matrix(g, w.vertex_set).w == w.w


def test_result_json(mates8):
    from walkmat.reconstruct import result_to_json
    import json
    w = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))
    res = reconstruct(ReconstructionInput(w))
    obj = json.loads(result_to_json(res))
    assert obj["status"] == "pair" and len(obj["graphs"]) == 2
