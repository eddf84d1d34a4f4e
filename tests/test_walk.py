"""Walk matrices against the hand-checked fixtures and the DP walk counter."""

import pytest
from hypothesis import given, settings, strategies as st

from brute_oracles import count_walks
import refdata
from walkmat import (ExactMatrix, Graph, VertexSet, WalkMatrix,
                     additivity_check, from_edge_list, hankel_matrix, rank,
                     shift_identity_check, walk_matrix, walk_slice)
from walkmat.errors import EmptySet, NotDisjoint, OrderMismatch
from walkmat.oracle import SplitMix64, random_graph, random_nonempty_set
from walkmat.walk import from_json, from_text, to_json, to_text


seeds = st.integers(0, 2**32 - 1)


def sample_instance(seed, max_n=9):
    rng = SplitMix64(seed)
    n = 2 + rng.below(max_n - 1)
    g = random_graph(n, rng)
    s = random_nonempty_set(n, rng)
    return g, s


def test_paw_walk_matrices(paw, paw_sets):
    expect = {"V": refdata.PAW_WV, 1: refdata.PAW_W1,
              2: refdata.PAW_W2, 3: refdata.PAW_W3,
              4: refdata.PAW_W4}
    for key, s in paw_sets.items():
        w = walk_matrix(paw, s).w
        assert w == ExactMatrix(expect[key]), key
        assert all(type(x) is int for i in range(4) for x in w.row(i)), key
    assert all(type(x) is int for i in range(4) for x in paw.adjacency.row(i))


def test_single_vertex():
    g = from_edge_list(1, [])
    w = walk_matrix(g, VertexSet.full(1))
    assert w.w == ExactMatrix([[1]])


def test_empty_set_rejected(paw):
    with pytest.raises(EmptySet):
        walk_matrix(paw, VertexSet.of(4, []))


def test_order_mismatch_rejected(paw):
    with pytest.raises(OrderMismatch):
        walk_matrix(paw, VertexSet.full(5))


def test_slice_matches_walk_matrix(paw, paw_sets):
    s = paw_sets["V"]
    assert walk_slice(paw, s, 0, 3).m == walk_matrix(paw, s).w


def test_slice_degree_column(paw, paw_sets):
    col = walk_slice(paw, paw_sets["V"], 1, 1).m.col(0)
    assert col == (1, 3, 2, 2)


def test_slice_beyond_n(paw, paw_sets):
    s = paw_sets["V"]
    sl = walk_slice(paw, s, 1, 4)
    w = walk_matrix(paw, s)
    for k in range(3):
        assert sl.m.col(k) == w.w.col(k + 1)
    # the extra column is A^4 e, one more neighbor-summation step
    a4e = (paw.adjacency * ExactMatrix.from_columns([w.w.col(3)])).col(0)
    assert sl.m.col(3) == a4e


def test_shift_identity_paw(paw, paw_sets):
    assert shift_identity_check(paw, paw_sets["V"], 0, 2)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_shift_identity_random(seed):
    g, s = sample_instance(seed)
    rng = SplitMix64(seed ^ 0xABCDEF)
    i = rng.below(3)
    j = i + rng.below(3)
    assert shift_identity_check(g, s, i, j)


def test_shift_identity_negative_control(paw, paw_sets):
    s = paw_sets["V"]
    lhs = paw.adjacency * walk_slice(paw, s, 0, 2).m
    target = walk_slice(paw, s, 1, 3).m
    assert lhs == target
    corrupted = [list(target.row(i)) for i in range(target.rows)]
    corrupted[0][0] += 1
    assert lhs != ExactMatrix(corrupted)


def test_additivity_paw(paw, paw_sets):
    total = sum((walk_matrix(paw, paw_sets[i]).w for i in (2, 3, 4)),
                walk_matrix(paw, paw_sets[1]).w)
    assert total == walk_matrix(paw, paw_sets["V"]).w
    assert additivity_check(paw, VertexSet.of(4, [1, 2]),
                            VertexSet.of(4, [3]))


def test_additivity_rejects_overlap(paw):
    with pytest.raises(NotDisjoint):
        additivity_check(paw, VertexSet.of(4, [1, 2]),
                         VertexSet.of(4, [2, 3]))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_additivity_random(seed):
    rng = SplitMix64(seed)
    n = 3 + rng.below(6)
    g = random_graph(n, rng)
    left = [i + 1 for i in range(n) if rng.next_bit()]
    right = [i + 1 for i in range(n) if (i + 1) not in left]
    if not left or not right:
        return
    assert additivity_check(g, VertexSet.of(n, left), VertexSet.of(n, right))


def test_hankel_paw(paw, paw_sets):
    h = hankel_matrix(paw, paw_sets["V"], 0, 1)
    assert h[0, 0] == 4      # n_0 = |S|
    assert h[0, 1] == 8      # n_1 = 2m
    assert h[1, 0] == 8


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_hankel_antidiagonal_and_counts(seed):
    g, s = sample_instance(seed, max_n=8)
    rng = SplitMix64(seed ^ 0x5151)
    i = rng.below(2)
    j = i + 1 + rng.below(2)
    h = hankel_matrix(g, s, i, j)
    k = j - i + 1
    assert h == h.transpose()
    for p in range(k):
        for q in range(k):
            for p2 in range(k):
                q2 = p + q - p2
                if 0 <= q2 < k:
                    assert h[p, q] == h[p2, q2]
    # entries are walk counts with both ends in S: a k-walk with both ends
    # in S is a k-walk that starts at some v in S and ends in S, so
    # n_k = sum_{v in S} counts[v][k]
    table = count_walks(g, s, 2 * j)
    in_s = [v - 1 for v in s.members]
    for p in range(k):
        for q in range(k):
            length = 2 * i + p + q
            n_k = sum(table.counts[v][length] for v in in_s)
            assert h[p, q] == n_k


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_entries_match_walk_counter(seed):
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    table = count_walks(g, s, g.n - 1)
    for v in range(g.n):
        for k in range(g.n):
            assert w.w[v, k] == table.counts[v][k]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_column_recurrence(seed):
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    for k in range(g.n - 1):
        col, nxt = w.w.col(k), w.w.col(k + 1)
        for v in range(g.n):
            assert nxt[v] == sum(col[u] for u in g.neighbors[v])


def _with_isolated_and_pendants(n, seed):
    """Seeded G(n, 1/2) with vertex 1 isolated and vertices 2 and 3 pendant
    (on vertices 4 and 5), so the recurrence meets degrees 0 and 1."""
    adj = [list(row) for row in random_graph(n, SplitMix64(seed)).adj]
    for v in range(3):
        for u in range(n):
            adj[v][u] = adj[u][v] = 0
    for v, u in ((1, 3), (2, 4)):
        adj[v][u] = adj[u][v] = 1
    return Graph(n, tuple(map(tuple, adj)))


@pytest.mark.parametrize("n", [32, 64])
def test_walk_matrix_at_scale(n):
    g = _with_isolated_and_pendants(n, n)
    assert sorted(map(len, g.neighbors))[:3] == [0, 1, 1]
    for s in (VertexSet.full(n), VertexSet.of(n, range(1, n + 1, 3))):
        w = walk_matrix(g, s).w
        assert w.col(0) == s.characteristic
        if n == 32:
            # the matrix-power counter costs n^4, too much at n = 64
            table = count_walks(g, s, n - 1)
            assert all(w.row(v) == table.counts[v] for v in range(n))
        else:
            # the exact product A W_[0,n-1] against W_[1,n], past n
            assert shift_identity_check(g, s, 0, n - 1)
    # the slice past n continues the recurrence: A^{n+1} e = A (A^n e)
    tail = walk_slice(g, s, n - 1, n + 1).m
    assert tail.col(0) == w.col(n - 1)
    head = ExactMatrix.from_columns([tail.col(0), tail.col(1)])
    assert g.adjacency * head == ExactMatrix.from_columns(
        [tail.col(1), tail.col(2)])


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_rank_saturation(seed):
    g, s = sample_instance(seed)
    w = walk_matrix(g, s)
    r = rank(w.w)
    assert rank(walk_slice(g, s, 0, r).m) == r


def test_json_roundtrip(paw, paw_sets):
    w = walk_matrix(paw, paw_sets[3])
    again = from_json(to_json(w))
    assert again.w == w.w and again.vertex_set.members == (3,)


def test_text_roundtrip(paw, paw_sets):
    w = walk_matrix(paw, paw_sets["V"])
    again = from_text(to_text(w))
    assert again.w == w.w and again.vertex_set.is_full()


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        WalkMatrix.from_matrix(ExactMatrix([[2, 1], [0, 1]]))
    with pytest.raises(EmptySet):
        WalkMatrix.from_matrix(ExactMatrix([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        WalkMatrix.from_matrix(ExactMatrix([[1, -1], [0, 1]]))
