"""Graph model, vertex sets and the three serialization formats."""

import pytest
from hypothesis import given, settings, strategies as st

import refdata
from walkmat import (Graph, VertexSet, degree_sequence, edge_count,
                     emit_graph6, from_edge_list, parse_adjacency_text,
                     parse_edge_list_text, parse_graph6)
from walkmat.errors import (DuplicateEdge, IndexOutOfRange, LoopEdge,
                            MalformedHeader, TrailingGarbage, TruncatedBody)
from walkmat.graphs import emit_adjacency_text, emit_edge_list_text


def random_graph_strategy(max_n=12):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda bits: _graph_from_bits(n, bits),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2)))


def _graph_from_bits(n, bits):
    adj = [[0] * n for _ in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[t]:
                adj[i][j] = adj[j][i] = 1
            t += 1
    return Graph(n, tuple(tuple(r) for r in adj))


def test_from_edge_list_paw():
    g = from_edge_list(4, refdata.PAW_EDGES)
    assert [list(r) for r in g.adj] == refdata.PAW_A


def test_from_edge_list_empty():
    g = from_edge_list(3, [])
    assert all(x == 0 for row in g.adj for x in row)


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(LoopEdge):
        from_edge_list(2, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        from_edge_list(3, [(1, 2), (2, 1)])
    with pytest.raises(IndexOutOfRange):
        from_edge_list(3, [(1, 4)])


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 0)))     # asymmetric
    with pytest.raises(ValueError):
        Graph(2, ((1, 0), (0, 0)))     # diagonal
    with pytest.raises(ValueError):
        Graph(2, ((0, 2), (2, 0)))     # not 0/1


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4
    assert edge_count(g) == 6
    assert degree_sequence(g) == (3, 3, 3, 3)


def test_parse_graph6_header_variants():
    g = parse_graph6(">>graph6<<C~")
    assert edge_count(g) == 6
    with pytest.raises(MalformedHeader):
        parse_graph6("")
    with pytest.raises(TruncatedBody):
        parse_graph6("D")          # 5 vertices need body bytes
    with pytest.raises(TrailingGarbage):
        parse_graph6("C~~")


def test_graph6_large_order_header():
    g = _graph_from_bits(3, [True, False, True])
    s = emit_graph6(g)
    assert parse_graph6(s).adj == g.adj
    # orders above 62 use the 4-byte size header
    big = from_edge_list(63, [(1, 2), (1, 63), (30, 31)])
    enc = emit_graph6(big)
    assert enc.startswith(chr(126))
    again = parse_graph6(enc)
    assert again.n == 63 and again.adj == big.adj


@given(random_graph_strategy())
@settings(max_examples=120, deadline=None)
def test_graph6_roundtrip(g):
    assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_degree_sequence_fixtures(paw):
    assert degree_sequence(paw) == (1, 3, 2, 2)
    assert degree_sequence(from_edge_list(3, [])) == (0, 0, 0)


def test_edge_count_fixtures(paw, mates8):
    assert edge_count(paw) == 4
    assert edge_count(mates8[0]) == 10
    assert edge_count(from_edge_list(5, [])) == 0


@given(random_graph_strategy(8))
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_edges(g):
    assert sum(degree_sequence(g)) == 2 * edge_count(g)


def test_edge_list_text_roundtrip(paw):
    assert parse_edge_list_text(emit_edge_list_text(paw)).adj == paw.adj
    with pytest.raises(MalformedHeader):
        parse_edge_list_text("")
    with pytest.raises(TruncatedBody):
        parse_edge_list_text("3 2\n1 2")


def test_adjacency_text_roundtrip(paw):
    assert parse_adjacency_text(emit_adjacency_text(paw)).adj == paw.adj


def test_vertex_set_basics():
    s = VertexSet.of(5, [3, 1, 3])
    assert s.members == (1, 3)
    assert s.characteristic == (1, 0, 1, 0, 0)
    assert VertexSet.full(3).is_full()
    with pytest.raises(IndexOutOfRange):
        VertexSet.of(3, [4])


def test_vertex_set_union_disjoint():
    a = VertexSet.of(5, [1, 2])
    b = VertexSet.of(5, [4])
    assert a.disjoint_from(b)
    assert a.union(b).members == (1, 2, 4)
    assert not a.disjoint_from(VertexSet.of(5, [2, 3]))


def test_relabel_and_complement(paw):
    # swapping v3 and v4 is an automorphism of the paw graph
    swapped = paw.relabel([0, 1, 3, 2])
    assert swapped.adj == paw.adj
