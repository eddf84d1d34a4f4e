"""Brute-force verifiers, the PRNG, enumeration and the round-trip harness."""

import pytest

from brute_oracles import count_walks, float_eigencheck
import refdata
from walkmat import VertexSet, from_edge_list, parse_graph6, rank, walk_matrix
from walkmat.errors import EmptySet, TooLarge
from walkmat.oracle import (SplitMix64, brute_force_isomorphic,
                            enumerate_graph_classes, exhaustive_roundtrip,
                            random_graph, random_nonempty_set,
                            rank_statistics)


def test_count_walks_paw(paw, paw_sets):
    table = count_walks(paw, paw_sets["V"], 3)
    assert table.counts[1][3] == 13          # W^V row of v2 is (1,3,5,13)
    assert table.counts[0] == (1, 1, 3, 5)


def test_count_walks_k0_is_characteristic(paw):
    s = VertexSet.of(4, [2, 4])
    table = count_walks(paw, s, 0)
    assert tuple(row[0] for row in table.counts) == s.characteristic


def test_count_walks_empty_set_rejected(paw):
    with pytest.raises(EmptySet):
        count_walks(paw, VertexSet.of(4, []), 2)


def test_count_walks_matches_walk_matrix():
    for seed in range(25):
        rng = SplitMix64(seed)
        n = 2 + rng.below(9)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        w = walk_matrix(g, s)
        table = count_walks(g, s, n - 1)
        assert all(w.w[v, k] == table.counts[v][k]
                   for v in range(n) for k in range(n))


def test_count_walks_reads_the_adjacency_grid_only():
    # the oracle must not share the walk module's neighbour lists: with
    # those emptied it still counts the walks of the real graph
    from walkmat import Graph
    g = random_graph(7, SplitMix64(5))
    blind = Graph(g.n, g.adj)
    blind.__dict__["neighbors"] = ((),) * g.n
    s = VertexSet.full(g.n)
    w = walk_matrix(g, s)
    table = count_walks(blind, s, g.n - 1)
    assert all(w.w[v, k] == table.counts[v][k]
               for v in range(g.n) for k in range(g.n))
    assert walk_matrix(blind, s).w != w.w


def test_brute_force_mates8(mates8):
    g1, g2 = mates8
    perm = brute_force_isomorphic(g1, g2)
    assert perm is not None
    assert all(g1.adj[i][j] == g2.adj[perm[i]][perm[j]]
               for i in range(8) for j in range(8))


def test_brute_force_mates7_pair():
    ga = parse_graph6(refdata.MATES7_G6)
    gb = parse_graph6(refdata.MATES7_G6_STAR)
    assert brute_force_isomorphic(ga, gb) is None


def test_brute_force_self(paw):
    assert brute_force_isomorphic(paw, paw) is not None


def test_brute_force_cap():
    g = from_edge_list(11, [])
    with pytest.raises(TooLarge):
        brute_force_isomorphic(g, g)


def test_brute_force_degree_prefilter(paw):
    assert brute_force_isomorphic(paw, from_edge_list(4, [(1, 2)])) is None


def test_float_eigencheck_paw(paw, paw_sets):
    assert float_eigencheck(paw, paw_sets["V"])
    assert float_eigencheck(paw, paw_sets[3])


def test_float_eigencheck_regular():
    c5 = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    v = VertexSet.full(5)
    assert rank(walk_matrix(c5, v).w) == 1
    assert float_eigencheck(c5, v)


def test_float_eigencheck_random():
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 2 + rng.below(9)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        assert float_eigencheck(g, s)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # a recorder stands in for the process pool, so none is started
    import concurrent.futures
    import walkmat.oracle as oracle
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    assert oracle._map(abs, [-1, 2], 1000, 4) == [1, 2]
    assert oracle._map(abs, [-1], 2, 4) == [1]
    assert oracle._map(abs, [-1], 1, 4) == [1]
    assert rank_statistics(5, 30, 9, jobs=64) == rank_statistics(5, 30, 9)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert oracle._map(abs, [-1], 8, 4) == [1]
    assert sizes == [3, 2, 3]


def test_splitmix_reference_values():
    # first outputs for seed 1234567, cross-checked against the published
    # splitmix64 reference implementation
    rng = SplitMix64(1234567)
    first = [rng.next_word() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973,
                     9817491932198370423]


def test_rank_statistics_determinism():
    a = rank_statistics(6, 80, seed=42)
    b = rank_statistics(6, 80, seed=42)
    assert a.rank_histogram == b.rank_histogram
    assert sum(a.rank_histogram.values()) == 80
    c = rank_statistics(6, 80, seed=43)
    assert c.rank_histogram != a.rank_histogram or True  # different seed runs


def test_rank_statistics_jobs_equivalence():
    a = rank_statistics(5, 60, seed=7)
    b = rank_statistics(5, 60, seed=7, jobs=2)
    assert a.rank_histogram == b.rank_histogram


def test_rank_statistics_n1():
    stats = rank_statistics(1, 25, seed=3)
    assert stats.rank_histogram == {1: 25}
    assert stats.full_rank_fraction == 1.0


def test_rank_statistics_random_sets_mode():
    stats = rank_statistics(5, 50, seed=11, random_sets=True)
    assert sum(stats.rank_histogram.values()) == 50


def test_enumerate_counts():
    known = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, expect in known.items():
        assert len(enumerate_graph_classes(n)) == expect
    with pytest.raises(TooLarge):
        enumerate_graph_classes(8)


def test_enumerate_classes_pairwise_nonisomorphic():
    classes = enumerate_graph_classes(4)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert brute_force_isomorphic(classes[i], classes[j]) is None


def test_exhaustive_roundtrip_n4():
    report = exhaustive_roundtrip(4)
    assert report.classes == 11
    assert report.failures == ()
    assert sum(report.rank_histogram.values()) == 11


def test_exhaustive_roundtrip_n1():
    report = exhaustive_roundtrip(1)
    assert report.classes == 1
    assert report.records[0].rank == 1
    assert report.records[0].status == "unique_ok"


def test_exhaustive_roundtrip_pair_reporting():
    # rank n-2 pairs report the partner and its isomorphism status
    report = exhaustive_roundtrip(6)
    assert report.failures == ()
    pair_recs = [r for r in report.records if r.partner6 is not None]
    for r in pair_recs:
        assert r.partner_isomorphic is not None
    lines = report.json_lines()
    assert len(lines) == report.classes


def test_exhaustive_roundtrip_n7_flags_walk_equivalent_pair():
    report = exhaustive_roundtrip(7)
    assert report.classes == 1044
    assert report.failures == ()
    # the 7-vertex rank n-3 mate pair shares a standard walk matrix and must
    # surface in the walk-equivalence groups (as relabeled class reps)
    ga = parse_graph6(refdata.MATES7_G6)
    gb = parse_graph6(refdata.MATES7_G6_STAR)
    hit = False
    for grp in report.walk_equivalent_groups:
        members = [parse_graph6(s) for s in set(grp)]
        if any(brute_force_isomorphic(g, ga) for g in members) and \
                any(brute_force_isomorphic(g, gb) for g in members):
            hit = True
            break
    assert hit, "7-vertex mate pair missing from walk-equivalence groups"
    # low-rank classes are excluded from the uniqueness assertion
    skipped = [r for r in report.records if r.status == "skipped_low_rank"]
    assert all(r.rank < 7 - 2 for r in skipped) and skipped
