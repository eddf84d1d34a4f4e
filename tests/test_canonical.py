"""Lex forms, walk equivalence and verified isomorphism certificates."""

import pytest
from hypothesis import given, settings, strategies as st

import refdata
from walkmat import (ExactMatrix, VertexSet, WalkMatrix, certify_isomorphism,
                     certify_set_automorphism, from_edge_list, lex_form,
                     parse_graph6, rank, restriction_equivalence_check,
                     walk_equivalent, walk_matrix)
from walkmat.canonical import (INCONCLUSIVE, ISOMORPHIC, ISOMORPHIC_PAIR,
                               NOT_ISOMORPHIC, format_cycles, perm_cycles)
from walkmat.errors import OrderMismatch
from walkmat.oracle import (SplitMix64, brute_force_isomorphic, random_graph,
                            random_nonempty_set)

seeds = st.integers(0, 2**32 - 1)

CUBE_EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 8), (7, 8),
              (1, 5), (2, 6), (3, 7), (4, 8)]
TWO_K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]


def test_lex_form_reference_matrix(paw, paw_sets):
    lf = lex_form(walk_matrix(paw, paw_sets[3]))
    assert lf.matrix == ExactMatrix([[1, 0, 2, 2], [0, 1, 1, 4],
                                     [0, 1, 1, 3], [0, 0, 1, 1]])
    # reordering permutation (v3,v1,v4)(v2): 3->1, 1->4, 4->3, 2->2
    assert lf.perm == (3, 1, 0, 2)
    assert format_cycles(lf.perm) == "(v1,v4,v3)(v2)"
    assert perm_cycles(lf.perm) == [(1, 4, 3), (2,)]
    assert lf.ties == ()


def test_lex_form_already_sorted():
    w = WalkMatrix.from_matrix(ExactMatrix([[1, 3], [1, 2]]))
    lf = lex_form(w)
    assert lf.perm == (0, 1)
    assert lf.matrix == w.w


def test_lex_form_ties(paw, paw_sets):
    lf = lex_form(walk_matrix(paw, paw_sets["V"]))
    assert lf.ties == ((2, 3),)   # rows of v3 and v4 coincide


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_lex_canonical_law(seed):
    rng = SplitMix64(seed)
    n = 2 + rng.below(7)
    g = random_graph(n, rng)
    s = random_nonempty_set(n, rng)
    w = walk_matrix(g, s)
    order = list(range(n))
    for i in range(n - 1, 0, -1):   # seeded Fisher-Yates
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    permuted = WalkMatrix.from_matrix(ExactMatrix([w.w.row(i) for i in order]))
    assert lex_form(permuted).matrix == lex_form(w).matrix


def test_walk_equivalent_two_triangles_vs_hexagon():
    two_c3 = from_edge_list(6, [(1, 2), (2, 3), (1, 3),
                                (4, 5), (5, 6), (4, 6)])
    c6 = from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    w1 = walk_matrix(two_c3, VertexSet.full(6))
    w2 = walk_matrix(c6, VertexSet.full(6))
    assert walk_equivalent(w1, w2)
    assert w1.w.row(0) == (1, 2, 4, 8, 16, 32)
    assert brute_force_isomorphic(two_c3, c6) is None


def test_walk_equivalent_paw(paw, paw_sets):
    w3 = walk_matrix(paw, paw_sets[3])
    w4 = walk_matrix(paw, paw_sets[4])
    w1 = walk_matrix(paw, paw_sets[1])
    assert walk_equivalent(w3, w4)
    assert not walk_equivalent(w1, w3)


def test_certify_automorphism_swap(paw, paw_sets):
    cert = certify_isomorphism(paw, paw_sets[3], paw, paw_sets[4])
    assert cert.verdict == ISOMORPHIC
    assert cert.perm == (0, 1, 3, 2)   # the automorphism (v3 v4)


def test_certify_self_identity(paw, paw_sets):
    cert = certify_isomorphism(paw, paw_sets[3], paw, paw_sets[3])
    assert cert.verdict == ISOMORPHIC and cert.perm == (0, 1, 2, 3)


def test_certify_tied_rows_gives_pair(paw, paw_sets):
    # W^V has one repeated row pair, so both the identity and (v3 v4) verify
    cert = certify_isomorphism(paw, paw_sets["V"], paw, paw_sets["V"])
    assert cert.verdict == ISOMORPHIC_PAIR
    assert {cert.perm, cert.perm2} == {(0, 1, 2, 3), (0, 1, 3, 2)}


def test_certify_not_isomorphic_full_rank():
    found = 0
    seed = 0
    while found < 5:
        rng = SplitMix64(seed)
        seed += 1
        n = 4 + rng.below(4)
        g1 = random_graph(n, rng)
        g2 = random_graph(n, rng)
        v = VertexSet.full(n)
        w1, w2 = walk_matrix(g1, v), walk_matrix(g2, v)
        if rank(w1.w) < n - 1 or walk_equivalent(w1, w2):
            continue
        found += 1
        cert = certify_isomorphism(g1, v, g2, v)
        assert cert.verdict == NOT_ISOMORPHIC
        assert brute_force_isomorphic(g1, g2) is None


def test_certify_inconclusive_low_rank():
    ga = parse_graph6(refdata.MATES7_G6)
    gb = parse_graph6(refdata.MATES7_G6_STAR)
    v = VertexSet.full(7)
    cert = certify_isomorphism(ga, v, gb, v)
    assert cert.verdict == INCONCLUSIVE and cert.reason == "rank_too_low"


def test_rank_gate_takes_the_exact_rank_only_below_n_minus_1(monkeypatch):
    # a rank mod p of n-1 or more proves rank >= n-1; the exact rank is
    # computed only when the rank mod p is lower, and with a prime as small
    # as 3 that happens often without changing a verdict.  The gate is
    # spectral's, the one module besides exact that knows the prime
    import walkmat.spectral
    exact_ranks = []
    exact_rank = walkmat.spectral.rank

    def counted(m):
        exact_ranks.append(m)
        return exact_rank(m)

    monkeypatch.setattr(walkmat.spectral, "rank", counted)
    cases = [(parse_graph6(refdata.MATES7_G6), VertexSet.full(7),
              parse_graph6(refdata.MATES7_G6_STAR), VertexSet.full(7))]
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 3 + rng.below(7)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        h = g.relabel(list(reversed(range(n)))) if seed % 2 else \
            random_graph(n, rng)
        cases.append((g, s, h, s if seed % 3 else random_nonempty_set(n, rng)))
    verdicts = []
    for case in cases:
        exact_ranks.clear()
        verdicts.append(certify_isomorphism(*case))
        low = rank(walk_matrix(case[0], case[1]).w) < case[0].n - 1
        assert (verdicts[-1].reason == "rank_too_low") == low
        if not low:
            assert exact_ranks == []
    assert {v.verdict for v in verdicts} >= {INCONCLUSIVE, ISOMORPHIC,
                                             NOT_ISOMORPHIC}
    monkeypatch.setattr(walkmat.spectral, "PRIME", 3)
    assert [certify_isomorphism(*case) for case in cases] == verdicts


def test_certify_order_mismatch(paw):
    with pytest.raises(OrderMismatch):
        certify_isomorphism(paw, VertexSet.full(4),
                            from_edge_list(3, []), VertexSet.full(3))


def test_certified_perms_always_verified():
    # the returned permutation must be a genuine isomorphism carrying the set
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 3 + rng.below(6)
        g = random_graph(n, rng)
        s = random_nonempty_set(n, rng)
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        h = g.relabel(order)
        s_img = VertexSet.of(n, [order[i - 1] + 1 for i in s.members])
        cert = certify_isomorphism(g, s, h, s_img)
        if cert.verdict in (ISOMORPHIC, ISOMORPHIC_PAIR):
            p = cert.perm
            assert all(g.adj[i][j] == h.adj[p[i]][p[j]]
                       for i in range(n) for j in range(n))
            assert sorted(p[i - 1] + 1 for i in s.members) == list(s_img.members)


def test_set_automorphism_cases(paw, paw_sets):
    cert = certify_set_automorphism(paw, paw_sets[3], paw_sets[4])
    assert cert.verdict == ISOMORPHIC and cert.perm == (0, 1, 3, 2)
    same = certify_set_automorphism(paw, paw_sets[3], paw_sets[3])
    assert same.verdict == ISOMORPHIC and same.perm == (0, 1, 2, 3)
    diff = certify_set_automorphism(paw, paw_sets[1], paw_sets[3])
    assert diff.verdict == NOT_ISOMORPHIC


def test_restriction_equivalence_trivial(paw, paw_sets):
    assert restriction_equivalence_check(paw, paw_sets["V"],
                                         paw, paw_sets["V"])


def test_restriction_equivalence_regular_graphs():
    cube = from_edge_list(8, CUBE_EDGES)
    two_k4 = from_edge_list(8, TWO_K4_EDGES)
    assert brute_force_isomorphic(cube, two_k4) is None
    v = VertexSet.full(8)
    assert restriction_equivalence_check(cube, v, two_k4, v)


def test_restriction_equivalence_negative(paw, paw_sets):
    assert not restriction_equivalence_check(paw, paw_sets[1],
                                             paw, paw_sets[2])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_restriction_equivalence_never_violates(seed):
    rng = SplitMix64(seed)
    n = 2 + rng.below(6)
    g1 = random_graph(n, rng)
    g2 = random_graph(n, rng) if rng.next_bit() else g1
    s1 = random_nonempty_set(n, rng)
    s2 = random_nonempty_set(n, rng) if rng.next_bit() else s1
    restriction_equivalence_check(g1, s1, g2, s2)   # must not raise
