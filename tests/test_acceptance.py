"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not calibrated elsewhere: exact checks use integer/rational equality,
the eigenprojection threshold is 1e-7, and the probabilistic criterion is
regression-pinned to the frozen first-run histograms with a warn-only
3-sigma monotone-trend check.
"""

import math
import warnings

from brute_oracles import char_poly, count_walks, float_eigencheck
import refdata
from walkmat import (ExactMatrix, IntPolynomial, VertexSet, WalkMatrix,
                     certify_isomorphism, certify_set_automorphism,
                     hankel_matrix, kernel_projector, lex_form, parse_graph6,
                     rank, reconstruct, ReconstructionInput, restriction,
                     restriction_equivalence_check, shift_identity_check,
                     spectral_summary, walk_equivalent, walk_matrix)
from walkmat.canonical import INCONCLUSIVE, ISOMORPHIC, ISOMORPHIC_PAIR
from walkmat.oracle import (SplitMix64, brute_force_isomorphic,
                            enumerate_graph_classes, exhaustive_roundtrip,
                            random_graph, random_nonempty_set,
                            rank_statistics)
from walkmat.spectral import summary_from_walk

STATS_SEED = 20240901

# frozen first-run histograms for criterion 8 (seed above, 1000 trials)
PINNED_RANK_HISTOGRAMS = {
    6: {1: 3, 2: 45, 3: 245, 4: 282, 5: 245, 6: 180},
    8: {2: 3, 3: 6, 4: 69, 5: 110, 6: 171, 7: 284, 8: 357},
    10: {5: 4, 6: 11, 7: 21, 8: 111, 9: 264, 10: 589},
    12: {8: 1, 9: 7, 10: 30, 11: 181, 12: 781},
}


def _sample(seed, min_n, max_n):
    rng = SplitMix64(seed)
    n = min_n + rng.below(max_n - min_n + 1)
    g = random_graph(n, rng)
    s = random_nonempty_set(n, rng)
    return g, s


def test_criterion_1_fixture_fidelity(paw, paw_sets):
    reference = {"V": refdata.PAW_WV, 1: refdata.PAW_W1,
                 2: refdata.PAW_W2, 3: refdata.PAW_W3,
                 4: refdata.PAW_W4}
    ws = {k: walk_matrix(paw, s) for k, s in paw_sets.items()}
    for k, w in ws.items():
        assert w.w == ExactMatrix(reference[k]), f"walk matrix {k} differs"
    assert ws[1].w + ws[2].w + ws[3].w + ws[4].w == ws["V"].w
    assert [rank(ws[k].w) for k in ("V", 1, 2, 3, 4)] == [3, 3, 3, 4, 4]
    main = IntPolynomial(refdata.PAW_MAIN)
    for k in ("V", 1, 2):
        assert spectral_summary(paw, paw_sets[k]).main_poly == main
    for k in (3, 4):
        assert spectral_summary(paw, paw_sets[k]).main_poly == \
            IntPolynomial(refdata.PAW_CHAR)
    print("\n[criterion 1] PASS  paw-graph fixtures: matrices, sum, ranks, "
          "main polynomials")


def test_criterion_2_walk_mates(mates8):
    g1, g2 = mates8
    w = WalkMatrix.from_matrix(ExactMatrix(refdata.MATES8_W))
    assert rank(w.w) == 6
    res = reconstruct(ReconstructionInput(w))
    assert res.status == "pair"
    assert {g.adj for g in res.graphs} == {g1.adj, g2.adj}
    for g in res.graphs:
        assert walk_matrix(g, w.vertex_set).w == w.w
    assert brute_force_isomorphic(g1, g2) is not None
    print("[criterion 2] PASS  rank-6 mate matrix: Pair(A1, A2) recovered, "
          "verified, isomorphic")


def test_criterion_3_roundtrip_theorem():
    for n in (4, 5, 6):
        report = exhaustive_roundtrip(n)
        assert report.failures == (), f"failures at n={n}: {report.failures}"
    checked = 0
    reconstructed = 0
    for seed in range(10000):
        g, s = _sample(seed, 7, 10)
        w = walk_matrix(g, s)
        checked += 1
        if rank(w.w) < g.n - 1:
            continue
        res = reconstruct(ReconstructionInput(w))
        assert res.status == "unique", f"seed {seed}: {res.status}"
        assert res.graphs[0].adj == g.adj, f"seed {seed}: wrong graph"
        reconstructed += 1
    assert checked >= 10000
    print(f"[criterion 3] PASS  exhaustive n=4,5,6 + {checked} random "
          f"(graph,set) pairs n=7..10 ({reconstructed} at rank >= n-1), "
          "zero failures")


def test_criterion_4_full_rank_char_recovery():
    hits = 0
    seed = 0
    while hits < 1000:
        g, s = _sample(seed, 2, 12)
        seed += 1
        w = walk_matrix(g, s)
        if rank(w.w) != g.n:
            continue
        summary = summary_from_walk(w)
        assert summary.char_poly == char_poly(g.adjacency), \
            f"seed {seed - 1}: pivot-row route disagrees with char_poly"
        hits += 1
    print(f"[criterion 4] PASS  pivot-row polynomial = char_poly(A) on "
          f"{hits} full-rank instances (n <= 12)")


def test_criterion_5_rank_equals_eigencount():
    for seed in range(1000):
        g, s = _sample(seed, 2, 12)
        assert float_eigencheck(g, s, tol=1e-7), f"seed {seed} disagrees"
    print("[criterion 5] PASS  exact rank = eigenprojection count on 1000 "
          "instances (tol 1e-7)")


def test_criterion_6_lex_iso_certification(paw, paw_sets):
    # reference lex form and reordering permutation (v3,v1,v4)(v2)
    lf = lex_form(walk_matrix(paw, paw_sets[3]))
    assert lf.matrix == ExactMatrix([[1, 0, 2, 2], [0, 1, 1, 4],
                                     [0, 1, 1, 3], [0, 0, 1, 1]])
    assert lf.perm == (3, 1, 0, 2)   # 1->4, 2->2, 3->1, 4->3
    # the automorphism interchanging v3 and v4 must be certified
    cert = certify_set_automorphism(paw, paw_sets[3], paw_sets[4])
    assert cert.verdict == ISOMORPHIC and cert.perm == (0, 1, 3, 2)

    # exhaustive n <= 7: verdicts agree with brute force at rank >= n-1
    rng = SplitMix64(0xFEED)
    cross_checked = 0
    for n in range(2, 8):
        classes = enumerate_graph_classes(n)
        v = VertexSet.full(n)
        high = []
        for g in classes:
            w = walk_matrix(g, v)
            if rank(w.w) >= n - 1:
                high.append((g, tuple(lex_form(w).matrix.row(i)
                                      for i in range(n))))
        # distinct classes must have distinct lex forms: certify would say
        # NOT_ISOMORPHIC for every cross pair, agreeing with brute force
        lex_keys = {key for _, key in high}
        assert len(lex_keys) == len(high), f"lex collision at n={n}"
        # positive direction: every class certifies against a relabeled copy
        for g, _ in high:
            order = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.below(i + 1)
                order[i], order[j] = order[j], order[i]
            h = g.relabel(order)
            c = certify_isomorphism(g, v, h, v)
            assert c.verdict in (ISOMORPHIC, ISOMORPHIC_PAIR)
            assert brute_force_isomorphic(g, h) is not None
        # sampled cross pairs through both routes
        for _ in range(min(150, len(high))):
            a = rng.below(len(high))
            b = rng.below(len(high))
            if a == b:
                continue
            c = certify_isomorphism(high[a][0], v, high[b][0], v)
            bf = brute_force_isomorphic(high[a][0], high[b][0])
            assert (c.verdict in (ISOMORPHIC, ISOMORPHIC_PAIR)) == \
                (bf is not None)
            cross_checked += 1

    # low-rank mate pairs: identical W, inconclusive, non-isomorphic
    for wdata, g6, g6s, nn in (
            (refdata.MATES7_W, refdata.MATES7_G6,
             refdata.MATES7_G6_STAR, 7),
            (refdata.MATES9_W, refdata.MATES9_G6,
             refdata.MATES9_G6_STAR, 9)):
        ga, gb = parse_graph6(g6), parse_graph6(g6s)
        v = VertexSet.full(nn)
        wa, wb = walk_matrix(ga, v), walk_matrix(gb, v)
        reference = ExactMatrix(wdata)
        assert wa.w == reference and wb.w == reference
        assert walk_equivalent(wa, wb)
        cert = certify_isomorphism(ga, v, gb, v)
        assert cert.verdict == INCONCLUSIVE
        assert brute_force_isomorphic(ga, gb) is None
    print(f"[criterion 6] PASS  lex form and automorphism fixtures exact; "
          f"exhaustive n <= 7 agreement with brute force ({cross_checked} "
          "sampled cross pairs); low-rank mate pairs walk-equivalent, "
          "inconclusive, non-isomorphic")


def test_criterion_7_identity_suite():
    checked = 0
    for seed in range(500):
        g, s = _sample(seed, 2, 10)
        n = g.n
        rng = SplitMix64(seed ^ 0xC0FFEE)
        w = walk_matrix(g, s)
        r = rank(w.w)

        # shift identity
        i = rng.below(3)
        j = i + rng.below(3)
        assert shift_identity_check(g, s, i, j)

        # Hankel constancy: entries = oracle walk counts
        hi = rng.below(2)
        hj = hi + 1 + rng.below(2)
        h = hankel_matrix(g, s, hi, hj)
        table = count_walks(g, s, 2 * hj)
        in_s = [x - 1 for x in s.members]
        k = hj - hi + 1
        for p in range(k):
            for q in range(k):
                n_k = sum(table.counts[x][2 * hi + p + q] for x in in_s)
                assert h[p, q] == n_k

        # restriction properties
        a_w = restriction(g, s).a_w
        assert a_w == a_w.transpose()
        assert g.adjacency * a_w == a_w * g.adjacency
        summary = summary_from_walk(w)
        expected = r if summary.main_poly.coeffs[0] != 0 else r - 1
        assert rank(a_w) == expected

        # kernel projector properties
        p_ker = kernel_projector(g, s)
        assert p_ker == p_ker.transpose()
        assert p_ker * p_ker == p_ker
        assert rank(p_ker) == n - r
        assert p_ker * w.w == ExactMatrix.zeros(n, n)

        # walk-matrix/restriction equivalence never violated
        if rng.next_bit():
            g2, s2 = g, s
        else:
            g2 = random_graph(n, rng)
            s2 = random_nonempty_set(n, rng)
        restriction_equivalence_check(g, s, g2, s2)
        checked += 1
    assert checked == 500
    print("[criterion 7] PASS  identity suite on 500 instances: shift, "
          "Hankel=oracle, restriction, projector, equivalence")


def test_criterion_8_probabilistic_exploration():
    fractions = {}
    for n, pinned in PINNED_RANK_HISTOGRAMS.items():
        stats = rank_statistics(n, 1000, seed=STATS_SEED)
        assert stats.rank_histogram == pinned, \
            f"n={n}: histogram drifted from the pinned first run"
        fractions[n] = stats.full_rank_fraction
    ns = sorted(fractions)
    for a, b in zip(ns, ns[1:]):
        f1, f2 = fractions[a], fractions[b]
        slack = 3 * math.sqrt(f1 * (1 - f1) / 1000 + f2 * (1 - f2) / 1000)
        if f2 < f1 - slack:
            warnings.warn(
                f"full-rank fraction not monotone within 3 sigma: "
                f"n={a}: {f1:.3f} vs n={b}: {f2:.3f}")
    print(f"[criterion 8] PASS  rank statistics pinned at seed {STATS_SEED}; "
          f"full-rank fractions {[fractions[n] for n in ns]} "
          "(trend checked, warn-only)")
