"""Brute-force verifiers and statistical harnesses behind the `stats` and
`roundtrip` commands.

Isomorphism by backtracking search, rank statistics over seeded G(n, 1/2)
samples, and reconstruction by exhaustive enumeration of small graphs.

The random generator is splitmix64, fixed forever so that sampled statistics
are bit-stable across runs and platforms.  Each trial draws its own stream
seed from a master stream, which keeps results identical whether trials run
sequentially or on a worker pool.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from .canonical import lex_form
from .errors import TooLarge
from .exact import rank
from .graphs import Graph, VertexSet, degree_sequence, emit_graph6
from .reconstruct import ReconstructionInput, reconstruct
from .walk import walk_matrix

_M64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, documented constants, fixed forever."""

    __slots__ = ("state", "_buf", "_nbits")

    def __init__(self, seed: int):
        self.state = seed & _M64
        self._buf = 0
        self._nbits = 0

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) & _M64

    def next_bit(self) -> int:
        if self._nbits == 0:
            self._buf = self.next_word()
            self._nbits = 64
        b = self._buf & 1
        self._buf >>= 1
        self._nbits -= 1
        return b

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        span = (_M64 + 1) - (_M64 + 1) % n
        while True:
            w = self.next_word()
            if w < span:
                return w % n


def random_graph(n: int, rng: SplitMix64) -> Graph:
    """Erdos-Renyi G(n, 1/2): one fair bit per vertex pair."""
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_bit():
                adj[i][j] = adj[j][i] = 1
    return Graph(n, tuple(tuple(r) for r in adj))


def random_nonempty_set(n: int, rng: SplitMix64) -> VertexSet:
    while True:
        members = tuple(i + 1 for i in range(n) if rng.next_bit())
        if members:
            return VertexSet(n, members)


# --- brute-force isomorphism ---

BRUTE_FORCE_CAP = 10


def brute_force_isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """Some isomorphism g1 -> g2 (0-based image list), or None.

    Backtracking with degree-partition pruning; hard cap n <= 10.
    """
    if g1.n > BRUTE_FORCE_CAP or g2.n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force capped at n = {BRUTE_FORCE_CAP}")
    if g1.n != g2.n:
        return None
    n = g1.n
    d1, d2 = degree_sequence(g1), degree_sequence(g2)
    if sorted(d1) != sorted(d2):
        return None
    # most-constrained-first: rare degrees early
    freq: dict[int, int] = {}
    for d in d1:
        freq[d] = freq.get(d, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[d1[v]], -d1[v]))
    a1, a2 = g1.adj, g2.adj
    image = [-1] * n
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or d1[v] != d2[w]:
                continue
            ok = True
            for prev in order[:k]:
                if a1[v][prev] != a2[w][image[prev]]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if place(k + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    if place(0):
        return tuple(image)
    return None


def _map(fn, items: list, jobs: int, chunksize: int) -> list:
    """[fn(x) for x in items], on a pool of min(jobs, os.cpu_count())
    worker processes when that is more than one."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# --- rank statistics ---

@dataclass(frozen=True)
class RankStats:
    n: int
    trials: int
    full_rank_count: int
    rank_histogram: dict[int, int]
    seed: int
    random_sets: bool = False

    @property
    def full_rank_fraction(self) -> float:
        return self.full_rank_count / self.trials

    def json_lines(self) -> list[str]:
        return [json.dumps({"n": self.n, "seed": self.seed, "rank": r,
                            "count": c, "trials": self.trials})
                for r, c in sorted(self.rank_histogram.items())]


def _rank_trial(args: tuple[int, int, bool]) -> int:
    n, trial_seed, random_sets = args
    rng = SplitMix64(trial_seed)
    g = random_graph(n, rng)
    s = random_nonempty_set(n, rng) if random_sets else VertexSet.full(n)
    return rank(walk_matrix(g, s).w)


def rank_statistics(n: int, trials: int, seed: int,
                    random_sets: bool = False, jobs: int = 1) -> RankStats:
    """Rank distribution of W^S over seeded G(n, 1/2) samples.

    S = V by default; random_sets draws a random non-empty S per trial.
    Results are identical for any jobs value (per-trial stream seeds).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = SplitMix64(seed)
    work = [(n, master.next_word(), random_sets) for _ in range(trials)]
    ranks = _map(_rank_trial, work, jobs, 64)
    hist: dict[int, int] = {}
    for r in ranks:
        hist[r] = hist.get(r, 0) + 1
    return RankStats(n, trials, hist.get(n, 0), hist, seed, random_sets)


# --- exhaustive enumeration of small graphs ---

ENUM_CAP = 7


def _mask_graph(n: int, mask: int) -> Graph:
    adj = [[0] * n for _ in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (mask >> t) & 1:
                adj[i][j] = adj[j][i] = 1
            t += 1
    return Graph(n, tuple(tuple(r) for r in adj))


def enumerate_graph_classes(n: int) -> list[Graph]:
    """All isomorphism classes of graphs on n vertices, n <= 7.

    Canonical-form dedup over the full 2^C(n,2) space: each new mask marks its
    whole permutation orbit as seen (orbit images are vectorized over all n!
    permutations at once).
    """
    import numpy as np

    if n > ENUM_CAP:
        raise TooLarge(f"exhaustive enumeration capped at n = {ENUM_CAP}")
    if n <= 1:
        return [_mask_graph(n, 0)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {p: t for t, p in enumerate(pairs)}
    nbits = len(pairs)
    perm_idx = np.array(
        [[pos[tuple(sorted((p[i], p[j])))] for (i, j) in pairs]
         for p in itertools.permutations(range(n))], dtype=np.int64)
    weights = np.array([1 << t for t in range(nbits)], dtype=np.int64)
    seen = np.zeros(1 << nbits, dtype=bool)
    reps = []
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        reps.append(mask)
        bits = np.array([(mask >> t) & 1 for t in range(nbits)],
                        dtype=np.int64)
        orbit = bits[perm_idx] @ weights
        seen[orbit] = True
    return [_mask_graph(n, m) for m in reps]


# --- exhaustive reconstruction round trip ---

@dataclass(frozen=True)
class RoundtripRecord:
    graph6: str
    rank: int
    status: str          # unique_ok | pair_contains_original | skipped_low_rank | FAILED
    partner6: str | None = None
    partner_isomorphic: bool | None = None


@dataclass(frozen=True)
class RoundtripReport:
    n: int
    classes: int
    rank_histogram: dict[int, int]
    records: tuple[RoundtripRecord, ...]
    failures: tuple[str, ...]
    walk_equivalent_groups: tuple[tuple[str, ...], ...] = ()

    def json_lines(self) -> list[str]:
        out = []
        for rec in self.records:
            obj = {"n": self.n, "graph6": rec.graph6, "rank": rec.rank,
                   "status": rec.status}
            if rec.partner6 is not None:
                obj["partner"] = rec.partner6
                obj["partner_isomorphic"] = rec.partner_isomorphic
            out.append(json.dumps(obj))
        return out


def _roundtrip_one(g: Graph) -> RoundtripRecord:
    w = walk_matrix(g, VertexSet.full(g.n))
    r = rank(w.w)
    n = g.n
    if r >= n - 1:
        res = reconstruct(ReconstructionInput(w))
        ok = res.status == "unique" and res.graphs[0].adj == g.adj
        return RoundtripRecord(emit_graph6(g), r,
                               "unique_ok" if ok else "FAILED")
    if r == n - 2:
        res = reconstruct(ReconstructionInput(w))
        found = any(c.adj == g.adj for c in res.graphs)
        if not found:
            return RoundtripRecord(emit_graph6(g), r, "FAILED")
        partner6 = None
        partner_iso = None
        if res.status == "pair":
            other = next(c for c in res.graphs if c.adj != g.adj)
            partner6 = emit_graph6(other)
            partner_iso = brute_force_isomorphic(g, other) is not None
        return RoundtripRecord(emit_graph6(g), r, "pair_contains_original",
                               partner6, partner_iso)
    return RoundtripRecord(emit_graph6(g), r, "skipped_low_rank")


def exhaustive_roundtrip(n: int, extra_samples: int = 0,
                         seed: int = 2024, jobs: int = 1) -> RoundtripReport:
    """Round-trip reconstruction over every isomorphism class on n vertices
    (n <= 7), plus optional random extra samples; S = V throughout.

    Graphs of rank >= n-1 must reconstruct uniquely; rank n-2 classes must
    contain the original among the (at most two) candidates.  Lower ranks are
    reported, and identical standard walk matrices are grouped so that
    walk-equivalent non-isomorphic pairs are visible in the report.
    """
    graphs = enumerate_graph_classes(n)
    if extra_samples:
        rng = SplitMix64(seed)
        graphs = graphs + [random_graph(n, rng) for _ in range(extra_samples)]
    records = _map(_roundtrip_one, graphs, jobs, 16)
    hist: dict[int, int] = {}
    for rec in records:
        hist[rec.rank] = hist.get(rec.rank, 0) + 1
    failures = tuple(rec.graph6 for rec in records if rec.status == "FAILED")
    by_lex: dict = {}
    for g in graphs:
        key = tuple(lex_form(walk_matrix(g, VertexSet.full(n))).matrix.row(i)
                    for i in range(n))
        by_lex.setdefault(key, []).append(emit_graph6(g))
    groups = tuple(tuple(v) for v in by_lex.values() if len(set(v)) > 1)
    return RoundtripReport(n, len(graphs), hist, tuple(records), failures,
                           groups)
