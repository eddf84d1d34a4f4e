"""The benchmark workloads: seeded inputs, timed calls, output checks.

`prepare(name, seed)` imports walkmat, draws the inputs from the seed with
`random.Random`, discards draws that miss their rank class, and returns the
operations grouped in rounds.  Every round holds the workload's whole mix
once, with inputs of its own, so a run of whole rounds always has the same
mix.  Each `Op` has a `call` that only calls the library (the runner times
it) and a `check` that judges the output with code from `reference`.  A
check returns two lists of descriptions: errors (a step raised, or a process
exited with an unexpected code) and wrong results.

Why these three (README.md has the measured baseline):

* recon-large: reconstruct with S = V at n 16/24/32, one op per rank class
  n, n-1, n-2; bigint solve, inverse and matrix products dominate.
* analyze: the forward path (walk, spectral summary, realization,
  isomorphism certificate, walk equivalence) on G(n, 1/2).
* cli-cold: one `python -m walkmat.cli` process per op; the only workload
  that measures process start, import and the parse/emit code.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("recon-large", "analyze", "cli-cold")
MAX_DRAWS = 10_000  # per input; a class this rare means a generator bug
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    label: str                                  # size / rank class
    call: Callable[[], Any]                     # timed: library calls only
    check: Callable[[Any], tuple[list[str], list[str]]]  # errors, wrong
    inprocess_call: Callable[[], Any] | None = None  # used by traced runs


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]       # each run in order; runs cycle through
    discarded: int               # draws that missed their rank class
    entry_bits_max: int          # largest entry of any input W, in bits
    tail_pct: float              # latency_tail_ms percentile, fixed so that
                                 # at least ten samples lie beyond it at the
                                 # baseline sample count of a 24 s run
    spawns: bool = False         # each op starts a Python process


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False
            ) -> Workload:
    """Import walkmat and build the rounds of `name` from `seed`.

    `tiny` shrinks every size for the smoke test.
    """
    import walkmat  # noqa: F401  (set-up time includes the import)
    rng = random.Random(f"{name}:{seed}")
    builder = {"recon-large": _recon_large, "analyze": _analyze,
               "cli-cold": _cli_cold}[name]
    return builder(rng, workdir, tiny)


def _draw(rng: random.Random, make, accept) -> tuple[Any, int]:
    """First draw of make(rng) that accept() keeps, with the discard count."""
    for discarded in range(MAX_DRAWS):
        item = make(rng)
        if accept(item):
            return item, discarded
    raise RuntimeError(f"no accepted draw in {MAX_DRAWS}")


def _full(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _as_adj(g) -> ref.Adj:
    return tuple(tuple(int(x) for x in row) for row in g.adj)


def _graph(adj: ref.Adj):
    import walkmat
    return walkmat.Graph(len(adj), adj)


def _walk(rows: list[list[int]]):
    import walkmat
    return walkmat.WalkMatrix.from_matrix(walkmat.ExactMatrix(rows))


# --- reconstruction ---

def _recon_op(label: str, adj: ref.Adj, members: tuple[int, ...],
              rows: list[list[int]], deficiency: int) -> Op:
    import walkmat
    w = _walk(rows)

    def call():
        return walkmat.reconstruct(walkmat.ReconstructionInput(w))

    def check(res):
        fails = []
        allowed = ("unique", "pair") if deficiency == 2 else ("unique",)
        if res.status not in allowed:
            fails.append(f"status {res.status} ({res.reason}) at rank "
                         f"n-{deficiency}")
        got = [_as_adj(g) for g in res.graphs]
        if adj not in got:
            fails.append("original graph not among the results")
        for cand in got:
            if not ref.is_simple(cand) or ref.walk_rows(cand, members) != rows:
                fails.append("a returned graph does not regenerate W")
        return [], fails

    return Op(label, call, check)


def _recon_large(rng, workdir, tiny) -> Workload:
    rounds, discarded, bits = [], 0, 0
    for _ in range(1 if tiny else 4):
        ops = []
        rounds.append(ops)
        for n, deficiency in itertools.product(
                (8, 10) if tiny else (16, 24, 32), (0, 1, 2)):
            def make(r, n=n, deficiency=deficiency):
                # false twins of `deficiency` distinct vertices of G(n-d, 1/2)
                base = ref.gnp_half(n - deficiency, r)
                adj = ref.with_false_twins(
                    base, r.sample(range(n - deficiency), deficiency))
                return adj, ref.walk_rows(adj, _full(n))
            (adj, rows), k = _draw(
                rng, make, lambda d, n=n, deficiency=deficiency:
                ref.int_rank(d[1]) == n - deficiency)
            discarded += k
            bits = max(bits, ref.entry_bits_max(rows))
            ops.append(_recon_op(f"n={n} rank n-{deficiency}", adj, _full(n),
                                 rows, deficiency))
    return Workload("recon-large", rounds, discarded, bits, 70.0)


# --- forward analysis ---

def _analyze_op(n: int, adj: ref.Adj, perm: list[int], flip: tuple[int, int]
                ) -> Op:
    import walkmat
    g = _graph(adj)
    mate = _graph(ref.relabel(adj, perm))
    flipped = _graph(ref.flip_edge(adj, *flip))
    s = walkmat.VertexSet.full(n)
    rows = ref.walk_rows(adj, _full(n))
    steps = (
        ("walk_matrix", lambda: walkmat.walk_matrix(g, s)),
        ("spectral_summary", lambda: walkmat.spectral_summary(g, s)),
        ("main_eigen_realize", lambda: walkmat.main_eigen_realize(g, s)),
        ("certify_isomorphism",
         lambda: walkmat.certify_isomorphism(g, s, mate, s)),
        ("walk_equivalent",
         lambda: walkmat.walk_equivalent(walkmat.walk_matrix(g, s),
                                         walkmat.walk_matrix(flipped, s))),
    )

    def call():
        out = {}
        for step, fn in steps:
            try:
                out[step] = fn()
            except Exception as exc:  # recorded and reported as a failure
                out[step] = exc
        return out

    def check(out):
        errors = [f"{step} raised {type(v).__name__}: {v}"
                  for step, v in out.items() if isinstance(v, Exception)]
        fails = []
        w = out["walk_matrix"]
        if not isinstance(w, Exception) and [
                [int(x) for x in w.w.row(i)] for i in range(n)] != rows:
            fails.append("walk_matrix differs from the neighbour-sum W")
        summary = out["spectral_summary"]
        if not isinstance(summary, Exception):
            coeffs = [int(c) for c in summary.main_poly.coeffs]
            if summary.r != n or len(coeffs) != n + 1 or coeffs[-1] != 1:
                fails.append("rank is not n or the main polynomial is not "
                             "monic of degree n")
            elif not ref.annihilates(adj, _full(n), coeffs):
                fails.append("p(A) e != 0 for the main polynomial")
        real = out["main_eigen_realize"]
        if not isinstance(real, Exception) and not ref.realizes(
                rows, real.vec_matrix.tolist(), real.eig_matrix.tolist(),
                real.tolerance):
            fails.append("E * M differs from W beyond the stated tolerance")
        cert = out["certify_isomorphism"]
        if not isinstance(cert, Exception) and (
                cert.verdict not in ("isomorphic", "isomorphic_pair")
                or not ref.is_isomorphism(adj, _as_adj(mate),
                                          list(cert.perm))):
            fails.append(f"certificate {cert.verdict} does not map edges "
                         "onto the relabelled copy")
        if out["walk_equivalent"] is not False \
                and not isinstance(out["walk_equivalent"], Exception):
            fails.append("walk_equivalent accepted the edge-flipped copy")
        return errors, fails

    return Op(f"n={n}", call, check)


def _analyze(rng, workdir, tiny) -> Workload:
    rounds, discarded, bits = [], 0, 0
    for _ in range(1 if tiny else 16):
        ops = []
        rounds.append(ops)
        for n in ((6, 8) if tiny else (16, 24, 32)):
            adj, k = _draw(rng, lambda r, n=n: ref.gnp_half(n, r),
                           lambda a: ref.int_rank(
                               ref.walk_rows(a, _full(len(a)))) == len(a))
            discarded += k
            bits = max(bits, ref.entry_bits_max(ref.walk_rows(adj, _full(n))))
            i, j = rng.sample(range(n), 2)
            ops.append(_analyze_op(n, adj, ref.random_perm(n, rng), (i, j)))
    return Workload("analyze", rounds, discarded, bits, 80.0)


# --- cold command-line calls ---

def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _cli_check(sub: str, o: dict, adj: ref.Adj, mate: ref.Adj,
               rows: list[list[int]]) -> list[str]:
    """Wrong-result descriptions for the parsed JSON output of `sub`."""
    n = len(adj)
    if sub == "walk":
        ok = (o.get("set") == list(_full(n))
              and [[int(x) for x in c] for c in o.get("columns", [])]
              == [list(c) for c in zip(*rows)])
    elif sub == "mainpoly":
        poly = [int(c) for c in o.get("main_poly", [])]
        ok = (o.get("rank") == ref.int_rank(rows) == len(poly) - 1
              and poly[-1] == 1 and ref.annihilates(adj, _full(n), poly))
    elif sub == "reconstruct":
        ok = (o.get("status") == "unique"
              and [ref.decode_graph6(t) for t in o.get("graphs", [])] == [adj])
    elif sub == "canon":
        return ref.check_lex(rows,
                             [[int(x) for x in r] for r in o.get("lex", [])],
                             [p - 1 for p in o.get("permutation", [])])
    elif sub == "iso":
        ok = (o.get("verdict") in ("isomorphic", "isomorphic_pair")
              and ref.is_isomorphism(
                  adj, mate, [p - 1 for p in o.get("permutation", [])]))
    else:
        ok = o.get("walk_equivalent") is True
    return [] if ok else [f"{sub} printed a wrong result"]


def _cli_op(argv: list[str], adj: ref.Adj, mate: ref.Adj,
            rows: list[list[int]], env: dict[str, str]) -> Op:
    import walkmat.cli

    def call():
        proc = subprocess.run(
            [sys.executable, "-m", "walkmat.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def inprocess_call():
        buf = io.StringIO()
        code = walkmat.cli.main(argv, out=buf)
        return code, buf.getvalue()

    code, text = inprocess_call()
    expected = json.loads(text) if code == 0 else None

    def check(res):
        code, text = res
        if code != 0:
            return [f"{argv[0]} exited with {code}"], []
        try:
            got = json.loads(text)
        except json.JSONDecodeError:
            return [], [f"{argv[0]} printed no JSON"]
        fails = _cli_check(argv[0], got, adj, mate, rows)
        if got != expected:
            fails.append(f"{argv[0]} output differs from the in-process call")
        return [], fails

    return Op(argv[0], call, check, inprocess_call)


def _cli_cold(rng, workdir, tiny) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    env = cli_env()
    rounds, discarded, bits = [], 0, 0
    for gi in range(1 if tiny else 4):
        adj, k = _draw(rng, lambda r: ref.gnp_half(r.randint(8, 12), r),
                       lambda a: ref.int_rank(
                           ref.walk_rows(a, _full(len(a)))) >= len(a) - 1)
        discarded += k
        n = len(adj)
        rows = ref.walk_rows(adj, _full(n))
        bits = max(bits, ref.entry_bits_max(rows))
        mate = ref.relabel(adj, ref.random_perm(n, rng))
        g6 = workdir / f"g{gi}.g6"
        g6.write_text(ref.graph6(adj) + "\n")
        am = workdir / f"mate{gi}.am"
        am.write_text("\n".join(" ".join(map(str, r)) for r in mate) + "\n")
        wj = workdir / f"w{gi}.json"
        wj.write_text(ref.walk_json(rows, _full(n)))
        rounds.append([
            _cli_op([str(a) for a in argv], adj, mate, rows, env)
            for argv in (["walk", g6], ["mainpoly", g6], ["reconstruct", wj],
                         ["canon", g6], ["iso", g6, am], ["equiv", g6, am])])
    return Workload("cli-cold", rounds, discarded, bits, 85.0, spawns=True)
