"""Run one walkmat benchmark workload and print its metrics.

    python3 bench/run.py --workload recon-large --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  A run measures whole
rounds of the workload's operations until at least ``--seconds`` seconds of
scaled operation time (below) have passed.

Every time in the result line is scaled to a reference host speed by a
kernel timed between consecutive operations (`calibration.py`); the
unscaled figures are printed on the lines above the result.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced rounds of the same operations (in-process for
cli-cold), prints the per-layer metrics and writes the spans to
``.bench_work/spans-<workload>-<seed>.jsonl``.  The last stdout line is the
JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibration import FRACTION, PROCESS, Kernel
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5   # fresh processes timed for setup_s; the median is reported
CLI_PROBES = 5     # fresh processes for cli.interpreter_s and cli.import_s
PROBE_TIMEOUT_S = 150
WARMUP_S = 1.0     # untimed operations before a run's first timed one
UNSCALED_CAP = 1.25  # a run ends by this many --seconds of unscaled time

# per-layer metrics read from span totals, as "<layer>.<field>" per operation
LAYER_FIELDS = {
    "graphs.parse": ("calls", "self_s"),
    "walk.walk_matrix": ("calls", "self_s"),
    "walk.io": ("self_s",),
    "exact.rank": ("calls", "self_s"),
    "exact.solve": ("calls", "self_s"),
    "exact.inverse": ("calls", "self_s"),
    "exact.kernel_basis": ("self_s",),
    "exact.matmul": ("calls", "self_s"),
    "spectral.summary_from_walk": ("calls", "self_s"),
    "spectral.realize": ("self_s", "failures"),
    "reconstruct.rank_n": ("self_s",),
    "reconstruct.rank_n1": ("self_s",),
    "reconstruct.rank_n2": ("self_s",),
    "reconstruct.verify": ("self_s",),
    "canonical.lex_form": ("calls", "self_s"),
    "canonical.certify": ("self_s",),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"calls": "count/op", "self_s": "s/op", "failures": "count/op"}


@dataclass
class Tally:
    """Outcomes of the operations run in one mode.  `latencies` are scaled
    to the reference host speed; `timed_s` is unscaled wall time."""

    latencies: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    kernel_s: float | None = None  # last kernel timing; opens the next round

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Operations per scaled second."""
        return self.attempted / sum(self.latencies)

    def wall_ops_per_s(self) -> float:
        return self.attempted / self.timed_s


def run_round(ops, tally: Tally, kernel: Kernel, inprocess: bool = False,
              tracer=None) -> None:
    """Run each op once, in order, timing only its library calls.

    `kernel` is timed before the tally's first round and after every
    `kernel.every` ops (and the last); each op's time is scaled by the two
    timings around it.
    """
    before = tally.kernel_s or kernel.seconds()
    unscaled = []
    for i, op in enumerate(ops, 1):
        call = (op.inprocess_call or op.call) if inprocess else op.call
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            out, raised = call(), None
        except Exception as exc:  # counted as a failed operation
            out, raised = None, exc
        elapsed = time.perf_counter() - start
        if raised is not None:
            errors, wrong = [f"raised {type(raised).__name__}: {raised}"], []
        else:
            try:
                errors, wrong = op.check(out)
            except Exception as exc:  # a malformed output is a wrong result
                errors, wrong = [], [f"unreadable output: {exc!r}"]
        unscaled.append(elapsed)
        tally.timed_s += elapsed
        if errors or wrong:
            tally.failed += 1
            tally.wrong += bool(wrong)
            for text in errors + wrong:
                tally.failures[f"{op.label}: {text[:160]}"] += 1
        if i % kernel.every == 0 or i == len(ops):
            after = kernel.seconds()
            scale = kernel.scale(before, after)
            tally.latencies += [t * scale for t in unscaled]
            unscaled, before = [], after
    tally.kernel_s = before


def warm_up(rounds, seconds: float) -> None:
    """Untimed, unchecked operations from the first round, for `seconds`."""
    start = time.perf_counter()
    for op in itertools.cycle(rounds[0]):
        if time.perf_counter() - start >= seconds:
            return
        try:
            op.call()
        except Exception:  # the timed run counts and reports it
            pass


def measure(rounds, seconds: float, kernel: Kernel = FRACTION) -> Tally:
    """Whole rounds, cycling through `rounds`, until `seconds` of scaled
    operation time have been measured, so that the number of rounds does
    not follow the host's speed, or UNSCALED_CAP * `seconds` of unscaled
    time, so that a slow host does not stretch the run."""
    tally = Tally()
    for ops in itertools.cycle(rounds):
        run_round(ops, tally, kernel)
        if (sum(tally.latencies) >= seconds
                or tally.timed_s >= UNSCALED_CAP * seconds):
            return tally


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by the continued
    fraction of Numerical Recipes (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    front = math.exp(a * math.log(x) + b * math.log1p(-x) + math.lgamma(a + b)
                     - math.lgamma(a) - math.lgamma(b))
    return front * h / a


def quantile(samples: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile.

    A Beta-weighted mean of all order statistics.  Unlike a single order
    statistic it does not jump between operation classes when a mix of fast
    and slow classes (recon-large) is reordered by a little noise.
    """
    xs = sorted(samples)
    n = len(xs)
    p = pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _timed_process(argv: list[str], env=None) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start


def setup_seconds(name: str, seed: int, workdir: Path, tiny: bool) -> float:
    """Median over fresh processes of start-up, import and input set-up,
    scaled by the median of the process kernel timed before, amid and after
    the probes."""
    times, kernel = [], [PROCESS.seconds()]
    for i in range(SETUP_PROBES):
        code = ("import sys; from pathlib import Path; "
                f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
                "import workloads; "
                f"workloads.prepare({name!r}, {seed!r}, "
                f"Path({str(workdir / f'probe{i}')!r}), {tiny!r})")
        times.append(_timed_process([sys.executable, "-c", code]))
        if i == SETUP_PROBES // 2:
            kernel.append(PROCESS.seconds())
    kernel.append(PROCESS.seconds())
    k = statistics.median(kernel)
    return statistics.median(times) * PROCESS.scale(k, k)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, tally: Tally, setup_s: float) -> tuple[dict, list[str]]:
    metrics = {
        "ops_per_s": _metric(tally.ops_per_s(), "1/s"),
        "latency_p50_ms": _metric(quantile(tally.latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": _metric(
            quantile(tally.latencies, wl.tail_pct) * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = tally.attempted - math.ceil(wl.tail_pct / 100 * tally.attempted)
    notes = {"latency_tail_ms": f" (p{wl.tail_pct:g} of {tally.attempted} "
                                f"samples, {beyond} beyond it)"}
    lines = [f"{k} {v['value']:.6g} {v['unit']}{notes.get(k, '')}"
             for k, v in metrics.items()]
    lines.append(f"fail_frac {tally.failed / tally.attempted:.6g} ratio "
                 f"({tally.failed} of {tally.attempted} ops)")
    lines.append(f"unscaled: {tally.wall_ops_per_s():.6g} ops per wall "
                 f"second; times above are scaled to the reference host")
    return metrics, lines


def _cli_probes() -> tuple[float, float]:
    """(bare interpreter start, fresh `import walkmat.cli` minus it)."""
    bare = statistics.median(
        _timed_process([sys.executable, "-c", "pass"])
        for _ in range(CLI_PROBES))
    imp = statistics.median(
        _timed_process([sys.executable, "-c", "import walkmat.cli"],
                       env=workloads.cli_env())
        for _ in range(CLI_PROBES))
    return bare, imp - bare


def per_layer(wl, seconds: float, seed: int) -> tuple[dict, list[str], Tally]:
    """Alternate untraced and traced in-process passes over the first round,
    so that per-operation counts repeat exactly for a seed."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    ops = wl.rounds[0]
    start = time.perf_counter()
    while True:
        run_round(ops, plain, FRACTION, inprocess=True)
        with tracer.installed():
            run_round(ops, traced, FRACTION, inprocess=True, tracer=tracer)
        if time.perf_counter() - start >= seconds:
            break
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}-{seed}.jsonl")
    totals = tracer.layer_totals()
    n_ops = traced.attempted
    metrics = {f"{layer}.{fld}": _metric(totals[layer][fld] / n_ops,
                                         FIELD_UNITS[fld])
               for layer, fields in LAYER_FIELDS.items() for fld in fields}
    verify = totals["reconstruct.verify"]
    metrics["reconstruct.verify.accept_ratio"] = _metric(
        verify["true"] / verify["calls"] if verify["calls"] else 0.0, "ratio")
    metrics["walk.entry_bits_max"] = _metric(wl.entry_bits_max, "bits")
    bare, imp = _cli_probes()
    metrics["cli.interpreter_s"] = _metric(bare, "s")
    metrics["cli.import_s"] = _metric(imp, "s")
    metrics["trace.overhead_frac"] = _metric(
        1.0 - traced.ops_per_s() / plain.ops_per_s(), "ratio")
    lines = [f"{k} {v['value']:.6g} {v['unit']}"
             for k, v in sorted(metrics.items())]
    both = Tally(plain.latencies + traced.latencies, 0.0,
                 plain.failed + traced.failed, plain.wrong + traced.wrong,
                 plain.failures + traced.failures)
    return metrics, lines, both


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, lines)."""
    wl = workloads.prepare(name, seed, workdir / "main", tiny)
    lines = [f"workload {name} seed {seed}: {len(wl.rounds)} rounds of "
             f"{len(wl.rounds[0])} ops; set-up discarded {wl.discarded} draws "
             "outside their rank class"]
    if trace:
        metrics, body, tally = per_layer(wl, seconds, seed)
    else:
        setup_s = setup_seconds(name, seed, workdir, tiny)
        warm_up(wl.rounds, min(WARMUP_S, seconds))
        tally = measure(wl.rounds, seconds,
                        PROCESS if wl.spawns else FRACTION)
        metrics, body = end_to_end(wl, tally, setup_s)
    lines += body
    lines += [f"failed {count}x {what}"
              for what, count in sorted(tally.failures.items())]
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "walkmat" / "__init__.py").is_file():
        print(f"bench: no walkmat package under {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
