"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"ops_per_s", "latency_p50_ms", "latency_tail_ms", "fail_frac",
              "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "graphs.parse.calls", "graphs.parse.self_s",
    "walk.walk_matrix.calls", "walk.walk_matrix.self_s", "walk.io.self_s",
    "walk.entry_bits_max",
    "exact.rank.calls", "exact.rank.self_s", "exact.solve.calls",
    "exact.solve.self_s", "exact.inverse.calls", "exact.inverse.self_s",
    "exact.kernel_basis.self_s", "exact.matmul.calls", "exact.matmul.self_s",
    "spectral.summary_from_walk.calls", "spectral.summary_from_walk.self_s",
    "spectral.realize.self_s", "spectral.realize.failures",
    "reconstruct.rank_n.self_s", "reconstruct.rank_n1.self_s",
    "reconstruct.rank_n2.self_s", "reconstruct.verify.self_s",
    "reconstruct.verify.accept_ratio",
    "canonical.lex_form.calls", "canonical.lex_form.self_s",
    "canonical.certify.self_s",
    "cli.interpreter_s", "cli.import_s", "cli.main.self_s",
    "trace.overhead_frac",
}


@pytest.fixture
def workdir():
    path = run.WORK / "smoke"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _printed(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit from the human-readable lines."""
    return {ln.split()[0]: ln.split()[2] for ln in lines[1:]
            if not ln.startswith("failed ")}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END - {
        "fail_frac"}  # zero on most workloads; carried by attempted/failed
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_a_unit(name, trace, workdir):
    result, lines = run.run(name, 1, 0, trace, workdir, tiny=True)
    wanted = PER_LAYER if trace else END_TO_END - {"fail_frac"}
    assert set(result["metrics"]) == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    printed = _printed(lines)
    assert wanted | (set() if trace else {"fail_frac"}) <= set(printed)
    assert all(printed[m] for m in wanted)
    assert result["correct"] and result["attempted"] >= 1
    if name != "analyze":
        assert result["failed"] == 0


def test_corrupted_expected_result_counts_as_failed(workdir):
    wl = workloads.prepare("recon-large", 3, workdir, tiny=True)
    rng = random.Random(0)
    members = tuple(range(1, 9))
    while True:
        adj = ref.gnp_half(8, rng)
        rows = ref.walk_rows(adj, members)
        if ref.int_rank(rows) == 8:
            break
    # the input is W of `adj`, but the expected graph has one edge flipped
    wl.rounds[0][0] = workloads._recon_op(
        "corrupted", ref.flip_edge(adj, 0, 1), members, rows, 0)
    tally = run.measure(wl.rounds, 0)
    assert tally.failed == 1 and tally.wrong == 1
    assert tally.failures == {
        "corrupted: original graph not among the results": 1}
    _, lines = run.end_to_end(wl, tally, 0.0)
    frac = next(ln for ln in lines if ln.startswith("fail_frac"))
    assert float(frac.split()[1]) == pytest.approx(1 / len(wl.rounds[0]),
                                                   rel=1e-5)


def test_traced_counts_repeat_and_wrappers_are_removed(workdir):
    import walkmat.exact
    import walkmat.spectral
    counts = []
    for _ in range(2):
        wl = workloads.prepare("recon-large", 5, workdir, tiny=True)
        metrics, _, _ = run.per_layer(wl, 0, 5)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".failures", "_ratio",
                                      "_max"))})
    assert counts[0] == counts[1]
    assert counts[0]["exact.matmul.calls"] > 0
    assert walkmat.spectral.rank is walkmat.exact.rank
    assert not hasattr(walkmat.exact.rank, "__wrapped__")
    assert not hasattr(walkmat.exact.ExactMatrix.__mul__, "__wrapped__")



@pytest.mark.parametrize("every", [1, 2, 4])
def test_times_are_scaled_by_the_kernel_around_them(every, workdir):
    from calibration import Kernel
    wl = workloads.prepare("analyze", 2, workdir, tiny=True)
    timings = []

    def twice_the_reference():
        timings.append(2.0)
        return 2.0

    ops = wl.rounds[0] * 3
    tally = run.Tally()
    run.run_round(ops, tally, Kernel(1.0, twice_the_reference, every))
    assert tally.attempted == len(ops)
    assert sum(tally.latencies) == pytest.approx(tally.timed_s / 2)
    groups = -(-len(ops) // every)
    assert len(timings) == 1 + groups  # one before, then one per group
    run.run_round(ops, tally, Kernel(1.0, twice_the_reference, every))
    assert len(timings) == 1 + 2 * groups  # the last timing opens round two
