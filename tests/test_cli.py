"""Command-line interface: formats, exit codes and golden outputs."""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import refdata
from walkmat.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def paw_al(tmp_path):
    p = tmp_path / "paw.al"
    lines = ["4 4"] + [f"{i} {j}" for i, j in refdata.PAW_EDGES]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture
def mates8_walk(tmp_path):
    p = tmp_path / "mates8.walk"
    body = "\n".join(" ".join(str(x) for x in row)
                     for row in refdata.MATES8_W)
    p.write_text("# set: 1,2,3,4,5,6,7,8\n" + body + "\n")
    return str(p)


def test_walk_matrix_format(paw_al):
    code, out = run(["walk", "--format", "matrix", paw_al, "--set", "3"])
    assert code == 0
    rows = [ln.split() for ln in out.strip().splitlines()]
    assert rows == [[str(x) for x in r] for r in refdata.PAW_W3]


def test_walk_json(paw_al):
    code, out = run(["walk", paw_al])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["set"] == [1, 2, 3, 4]
    assert obj["columns"][1] == ["1", "3", "2", "2"]


def test_mainpoly(paw_al):
    code, out = run(["mainpoly", paw_al, "--set", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"rank": 3, "main_poly": [1, -3, -1, 1]}


def test_spectral_numeric(paw_al, tmp_path):
    code, out = run(["spectral", paw_al, "--numeric"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 3
    assert obj["main_poly"] == [1, -3, -1, 1]
    assert "char_poly" not in obj
    assert len(obj["mu"]) == 3 and abs(obj["mu"][2] - 2.17) < 0.01
    # G(32, 1/2): the realization also holds at full rank n = 32
    from walkmat import SplitMix64, emit_graph6, random_graph
    p = tmp_path / "g32.g6"
    p.write_text(emit_graph6(random_graph(32, SplitMix64(32))) + "\n")
    code, out = run(["spectral", str(p), "--numeric"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 32 and len(obj["mu"]) == 32


def test_spectral_numeric_analyses_w_once(paw_al, monkeypatch):
    # the summary and the realization share one [W | I] elimination: at
    # rank n (S = {3}) it is the only one, modulo the prime, and both read
    # the graph certified from it; at rank n-1 (S = V) it is exact and the
    # realization adds the elimination of [G | K^T], G = K^T K
    import walkmat.exact
    import walkmat.spectral
    calls = []
    echelon = walkmat.exact._echelon

    def counted(*args, **kwargs):
        calls.append(1)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(walkmat.exact, "_echelon", counted)
    monkeypatch.setattr(walkmat.spectral, "_echelon", counted)
    for spec, expected in (("3", 1), ("V", 2)):
        calls.clear()
        code, _ = run(["spectral", paw_al, "--set", spec, "--numeric"])
        assert code == 0 and len(calls) == expected


def test_restrict(paw_al):
    code, out = run(["restrict", paw_al, "--set", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["a_w"] == [list(r) for r in refdata.PAW_A]


def test_reconstruct_mates8(mates8_walk):
    code, out = run(["reconstruct", mates8_walk, "--edges", "10"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pair" and len(obj["graphs"]) == 2


def test_reconstruct_undetermined(tmp_path):
    p = tmp_path / "low.walk"
    body = "\n".join(" ".join(str(x) for x in row)
                     for row in refdata.MATES7_W)
    p.write_text(body + "\n")
    code, out = run(["reconstruct", str(p)])
    assert code == 4
    assert json.loads(out)["reason"] == "rank_too_low"
    # S = V at rank n-2 with an odd degree sum: no graph has this W
    p.write_text("1 1 1\n1 1 1\n1 1 1\n")
    code, out = run(["reconstruct", str(p)])
    assert code == 4
    assert json.loads(out)["reason"] == "not_a_walk_matrix"


def test_cli_starts_without_numpy(paw_al, mates8_walk):
    # only spectral --numeric, float_eigencheck and roundtrip load NumPy,
    # and only stats and roundtrip with --jobs > 1 start a process pool
    code = textwrap.dedent(f"""
        import io, json, sys
        from walkmat.cli import main
        calls = [["walk", {paw_al!r}], ["mainpoly", {paw_al!r}],
                 ["reconstruct", {mates8_walk!r}, "--edges", "10"],
                 ["canon", {paw_al!r}], ["iso", {paw_al!r}, {paw_al!r}],
                 ["equiv", {paw_al!r}, {paw_al!r}]]
        codes = [main(argv, out=io.StringIO()) for argv in calls]
        print(json.dumps([codes, "numpy" in sys.modules,
                          "concurrent.futures.process" in sys.modules]))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # iso of the paw with itself at S = V (rank n-1) is definitive
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0, 0], False, False]


def test_canon_reference_lex_form(paw_al):
    code, out = run(["canon", paw_al, "--set", "3", "--labels"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lex"] == [[1, 0, 2, 2], [0, 1, 1, 4],
                          [0, 1, 1, 3], [0, 0, 1, 1]]
    assert obj["row_labels"] == ["v3", "v2", "v4", "v1"]
    assert obj["cycles"] == "(v1,v4,v3)(v2)"


def test_iso_exit_codes(tmp_path, paw_al):
    # definitive negative verdict (rank n-1 vs a path graph): exit 1
    p4 = tmp_path / "p4.al"
    p4.write_text("4 3\n1 2\n2 3\n3 4\n")
    code, out = run(["iso", paw_al, str(p4)])
    assert code == 1
    assert json.loads(out)["verdict"] == "not_isomorphic"
    # regular graphs have rank-1 standard walk matrices: inconclusive, exit 4
    g1 = tmp_path / "g1.g6"
    g1.write_text("C~\n")          # K4
    code, out = run(["iso", str(g1), str(g1)])
    assert code == 4
    assert json.loads(out)["verdict"] == "inconclusive"
    # self isomorphism, exit 0
    code, out = run(["iso", paw_al, paw_al, "--set", "3", "--set2", "4"])
    assert code == 0
    assert json.loads(out)["permutation"] == [1, 2, 4, 3]


def test_equiv_exit_codes(paw_al):
    code, out = run(["equiv", paw_al, paw_al, "--set", "3", "--set2", "4"])
    assert code == 0 and json.loads(out)["walk_equivalent"]
    code, out = run(["equiv", paw_al, paw_al, "--set", "1", "--set2", "3"])
    assert code == 1 and not json.loads(out)["walk_equivalent"]


def test_stats_deterministic():
    code1, out1 = run(["stats", "--n", "5", "--trials", "40", "--seed", "9"])
    code2, out2 = run(["stats", "--n", "5", "--trials", "40", "--seed", "9"])
    assert code1 == code2 == 0 and out1 == out2
    summary = json.loads(out1.strip().splitlines()[-1])
    assert summary["trials"] == 40


def test_stats_env_seed(monkeypatch):
    monkeypatch.setenv("WALKMAT_SEED", "777")
    _, out1 = run(["stats", "--n", "4", "--trials", "20"])
    _, out2 = run(["stats", "--n", "4", "--trials", "20", "--seed", "777"])
    assert out1 == out2


def test_roundtrip_cli():
    code, out = run(["roundtrip", "--n", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["classes"] == 11 and summary["failures"] == 0


def test_usage_error():
    code, _ = run(["walk"])            # missing file argument
    assert code == 2
    code, _ = run(["nonsense"])
    assert code == 2


def test_data_error(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("")
    code, _ = run(["walk", str(bad)])
    assert code == 3


def test_stdin_input(monkeypatch):
    import io as _io
    monkeypatch.setattr("sys.stdin", _io.StringIO("C~\n"))
    code, out = run(["walk", "-"])
    assert code == 0
    assert json.loads(out)["n"] == 4
