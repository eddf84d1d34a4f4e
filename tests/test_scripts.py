"""Smoke tests of the experiment scripts, each run as its own process."""

import json
import subprocess
import sys
from pathlib import Path

import refdata

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_find_walk_mates_on_mates8(tmp_path):
    p = tmp_path / "mates8.walk"
    body = "\n".join(" ".join(str(x) for x in row)
                     for row in refdata.MATES8_W)
    p.write_text("# set: 1,2,3,4,5,6,7,8\n" + body + "\n")
    out = run_script("find_walk_mates.py", str(p))
    assert out.startswith("2 adjacency matrices generate this walk matrix")
    assert "GKwsQ?" in out and "GQwqS?" in out


def test_rank_stats_experiment_summary_line():
    out = run_script("rank_stats_experiment.py", "--ns", "5",
                     "--trials", "20")
    summary = json.loads(out.strip().splitlines()[-1])
    assert set(summary["full_rank_fraction_by_n"]) == {"5"}
    assert summary["trials"] == 20
