"""The seeded equivalence corpora against their golden files (see corpus.py
and corpus_large.py).

Every output must equal the recorded one; only the realization's mu is
compared within corpus.MU_TOL.  A mismatch means a change moved an output:
either a bug, or an intended change that is edited into the golden file
entry by entry and named in CHANGES.md.
"""

import json

import corpus
import corpus_large


def _golden(path):
    with open(path) as fh:
        return json.load(fh)


def _assert_records_match(items, want):
    assert [item[0] for item in items] == [rec["id"] for rec in want]
    diffs = []
    for item, rec in zip(items, want):
        got = corpus.record(*item)
        for key, value in rec.items():
            same = (corpus.same_mu(got[key], value) if key == "mu"
                    else got[key] == value)
            if not same:
                diffs.append(f"{rec['id']} {key}: {got[key]!r} != {value!r}")
    assert not diffs, f"{len(diffs)} outputs differ:\n" + "\n".join(diffs[:20])


def test_corpus_matches_golden(tmp_path):
    golden = _golden(corpus.GOLDEN)
    items = list(corpus.inputs())
    _assert_records_match(items, golden["records"])
    cli = corpus.cli_outputs(tmp_path, items)
    assert cli.keys() == golden["cli"].keys()
    bad = [name for name, out in cli.items()
           if not corpus.same_cli(name, out, golden["cli"][name])]
    assert not bad, f"CLI outputs differ: {bad}"


def test_large_corpus_matches_golden():
    _assert_records_match(list(corpus_large.inputs()),
                          _golden(corpus_large.GOLDEN)["records"])
