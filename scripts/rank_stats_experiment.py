#!/usr/bin/env python3
"""Rank distribution of walk matrices over G(n, 1/2), as JSON lines.

Explores how often the standard walk matrix is invertible as n grows, and
optionally the same question for random non-empty vertex sets (there the
invertibility claim is only conjectured).  Output is bit-stable for a fixed
seed.

    rank_stats_experiment.py [--ns 6,8,10,12] [--trials 1000] [--seed N]
                             [--random-sets] [--jobs J]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walkmat.oracle import rank_statistics


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ns", default="6,8,10,12")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--random-sets", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    fractions = {}
    for n in (int(t) for t in args.ns.split(",")):
        stats = rank_statistics(n, args.trials, args.seed,
                                random_sets=args.random_sets, jobs=args.jobs)
        for line in stats.json_lines():
            print(line)
        fractions[n] = stats.full_rank_fraction
    print(json.dumps({"full_rank_fraction_by_n": fractions,
                      "seed": args.seed, "trials": args.trials,
                      "random_sets": args.random_sets}))


if __name__ == "__main__":
    main()
