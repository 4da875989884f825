#!/usr/bin/env python3
"""Check that two traced runs on one seed record exactly the same work counts.

    python3 perfbench/check_counts.py [--workload NAME] [--seed N]

Counts are calls per layer, vertices found, gradient evaluations,
relabelings, simplex columns and bytes of observable stacks built.  They
depend only on the inputs and the code, so any difference between the two
runs is a defect of the benchmark or nondeterminism in the program.  Exits 0
when every count repeats, 1 otherwise.
"""

import argparse
import sys

import run
import traced_cli
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        first, second = (run.run_workload(name, args.seed, 1, True)[0] for _ in range(2))
        if not (first["correct"] and second["correct"]):
            print(f"{name}: a command failed its output check")
            ok = False
            continue
        diffs = [(c, first["metrics"][c]["value"], second["metrics"][c]["value"])
                 for c in traced_cli.EXACT_COUNTS
                 if first["metrics"][c]["value"] != second["metrics"][c]["value"]]
        for count, a, b in diffs:
            print(f"{name}: {count} differs: {a} then {b}")
        print(f"{name}: {len(traced_cli.EXACT_COUNTS) - len(diffs)}/"
              f"{len(traced_cli.EXACT_COUNTS)} counts repeat exactly")
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
