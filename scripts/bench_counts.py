#!/usr/bin/env python3
"""Gate on counted work, not time.

Runs BENCHMARK.json's command once per workload, short and traced
(`--workload W --seed 1 --seconds 1 --trace 1`), and compares the counts
that are exact for a seed with scripts/bench_counts.json, for equality:
EMD solves, pivots per solve, solves per bag, mean signature atoms, bit
differences against the layer replay, shift alerts, and failed
operations. Timings drift with the machine; these do not, so a change
to any of them is a change to the work the program does.

Usage, from anywhere in the repository:

    python3 scripts/bench_counts.py            # compare; exit 1 on a difference
    python3 scripts/bench_counts.py --record   # rewrite scripts/bench_counts.json

A change that moves a count on purpose re-records the file and says why.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = ROOT / "scripts" / "bench_counts.json"
METRICS = [
    "emd.solves",
    "emd.pivots_per_solve",
    "engine.emd_solves_per_bag",
    "signature.mean_atoms",
    "check.bit_diffs",
    "check.shift_alerts",
]
ARGS = ["--seed", "1", "--seconds", "1", "--trace", "1"]


def measure(command, workload):
    """The counted values of one short traced run of `workload`."""
    run = subprocess.run(
        command + ["--workload", workload] + ARGS,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    report = json.loads(run.stdout.strip().splitlines()[-1])
    counts = {name: report["metrics"][name]["value"] for name in METRICS}
    counts["failed"] = report["failed"]
    return counts


def main(argv):
    if argv not in ([], ["--record"]):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = {w["name"]: measure(bench["command"], w["name"]) for w in bench["workloads"]}
    if argv == ["--record"]:
        COUNTS.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"recorded {COUNTS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(COUNTS.read_text())
    diffs = []
    for workload in sorted(set(measured) | set(recorded)):
        got, want = measured.get(workload), recorded.get(workload)
        if got is None or want is None:
            diffs.append(f"{workload}: measured {got}, recorded {want}")
            continue
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                diffs.append(f"{workload}: {name} = {got.get(name)}, recorded {want.get(name)}")
    for line in diffs:
        print(line, file=sys.stderr)
    print(f"bench counts: {len(measured)} workloads, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
