#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, per workload.

    python3 benchmarks/perf/spread.py --out benchmarks/perf/baseline/spread.json

Runs ``run.py`` :data:`RUNS` times per workload at the development seed,
one workload after another, and reports for every end-to-end metric the
distance between the first and third quartiles of the runs' medians as
a share of their median.  Every run measures the same programs, as the
two sides of ``run.py --compare`` do, so the spread is the host's noise
alone; ``--compare`` reads the file to decide when a difference is
within it.  ``--out`` updates only the workloads measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

#: Runs per workload.
RUNS = 10
#: The development seed; both sides of a comparison use one seed.
SEED = 1984


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    parser.add_argument("--out", help="write the spreads to this file")
    args = parser.parse_args(argv)
    run_out = os.path.join(run.OUT_DIR, "spread-run.json")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    spreads = {}
    for workload in args.workload or run.WORKLOADS:
        medians = {}
        for number in range(1, RUNS + 1):
            subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                            "--workload", workload, "--seed", str(SEED),
                            "--out", run_out], check=True,
                           stdout=subprocess.DEVNULL)
            entry = run.load_json(run_out)["passes"]["untraced"][workload]
            for name, metric in entry["metrics"].items():
                if metric["value"] is not None:
                    medians.setdefault(name, []).append(metric["value"])
            print(f"{workload:16s} run {number}: " + "  ".join(
                f"{name} {metric['value']:.4g}"
                for name, metric in sorted(entry["metrics"].items())
                if metric["value"] is not None), flush=True)
        spreads[workload] = {}
        for name, values in sorted(medians.items()):
            q1, median, q3 = run.quartiles(values)
            spreads[workload][name] = (q3 - q1) / median if median else 0.0
            print(f"{workload:16s} {name:18s} median {median:10.5g}  "
                  f"spread {spreads[workload][name]:.4f}  runs {len(values)}")
    if args.out:
        # Workloads not measured this time keep their recorded spreads.
        if os.path.exists(args.out):
            spreads = dict(run.load_json(args.out)["spread"], **spreads)
        with open(args.out, "w") as handle:
            json.dump({"runs": RUNS, "seed": SEED, "spread": spreads},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
