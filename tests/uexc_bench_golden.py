#!/usr/bin/env python3
"""Exact gate on uexc-bench's simulated results (ctest uexc_bench_sim_golden).

    python3 uexc_bench_golden.py BENCH GOLDEN [--update]

BENCH is the uexc-bench binary and GOLDEN the golden JSON file.

Runs `uexc-bench --workload all --seed 1 --smoke --json` once and compares,
for every workload, each metric whose unit is cycles or count and the
number of attempted operations exactly against the golden file. Simulated
results are deterministic, so any difference is a change in what the
simulator computes; a change that means to move them says why and rewrites
the file with --update.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "1"
EXACT_UNITS = {"cycles", "count"}


def measure(bench):
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = Path(tmp) / "run.json"
        cmd = [bench, "--workload", "all", "--seed", SEED, "--smoke",
               "--json", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n"
                     f"{proc.stderr}")
        doc = json.loads(out.read_text())
    return {
        w["workload"]: {
            "attempted": w["attempted"],
            "metrics": {k: v["value"] for k, v in w["metrics"].items()
                        if v["unit"] in EXACT_UNITS},
        }
        for w in doc["workloads"]
    }


def differences(want, got):
    diffs = []
    for name in sorted(set(want) | set(got)):
        if name not in got or name not in want:
            diffs.append(f"workload {name}: only in "
                         f"{'golden' if name in want else 'run'}")
            continue
        w, g = want[name], got[name]
        if w["attempted"] != g["attempted"]:
            diffs.append(f"{name} attempted: {w['attempted']} -> "
                         f"{g['attempted']}")
        for k in sorted(set(w["metrics"]) | set(g["metrics"])):
            a, b = w["metrics"].get(k), g["metrics"].get(k)
            if a != b:
                diffs.append(f"{name} {k}: {a} -> {b}")
    return diffs


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    if len(args) != 2:
        sys.exit(__doc__)
    bench, golden = args[0], Path(args[1])
    got = measure(bench)
    if "--update" in sys.argv[1:]:
        golden.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"uexc_bench_sim_golden: wrote {golden}")
        return
    diffs = differences(json.loads(golden.read_text()), got)
    if diffs:
        sys.exit("FAIL: simulated results differ from " + str(golden) +
                 "\n  " + "\n  ".join(diffs))
    print("uexc_bench_sim_golden: ok")


if __name__ == "__main__":
    main()
