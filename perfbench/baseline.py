"""Run every workload over a range of seeds and summarise, as baseline.json.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload: one ``run.py --trace 0`` run per seed, then one
``--trace 1`` run on the first seed. Per end-to-end metric it records the
per-seed values, their median, and the spread (third minus first quartile,
as a share of the median, from ``statistics.quantiles(values, n=4)``). The
per-layer metrics are copied from the traced run. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# environment "):
            result["environment"] = json.loads(line[len("# environment "):])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong answers")
    return result


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    out = {"commit": commit, "run_seconds": SPEC["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in seeds]
        traced = run(workload, seeds[0], 1)
        out["workloads"][workload] = {
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in SPEC["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "environment": traced["environment"],
        }
        spreads = {k: round(v["spread"], 4) for k, v in
                   out["workloads"][workload]["end_to_end"].items()}
        print(workload, spreads, flush=True)
    (ROOT / args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
