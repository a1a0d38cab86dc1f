"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload's path at tiny n: set-up, the end-to-end loop through
CLI children, and the traced in-process run. It requires that every answer
passes the checks, that the files parse back to the in-memory matrices bit
for bit, and that the spans nest. Then it corrupts each CLI answer (a wrong
order set, then a crashed child) and requires the checks to count every
corrupted answer as failed, so that ``fail_frac`` would rise. Exits 0 when
all of this holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import endtoend  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from circrob.core import load_matrix  # noqa: E402


def wrong_orders(case, code, out):
    payload = json.loads(out)
    orders = payload["order_set"]["orders"] if "order_set" in payload else payload["orders"]
    if orders:
        orders[0][1], orders[0][2] = orders[0][2], orders[0][1]
    else:
        orders.append(list(range(case.n)))
    return code, json.dumps(payload)


def crashed(case, code, out):
    return 2, ""


def check_workload(name: str, workdir: Path, env: dict) -> list[str]:
    problems = []
    cases = workloads.setup(name, 7, workdir, workloads.TINY_SIZES)
    for case in cases:
        loaded = load_matrix(case.path.read_text())
        if not np.array_equal(loaded.values, case.D.values):
            problems.append(f"{case.name}: file does not parse back to the matrix")

    run = endtoend.end_to_end(cases, 0, env, ROOT)
    if run["failures"]:
        problems.append(f"end to end: {run['failures']}")
    for tamper in (wrong_orders, crashed):
        run = endtoend.end_to_end(cases, 0, env, ROOT, tamper=tamper)
        cli_failed = sum(f.startswith("cli ") for f in run["failures"])
        if cli_failed != len(run["answer_s"]):
            problems.append(f"{tamper.__name__}: {cli_failed} of"
                            f" {len(run['answer_s'])} corrupted answers counted as failed")

    traced = layers.traced_run(cases, 0, env, str(ROOT))
    if traced["failures"]:
        problems.append(f"traced: {traced['failures']}")
    for i, span in enumerate(traced["spans"]):
        parent = span["parent"]
        if not span["start"] <= span["end"] or (parent is not None and not parent < i):
            problems.append(f"span {i} malformed: {span}")
    metrics = traced["metrics"]
    crossing = {"verification.crossing_weak_s", "verification.crossing_strict_s"}
    if name == "circle-shuffled" and crossing & set(traced["absent"]):
        problems.append("crossing spans missing on the circle")
    if name == "reject-lower-tri" and not crossing <= set(traced["absent"]):
        problems.append("crossing spans reported on the rejected instance")
    print(f"{name}: recognition.verify_calls={metrics['recognition.verify_calls']:g}"
          f" cli.verify_calls={metrics['cli.verify_calls']:g}"
          f" absent={traced['absent']}")
    return problems


def check_spec() -> list[str]:
    """BENCHMARK.json names exactly the metrics the harness reports."""
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, harness in (("end_to_end", run.END_TO_END),
                         ("per_layer", {k: u for k, (u, _) in layers.PER_LAYER.items()})):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != harness:
            problems.append(f"BENCHMARK.json {key} differs from the harness")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    return problems


def main() -> int:
    env = endtoend.child_env(ROOT)
    problems = check_spec()
    scratch = ROOT / "perfbench" / "work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.WORKLOADS:
            problems += [f"{name}: {p}" for p in check_workload(name, Path(tmp) / name, env)]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
