"""Benchmark of ``circrob recognize``: end to end through the CLI, or per layer.

    python3 perfbench/run.py --workload circle-shuffled --seed 1 --seconds 12 --trace 0

Run from the repository root. Set-up generates the workload's instances from
the seed and writes them as matrix files (three times, to time it). With
``--trace 0`` the harness then answers them, one ``python -m circrob.cli
recognize --json`` child at a time, and times the library call that answers
the same question in-process, until ``--seconds`` have passed. With
``--trace 1`` it runs the traced in-process pass of ``layers.py`` instead.
Every answer is checked against the planted one.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (environment, samples, spans) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3

END_TO_END = {
    "answer_s": "s",
    "answer_cpu_s": "s",
    "answer_rss_mb": "MiB",
    "library_s": "s",
    "library_cpu_s": "s",
    "setup_s": "s",
}


def _fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _llc_bytes():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        if best is None or level > best[0]:
            best = (level, int(size.rstrip("KM")) * scale)
    return None if best is None else {"level": best[0], "bytes": best[1]}


def _cpu_ticks():
    """Host CPU tick counters; field 7 is time stolen by the hypervisor."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after):
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(workload: str, seed: int, cases) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc": _llc_bytes(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "instances": [
            {"name": c.name, "n": c.n, "matrix_bytes": 8 * c.n * c.n,
             "file_bytes": c.file_bytes}
            for c in cases
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circrob" / "cli.py").is_file():
        _fail(f"no circrob sources under {ROOT / 'src'}", 2)
    sys.path.insert(0, str(ROOT / "src"))

    import endtoend
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", 2)

    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            try:
                cases = workloads.setup(args.workload, args.seed, workdir)
            except workloads.PlantedPropertyError as exc:
                _fail(f"set-up failed for seed {args.seed}: {exc}", 3)
            setup_times.append(time.perf_counter() - t0)
        env = endtoend.child_env(ROOT)
        ticks = _cpu_ticks()
        if args.trace == 0:
            result = endtoend.end_to_end(cases, args.seconds, env, ROOT)
            result["metrics"]["setup_s"] = statistics.median(setup_times)
            units = END_TO_END
        else:
            import layers

            result = layers.traced_run(cases, args.seconds, env, str(ROOT))
            units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        record = {
            "environment": environment(args.workload, args.seed, cases),
            "steal_share": _steal_share(ticks, _cpu_ticks()),
            "setup_s": setup_times,
            **result,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outdir = BENCH_DIR / "out"
    outdir.mkdir(exist_ok=True)
    outfile = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    outfile.write_text(json.dumps(record, indent=1) + "\n")

    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"# environment {json.dumps(record['environment'])}")
    for why in result["failures"]:
        print(f"# FAILED {why}")
    print(f"# steal_share {record['steal_share']}")
    print(f"# fail_frac {failed / attempted:.4f} ({failed} of {attempted})")
    if args.trace == 0:
        print(f"# answer_s samples={len(result['answer_s'])}"
              f" high_percentile={result['answer_high_percentile']}")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        shown = "absent" if name in result.get("absent", ()) else f"{value:.6g} {unit}"
        print(f"# {name} {shown}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"# record {outfile.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
