"""End-to-end measurement: CLI children in a closed loop, one at a time."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from circrob.oracle import oracle_classify
from circrob.recognition import compatible_orders

from workloads import check_cli, check_library


# After each CLI answer, the library call runs at least LIBRARY_CALLS_MIN
# times and until LIBRARY_SECONDS are spent, so that short calls get enough
# samples for a steady median.
LIBRARY_CALLS_MIN = 2
LIBRARY_CALLS_MAX = 20
LIBRARY_SECONDS = 0.5


def child_env(root: Path) -> dict:
    """The CLI runs from the source tree, with no install step."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Spawner:
    """The small process that starts the CLI children (see spawner.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def answer(self, case, env: dict, root: Path) -> dict:
        """One CLI answer in a child: exit code, stdout, wall and CPU
        seconds, peak RSS."""
        cmd = [sys.executable, "-m", "circrob.cli", "recognize", "--input", str(case.path),
               "--class", case.cls, "--json"]
        req = {"cmd": cmd, "cwd": str(root), "env": env,
               "stderr": str(case.path.with_suffix(".stderr"))}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def library_call(case):
    if case.cls == "circular":
        return oracle_classify(case.D)
    return compatible_orders(case.D, case.cls)


def high_percentile(samples: list):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return {"p": p, "value": ordered[max(0, math.ceil(p / 100 * n) - 1)]}


def end_to_end(cases, seconds: float, env: dict, root: Path, tamper=None) -> dict:
    """Closed loop, one client: a CLI child then the library calls, per case
    in turn, whole rounds, until `seconds` have passed. `tamper` lets the
    self-test corrupt an answer before it is checked."""
    answer, answer_cpu, rss, library, library_cpu, failures = [], [], [], [], [], []
    with Spawner() as spawner:
        deadline = time.perf_counter() + seconds
        while True:
            for case in cases:
                child = spawner.answer(case, env, root)
                answer.append(child["wall_s"])
                answer_cpu.append(child["cpu_s"])
                rss.append(child["maxrss_kb"] / 1024.0)
                code, out = child["code"], child["stdout"]
                if tamper is not None:
                    code, out = tamper(case, code, out)
                why = check_cli(case, code, out)
                if why is not None:
                    failures.append(f"cli {case.name}: {why}")
                spent = 0.0
                for call in range(LIBRARY_CALLS_MAX):
                    if call >= LIBRARY_CALLS_MIN and spent >= LIBRARY_SECONDS:
                        break
                    t0, c0 = time.perf_counter(), time.process_time()
                    result = library_call(case)
                    library.append(time.perf_counter() - t0)
                    library_cpu.append(time.process_time() - c0)
                    spent += library[-1]
                    why = check_library(case, result)
                    if why is not None:
                        failures.append(f"library {case.name}: {why}")
            if time.perf_counter() >= deadline:
                break
    return {
        "metrics": {
            "answer_s": statistics.median(answer),
            "answer_cpu_s": statistics.median(answer_cpu),
            "answer_rss_mb": max(rss),
            "library_s": statistics.median(library),
            "library_cpu_s": statistics.median(library_cpu),
        },
        "attempted": len(answer) + len(library),
        "failures": failures,
        "answer_s": answer,
        "answer_cpu_s": answer_cpu,
        "answer_high_percentile": high_percentile(answer),
        "library_s": library,
        "library_cpu_s": library_cpu,
    }
