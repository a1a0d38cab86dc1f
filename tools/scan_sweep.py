"""Time the row scan and `verify` of two circrob source trees side by side.

    python3 tools/scan_sweep.py --before <old checkout>/src --after src --out BENCH_<pr>.json

For each n in --sizes (default SIZES), an evenly spaced chord circle of n
points is built with identity labels and with shuffled ones, and its
compatible order is read in-process by both trees: `verification._scan_rows`
(the row scan, at most one O(n^2) pass: it stops at the first block that
breaks the weak rule) and `verify` (scan plus crossing tests), at eps = 0
and at eps = EPS.  A third row per size adds NOISE * (u_i + u_j) to the
shuffled circle, u uniform in [0, 1): its first rows break the weak rule,
so the scan stops in its first block and the reports carry row witnesses.
A fourth row per size reads `two_cluster_instance(n // 2, n - n // 2)` in
its compatible order with the second cluster mirrored, which is not
strict-circular: its reports carry crossing witnesses under both circular
keys, and the script stops if no report of a run holds one.  A fifth row
per size times `compatible_orders` (strict quasi) on the same two-cluster
space with shuffled labels, the two-order answer whose second candidate
report the first scan can give; both trees must give the same
`to_json_dict()` and the same candidates with the same reports, or the
script stops.
Rounds alternate which tree runs first; each figure is the best of REPEATS
rounds.  A banded ``values.max()`` over the same matrix is the one-pass
reference, so scan/pass says how far the scan is from reading the matrix
once.  Both trees must give the same scan fields (both violations, and
the arc ends when the scan covered every row: all that verify reads) and
the same `verify` reports at both eps, as JSON text (key order included),
or the script stops.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (1000, 2000, 4000, 8000, 10000)
REPEATS = 3
SEED = 1  # of the label shuffles and the noise
EPS = 1e-9
NOISE = 1e-3
PASS_BAND_BYTES = 1 << 20


def _load(name: str, src: Path):
    """The circrob package under `src`, imported as `name`."""
    pkg = src / "circrob"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _chord_circle(pos: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """2 sin(pi |pos[i] - pos[j]| / n) + noise[i] + noise[j] off the
    diagonal: with zero noise, the values circle_instance(n, "chord") gives,
    with point i placed at position pos[i]."""
    n = pos.size
    out = np.empty((n, n))
    for a in range(0, n, 1024):
        offs = np.abs(pos[a : a + 1024, None] - pos[None, :])
        out[a : a + 1024] = 2.0 * np.sin(np.pi * offs / n)
        out[a : a + 1024] += noise[a : a + 1024, None] + noise[None, :]
    np.fill_diagonal(out, 0.0)
    out.flags.writeable = False
    return out


def _one_pass(values: np.ndarray) -> None:
    band = max(1, PASS_BAND_BYTES // values[0].nbytes)
    for a in range(0, values.shape[0], band):
        values[a : a + band].max()


def _timed(fn, runs: list):
    t0 = time.perf_counter()
    out = fn()
    runs.append(time.perf_counter() - t0)
    return out


def _fields(scan) -> dict:
    """What verify reads of a scan: both violations, and the arc ends when
    there is no weak violation (the scan then covered every row; past an
    early stop they hold initial values, which depend on the block size)."""
    out = {"weak_violation": scan.weak_violation, "strict_violation": scan.strict_violation}
    if scan.weak_violation is None:
        out.update(s_off=scan.s_off.tolist(), e_off=scan.e_off.tolist())
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _row(trees: dict, n: int, labels: str) -> dict:
    if labels == "two-cluster":
        k = n // 2
        values = trees["after"].two_cluster_instance(k, n - k, seed=SEED).values
        order_arr = np.r_[0:k, n - 1 : k - 1 : -1].astype(np.intp)
    else:
        rng = np.random.default_rng([SEED, n])
        pos = rng.permutation(n) if labels != "identity" else np.arange(n)
        noise = NOISE * rng.random(n) if labels == "perturbed" else np.zeros(n)
        values = _chord_circle(pos, noise)
        order_arr = np.argsort(pos).astype(np.intp)
    D = trees["after"].DissimilarityMatrix._adopt(values)
    order = trees["after"].canonicalize(order_arr.tolist())
    times = {"pass": []}
    for what in ("scan", "verify", "verify_eps"):
        times.update({f"{what}_{t}": [] for t in trees})
    scans, reports = {}, {}
    for r in range(REPEATS):
        sides = list(trees) if r % 2 == 0 else list(trees)[::-1]
        _timed(lambda: _one_pass(values), times["pass"])
        for t in sides:
            scan_rows = trees[t].verification._scan_rows
            scans[t] = _timed(lambda: scan_rows(values, order_arr, 0.0), times[f"scan_{t}"])
        for what, eps in (("verify", 0.0), ("verify_eps", EPS)):
            for t in sides:
                verify = trees[t].verify
                reports[what, t] = _timed(lambda: verify(D, order, eps), times[f"{what}_{t}"])
    if _fields(scans["before"]) != _fields(scans["after"]) or any(
        json.dumps(reports[what, "before"].to_json_dict())
        != json.dumps(reports[what, "after"].to_json_dict())
        for what in ("verify", "verify_eps")
    ):
        sys.exit(f"trees disagree at n={n}, {labels} labels")
    best = {k: min(v) for k, v in times.items()}
    witnesses = reports["verify", "after"].witnesses.values()
    crossing = trees["after"].CrossingWitness
    return {
        "n": n,
        "labels": labels,
        "pass_s": round(best["pass"], 6),
        "scan_s": {t: round(best[f"scan_{t}"], 5) for t in trees},
        "verify_s": {t: round(best[f"verify_{t}"], 5) for t in trees},
        "verify_eps_s": {t: round(best[f"verify_eps_{t}"], 5) for t in trees},
        "scan_over_pass": {t: round(best[f"scan_{t}"] / best["pass"], 2) for t in trees},
        "eps_over_0": {t: round(best[f"verify_eps_{t}"] / best[f"verify_{t}"], 2) for t in trees},
        "scan_speedup": round(best["scan_before"] / best["scan_after"], 2),
        "verify_speedup": round(best["verify_before"] / best["verify_after"], 2),
        "verify_eps_speedup": round(best["verify_eps_before"] / best["verify_eps_after"], 2),
        "quasi": reports["verify", "after"].quasi,
        "strict_circular": reports["verify", "after"].strict_circular,
        "crossing_witness": any(isinstance(w, crossing) for w in witnesses),
    }


def _orders_row(trees: dict, n: int) -> dict:
    k = n // 2
    perm = np.random.default_rng([SEED, n]).permutation(n)
    values = trees["after"].two_cluster_instance(k, n - k, seed=SEED).values[np.ix_(perm, perm)]
    D = trees["after"].DissimilarityMatrix._adopt(values)
    times = {"pass": [], **{t: [] for t in trees}}
    answers = {}
    for r in range(REPEATS):
        _timed(lambda: _one_pass(values), times["pass"])
        for t in list(trees) if r % 2 == 0 else list(trees)[::-1]:
            found = _timed(lambda: trees[t].compatible_orders(D), times[t])
            answers[t] = json.dumps(
                [found.to_json_dict()]
                + [[list(o.seq), report.to_json_dict()] for o, report in found.candidates]
            )
    if answers["before"] != answers["after"]:
        sys.exit(f"trees disagree on compatible_orders at n={n}, shuffled two-cluster labels")
    best = {key: min(v) for key, v in times.items()}
    return {
        "n": n,
        "labels": "two-cluster-shuffled",
        "pass_s": round(best["pass"], 6),
        "compatible_orders_s": {t: round(best[t], 5) for t in trees},
        "compatible_orders_over_pass": {t: round(best[t] / best["pass"], 2) for t in trees},
        "compatible_orders_speedup": round(best["before"] / best["after"], 2),
        "orders": len(json.loads(answers["after"])[0]["orders"]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="src dir of the old tree")
    parser.add_argument("--after", type=Path, required=True, help="src dir of the new tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--sizes",
        type=lambda text: [int(n) for n in text.split(",")],
        default=list(SIZES),
        help="comma-separated n (default %(default)s)",
    )
    args = parser.parse_args()

    trees = {side: _load(f"circrob_{side}", getattr(args, side)) for side in ("before", "after")}
    rows = []
    for n in args.sizes:
        for labels in ("shuffled", "identity", "perturbed", "two-cluster"):
            rows.append(_row(trees, n, labels))
            print(json.dumps(rows[-1]), flush=True)
        rows.append(_orders_row(trees, n))
        print(json.dumps(rows[-1]), flush=True)
    if not any(row["crossing_witness"] for row in rows):
        sys.exit("no report held a crossing witness, so their agreement went unchecked")
    record = {
        "what": "in-process row scan and verify of chord circles and two clusters,"
        " and compatible_orders of shuffled two clusters, before and after",
        "method": f"interleaved rounds, best of {REPEATS}; pass = banded values.max()",
        "seed": SEED,
        "eps": EPS,
        "noise": NOISE,
        "host": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
