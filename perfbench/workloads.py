"""Seeded instances, their input files, and the answers they must get.

Every workload is a list of cases. A case is one matrix file plus the CLI
class to ask about it, the same matrix in memory for in-process calls, and
the answer that the generator planted. Expected answers are derived from the
construction (the planted order, the planted clusters) or, for n = 8, from a
sweep over every circular order with ``verify``; never from the code path
under test. The checks in this module are the harness's definition of a
correct answer.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from circrob.core import DissimilarityMatrix, canonicalize
from circrob.generators import circle_instance, perturb, two_cluster_instance
from circrob.verification import verify

# Instance sizes of the measured workloads; the self-test passes smaller ones.
FULL_SIZES = {"circle": 2000, "cluster": 1000, "reject": 2000, "oracle": 8}
TINY_SIZES = {"circle": 40, "cluster": 15, "reject": 200, "oracle": 6}

REJECT_NOISE = 1e-3
ORACLE_NOISE = 0.3


class PlantedPropertyError(RuntimeError):
    """A seed produced an instance without the property its workload needs."""


@dataclass
class Case:
    name: str
    path: Path
    cls: str
    D: DissimilarityMatrix
    exit_code: int
    orders: list  # expected canonical orders, sorted
    clusters: Optional[tuple]  # (frozenset, frozenset, delta) or None
    check_witness: bool = False  # re-check the strict-quasi witness row

    @property
    def n(self) -> int:
        return self.D.n

    @property
    def file_bytes(self) -> int:
        return self.path.stat().st_size


# -- independent reference helpers ----------------------------------------


def canonical(seq) -> list:
    """Rotate so 0 comes first, then pick the direction with seq[1] < seq[-1]."""
    seq = [int(p) for p in seq]
    i = seq.index(0)
    fwd = seq[i:] + seq[:i]
    if len(fwd) > 2 and fwd[1] > fwd[-1]:
        fwd = [0] + fwd[:0:-1]
    return fwd


def strictly_unimodal_rows(values: np.ndarray, seq) -> np.ndarray:
    """Per position p, whether the row of seq[p], read along seq from p+1
    round to p-1, strictly rises, peaks in one entry or two equal adjacent
    ones, then strictly falls."""
    seq = np.asarray(seq, dtype=np.intp)
    n = seq.size
    if n <= 3:
        return np.ones(n, dtype=bool)
    reads = values[seq[:, None], seq[(np.arange(n)[:, None] + np.arange(1, n)[None, :]) % n]]
    step = np.sign(np.diff(reads, axis=1))
    nonincreasing = (step[:, 1:] <= step[:, :-1]).all(axis=1)
    return nonincreasing & ((step == 0).sum(axis=1) <= 1)


def row_strictly_unimodal(values: np.ndarray, seq, point: int) -> bool:
    """The same test for the single row of `point`."""
    seq = [int(p) for p in seq]
    p = seq.index(point)
    rolled = seq[p:] + seq[:p]
    return bool(strictly_unimodal_rows(values, rolled)[0])


# -- files -----------------------------------------------------------------


def write_matrix(path: Path, values: np.ndarray, lower: bool) -> None:
    """Format A (all n*n values) or format B (lower triangle, row by row).

    Values are written with repr, so the file parses back to the same bits.
    Float formatting dominates set-up, so each distinct value is formatted
    once.
    """
    n = values.shape[0]
    if lower:
        uniq, inv = np.unique(values[np.tril_indices(n, -1)], return_inverse=True)
        starts = np.arange(n + 1) * np.arange(-1, n) // 2  # row i starts at i(i-1)/2
    else:
        uniq, inv = np.unique(values, return_inverse=True)
    text = np.array(list(map(float.__repr__, uniq.tolist())), dtype=object)[inv]
    if lower:
        rows = (text[starts[i] : starts[i + 1]] for i in range(1, n))
    else:
        rows = iter(text.reshape(n, n))
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in rows:
            fh.write(" ".join(row.tolist()))
            fh.write("\n")


def _shuffle(values: np.ndarray, rng: np.random.Generator):
    """Relabel point i as perm[i]; returns the new matrix and perm."""
    perm = rng.permutation(values.shape[0])
    inv = np.argsort(perm)
    return np.ascontiguousarray(values[np.ix_(inv, inv)]), perm


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise PlantedPropertyError(what)


# -- workloads -------------------------------------------------------------


def _circle(seed: int, workdir: Path, sizes: dict) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    n = sizes["circle"]
    V = circle_instance(n, "chord").values
    _require(bool(strictly_unimodal_rows(V, range(n)).all()), "circle rows not strictly unimodal")
    W, perm = _shuffle(V, rng)
    path = workdir / "circle.txt"
    write_matrix(path, W, lower=False)
    return [Case("circle", path, "strict-circular", DissimilarityMatrix(W), 0,
                 [canonical(perm)], None)]


def _cluster(seed: int, workdir: Path, sizes: dict) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    k = sizes["cluster"]
    V = two_cluster_instance(k, k, seed=int(rng.integers(2**31))).values
    straight = list(range(2 * k))
    flipped = list(range(k)) + list(range(2 * k - 1, k - 1, -1))
    for seq in (straight, flipped):
        _require(bool(strictly_unimodal_rows(V, seq).all()), "two-cluster order not strict")
    intra = max(V[:k, :k].max(), V[k:, k:].max())
    _require(bool(V[:k, k:].min() > intra), "clusters not split by a threshold")
    W, perm = _shuffle(V, rng)
    path = workdir / "cluster.txt"
    write_matrix(path, W, lower=False)
    orders = sorted(canonical(perm[seq]) for seq in (straight, flipped))
    clusters = (frozenset(perm[:k].tolist()), frozenset(perm[k:].tolist()), float(intra))
    return [Case("two-cluster", path, "strict-quasi", DissimilarityMatrix(W), 0,
                 orders, clusters)]


def _reject(seed: int, workdir: Path, sizes: dict) -> list[Case]:
    rng = np.random.default_rng([seed, 3])
    n = sizes["reject"]
    V = perturb(circle_instance(n, "chord"), REJECT_NOISE, seed=int(rng.integers(2**31))).values
    _require(not bool(strictly_unimodal_rows(V, range(n)).all()),
             "noise left the circle order strictly unimodal")
    W, _ = _shuffle(V, rng)
    path = workdir / "reject.txt"
    write_matrix(path, W, lower=True)
    return [Case("reject", path, "strict-quasi", DissimilarityMatrix(W), 1, [], None,
                 check_witness=True)]


def _all_orders(n: int):
    for rest in itertools.permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


def _oracle(seed: int, workdir: Path, sizes: dict) -> list[Case]:
    """Circle, two clusters and a noisy circle at n = 8. The expected order
    set is every order that ``verify`` calls circular. Noise 0.3 leaves no
    circular order on most seeds but not all, so that instance plants
    nothing; the circle and the clusters must keep their planted order."""
    rng = np.random.default_rng([seed, 4])
    n = sizes["oracle"]
    made = [
        ("oracle-circle", circle_instance(n, "chord").values, True),
        ("oracle-cluster", two_cluster_instance(n // 2, n - n // 2,
                                                seed=int(rng.integers(2**31))).values, True),
        ("oracle-noisy", perturb(circle_instance(n, "chord"), ORACLE_NOISE,
                                 seed=int(rng.integers(2**31))).values, False),
    ]
    orders = list(_all_orders(n))
    cases = []
    for name, V, planted in made:
        W, perm = _shuffle(V, rng)
        D = DissimilarityMatrix(W)
        accepted = sorted(list(seq) for seq in orders if verify(D, canonicalize(seq)).circular)
        if planted:
            _require(canonical(perm) in accepted, f"{name}: planted order not circular")
        path = workdir / f"{name}.txt"
        write_matrix(path, W, lower=False)
        cases.append(Case(name, path, "circular", D, 0 if accepted else 1, accepted, None))
    return cases


WORKLOADS = {
    "circle-shuffled": _circle,
    "two-cluster": _cluster,
    "reject-lower-tri": _reject,
    "small-oracle": _oracle,
}


def setup(workload: str, seed: int, workdir: Path, sizes: dict = FULL_SIZES) -> list[Case]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir, sizes)


# -- checks ----------------------------------------------------------------


def _clusters_of(bip: Optional[dict]):
    if bip is None:
        return None
    return (frozenset(bip["N"]), frozenset(bip["F"]), bip["delta"])


def _same_clusters(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return {got[0], got[1]} == {want[0], want[1]} and got[2] == want[2]


def check_cli(case: Case, exit_code: int, stdout: str) -> Optional[str]:
    """None when the CLI answer is right, else what is wrong with it."""
    if exit_code != case.exit_code:
        return f"exit {exit_code}, expected {case.exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if payload.get("holds") != (case.exit_code == 0):
        return f"holds={payload.get('holds')}"
    if "order_set" in payload:
        orders = payload["order_set"]["orders"]
        clusters = _clusters_of(payload["order_set"]["bipartition"])
    else:
        orders, clusters = payload.get("orders"), None
    if orders is None or sorted(orders) != case.orders:
        return "wrong order set"
    if not _same_clusters(clusters, case.clusters):
        return "wrong bipartition"
    if case.check_witness:
        try:
            row = payload["report"]["witness"]["strict_quasi"]["row"]
            cand = payload["candidate"]
        except (KeyError, TypeError):
            return "no strict-quasi witness"
        if row_strictly_unimodal(case.D.values, cand, row):
            return f"witness row {row} is strictly unimodal"
    return None


def check_library(case: Case, result) -> Optional[str]:
    """Check a ``compatible_orders`` OrderSet or an ``oracle_classify`` result."""
    if case.cls == "circular":
        got = sorted(list(o.seq) for o in result.circular_by_arcs)
        return None if got == case.orders else "wrong oracle order set"
    if sorted(list(o.seq) for o in result.orders) != case.orders:
        return "wrong order set"
    if not _same_clusters(result.bipartition, case.clusters):
        return "wrong bipartition"
    return None
