"""Brute-force ground truth for small instances.

Classifies circular orders straight from the definitions, with the margins
of :mod:`circrob.predicates`:

- pre-circular (cr) and quasi-circular (qcr): every chain quadruple
  x < y < z < t of the order satisfies the condition;
- circular by arcs: for every pair of points, one of the two arcs between
  them is linear Robinson, i.e. every triple inside it satisfies the linear
  condition.

Which positions to compare depends on n alone, so each n has one set of
position tables: every 4-subset of positions with its four rotations (the
chain quadruples), every 3-subset with its three rotations (the middle
position second), and a mask of the rotated triples that lie inside each
arc of each pair.  A block of B orders is one array program.  Its distances
are read once into position space, w[p, q, b] = d(orders[b, p],
orders[b, q]), an (n, n, B) array the tables index directly; each margin is
evaluated once on w and reduced over the tables.  The arc rule counts the
failing triples inside each arc with one float32 product of the mask and
the failing triples: an arc with a count > 0 is broken.
``oracle_classify`` sweeps every canonical order in blocks of _BLOCK, in two
stages on one gather: the weak qcr margin on every order, then the six
definitions on the orders that pass; the rest fail all six.  This is exact in
floats: strict implies weak (margin > eps >= -eps); the cr margin is at most
the qcr one, as max(d(x,y), d(y,z)) >= d(y,z) >= min(d(y,z), d(t,z)) and
rounding of d(x,z) - b is monotone in b; arcs imply cr, as on a chain
x < y < z < t the arc x -> z holds y, the arc z -> x holds t, and on the
exactly symmetric matrix lr(z,t,x) = lr(x,t,z).  The single-order sweeps stay
exhaustive: tests compare them as independent references.
Degenerate chains (with coincident points) hold trivially for the non-strict
conditions and the strict ones are defined on distinct points only, so only
distinct positions are tabled.  eps applies to each compared pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Any, Iterator, Sequence

import numpy as np

from .core import CircularOrder, DissimilarityMatrix, _check_eps, _check_indices, _check_order
from .predicates import _cr_margin, _holds, _lr_margin, _qcr_margin

__all__ = [
    "OracleClassification",
    "enumerate_circular_orders",
    "is_linear_robinson",
    "pre_circular_by_quadruples",
    "quasi_circular_by_quadruples",
    "circular_robinson_by_arcs",
    "oracle_classify",
]

MAX_ENUMERATION_N = 10
MAX_CLASSIFY_N = 8

# orders classified at a time: the gathered blocks stay small
_BLOCK = 16


def _subsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m), increasing, one per row."""
    flat = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp)
    return flat.reshape(-1, k)


def _rotations(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) followed by its other k - 1 cyclic
    rotations, one per row."""
    shifts = (np.arange(k)[:, None] + np.arange(k)) % k
    return _subsets(m, k)[:, shifts].reshape(-1, k)


def _order_table(n: int) -> np.ndarray:
    """The orders of enumerate_circular_orders(n), one per row."""
    if n <= 2:
        return np.arange(n, dtype=np.intp)[None]
    rows = ((0,) + rest for rest in permutations(range(1, n)) if rest[0] < rest[-1])
    count = math.factorial(n - 1) // 2 * n
    return np.fromiter(chain.from_iterable(rows), np.intp, count).reshape(-1, n)


@lru_cache(maxsize=MAX_CLASSIFY_N)
def _classify_table(n: int) -> np.ndarray:
    """_order_table(n) for oracle_classify, cached and read-only.  Only
    n <= MAX_CLASSIFY_N comes here: the tables of enumerate_circular_orders
    beyond it (1.45 MB at n = 9, 14.5 MB at n = 10) are not kept."""
    table = _order_table(n)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _position_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain quadruples (4, Q), rotated triples (3, T) and the arc mask
    (2P, T): row 2i + k is True at the triples inside arc k of pair i.
    Cached, so the arrays are read-only.

    Arc k of pair (a, b), a < b, runs forward from its k-th end to the
    other.  A rotated triple, walked forward from its first position through
    the middle to the last, lies inside an arc when that walk starts inside
    it and ends no later than the arc does.  The mask takes O(n^5) bytes
    and its build peaks at about 16 times that: 0.2 and 3 MiB at n = 14,
    10 and 160 MiB at n = 30.  Each _flags call copies it to float32, four
    times its size (a one-order call peaks at 0.8 MiB at n = 14, 41 MiB at
    n = 30).
    """
    triples = _rotations(n, 3)
    walk = (triples[:, 2] - triples[:, 0]) % n
    starts = _subsets(n, 2)
    length = (starts[:, ::-1] - starts) % n
    inside = (triples[:, 0] - starts[..., None]) % n + walk <= length[..., None]
    tables = _rotations(n, 4).T, triples.T, inside.reshape(2 * len(starts), len(triples))
    for table in tables:
        table.flags.writeable = False
    return tables


def _gather(v: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block of orders (B, n) in position space, w[p, q, b] = d(orders[b, p],
    orders[b, q]), which the tables index, and its qcr margin (Q, B)."""
    points = orders.T
    w = v[points[:, None], points[None, :]]
    return w, _qcr_margin(w, *_position_tables(orders.shape[1])[0])


def _flags(w: np.ndarray, qcr: np.ndarray, eps: float) -> np.ndarray:
    """(6, B) flags of a block from _gather, rows in the field order of
    OracleClassification: each notion weak, then strict."""
    quads, triples, arcs = _position_tables(w.shape[0])
    out = []
    for margin in (_cr_margin(w, *quads), qcr):
        out += [_holds(margin, strict, eps).all(axis=0) for strict in (False, True)]
    # an arc is broken when it holds a failing triple; the arc rule fails
    # when both arcs of some pair are.  The float32 product counts an arc's
    # failing triples exactly: at most C(n, 3), far below 2**24.
    linear = _lr_margin(w, *triples)
    inside = arcs.astype(np.float32)
    for strict in (False, True):
        failing = ~_holds(linear, strict, eps)
        broken = (inside @ failing.astype(np.float32) > 0).reshape(-1, 2, w.shape[2])
        out.append(~broken.all(axis=1).any(axis=0))
    return np.array(out)


def _one_order(D: DissimilarityMatrix, order: CircularOrder, eps: float) -> np.ndarray:
    return _flags(*_gather(D.values, _check_order(D, order)[None]), _check_eps(eps))[:, 0]


def enumerate_circular_orders(n: int) -> Iterator[CircularOrder]:
    """All max(1, (n-1)!/2) canonical circular orders on n points.

    Fixes point 0 first and keeps one of the two directions, so each
    rotation/reflection class appears exactly once.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must be in 1..{MAX_ENUMERATION_N}, got {n}")
    for row in _order_table(n):
        yield CircularOrder(tuple(row.tolist()))


def is_linear_robinson(
    D: DissimilarityMatrix,
    linear_seq: Sequence[int],
    strict: bool = False,
    eps: float = 0.0,
) -> bool:
    """Whether the sequence is a compatible linear order of its points:
    d(x,z) >= max(d(x,y), d(y,z)) for every triple x < y < z along it
    (strict: >).  O(m^3)."""
    seq = _check_indices(linear_seq, D.n, distinct=True)
    margin = _lr_margin(D.values, *seq[_subsets(seq.size, 3).T])
    return bool(_holds(margin, strict, _check_eps(eps)).all())


def pre_circular_by_quadruples(
    D: DissimilarityMatrix, order: CircularOrder, strict: bool = False, eps: float = 0.0
) -> bool:
    """Every distinct chain quadruple x < y < z < t satisfies the one-side
    condition d(x,z) >= min(max(d(x,y), d(y,z)), max(d(x,t), d(t,z)))
    (strict: >).  O(n^4)."""
    return bool(_one_order(D, order, eps)[int(strict)])


def quasi_circular_by_quadruples(
    D: DissimilarityMatrix, order: CircularOrder, strict: bool = False, eps: float = 0.0
) -> bool:
    """Every distinct chain quadruple x < y < z < t satisfies
    d(x,z) >= min(d(y,z), d(t,z)) (strict: >).  O(n^4)."""
    return bool(_one_order(D, order, eps)[2 + int(strict)])


def circular_robinson_by_arcs(
    D: DissimilarityMatrix, order: CircularOrder, strict: bool = False, eps: float = 0.0
) -> bool:
    """For every pair (a,b), at least one of the two arcs between a and b is
    (strictly) linear Robinson under the order's restriction.  O(n^5)."""
    return bool(_one_order(D, order, eps)[4 + int(strict)])


@dataclass(frozen=True)
class OracleClassification:
    """Exact compatible-order sets for each definition, by exhaustion."""

    pre_circular: tuple[CircularOrder, ...]
    strict_pre_circular: tuple[CircularOrder, ...]
    quasi_circular: tuple[CircularOrder, ...]
    strict_quasi_circular: tuple[CircularOrder, ...]
    circular_by_arcs: tuple[CircularOrder, ...]
    strict_circular_by_arcs: tuple[CircularOrder, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {f.name: [list(o.seq) for o in getattr(self, f.name)] for f in fields(self)}


def oracle_classify(D: DissimilarityMatrix, eps: float = 0.0) -> OracleClassification:
    """Classify against all six definitions by sweeping every canonical order."""
    if D.n > MAX_CLASSIFY_N:
        raise ValueError(f"oracle classification is capped at n <= {MAX_CLASSIFY_N}, got n={D.n}")
    eps = _check_eps(eps)
    table = _classify_table(D.n)
    flags = np.zeros((6, len(table)), bool)
    for s in range(0, len(table), _BLOCK):
        w, qcr = _gather(D.values, table[s : s + _BLOCK])
        keep = np.flatnonzero(_holds(qcr, False, eps).all(axis=0))
        if keep.size:
            flags[:, s + keep] = _flags(w[..., keep], qcr[:, keep], eps)
    # every definition implies weak qcr (row 2): build each result order once
    weak = np.flatnonzero(flags[2])
    built = {i: CircularOrder(tuple(row)) for i, row in zip(weak.tolist(), table[weak].tolist())}
    return OracleClassification(
        *(tuple(built[i] for i in np.flatnonzero(f).tolist()) for f in flags)
    )
