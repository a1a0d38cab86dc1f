"""Dissimilarity spaces, circular orders, and arcs.

Points are indexed 0..n-1.  A circular order is a cyclic arrangement of all
points, read counterclockwise; two arrangements are the same order when they
differ by rotation or reflection.  The canonical form starts at point 0 and
picks the direction with ``seq[1] < seq[n-1]``, so order sets can be compared
as plain tuples.

Comparisons throughout the package take an absolute tolerance ``eps``
(default 0, i.e. exact): ``a > b`` means ``a - b > eps`` and ``a >= b`` means
``a - b >= -eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "MatrixFormatError",
    "DissimilarityMatrix",
    "CircularOrder",
    "Arc",
    "load_matrix",
    "canonicalize",
    "chain_holds",
    "arc_between",
    "farthest_set",
]


class MatrixFormatError(ValueError):
    """Input text or values violate the dissimilarity-matrix contract."""


def _validate_values(arr: np.ndarray, eps: float) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise MatrixFormatError("matrix must have at least one point")
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise MatrixFormatError(f"non-finite entry at ({i},{j})")
    asym = np.abs(arr - arr.T)
    if asym.max(initial=0.0) > eps:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise MatrixFormatError(
            f"asymmetric entries at ({i},{j}): {arr[i, j]} vs {arr[j, i]}"
        )
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > 0:
        i = int(np.argmax(diag))
        raise MatrixFormatError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    off = ~np.eye(n, dtype=bool)
    neg = (arr < 0) & off
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise MatrixFormatError(f"negative entry at ({i},{j}): {arr[i, j]}")
    zero = (arr <= 0) & off
    if zero.any():
        i, j = np.argwhere(zero)[0]
        raise MatrixFormatError(
            f"zero off-diagonal entry at ({i},{j}): distinct points must have"
            " positive dissimilarity"
        )


class DissimilarityMatrix:
    """A finite dissimilarity space: symmetric positive values, zero diagonal.

    The stored array is read-only; every operation on it is a pure function.
    """

    __slots__ = ("values", "n")

    def __init__(self, values: Iterable, eps: float = 0.0):
        arr = np.array(values, dtype=float)
        _validate_values(arr, eps)
        arr.flags.writeable = False
        self.values = arr
        self.n = int(arr.shape[0])

    def __repr__(self) -> str:
        return f"DissimilarityMatrix(n={self.n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DissimilarityMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class CircularOrder:
    """Canonical representative of a circular arrangement of 0..n-1.

    Build instances through :func:`canonicalize`; plain tuple equality then
    coincides with equality of circular orders up to rotation and reflection.
    """

    seq: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seq)

    def positions(self) -> np.ndarray:
        """positions[p] = index of point p along the cycle."""
        pos = np.empty(len(self.seq), dtype=np.intp)
        pos[np.asarray(self.seq)] = np.arange(len(self.seq))
        return pos

    def reverse(self) -> "CircularOrder":
        return canonicalize(self.seq[::-1])


@dataclass(frozen=True)
class Arc:
    """A contiguous segment of a circular order: `length` points starting at
    position `start` (counterclockwise)."""

    order: CircularOrder
    start: int
    length: int

    @property
    def sequence(self) -> tuple[int, ...]:
        n = len(self.order)
        return tuple(
            self.order.seq[(self.start + i) % n] for i in range(self.length)
        )

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sequence)

    def __len__(self) -> int:
        return self.length


def _check_permutation(seq: Sequence[int]) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.intp)
    n = arr.size
    if n == 0 or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError(f"not a permutation of 0..n-1: {list(seq)!r}")
    return arr


def canonicalize(seq: Sequence[int]) -> CircularOrder:
    """Canonical form of a circular arrangement: rotate so 0 comes first,
    then pick the direction with seq[1] < seq[n-1].  Idempotent, invariant
    under rotation and reversal of the input."""
    arr = _check_permutation(seq)
    n = arr.size
    if n <= 2:
        return CircularOrder(tuple(range(n)))
    i0 = int(np.flatnonzero(arr == 0)[0])
    fwd = np.roll(arr, -i0)
    if fwd[1] > fwd[-1]:
        fwd = np.concatenate(([0], fwd[:0:-1]))
    return CircularOrder(tuple(int(v) for v in fwd))


def chain_holds(order: CircularOrder, points: Sequence[int]) -> bool:
    """Whether the points, in the given sequence, lie in this cyclic order.

    True iff every pairwise-distinct triple (points[i], points[j], points[k])
    with i < j < k appears counterclockwise in `order`; triples with repeated
    points are skipped, matching the chain convention.
    """
    n = len(order)
    if not points:
        raise ValueError("points must be nonempty")
    for p in points:
        if not 0 <= p < n:
            raise ValueError(f"index out of range: {p}")
    pos = {p: i for i, p in enumerate(order.seq)}
    for i, j, k in combinations(range(len(points)), 3):
        u, v, w = points[i], points[j], points[k]
        if u == v or v == w or u == w:
            continue
        if (pos[v] - pos[u]) % n >= (pos[w] - pos[u]) % n:
            return False
    return True


def arc_between(order: CircularOrder, a: int, b: int) -> Arc:
    """The arc from `a` counterclockwise to `b`, both included."""
    n = len(order)
    for p in (a, b):
        if not 0 <= p < n:
            raise ValueError(f"index out of range: {p}")
    pos = {p: i for i, p in enumerate(order.seq)}
    length = (pos[b] - pos[a]) % n + 1
    return Arc(order=order, start=pos[a], length=length)


def farthest_set(D: DissimilarityMatrix, x: int) -> tuple[float, frozenset[int]]:
    """Eccentricity of x and its set of farthest neighbors."""
    if D.n < 2:
        raise ValueError("farthest neighbors need at least two points")
    if not 0 <= x < D.n:
        raise ValueError(f"index out of range: {x}")
    row = D.values[x]
    mask = np.arange(D.n) != x
    r = float(row[mask].max())
    members = frozenset(int(i) for i in np.flatnonzero(mask & (row == r)))
    return r, members


def _tokenize(text: str) -> list[str]:
    return text.replace(",", " ").split()


def load_matrix(text: str | TextIO, eps: float = 0.0) -> DissimilarityMatrix:
    """Parse matrix text into a validated DissimilarityMatrix.

    Format A: first token n, then n*n values row by row.  Format B (lower
    triangle): first token n, then n*(n-1)/2 values, row i contributing
    d(i,0)..d(i,i-1).  Commas are accepted as separators, which covers the
    CSV variant of format A.
    """
    if hasattr(text, "read"):
        text = text.read()
    tokens = _tokenize(text)
    if not tokens:
        raise MatrixFormatError("empty input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(f"first token must be the point count, got {tokens[0]!r}")
    if n < 1:
        raise MatrixFormatError(f"point count must be >= 1, got {n}")
    body = tokens[1:]
    try:
        vals = [float(t) for t in body]
    except ValueError as exc:
        raise MatrixFormatError(f"non-numeric entry: {exc}")
    full, tri = n * n, n * (n - 1) // 2
    if len(vals) == full:
        arr = np.array(vals, dtype=float).reshape(n, n)
    elif len(vals) == tri:
        arr = np.zeros((n, n), dtype=float)
        k = 0
        for i in range(1, n):
            for j in range(i):
                arr[i, j] = arr[j, i] = vals[k]
                k += 1
    else:
        raise MatrixFormatError(
            f"expected {full} values (full) or {tri} (lower triangle) after"
            f" n={n}, got {len(vals)}"
        )
    return DissimilarityMatrix(arr, eps=eps)
