"""Dissimilarity spaces and circular orders.

Points are indexed 0..n-1.  A circular order is a cyclic arrangement of all
points, read counterclockwise; two arrangements are the same order when they
differ by rotation or reflection.  The canonical form starts at point 0 and
picks the direction with ``seq[1] < seq[n-1]``, so order sets can be compared
as plain tuples.

Comparisons throughout the package take an absolute tolerance ``eps``
(default 0, i.e. exact): ``a > b`` means ``a - b > eps`` and ``a >= b`` means
``a - b >= -eps``.  The tolerance itself must be a finite number >= 0.  A
stored matrix is exactly symmetric: within-eps input keeps its lower triangle.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

__all__ = [
    "MatrixFormatError",
    "DissimilarityMatrix",
    "CircularOrder",
    "load_matrix",
    "canonicalize",
    "chain_holds",
    "farthest_set",
]


class MatrixFormatError(ValueError):
    """Input text or values violate the dissimilarity-matrix contract."""


# Matrix rows checked at a time by the validator, and characters of text read
# and converted at a time by load_matrix; both bound the memory used beside
# the matrix.
_BAND = 64
_CHUNK = 1 << 16


def _check_eps(eps: float) -> float:
    """The tolerance as a float; ValueError unless it is finite and >= 0."""
    eps = float(eps)
    if not 0 <= eps < math.inf:
        raise ValueError(f"epsilon must be a finite number >= 0, got {eps}")
    return eps


def _first(mask: np.ndarray, row0: int) -> Optional[tuple[int, int]]:
    """Matrix (row, column) of the first True entry, in row-major order, of
    the mask of a band starting at row `row0`; None when there is none."""
    k = int(np.argmax(mask))
    if not mask.flat[k]:
        return None
    i, j = divmod(k, mask.shape[1])
    return row0 + i, j


def _validate_values(arr: np.ndarray, eps: float) -> float:
    """Raise MatrixFormatError at the first broken rule, in this order: a
    non-finite entry, the largest asymmetry above eps, a nonzero diagonal, a
    negative entry, a zero off-diagonal entry; else return the largest
    asymmetry.  One sweep over bands of _BAND rows, not copies of the matrix."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise MatrixFormatError("matrix must have at least one point")
    # Other rules raise after the sweep, so a band raises a non-finite entry at
    # once.  The largest asymmetry first reached in row-major order lies on or
    # above the diagonal: band rows a.. compare columns a: with their mirror.
    asym, asym_at, neg_at, zero_at = 0.0, (0, 0), None, None
    for a in range(0, n, _BAND):
        band = arr[a : a + _BAND]
        at = _first(~np.isfinite(band), a)
        if at is not None:
            raise MatrixFormatError(f"non-finite entry at ({at[0]},{at[1]})")
        diff = np.abs(band[:, a:] - arr[a:, a : a + _BAND].T)
        k = int(np.argmax(diff))
        if diff.flat[k] > asym:
            i, j = divmod(k, n - a)
            asym, asym_at = diff.flat[k], (a + i, a + j)
        if neg_at is None:
            # off the diagonal: a negative diagonal entry is raised as nonzero
            low = band <= 0
            np.fill_diagonal(low[:, a:], False)
            at = _first(low, a)
            if at is not None:
                zero_at = zero_at or at
                neg_at = _first(band < 0, a)
    if asym > eps:
        i, j = asym_at
        raise MatrixFormatError(
            f"asymmetric entries at ({i},{j}): {arr[i, j]} vs {arr[j, i]}"
        )
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > 0:
        i = int(np.argmax(diag))
        raise MatrixFormatError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    if neg_at is not None:
        i, j = neg_at
        raise MatrixFormatError(f"negative entry at ({i},{j}): {arr[i, j]}")
    if zero_at is not None:
        i, j = zero_at
        raise MatrixFormatError(
            f"zero off-diagonal entry at ({i},{j}): distinct points must have"
            " positive dissimilarity"
        )
    return float(asym)


class DissimilarityMatrix:
    """A finite dissimilarity space: symmetric positive values, zero diagonal.

    The stored array is read-only and exactly symmetric (within-eps input
    keeps its lower triangle); every operation on it is a pure function.
    """

    __slots__ = ("values", "n")

    def __init__(self, values: Iterable, eps: float = 0.0):
        self._store(np.array(values, dtype=float, order="C"), eps)

    @classmethod
    def _adopt(cls, arr: np.ndarray, eps: float = 0.0) -> "DissimilarityMatrix":
        """The matrix of an array that nothing else uses (the loader's own
        array, a copy-on-write memory map), stored without a copy when it is
        C-contiguous float64; asymmetry within eps is mirrored into it."""
        D = cls.__new__(cls)
        D._store(np.asarray(arr, dtype=np.float64, order="C"), eps)
        return D

    def _store(self, arr: np.ndarray, eps: float) -> None:
        if _validate_values(arr, _check_eps(eps)) > 0:
            _mirror_lower(arr)
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

    def reverse(self) -> "CircularOrder":
        return canonicalize(self.seq[::-1])


def _check_permutation(seq: Sequence[int]) -> np.ndarray:
    # entries that are not integers (floats, bools, or ints too large for
    # any integer dtype, which give an object array) are no indices
    arr = np.asarray(seq)
    n = arr.size
    if arr.dtype.kind not in "iu" or n == 0 or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError(f"not a permutation of 0..n-1: {list(seq)!r}")
    return arr.astype(np.intp, copy=False)


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


def _check_indices(points: Sequence[int], n: int, distinct: bool = False) -> np.ndarray:
    """The points as an index array; ValueError unless every point is an
    index in range(n), an entry of integer kind by the rule of
    _check_permutation, and, when distinct, no point repeats."""
    arr = np.asarray(points)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"not a sequence of indices: {list(points)!r}")
    out = (arr < 0) | (arr >= n)
    if out.any():
        raise ValueError(f"index out of range: {arr.flat[out.argmax()]}")
    arr = arr.astype(np.intp, copy=False)
    if distinct and np.unique(arr).size != arr.size:
        raise ValueError(f"repeated point: points must be distinct, got {arr.tolist()}")
    return arr


def _check_order(D: DissimilarityMatrix, order: CircularOrder) -> np.ndarray:
    """The order's points as an index array; ValueError unless the order
    is a permutation of the matrix's n points."""
    if len(order.seq) != D.n:
        raise ValueError(f"order has {len(order.seq)} points, matrix has {D.n}")
    return _check_permutation(order.seq)


def chain_holds(order: CircularOrder, points: Sequence[int]) -> bool:
    """Whether the points, in the given sequence, lie in this cyclic order.

    True iff every pairwise-distinct triple (points[i], points[j], points[k])
    with i < j < k appears counterclockwise in `order`; triples with repeated
    points are skipped, matching the chain convention.
    """
    n = len(order)
    points = _check_indices(points, n).tolist()
    if not points:
        raise ValueError("points must be nonempty")
    pos = {p: i for i, p in enumerate(order.seq)}
    for i, j, k in combinations(range(len(points)), 3):
        u, v, w = points[i], points[j], points[k]
        if u == v or v == w or u == w:
            continue
        if (pos[v] - pos[u]) % n >= (pos[w] - pos[u]) % n:
            return False
    return True


def farthest_set(D: DissimilarityMatrix, x: int) -> tuple[float, frozenset[int]]:
    """Eccentricity of x and its set of farthest neighbors."""
    if D.n < 2:
        raise ValueError("farthest neighbors need at least two points")
    (x,) = _check_indices((x,), D.n)
    row = D.values[x]
    mask = np.arange(D.n) != x
    r = float(row[mask].max())
    members = frozenset(int(i) for i in np.flatnonzero(mask & (row == r)))
    return r, members


def _token_batches(text: TextIO) -> Iterator[list[str]]:
    """The tokens of `text` in order, one list per chunk read; whitespace
    and commas separate tokens, and a token cut by a chunk boundary is
    carried into the next list."""
    carry = ""
    while chunk := text.read(_CHUNK):
        tokens = (carry + chunk).replace(",", " ").split()
        end = chunk[-1]
        carry = tokens.pop() if tokens and not (end.isspace() or end == ",") else ""
        yield tokens
    if carry:
        yield [carry]


def _to_floats(tokens: list[str], before: int) -> np.ndarray:
    """float() of each token; a bad one is named with its 1-based index
    among the values after n (`before` values precede this batch)."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise MatrixFormatError(
                    f"non-numeric entry {token!r} at value {before + k + 1} after n"
                ) from None
        raise


def _mirror_lower(arr: np.ndarray) -> None:
    """Copy the lower triangle of a square array onto its upper one."""
    for i in range(arr.shape[0] - 1):
        arr[i, i + 1 :] = arr[i + 1 :, i]


def _fill_from_lower(arr: np.ndarray) -> None:
    """Turn arr, whose flat start holds the lower triangle row by row (row i:
    d(i,0)..d(i,i-1)), into the full symmetric matrix in place.  Row i moves
    up from flat offset i(i-1)/2 to i*n, so moving the last row first is safe."""
    n = arr.shape[0]
    flat = arr.reshape(-1)
    for i in range(n - 1, -1, -1):
        s = i * (i - 1) // 2
        arr[i, :i] = flat[s : s + i]
        arr[i, i] = 0.0
    _mirror_lower(arr)


def load_matrix(text: str | TextIO, eps: float = 0.0) -> DissimilarityMatrix:
    """Parse matrix text into a validated DissimilarityMatrix.

    Format A: first token n, then n*n values row by row.  Format B (lower
    triangle): first token n, then n*(n-1)/2 values, row i contributing
    d(i,0)..d(i,i-1).  Commas are accepted as separators, which covers the
    CSV variant of format A.

    The text is read in chunks and every value goes straight into one
    n*n float64 array, so the memory used is about the matrix plus one
    chunk.  Values are converted with float(), which rounds correctly: a
    file written with repr() loads bit-identical.
    """
    eps = _check_eps(eps)
    if isinstance(text, str):
        text = io.StringIO(text)
    batches = _token_batches(text)
    tokens: list[str] = []
    for tokens in batches:
        if tokens:
            break
    if not tokens:
        raise MatrixFormatError("empty input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(f"first token must be the point count, got {tokens[0]!r}")
    if n < 1:
        raise MatrixFormatError(f"point count must be >= 1, got {n}")
    full, tri = n * n, n * (n - 1) // 2
    try:
        arr = np.empty((n, n))
    except (MemoryError, ValueError):  # n is too large; count the values only
        arr = np.empty((0, 0))
    flat = arr.reshape(-1)
    count = 0
    for tokens in chain([tokens[1:]], batches):
        vals = _to_floats(tokens, count)
        stop = min(count + vals.size, flat.size)
        flat[count:stop] = vals[: max(stop - count, 0)]
        count += vals.size
    if count not in (full, tri):
        raise MatrixFormatError(
            f"expected {full} values (full) or {tri} (lower triangle) after"
            f" n={n}, got {count}"
        )
    if arr.size < full:
        raise MatrixFormatError(f"a matrix of n={n} points does not fit in memory")
    if count != full:
        _fill_from_lower(arr)
    return DissimilarityMatrix._adopt(arr, eps=eps)
