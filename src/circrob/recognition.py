"""Construction of compatible circular orders in O(n log n), plus order
enumeration and the two-orders bipartition criterion.

The construction partitions the points around a base point x and one of its
farthest neighbors x' into N = {u : d(u,x) <= d(u,x')} and its complement.
When some point is equidistant from x and x', the arc between x and x' is
recovered metrically through J-sets and the whole order is forced (up to
reversal).  Otherwise N and F each split into two arcs sorted by distance to
x resp. x', leaving exactly two candidate compositions; a linear number of
quadruple checks decides which one can be compatible.  On inputs that are not
strictly (quasi-)circular Robinson the output is arbitrary and must be vetted
with :func:`circrob.verification.verify`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .core import (
    _BAND, CircularOrder, DissimilarityMatrix, _check_eps, _check_indices, canonicalize
)
from .predicates import _holds, _lr_margin, _qcr_margin
from .verification import (
    ClassificationReport, _report_from_scan, _RowScan, _scan_rows, verify
)

__all__ = [
    "TieWarning",
    "OrderSet",
    "orders_agree",
    "find_compatible_order",
    "compatible_orders",
    "bipartition_criterion",
]

STRICT_QUASI = "strict-quasi"
STRICT_CIRCULAR = "strict-circular"


class TieWarning(UserWarning):
    """Equal sort keys met while ordering points by distance; the instance is
    then not strict (or only through a two-point farthest pair)."""


@dataclass(frozen=True)
class OrderSet:
    """All compatible canonical orders (up to reversal) of one strictness.

    `candidates` holds every distinct constructed order with its verification
    report, the construction's pick first; it is not part of the JSON form.
    """

    orders: tuple[CircularOrder, ...]
    bipartition: Optional[tuple[frozenset[int], frozenset[int], float]]
    candidates: tuple[tuple[CircularOrder, ClassificationReport], ...]

    def to_json_dict(self) -> dict[str, Any]:
        bip = None
        if self.bipartition is not None:
            N, F, delta = self.bipartition
            bip = {"N": sorted(N), "F": sorted(F), "delta": delta}
        return {"orders": [list(o.seq) for o in self.orders], "bipartition": bip}


def _j_mask(values: np.ndarray, x: int, y: int, eps: float) -> np.ndarray:
    """Mask of the J-set: x, y and every point strictly closer than d(x,y)
    to both.  On strict quasi-circular instances where d(x,y) <= min(d(x,z),
    d(y,z)) for every third point z, it is the arc from x to y of any
    compatible order."""
    mask = _holds(_lr_margin(values, x, np.arange(values.shape[0]), y), True, eps)
    mask[[x, y]] = True
    return mask


def _cut(values: np.ndarray, eps: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The construction's cut at point 0: its first farthest point x', the
    mask of the points at least as close to 0 as to x', and the mask of the
    points whose distances to 0 and x' differ by at most eps."""
    row = values[0].copy()
    row[0] = -np.inf
    x_prime = int(np.argmax(row))
    diff = values[:, 0] - values[:, x_prime]
    return x_prime, diff <= eps, np.abs(diff) <= eps


def orders_agree(
    D: DissimilarityMatrix,
    X_N: Sequence[int],
    X_F: Sequence[int],
    eps: float = 0.0,
) -> bool:
    """Whether the composed circular order X_N ++ X_F can be compatible.

    Checks the four linear-size families of quadruple conditions that are
    sensitive to the relative orientation of the two arcs; O(|X_N| + |X_F|)
    evaluations.  Trivially true when either side is a single point.
    """
    xn, xf, eps = _check_indices(X_N, D.n), _check_indices(X_F, D.n), _check_eps(eps)
    k, l = xn.size, xf.size
    if not k or not l:
        raise ValueError("both parts must be nonempty")
    if np.intersect1d(xn, xf).size:
        raise ValueError("parts overlap")
    if k + l != D.n or np.unique(np.concatenate([xn, xf])).size != D.n:
        raise ValueError("parts must cover all points exactly once")
    if k == 1 or l == 1:
        return True

    v = D.values

    def holds(a, b: int, c: int, d: int) -> bool:
        # sqcr on every chain a[i] < b < c < d and on its three rotations: a
        # violation of the 4-subset may surface at any rotation
        return all(
            _holds(_qcr_margin(v, *rot), True, eps).all()
            for rot in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c))
        )

    x1, x2, xk, xk1 = xn[0], xn[1], xn[-1], xn[-2]
    y1, y2, yl, yl1 = xf[0], xf[1], xf[-1], xf[-2]
    return (
        holds(xn[:-1], xk, y1, y2)
        and holds(xn[1:], yl1, yl, x1)
        and holds(xf[:-1], yl, x1, x2)
        and holds(xf[1:], xk1, xk, y1)
    )


def _dist_sorted(points: np.ndarray, key: np.ndarray, descending: bool = False) -> np.ndarray:
    """Stable sort of `points` by key value then index, with a TieWarning
    when two keys are equal."""
    if points.size <= 1:
        return points
    k = key[points]
    srt = np.lexsort((points, -k if descending else k))
    ks = k[srt]
    if (ks[1:] == ks[:-1]).any():
        warnings.warn(
            "equal distance keys while ordering points; instance may not be strict",
            TieWarning,
            stacklevel=4,  # the caller of compatible_orders / find_compatible_order
        )
    return points[srt]


def _candidates(D: DissimilarityMatrix, eps: float = 0.0) -> list[np.ndarray]:
    """The one or two candidate orders; the first is the algorithm's pick."""
    n, eps = D.n, _check_eps(eps)
    if n == 1:
        return [np.zeros(1, dtype=np.intp)]
    v = D.values
    x = 0
    x_prime, in_N, meet = _cut(v, eps)
    dN = v[:, x]
    dF = v[:, x_prime]
    idx = np.arange(n, dtype=np.intp)

    if meet.any():
        y = int(np.flatnonzero(meet)[0])
        x1_mask = _j_mask(v, x, y, eps) | _j_mask(v, y, x_prime, eps)
        # x' is farthest from x: it ends the arc, behind any tie with it
        part1 = np.append(_dist_sorted(idx[x1_mask & (idx != x_prime)], dN), x_prime)
        part2 = _dist_sorted(idx[~x1_mask], dN, descending=True)
        return [np.concatenate([part1, part2])]

    n_part = in_N
    f_part = ~in_N
    n_idx = idx[n_part]
    f_idx = idx[f_part]
    z = int(n_idx[np.argmax(dN[n_idx])])
    y = int(f_idx[np.argmax(dF[f_idx])])
    np_mask = _j_mask(v, x, z, eps) & n_part
    fp_mask = _j_mask(v, x_prime, y, eps) & f_part
    # Each half is traversed wing-desc, center, wing-asc so that distances to
    # the center rise away from it on both sides.
    xn = np.concatenate(
        [
            _dist_sorted(idx[n_part & ~np_mask], dN, descending=True),
            _dist_sorted(idx[np_mask], dN),
        ]
    )
    xf = np.concatenate(
        [
            _dist_sorted(idx[fp_mask], dF, descending=True),
            _dist_sorted(idx[f_part & ~fp_mask], dF),
        ]
    )
    straight = np.concatenate([xn, xf])
    flipped = np.concatenate([xn, xf[::-1]])
    if orders_agree(D, xn, xf, eps):
        return [straight, flipped]
    return [flipped, straight]


def find_compatible_order(D: DissimilarityMatrix, eps: float = 0.0) -> CircularOrder:
    """Construct a candidate circular order in O(n log n).

    The result is strictly quasi compatible whenever the space is strictly
    quasi-circular Robinson, else arbitrary: check it with verify().  Of two
    such orders it may pick the one that is not strictly circular compatible.
    """
    return canonicalize(_candidates(D, eps)[0])


def compatible_orders(
    D: DissimilarityMatrix, strictness: str = STRICT_QUASI, eps: float = 0.0
) -> OrderSet:
    """All compatible canonical orders for the requested strict notion.

    Runs the construction, also tries the alternative composition when the
    equidistant set was empty, reports on each distinct candidate once, and
    keeps exactly the ones that pass.  Empty result means the space is not
    strictly (quasi-)circular Robinson.

    The first candidate's report comes from one O(n^2) row scan.  With two
    candidates, the second is the first with the part F of the cut reversed.
    When the first passes the strict quasi rule and bipartition_criterion
    finds the threshold split (N, F, delta), the second report follows from
    that scan in O(n): every cross value exceeds delta by more than eps, so
    each row's plateau within eps of its maximum lies in the block of the
    other part, and each part's reads in the second order are those of the
    first, one block reversed or moved whole.  So both candidates have the
    same (true) quasi flags, and each point's farthest arc ends at the same
    two points, at their offsets in the second order's read; the crossing
    tests on those ends give its circular flags and witnesses.  In every
    other case (one candidate, a first candidate that fails strict quasi, or
    no split) the second candidate gets its own verify scan.
    """
    if strictness not in (STRICT_QUASI, STRICT_CIRCULAR):
        raise ValueError(f"unknown strictness {strictness!r}")
    flag, eps = strictness.replace("-", "_"), _check_eps(eps)
    seen: list[CircularOrder] = []
    for cand in _candidates(D, eps):
        order = canonicalize(cand)
        if order not in seen:
            seen.append(order)
    first = np.array(seen[0].seq, dtype=np.intp)
    scan = _scan_rows(D.values, first, eps)
    candidates = [(seen[0], _report_from_scan(first, scan))]
    bip = None
    if len(seen) == 2:
        if candidates[0][1].strict_quasi:
            bip = bipartition_criterion(D, eps)
        if bip is None:
            report = verify(D, seen[1], eps)
        else:
            second = np.array(seen[1].seq, dtype=np.intp)
            report = _report_from_scan(second, _scan_with_part_reversed(first, scan, second))
        candidates.append((seen[1], report))
    kept = sorted(
        (o for o, report in candidates if getattr(report, flag)), key=lambda o: o.seq
    )
    return OrderSet(
        orders=tuple(kept),
        bipartition=bip if len(kept) == 2 else None,
        candidates=tuple(candidates),
    )


def _scan_with_part_reversed(first: np.ndarray, scan: _RowScan, second: np.ndarray) -> _RowScan:
    """The row scan of the order `second` from that of `first`, given that
    both pass the strict quasi rule and differ by reversing one part of a
    threshold split: each point's arc ends are the same points, at their
    offsets in its read of `second`, the nearer one S."""
    n = first.size
    pos = np.empty(n, dtype=np.intp)
    pos[second] = np.arange(n)
    at = pos[first]  # where the point at each position of first sits in second
    idx = np.arange(n)
    a, b = ((pos[first[(idx + off) % n]] - at) % n for off in (scan.s_off, scan.e_off))
    S, E = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    S[at], E[at] = np.minimum(a, b), np.maximum(a, b)
    return _RowScan(S, E, None, None)


def bipartition_criterion(
    D: DissimilarityMatrix, eps: float = 0.0
) -> Optional[tuple[frozenset[int], frozenset[int], float]]:
    """Threshold split (N, F, delta) into two clusters, N holding point 0,
    if one exists.

    Looks for a partition X = N u F with |N|, |F| > 1 whose smallest
    cross-part value, cross, exceeds its largest intra-part value, delta,
    by more than eps.  Only the construction's cut can be one, so it decides
    the question in O(n^2): if a split exists, d(0,x') >= cross > delta puts
    point 0's first farthest point x' in F, and every point is then nearer
    its own part's seed by more than eps, also in floats, as rounding is
    monotone and fl(a - b) = -fl(b - a).
    """
    n, eps = D.n, _check_eps(eps)
    if n < 4:
        return None
    v = D.values
    _, in_N, meet = _cut(v, eps)
    if meet.any():
        return None  # some point is equidistant from both seeds
    N, F = np.flatnonzero(in_N), np.flatnonzero(~in_N)
    if N.size < 2 or F.size < 2:
        return None
    # the intra-cluster maximum and the cross-cluster minimum, over bands of
    # _BAND rows so that no n^2 block is copied; intra only grows and cross
    # only shrinks, and so does fl(cross - intra), so the first band where
    # they come within eps rules the split out
    intra, cross = -np.inf, np.inf
    for start in range(0, N.size, _BAND):
        band = v[N[start : start + _BAND]]
        intra = max(intra, band[:, N].max())
        cross = min(cross, band[:, F].min())
        if cross - intra <= eps:
            return None
    for start in range(0, F.size, _BAND):
        intra = max(intra, v[F[start : start + _BAND]][:, F].max())
        if cross - intra <= eps:
            return None
    return (
        frozenset(int(p) for p in N),
        frozenset(int(p) for p in F),
        float(intra),
    )
