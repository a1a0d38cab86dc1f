"""The four quadruple conditions on a chain x < y < z < t of a circular order.

Each condition constrains d(x,z), the diagonal of the quadruple, against the
distances to the two points y (inside the arc from x to z) and t (outside).
The non-strict conditions hold trivially when x == y or z == t; the strict
ones are defined only on pairwise-distinct quadruples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import DissimilarityMatrix

__all__ = ["Quadruple", "cr", "scr", "qcr", "sqcr"]


class Quadruple(NamedTuple):
    x: int
    y: int
    z: int
    t: int


def _require_distinct(q: Quadruple) -> None:
    if len({q.x, q.y, q.z, q.t}) != 4:
        raise ValueError(f"strict condition needs pairwise-distinct points, got {tuple(q)}")


def cr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """d(x,z) >= min(max(d(x,y), d(y,z)), max(d(x,t), d(t,z)))."""
    v = D.values
    x, y, z, t = q
    bound = min(max(v[x, y], v[y, z]), max(v[x, t], v[t, z]))
    return v[x, z] - bound >= -eps


def scr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """Strict version of :func:`cr`; requires pairwise-distinct points."""
    q = Quadruple(*q)
    _require_distinct(q)
    v = D.values
    x, y, z, t = q
    bound = min(max(v[x, y], v[y, z]), max(v[x, t], v[t, z]))
    return v[x, z] - bound > eps


def _qcr_margin(v: np.ndarray, x, y, z, t):
    """d(x,z) - min(d(y,z), d(t,z)); the points may be index arrays."""
    return v[x, z] - np.minimum(v[y, z], v[t, z])


def qcr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """d(x,z) >= min(d(y,z), d(t,z))."""
    return _qcr_margin(D.values, *q) >= -eps


def sqcr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """Strict version of :func:`qcr`; requires pairwise-distinct points."""
    q = Quadruple(*q)
    _require_distinct(q)
    return _qcr_margin(D.values, *q) > eps
