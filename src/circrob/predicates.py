"""The Robinson conditions, each written once as a margin.

A margin is d(x,z) minus the bound the condition puts on it, evaluated on
point indices that may be arrays of any (common) shape.  A condition holds
when its margin passes :func:`_holds`: strict means margin > eps, weak means
margin >= -eps.

- linear (x < y < z on a line): d(x,z) >= max(d(x,y), d(y,z));
- cr on a chain x < y < z < t of a circular order: d(x,z) >= min(max(d(x,y),
  d(y,z)), max(d(x,t), d(t,z))), i.e. one of the two arcs from x to z is
  linear on its inner point;
- qcr on the same chain: d(x,z) >= min(d(y,z), d(t,z)).

The non-strict quadruple conditions hold trivially when x == y or z == t;
the strict ones are defined only on pairwise-distinct quadruples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import DissimilarityMatrix, _check_eps, _check_indices

__all__ = ["Quadruple", "cr", "scr", "qcr", "sqcr"]


class Quadruple(NamedTuple):
    x: int
    y: int
    z: int
    t: int


def _holds(margin, strict: bool, eps: float):
    """Whether a margin passes: > eps when strict, >= -eps otherwise."""
    return margin > eps if strict else margin >= -eps


def _lr_margin(v: np.ndarray, x, y, z):
    """d(x,z) - max(d(x,y), d(y,z)): y lies between x and z on a line."""
    return v[x, z] - np.maximum(v[x, y], v[y, z])


def _cr_margin(v: np.ndarray, x, y, z, t):
    """d(x,z) - min(max(d(x,y), d(y,z)), max(d(x,t), d(t,z))).  Written as
    the larger of the two arcs' linear margins, which is the same float:
    rounding of d(x,z) - b is monotone in b."""
    return np.maximum(_lr_margin(v, x, y, z), _lr_margin(v, x, t, z))


def _qcr_margin(v: np.ndarray, x, y, z, t):
    """d(x,z) - min(d(y,z), d(t,z))."""
    return v[x, z] - np.minimum(v[y, z], v[t, z])


def _points(q: Quadruple, n: int, strict: bool) -> Quadruple:
    """The quadruple; ValueError unless its points are indices in range(n),
    pairwise distinct when strict."""
    return Quadruple(*_check_indices(Quadruple(*q), n, distinct=strict))


def cr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """d(x,z) >= min(max(d(x,y), d(y,z)), max(d(x,t), d(t,z)))."""
    return bool(_holds(_cr_margin(D.values, *_points(q, D.n, False)), False, _check_eps(eps)))


def scr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """Strict version of :func:`cr`; requires pairwise-distinct points."""
    return bool(_holds(_cr_margin(D.values, *_points(q, D.n, True)), True, _check_eps(eps)))


def qcr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """d(x,z) >= min(d(y,z), d(t,z))."""
    return bool(_holds(_qcr_margin(D.values, *_points(q, D.n, False)), False, _check_eps(eps)))


def sqcr(D: DissimilarityMatrix, q: Quadruple, eps: float = 0.0) -> bool:
    """Strict version of :func:`qcr`; requires pairwise-distinct points."""
    return bool(_holds(_qcr_margin(D.values, *_points(q, D.n, True)), True, _check_eps(eps)))
