"""Instance generators and fixtures.

Points on a circle with the arc or chord metric are strictly circular
Robinson by construction; two antipodal clusters realize the regime with
exactly two compatible orders; perturbation jitters a matrix while keeping it
symmetric and positive.  All randomness is driven by numpy's seeded Generator
so instances are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .core import _BAND, DissimilarityMatrix, _check_eps, canonicalize
from .recognition import bipartition_criterion
from .verification import verify

__all__ = [
    "GeneratorSpec",
    "GenerationError",
    "circle_instance",
    "two_cluster_instance",
    "perturb",
    "counterexample_fixture",
]

PERTURB_FLOOR = 1e-12
_TWO_CLUSTER_RETRIES = 32
_CLUSTER_HALF_WIDTH = np.pi / 16


class GenerationError(RuntimeError):
    """A generator failed to produce a valid instance within its retry budget."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of a generated instance."""

    kind: str
    n: int
    seed: int = 0
    epsilon: float = 0.0
    params: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


def _even_circle_values(n: int, metric: str) -> np.ndarray:
    # unit spacing for the arc metric, unit radius for the chord metric
    out = np.empty((n, n), dtype=float)
    js = np.arange(n)
    for start in range(0, n, _BAND):
        stop = min(start + _BAND, n)
        offs = np.abs(np.arange(start, stop)[:, None] - js[None, :])
        if metric == "arc":
            out[start:stop] = np.minimum(offs, n - offs).astype(float)
        else:
            out[start:stop] = 2.0 * np.sin(np.pi * offs / n)
    return out


def _angle_circle_values(angles: np.ndarray, metric: str) -> np.ndarray:
    n = angles.size
    out = np.empty((n, n), dtype=float)
    for start in range(0, n, _BAND):
        stop = min(start + _BAND, n)
        delta = np.abs(angles[start:stop, None] - angles[None, :])
        if metric == "arc":
            out[start:stop] = np.minimum(delta, 2 * np.pi - delta)
        else:
            out[start:stop] = 2.0 * np.sin(delta / 2.0)
    return out


def circle_instance(
    n: int, metric: str = "arc", angles: Optional[Sequence[float]] = None
) -> DissimilarityMatrix:
    """Distance matrix of n points on a circle.

    Evenly spaced by default: the arc metric then gives d(i,j) =
    min(|i-j|, n-|i-j|) and the chord metric the Euclidean distances on the
    unit circle.  Explicit angles (radians, strictly increasing in [0, 2pi))
    place the points instead; labels follow angle order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if metric not in ("arc", "chord"):
        raise ValueError(f"metric must be 'arc' or 'chord', got {metric!r}")
    if n == 1:
        return DissimilarityMatrix(np.zeros((1, 1)))
    if angles is None:
        values = _even_circle_values(n, metric)
    else:
        arr = np.asarray(angles, dtype=float)
        if arr.shape != (n,):
            raise ValueError(f"expected {n} angles, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= 2 * np.pi:
            raise ValueError("angles must lie in [0, 2*pi)")
        if not (np.diff(arr) > 0).all():
            raise ValueError("angles must be strictly increasing")
        values = _angle_circle_values(arr, metric)
    return DissimilarityMatrix._adopt(values)


def two_cluster_instance(k: int, l: int, seed: int = 0) -> DissimilarityMatrix:
    """A strict quasi-circular Robinson space with exactly two compatible
    orders: k points in one tight cluster, l points in the antipodal one.

    Cluster spreads stay below the cluster separation, so a threshold splits
    the space into the two cliques.  Each draw is validated (strict
    unimodality of the natural order plus the bipartition criterion) and
    redrawn on failure, up to a bounded retry count.
    """
    if k < 2 or l < 2:
        raise ValueError("both cluster sizes must be >= 2")
    n = k + l
    for attempt in range(_TWO_CLUSTER_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        first = np.sort(rng.uniform(0.0, 2 * _CLUSTER_HALF_WIDTH, k))
        second = np.pi + np.sort(rng.uniform(0.0, 2 * _CLUSTER_HALF_WIDTH, l))
        angles = np.concatenate([first, second])
        if not (np.diff(angles) > 0).all():
            continue
        D = circle_instance(n, "chord", angles)
        natural = canonicalize(tuple(range(n)))
        if verify(D, natural).strict_quasi and bipartition_criterion(D) is not None:
            return D
    raise GenerationError(
        f"no valid two-cluster instance after {_TWO_CLUSTER_RETRIES} attempts"
        f" (k={k}, l={l}, seed={seed})"
    )


def perturb(D: DissimilarityMatrix, epsilon: float, seed: int = 0) -> DissimilarityMatrix:
    """Jitter every off-diagonal value by a uniform draw in [-epsilon, epsilon].

    Symmetry is preserved (one draw per unordered pair) and values are clamped
    to stay strictly positive (floor 1e-12).  Deterministic per seed;
    epsilon = 0 returns an identical matrix.
    """
    epsilon = _check_eps(epsilon)
    values = D.values.copy()
    if epsilon > 0 and D.n > 1:
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(D.n, k=1)
        noise = rng.uniform(-epsilon, epsilon, size=iu[0].size)
        jittered = np.maximum(values[iu] + noise, PERTURB_FLOOR)
        values[iu] = jittered
        values.T[iu] = jittered
    return DissimilarityMatrix._adopt(values)


def counterexample_fixture() -> DissimilarityMatrix:
    """The 4-point space whose natural cycle is strictly quasi-circular but
    not strictly circular compatible; swapping the last two points gives the
    unique strictly circular compatible order."""
    return DissimilarityMatrix(
        [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 3.0, 2.0],
            [2.0, 3.0, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0],
        ]
    )
