import numpy as np
import pytest

from circrob import DissimilarityMatrix, canonicalize, circle_instance, counterexample_fixture


def random_space(n, rng, ints=False):
    """Symmetric, zero-diagonal, positive-off-diagonal random matrix."""
    if ints:
        vals = rng.integers(1, 6, size=(n, n)).astype(float)
    else:
        vals = rng.uniform(0.5, 3.0, size=(n, n))
    vals = np.triu(vals, 1)
    return DissimilarityMatrix(vals + vals.T)


def mixed_small_space(rng, n_lo=3, n_hi=7):
    """Random draw from the pool used by the oracle cross-checks: random
    real/integer values, circles, lightly perturbed circles."""
    from circrob import perturb

    kind = int(rng.integers(0, 5))
    n = int(rng.integers(n_lo, n_hi + 1))
    if kind == 0:
        return circle_instance(n, "arc")
    if kind == 1:
        return circle_instance(n, "chord")
    if kind == 2:
        base = circle_instance(n, "chord")
        return perturb(base, 0.02, seed=int(rng.integers(1 << 30)))
    return random_space(n, rng, ints=kind == 3)


def _arc_start(seq, part):
    starts = [i for i, p in enumerate(seq) if p in part and seq[i - 1] not in part]
    return starts[0] if len(starts) == 1 else None


def split_by_reversal(order_set):
    """The theorem's structure of two compatible orders: both parts of the
    bipartition are arcs of both orders, and the second order is the first
    with one part reversed in place."""
    N, F, _ = order_set.bipartition
    first, second = (list(o.seq) for o in order_set.orders)
    starts = [_arc_start(seq, part) for seq in (first, second) for part in (N, F)]
    if None in starts:
        return False
    first = first[starts[0] :] + first[: starts[0]]
    flipped = first[: len(N)] + first[len(N) :][::-1]
    return canonicalize(flipped).seq == tuple(second)


@pytest.fixture
def fixture4():
    return counterexample_fixture()


@pytest.fixture
def circle5():
    return circle_instance(5, "arc")


@pytest.fixture
def equilateral4():
    return DissimilarityMatrix(np.ones((4, 4)) - np.eye(4))
