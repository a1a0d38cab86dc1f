import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circrob import Quadruple, circle_instance, cr, qcr, scr, sqcr
from conftest import random_space


class TestCr:
    def test_fixture_natural_chain_fails(self, fixture4):
        # 2 >= min(max(1,3), max(3,1)) = 3 is false
        assert not cr(fixture4, Quadruple(0, 1, 2, 3))

    def test_coincident_first_pair_trivially_holds(self, fixture4):
        assert cr(fixture4, Quadruple(0, 0, 2, 3))

    def test_circle_chain_holds(self):
        C = circle_instance(5, "arc")
        assert cr(C, Quadruple(0, 1, 2, 3))


class TestScr:
    def test_fixture_natural_chain_fails(self, fixture4):
        assert not scr(fixture4, Quadruple(0, 1, 2, 3))

    def test_fixture_swapped_chain_holds(self, fixture4):
        # d(0,3) = 3 > min(max(1,2), max(2,1)) = 2
        assert scr(fixture4, Quadruple(0, 1, 3, 2))

    def test_equilateral_fails(self, equilateral4):
        assert not scr(equilateral4, Quadruple(0, 1, 2, 3))

    def test_repeated_points_rejected(self, fixture4):
        with pytest.raises(ValueError, match="distinct"):
            scr(fixture4, Quadruple(0, 0, 2, 3))


class TestQcr:
    def test_fixture_natural_chain_holds(self, fixture4):
        # 2 >= min(3, 1) = 1
        assert qcr(fixture4, Quadruple(0, 1, 2, 3))

    def test_coincident_trivially_holds(self, fixture4):
        assert qcr(fixture4, Quadruple(2, 2, 0, 3))
        assert qcr(fixture4, Quadruple(0, 1, 3, 3))

    def test_equilateral_holds(self, equilateral4):
        assert qcr(equilateral4, Quadruple(0, 1, 2, 3))


class TestSqcr:
    def test_fixture_natural_chain_holds(self, fixture4):
        assert sqcr(fixture4, Quadruple(0, 1, 2, 3))

    def test_equilateral_fails(self, equilateral4):
        assert not sqcr(equilateral4, Quadruple(0, 1, 2, 3))

    def test_circle_chain_holds(self):
        C = circle_instance(5, "arc")
        assert sqcr(C, Quadruple(0, 1, 2, 3))

    def test_repeated_points_rejected(self, fixture4):
        with pytest.raises(ValueError, match="distinct"):
            sqcr(fixture4, Quadruple(0, 1, 2, 2))


@pytest.mark.parametrize("pred", [cr, scr, qcr, sqcr])
@pytest.mark.parametrize(
    "q, message",
    [
        # -1 would wrap to point 3 and 4 lies past the matrix
        ((0, 1, 2, -1), "out of range"),
        ((0, 1, 2, 4), "out of range"),
        ((0, 1.5, 2, 3), "not a sequence of indices"),
    ],
)
def test_bad_index_rejected(fixture4, pred, q, message):
    with pytest.raises(ValueError, match=message):
        pred(fixture4, q)


class TestEpsilonSemantics:
    def test_strict_needs_margin_beyond_eps(self):
        D = circle_instance(5, "arc")
        q = Quadruple(0, 1, 2, 3)  # d(0,2)=2 vs min(1,1)=1, margin 1
        assert sqcr(D, q, eps=0.5)
        assert not sqcr(D, q, eps=1.0)

    def test_nonstrict_tolerates_eps_deficit(self, fixture4):
        q = Quadruple(0, 1, 2, 3)  # d(0,2)=2 vs bound 3, deficit 1
        assert not cr(fixture4, q, eps=0.5)
        assert cr(fixture4, q, eps=1.0)


@given(st.integers(4, 7), st.integers(0, 100_000), st.booleans())
def test_implication_chain(n, seed, ints):
    # scr => cr, scr => sqcr, sqcr => qcr, cr => qcr on distinct quadruples
    rng = np.random.default_rng(seed)
    D = random_space(n, rng, ints=ints)
    pts = rng.permutation(n)[:4]
    q = Quadruple(*(int(p) for p in pts))
    if scr(D, q):
        assert cr(D, q)
        assert sqcr(D, q)
    if sqcr(D, q):
        assert qcr(D, q)
    if cr(D, q):
        assert qcr(D, q)
