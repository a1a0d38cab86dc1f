from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from circrob import (
    DissimilarityMatrix,
    Quadruple,
    bipartition_criterion,
    canonicalize,
    circle_instance,
    circular_robinson_by_arcs,
    compatible_orders,
    counterexample_fixture,
    cr,
    enumerate_circular_orders,
    find_compatible_order,
    is_linear_robinson,
    oracle_classify,
    orders_agree,
    perturb,
    pre_circular_by_quadruples,
    qcr,
    quasi_circular_by_quadruples,
    scr,
    sqcr,
    two_cluster_instance,
)
from circrob.oracle import _classify_table, _flags, _position_tables
from conftest import mixed_small_space, random_space


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_circular_orders(3))) == 1
        assert len(list(enumerate_circular_orders(4))) == 3
        assert len(list(enumerate_circular_orders(5))) == 12

    def test_exact_orders_n4(self):
        seqs = {o.seq for o in enumerate_circular_orders(4)}
        assert seqs == {(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)}

    def test_all_canonical_and_unique(self):
        seen = set()
        for o in enumerate_circular_orders(6):
            assert canonicalize(o.seq) == o
            assert o.seq not in seen
            seen.add(o.seq)
        assert len(seen) == 60  # 5!/2

    def test_tiny(self):
        assert [o.seq for o in enumerate_circular_orders(1)] == [(0,)]
        assert [o.seq for o in enumerate_circular_orders(2)] == [(0, 1)]

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_circular_orders(11))

    def test_classify_table_cache(self):
        # oracle_classify's tables are cached read-only; enumeration past
        # MAX_CLASSIFY_N builds its table afresh and keeps none alive
        oracle_classify(circle_instance(8, "chord"))
        table = _classify_table(8)
        assert not table.flags.writeable
        assert [tuple(row) for row in table.tolist()] == [
            o.seq for o in enumerate_circular_orders(8)
        ]
        cached = _classify_table.cache_info().currsize
        assert sum(1 for _ in enumerate_circular_orders(9)) == 20160
        assert _classify_table.cache_info().currsize == cached


class TestQuadrupleSweeps:
    def test_fixture_strict(self, fixture4):
        assert not pre_circular_by_quadruples(fixture4, canonicalize(range(4)), strict=True)
        assert pre_circular_by_quadruples(fixture4, canonicalize((0, 1, 3, 2)), strict=True)

    def test_triangle_vacuous(self):
        rng = np.random.default_rng(3)
        D = random_space(3, rng)
        order = canonicalize(range(3))
        assert pre_circular_by_quadruples(D, order, strict=False)
        assert quasi_circular_by_quadruples(D, order, strict=False)


class TestArcChecks:
    def test_fixture_swapped_strict(self, fixture4):
        assert circular_robinson_by_arcs(fixture4, canonicalize((0, 1, 3, 2)), strict=True)

    def test_fixture_natural_nonstrict_fails(self, fixture4):
        # arc (0,1,2) has d(0,2)=2 < d(1,2)=3 and arc (2,3,0) has d(2,0)=2 < d(3,0)=3
        assert not circular_robinson_by_arcs(fixture4, canonicalize(range(4)), strict=False)

    def test_triangle_always_true(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            D = random_space(3, rng)
            assert circular_robinson_by_arcs(D, canonicalize(range(3)), strict=False)


class TestOracleClassify:
    def test_fixture_sets(self, fixture4):
        oc = oracle_classify(fixture4)
        assert {o.seq for o in oc.strict_quasi_circular} == {(0, 1, 2, 3), (0, 1, 3, 2)}
        assert {o.seq for o in oc.strict_circular_by_arcs} == {(0, 1, 3, 2)}

    def test_equilateral_sets(self, equilateral4):
        oc = oracle_classify(equilateral4)
        assert oc.strict_quasi_circular == ()
        assert oc.strict_pre_circular == ()
        assert len(oc.quasi_circular) == 3
        assert len(oc.pre_circular) == 3

    def test_circle_unique_strict_circular(self, circle5):
        oc = oracle_classify(circle5)
        assert [o.seq for o in oc.strict_circular_by_arcs] == [(0, 1, 2, 3, 4)]

    def test_cap(self):
        rng = np.random.default_rng(5)
        D = random_space(9, rng)
        with pytest.raises(ValueError, match="capped"):
            oracle_classify(D)

    @pytest.mark.parametrize(
        "D, survivors",
        [
            (circle_instance(8, "chord"), 1),
            (two_cluster_instance(4, 4), 2),
            (DissimilarityMatrix(1 - np.eye(8)), 2520),
        ],
        ids=["chord-circle", "two-cluster", "all-equal"],
    )
    def test_six_definitions_sweep_only_weak_qcr_orders(self, monkeypatch, D, survivors):
        # every definition implies weak qcr, so only the orders that pass it
        # reach the six-definition sweep
        swept = []

        def counted(*args):
            flags = _flags(*args)
            swept.append(flags.shape[1])
            return flags

        monkeypatch.setattr("circrob.oracle._flags", counted)
        oc = oracle_classify(D)
        assert sum(swept) == len(oc.quasi_circular) == survivors

    def test_json_roundtrip(self, fixture4):
        import json

        d = oracle_classify(fixture4).to_json_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["strict_circular_by_arcs"] == [[0, 1, 3, 2]]

    def test_set_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            D = mixed_small_space(rng, n_lo=3, n_hi=6)
            oc = oracle_classify(D)
            assert set(oc.strict_pre_circular) <= set(oc.pre_circular)
            assert set(oc.strict_quasi_circular) <= set(oc.quasi_circular)
            assert set(oc.strict_circular_by_arcs) <= set(oc.circular_by_arcs)
            assert set(oc.circular_by_arcs) <= set(oc.quasi_circular)
            assert set(oc.strict_circular_by_arcs) <= set(oc.strict_quasi_circular)
            # the equivalence theorem, at the classification level
            assert oc.pre_circular == oc.circular_by_arcs
            assert oc.strict_pre_circular == oc.strict_circular_by_arcs
            # order-count structure
            assert len(oc.strict_quasi_circular) <= 2
            assert len(oc.strict_circular_by_arcs) <= 1


# At eps = 0.31 the chain 4 < 5 < 3 < 0 of this order breaks cr: d(4,3) =
# 2.16 is more than eps below both arcs' bounds, 2.78 and 2.55.  A linear
# rule that applies eps to neighbouring arc entries only still finds a linear
# arc for every pair.
_EPS_ARCS = (
    [
        [0, 1.6, 1.54, 2.55, 1.33, 2.84],
        [1.6, 0, 1.56, 2.41, 1.5, 2.79],
        [1.54, 1.56, 0, 2.22, 0.67, 2.39],
        [2.55, 2.41, 2.22, 0, 2.16, 2.78],
        [1.33, 1.5, 0.67, 2.16, 0, 1.28],
        [2.84, 2.79, 2.39, 2.78, 1.28, 0],
    ],
    (0, 1, 2, 4, 5, 3),
)


class TestEquivalenceTheorem:
    def test_quadruples_iff_arcs_per_order(self):
        rng = np.random.default_rng(314159)
        cases = [(DissimilarityMatrix(_EPS_ARCS[0]), canonicalize(_EPS_ARCS[1]))]
        for _ in range(120):
            D = mixed_small_space(rng)
            cases.append((D, canonicalize(rng.permutation(D.n))))
        for D, order in cases:
            for eps in (0.0, 0.05, 0.31):
                for strict in (False, True):
                    assert pre_circular_by_quadruples(D, order, strict, eps) == (
                        circular_robinson_by_arcs(D, order, strict, eps)
                    ), (D.values.tolist(), order.seq, eps, strict)
        D, order = cases[0]
        assert not circular_robinson_by_arcs(D, order, False, 0.31)


class TestPositionTables:
    def test_arcs_split_the_circle(self):
        # arc k of pair (a, b) holds, in walk order, exactly the 3-subsets of
        # the positions from its start forward to its end; the two arcs of a
        # pair cover all n positions and share exactly the two ends
        for n in range(2, 9):
            _, triples, arcs = _position_tables(n)
            pairs = list(combinations(range(n), 2))
            assert arcs.shape == (2 * len(pairs), triples.shape[1])
            for i, (a, b) in enumerate(pairs):
                spans = []
                for k, (start, end) in enumerate(((a, b), (b, a))):
                    walk = [(start + j) % n for j in range((end - start) % n + 1)]
                    inside = sorted(map(tuple, triples[:, arcs[2 * i + k]].T.tolist()))
                    assert inside == sorted(combinations(walk, 3))
                    spans.append(set(walk))
                assert spans[0] | spans[1] == set(range(n))
                assert spans[0] & spans[1] == {a, b}

    def test_sweeps_match_scalar_predicates(self):
        # the one-order sweeps against the scalar predicates: this checks the
        # position tables and rotations
        rng = np.random.default_rng(4711)
        for _ in range(40):
            D = mixed_small_space(rng, n_lo=4, n_hi=7)
            order = canonicalize(rng.permutation(D.n))
            for eps in (0.0, 0.31):
                swept = [
                    sweep(D, order, strict, eps)
                    for sweep in (
                        pre_circular_by_quadruples,
                        quasi_circular_by_quadruples,
                        circular_robinson_by_arcs,
                    )
                    for strict in (False, True)
                ]
                assert swept == _scalar_flags(D, order.seq, eps)

    @pytest.mark.parametrize("n", [5, 6])
    def test_classify_matches_scalar_predicates(self, n):
        # whole blocks of orders against a per-order loop: 12 and 60 orders,
        # so the last block is partial.  Every order of the all-equal space
        # passes the weak qcr prune and none the strict one; at eps = 0 the
        # two clusters have 2 quasi-circular orders but 1 pre-circular one
        rng = np.random.default_rng(2718 + n)
        orders = list(enumerate_circular_orders(n))
        cases = [circle_instance(n, "arc"), perturb(circle_instance(n, "chord"), 0.02, seed=n)]
        cases += [DissimilarityMatrix(1 - np.eye(n)), two_cluster_instance(n // 2, n - n // 2)]
        cases += [mixed_small_space(rng, n_lo=n, n_hi=n) for _ in range(4)]
        found = 0
        for D in cases:
            for eps in (0.0, 0.31):
                oc = oracle_classify(D, eps)
                flags = [_scalar_flags(D, o.seq, eps) for o in orders]
                expected = [
                    tuple(o for o, f in zip(orders, flags) if f[i]) for i in range(len(fields(oc)))
                ]
                assert [getattr(oc, f.name) for f in fields(oc)] == expected
                found += sum(map(len, expected))
        assert found > 0


def _scalar_flags(D, seq, eps):
    """The six flags of one order, in the field order of
    OracleClassification, from the scalar predicates on every chain
    quadruple and is_linear_robinson on both arcs of every pair."""
    n = len(seq)
    chains = [
        Quadruple(*(seq[p] for p in ps[r:] + ps[:r]))
        for ps in combinations(range(n), 4)
        for r in range(4)
    ]
    arcs = [(seq[a : b + 1], seq[b:] + seq[: a + 1]) for a, b in combinations(range(n), 2)]
    flags = [all(holds(D, q, eps) for q in chains) for holds in (cr, scr, qcr, sqcr)]
    flags += [
        all(
            is_linear_robinson(D, one, strict, eps) or is_linear_robinson(D, other, strict, eps)
            for one, other in arcs
        )
        for strict in (False, True)
    ]
    return flags


@pytest.mark.parametrize("eps", [float("nan"), -1.0])
def test_bad_eps_rejected(eps):
    D, order = counterexample_fixture(), canonicalize((0, 2, 1, 3))
    checks = [
        lambda: pre_circular_by_quadruples(D, order, eps=eps),
        lambda: quasi_circular_by_quadruples(D, order, eps=eps),
        lambda: circular_robinson_by_arcs(D, order, eps=eps),
        lambda: is_linear_robinson(D, (0, 1, 2), eps=eps),
        lambda: oracle_classify(D, eps=eps),
    ]
    # the predicates and the construction: on the chord hexagon, qcr of this
    # quadruple is True at eps = 0 and sqcr False, and at eps = nan the
    # construction's cut would be empty
    D6, q = circle_instance(6, "chord"), Quadruple(0, 2, 1, 3)
    checks += [lambda pred=pred: pred(D6, q, eps=eps) for pred in (cr, scr, qcr, sqcr)]
    checks += [
        lambda: compatible_orders(D6, eps=eps),
        lambda: find_compatible_order(D6, eps=eps),
        lambda: bipartition_criterion(D6, eps=eps),
        # on the chord octagon these halves compose to a compatible order
        # only in one orientation: at eps = 0 this one fails
        lambda: orders_agree(circle_instance(8, "chord"), [0, 1, 2, 3], [7, 6, 5, 4], eps=eps),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="finite number >= 0"):
            check()


@pytest.mark.parametrize("seq", [(-1, 0, 1), (0, 1, 4)])
def test_linear_index_out_of_range(seq):
    with pytest.raises(ValueError, match="index out of range"):
        is_linear_robinson(counterexample_fixture(), seq)


@pytest.mark.parametrize(
    "sweep", [pre_circular_by_quadruples, quasi_circular_by_quadruples, circular_robinson_by_arcs]
)
def test_order_length_must_match(sweep):
    with pytest.raises(ValueError, match="order has 3 points, matrix has 4"):
        sweep(counterexample_fixture(), canonicalize((0, 1, 2)))


class TestSixPointChainBound:
    def test_certified_orders_satisfy_chain_inequality(self):
        # on a pre-circular-certified (D, order), every chain of six distinct
        # points u < y < y' < w < z < z' has d(u,w) >= min(d(y,y'), d(z,z'))
        from itertools import combinations

        cases = [
            (circle_instance(6, "arc"), canonicalize(range(6))),
            (circle_instance(7, "chord"), canonicalize(range(7))),
        ]
        rng = np.random.default_rng(21)
        while len(cases) < 8:
            D = mixed_small_space(rng, n_lo=6, n_hi=7)
            order = canonicalize(rng.permutation(D.n))
            if pre_circular_by_quadruples(D, order, strict=False):
                cases.append((D, order))
        for D, order in cases:
            assert pre_circular_by_quadruples(D, order, strict=False)
            strict = pre_circular_by_quadruples(D, order, strict=True)
            n = D.n
            seq = order.seq
            for subset in combinations(range(n), 6):
                for rot in range(6):
                    ps = subset[rot:] + subset[:rot]
                    u, y, yp, w, z, zp = (seq[p] for p in ps)
                    bound = min(D.values[y, yp], D.values[z, zp])
                    if strict:
                        assert D.values[u, w] > bound
                    else:
                        assert D.values[u, w] >= bound
