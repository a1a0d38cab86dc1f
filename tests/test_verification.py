import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circrob import (
    CircularOrder,
    ClassificationReport,
    DissimilarityMatrix,
    RowWitness,
    TieWarning,
    canonicalize,
    circle_instance,
    circular_robinson_by_arcs,
    compatible_orders,
    crossing_violation,
    enumerate_circular_orders,
    farthest_set,
    find_compatible_order,
    is_linear_robinson,
    is_strictly_unimodal,
    is_unimodal,
    load_matrix,
    pre_circular_by_quadruples,
    quasi_circular_by_quadruples,
    two_cluster_instance,
    verify,
)
from circrob import verification
from circrob.core import _check_order
from circrob.oracle import _position_tables
from circrob.predicates import _holds, _qcr_margin
from conftest import random_space, split_by_reversal

LINE_D = DissimilarityMatrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])  # points 1, 2, 4 on a line


class TestIsUnimodal:
    def test_fixture_natural_ok(self, fixture4):
        assert is_unimodal(fixture4, canonicalize(range(4))).ok

    def test_fixture_bad_order_reports_row(self, fixture4):
        rep = is_unimodal(fixture4, canonicalize((0, 2, 1, 3)))
        assert not rep.ok
        assert rep.violating_row == 0  # circular row 0 reads 2, 1, 3
        assert rep.violating_positions is not None

    def test_tiny_spaces_ok(self):
        assert is_unimodal(load_matrix("1\n0"), canonicalize((0,))).ok
        assert is_unimodal(load_matrix("2\n0 1\n1 0"), canonicalize((0, 1))).ok

    def test_wrong_length_rejected(self, fixture4):
        with pytest.raises(ValueError):
            is_unimodal(fixture4, canonicalize((0, 1, 2)))


class TestIsStrictlyUnimodal:
    def test_fixture_natural_ok(self, fixture4):
        rep = is_strictly_unimodal(fixture4, canonicalize(range(4)))
        assert rep.ok
        assert [len(farthest_set(fixture4, x)[1]) for x in range(4)] == [1, 1, 1, 1]

    def test_circle_plateaus_of_two(self, circle5):
        rep = is_strictly_unimodal(circle5, canonicalize(range(5)))
        assert rep.ok
        assert [len(farthest_set(circle5, x)[1]) for x in range(5)] == [2, 2, 2, 2, 2]

    def test_equilateral_rejected_any_order(self, equilateral4):
        for order in enumerate_circular_orders(4):
            rep = is_strictly_unimodal(equilateral4, order)
            assert not rep.ok
            assert rep.violating_row is not None

    def test_adjacent_sub_maximal_tie_rejected(self):
        # row 0 reads 1, 1, 2: plateau below the maximum
        D = DissimilarityMatrix([[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]])
        assert not is_strictly_unimodal(D, canonicalize(range(4))).ok
        assert is_unimodal(D, canonicalize(range(4))).ok

    def test_step_after_plateau_within_eps_rejected(self):
        # at eps = 1 row 0 reads 5, 4, 3: neither step falls by more than
        # eps, so step 0 (not a rise) comes before step 1 (not a fall); the
        # witness (1, 2) has 4 - min(5, 3) = eps; every other row is strict
        D = DissimilarityMatrix([[0, 5, 4, 3], [5, 0, 1, 3], [4, 1, 0, 1], [3, 3, 1, 0]])
        order = canonicalize(range(4))
        rep = is_strictly_unimodal(D, order, eps=1.0)
        assert (rep.ok, rep.violating_row, rep.violating_positions) == (False, 0, (1, 2))
        assert is_strictly_unimodal(D, order).ok


class TestCrossingViolation:
    def test_fixture_natural_strict_witness(self, fixture4):
        w = crossing_violation(fixture4, canonicalize(range(4)), strict=True)
        assert w is not None
        assert (w.x, w.y, w.y_prime, w.x_prime) == (0, 2, 1, 3)
        assert w.pattern == "x<y'<y<x'"

    def test_fixture_swapped_strict_none(self, fixture4):
        assert crossing_violation(fixture4, canonicalize((0, 1, 3, 2)), strict=True) is None

    def test_circle_none(self, circle5):
        assert crossing_violation(circle5, canonicalize(range(5)), strict=True) is None

    def test_precondition_enforced(self, fixture4):
        with pytest.raises(ValueError, match="unimodal"):
            crossing_violation(fixture4, canonicalize((0, 2, 1, 3)), strict=False)

    def test_witness_chain_is_real(self):
        # whenever a witness comes back, its four points sit in the claimed
        # cyclic pattern and really are farthest neighbors
        from circrob import chain_holds

        rng = np.random.default_rng(4242)
        found = 0
        while found < 25:
            D = random_space(int(rng.integers(4, 8)), rng, ints=True)
            order = canonicalize(rng.permutation(D.n))
            if not is_unimodal(D, order).ok:
                continue
            w = crossing_violation(D, order, strict=False)
            if w is None:
                continue
            found += 1
            _, fx = farthest_set(D, w.x)
            _, fy = farthest_set(D, w.y)
            assert w.x_prime in fx and w.y_prime in fy
            assert w.x not in fy and w.x_prime not in fy
            assert w.y not in fx and w.y_prime not in fx
            chain = (
                (w.x, w.x_prime, w.y, w.y_prime)
                if w.pattern == "x<x'<y<y'"
                else (w.x, w.y_prime, w.y, w.x_prime)
            )
            assert chain_holds(order, chain)


class TestIsLinearRobinson:
    def test_line_distance(self):
        assert is_linear_robinson(LINE_D, (0, 1, 2))

    def test_shuffled_line_fails(self):
        assert not is_linear_robinson(LINE_D, (1, 0, 2))

    def test_short_sequences_vacuous(self):
        assert is_linear_robinson(LINE_D, (2, 0))
        assert is_linear_robinson(LINE_D, (1,))

    def test_strict_mode(self):
        assert is_linear_robinson(LINE_D, (0, 1, 2), strict=True)
        D = DissimilarityMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert is_linear_robinson(D, (0, 1, 2))
        assert not is_linear_robinson(D, (0, 1, 2), strict=True)

    def test_repeated_indices_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            is_linear_robinson(LINE_D, (0, 1, 1))

    @pytest.mark.parametrize("seq", [(0, 1.5, 2.9), (0, 2**70)])
    def test_non_integral_rejected(self, seq):
        # (0, 1.5, 2.9) would truncate to the compatible (0, 1, 2)
        with pytest.raises(ValueError, match="not a sequence of indices"):
            is_linear_robinson(LINE_D, seq)

    def test_matches_triple_bruteforce(self):
        # eps applies to each compared pair.  The fixed case passes a rule
        # that applies it to neighbouring row entries only, but along
        # (3, 1, 0, 2) its triple (3, 1, 2) has d(3,2) = .59, more than eps
        # below max(d(3,1), d(1,2)) = .914.
        rng = np.random.default_rng(99)
        fixed = DissimilarityMatrix(
            [[0, .572, .801, .615], [.572, 0, .832, .914], [.801, .832, 0, .59], [.615, .914, .59, 0]]
        )
        cases = [(fixed, [3, 1, 0, 2], 0.31)]
        for _ in range(200):
            n = int(rng.integers(3, 7))
            D = random_space(n, rng, ints=bool(rng.integers(2)))
            seq = [int(v) for v in rng.permutation(n)[: rng.integers(3, n + 1)]]
            cases.append((D, seq, float(rng.choice([0.0, 0.0, 0.05, 0.31]))))
        for D, seq, eps in cases:
            v = D.values
            margins = [
                v[seq[i], seq[k]] - max(v[seq[i], seq[j]], v[seq[j], seq[k]])
                for i in range(len(seq))
                for j in range(i + 1, len(seq))
                for k in range(j + 1, len(seq))
            ]
            for strict in (False, True):
                expect = all(m > eps if strict else m >= -eps for m in margins)
                assert is_linear_robinson(D, seq, strict=strict, eps=eps) == expect
        assert not is_linear_robinson(fixed, [3, 1, 0, 2], eps=0.31)


class TestVerify:
    def test_fixture_natural(self, fixture4):
        rep = verify(fixture4, canonicalize(range(4)))
        assert (rep.quasi, rep.strict_quasi, rep.circular, rep.strict_circular) == (
            True,
            True,
            False,
            False,
        )
        assert "circular" in rep.witnesses

    def test_fixture_swapped_all_true(self, fixture4):
        rep = verify(fixture4, canonicalize((0, 1, 3, 2)))
        assert (rep.quasi, rep.strict_quasi, rep.circular, rep.strict_circular) == (
            True,
            True,
            True,
            True,
        )
        assert rep.witnesses == {}

    def test_fixture_bad_order_all_false(self, fixture4):
        rep = verify(fixture4, canonicalize((0, 2, 1, 3)))
        assert (rep.quasi, rep.strict_quasi, rep.circular, rep.strict_circular) == (
            False,
            False,
            False,
            False,
        )

    def test_json_schema(self, fixture4):
        d = verify(fixture4, canonicalize(range(4))).to_json_dict()
        assert set(d) == {"quasi", "strict_quasi", "circular", "strict_circular", "witness"}
        assert d["witness"] is not None
        clean = verify(fixture4, canonicalize((0, 1, 3, 2))).to_json_dict()
        assert clean["witness"] is None

    def test_witness_key_order(self, fixture4):
        # the quasi witnesses come first, then the circular ones
        bad = verify(fixture4, canonicalize((0, 2, 1, 3))).to_json_dict()
        assert list(bad["witness"]) == ["quasi", "strict_quasi", "circular", "strict_circular"]
        natural = verify(fixture4, canonicalize(range(4))).to_json_dict()
        assert list(natural["witness"]) == ["circular", "strict_circular"]

    @pytest.mark.parametrize(
        "values, seq, eps, text",
        [
            (None, (0, 2, 1, 3), 0.0,
             '{"quasi": false, "strict_quasi": false, "circular": false, "strict_circular": false,'
             ' "witness": {"quasi": {"row": 0, "positions": [1, 2]},'
             ' "strict_quasi": {"row": 0, "positions": [1, 2]},'
             ' "circular": {"row": 0, "positions": [1, 2]},'
             ' "strict_circular": {"row": 0, "positions": [1, 2]}}}'),
            (None, (0, 1, 2, 3), 0.0,
             '{"quasi": true, "strict_quasi": true, "circular": false, "strict_circular": false,'
             ' "witness": {"circular": {"x": 0, "y": 2, "x_prime": 3, "y_prime": 1,'
             ' "pattern": "x<y\'<y<x\'"}, "strict_circular": {"x": 0, "y": 2, "x_prime": 3,'
             ' "y_prime": 1, "pattern": "x<y\'<y<x\'"}}}'),
            (None, (0, 1, 3, 2), 0.0,
             '{"quasi": true, "strict_quasi": true, "circular": true, "strict_circular": true,'
             ' "witness": null}'),
            # the eps = 1 case of test_step_after_plateau_within_eps_rejected
            ([[0, 5, 4, 3], [5, 0, 1, 3], [4, 1, 0, 1], [3, 3, 1, 0]], (0, 1, 2, 3), 1.0,
             '{"quasi": true, "strict_quasi": false, "circular": true, "strict_circular": false,'
             ' "witness": {"strict_quasi": {"row": 0, "positions": [1, 2]},'
             ' "strict_circular": {"row": 0, "positions": [1, 2]}}}'),
        ],
    )
    def test_json_text(self, fixture4, values, seq, eps, text):
        D = fixture4 if values is None else DissimilarityMatrix(values)
        assert json.dumps(verify(D, canonicalize(seq), eps).to_json_dict()) == text

    def test_witnesses_read_only(self, fixture4):
        # one row witness stands under "quasi" and "circular": a write
        # through one key must not reach the other
        rep = verify(circle_instance(6, "chord"), canonicalize([0, 2, 1, 3, 4, 5]))
        assert rep.witnesses["quasi"] == rep.witnesses["circular"] == RowWitness(0, (1, 2))
        with pytest.raises(TypeError):
            rep.witnesses["quasi"] = None
        with pytest.raises(TypeError):
            del rep.witnesses["circular"]
        with pytest.raises(AttributeError):
            rep.witnesses["quasi"].row = 99
        crossing = verify(fixture4, canonicalize(range(4))).witnesses["circular"]
        with pytest.raises(AttributeError):
            crossing.x = 99
        # the report keeps its own copy of the mapping it was built with
        given_witnesses = dict(rep.witnesses)
        built = ClassificationReport(False, False, False, False, given_witnesses)
        given_witnesses.clear()
        assert built.witnesses == rep.witnesses

    @pytest.mark.parametrize(
        "seq",
        [
            (0, 0, 0, 0),
            (0, 1, 2, -1),
            (0, 1, 2, 5),
            (0, 1.5, 2, 3),
            (0, 1, 2, 2**70),
            (0.0, 1.0, 2.0, 3.0),
        ],
    )
    def test_non_permutation_rejected(self, fixture4, seq):
        # a CircularOrder built directly, past canonicalize: a repeated
        # point, a negative index that would wrap, one past the matrix, a
        # non-integral one that would truncate to a point, one too large for
        # any integer dtype, floats with integral values
        order = CircularOrder(seq)
        checks = (
            verify,
            is_unimodal,
            is_strictly_unimodal,
            lambda D, o: crossing_violation(D, o, strict=True),
            pre_circular_by_quadruples,
            quasi_circular_by_quadruples,
            circular_robinson_by_arcs,
        )
        for check in checks:
            with pytest.raises(ValueError, match="not a permutation"):
                check(fixture4, order)

    @pytest.mark.parametrize("eps", [float("nan"), -0.5])
    def test_bad_eps_rejected(self, fixture4, eps):
        # at eps = nan every comparison would be False: the bad order
        # (quasi False at eps = 0) would pass as quasi
        order = canonicalize((0, 2, 1, 3))
        for check in (verify, is_unimodal, is_strictly_unimodal):
            with pytest.raises(ValueError, match="finite number >= 0"):
                check(fixture4, order, eps=eps)
        with pytest.raises(ValueError, match="finite number >= 0"):
            crossing_violation(fixture4, canonicalize(range(4)), strict=True, eps=eps)

    @settings(deadline=None)
    @given(st.integers(3, 7), st.integers(0, 10_000), st.booleans())
    def test_flag_implications_and_reversal(self, n, seed, ints):
        rng = np.random.default_rng(seed)
        D = random_space(n, rng, ints=ints)
        order = canonicalize(rng.permutation(n))
        rep = verify(D, order)
        if rep.strict_quasi:
            assert rep.quasi
        if rep.strict_circular:
            assert rep.circular and rep.strict_quasi
        if rep.circular:
            assert rep.quasi
        rev = verify(D, order.reverse())
        assert (rep.quasi, rep.strict_quasi, rep.circular, rep.strict_circular) == (
            rev.quasi,
            rev.strict_quasi,
            rev.circular,
            rev.strict_circular,
        )


def _dent(rng, values):
    # halve one distance between points a quarter turn apart, both in the
    # second half of the labels: the rows of both points dip there, so their
    # reads break the weak rule
    n = len(values)
    x = int(rng.integers(3 * n // 4, n))
    y = x - n // 4
    values[x, y] = values[y, x] = values[x, y] / 2
    return values


def _drawn_case(rng):
    # n = 280..350: 3 or 4 default blocks, the first ending before n / 2
    from circrob import circle_instance, perturb

    n = int(rng.integers(280, 351))
    kind = int(rng.integers(4))
    if kind == 0:
        values = _quantised_circle(rng, n)
    elif kind == 1:
        values = _ellipse(rng, n)
    elif kind == 2:
        values = random_space(n, rng).values.copy()
    else:
        noise = float(rng.choice([1e-4, 1e-3]))
        base = circle_instance(n, "chord")
        values = perturb(base, noise, seed=int(rng.integers(1 << 30))).values.copy()
    seq = list(range(n))
    if rng.random() < 0.7:
        values = _dent(rng, values)
    else:
        for _ in range(int(rng.integers(1, 3))):
            k = int(rng.integers(n - 1))
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
    return DissimilarityMatrix(values), canonicalize(seq)


def _scan_fields(scan):
    """What verify reads of a scan: both violations, and the arc ends when
    there is no weak violation (the scan then covered every row)."""
    out = {"weak_violation": scan.weak_violation, "strict_violation": scan.strict_violation}
    if scan.weak_violation is None:
        out.update(s_off=scan.s_off.tolist(), e_off=scan.e_off.tolist())
    return out


def test_block_size_invariance(monkeypatch):
    # the outputs of verify and the three readers of its report are the same
    # under blocks of one row, the default blocks of _BLOCK_BYTES and one
    # block covering every row (the full scan, with nothing left to skip),
    # and so is the
    # scan itself on the fixed cases: the first violation in position order
    # wins when several blocks have one, every block writes its rows of the
    # arc ends, and the scan ends at the first block with a weak violation,
    # which holds the first strict one too.
    from circrob import circle_instance, find_compatible_order, perturb

    D = perturb(circle_instance(1500, "chord"), 1e-5, seed=3)
    C = circle_instance(1500, "chord")
    fixed = [
        (D, find_compatible_order(D), 0.0),
        (D, canonicalize(list(range(2, 1500)) + [1, 0]), 0.0),
        (C, find_compatible_order(C), 0.0),
    ]
    # drawn cases; some first break the weak rule in a default block that is
    # neither the first nor the last, so verify's scan both reads several
    # blocks and skips some
    minimums = {"middle_weak": 12, "weak_ok": 4}
    seen = dict.fromkeys(minimums, 0)
    rng = np.random.default_rng(4242)
    drawn = []
    for _ in range(20):
        M, o = _drawn_case(rng)
        rows = verification._BLOCK_BYTES // (16 * M.n)
        for eps in (0.0, 0.05, 0.31):
            drawn.append((M, o, eps))
            scan = verification._scan_rows(M.values, _check_order(M, o), eps)
            if scan.weak_violation is None:
                seen["weak_ok"] += 1
            else:
                block = o.seq.index(scan.weak_violation[0]) // rows
                seen["middle_weak"] += 0 < block < (M.n - 1) // rows
    assert all(seen[k] >= m for k, m in minimums.items()), seen

    def crossing(M, o, strict, eps):
        try:
            return crossing_violation(M, o, strict, eps)
        except ValueError as exc:
            return str(exc)

    def reports():
        out = []
        for M, o, eps in fixed + drawn:
            out.append(verify(M, o, eps).to_json_dict())
            out += [is_unimodal(M, o, eps), is_strictly_unimodal(M, o, eps)]
            out += [crossing(M, o, strict, eps) for strict in (False, True)]
        for M, o, eps in fixed:
            out.append(_scan_fields(verification._scan_rows(M.values, _check_order(M, o), eps)))
        return out

    assert verification._BLOCK_BYTES == 512 << 10  # 21 rows at n = 1500
    blocked = reports()
    # 1 byte: blocks of one row at every n
    for block_bytes in (1, 16 * 1500 * 1500):
        with monkeypatch.context() as m:
            m.setattr(verification, "_BLOCK_BYTES", block_bytes)
            one_size = reports()
        assert one_size == blocked


def test_scan_stops_at_first_weak_block(monkeypatch):
    from circrob import circle_instance, find_compatible_order, perturb

    calls = []
    scan_block = verification._scan_block

    def spy(v, *args):
        calls.append(v.shape[0])
        return scan_block(v, *args)

    monkeypatch.setattr(verification, "_scan_block", spy)
    n = 1500
    rows = verification._BLOCK_BYTES // (16 * n)
    # both rules break at position 0 of the perturbed circle's order: every
    # reader reads one block, and the crossing test refuses the order
    D = perturb(circle_instance(n, "chord"), 1e-3, seed=3)
    order = find_compatible_order(D)
    rep = verify(D, order)
    assert not rep.quasi and rep.witnesses["quasi"].row == 0
    assert calls == [rows]
    for reader in (is_unimodal, is_strictly_unimodal):
        calls.clear()
        assert reader(D, order).violating_row == 0
        assert calls == [rows]
    for strict in (False, True):
        calls.clear()
        with pytest.raises(ValueError, match="crossing test requires"):
            crossing_violation(D, order, strict)
        assert calls == [rows]
    # a clean circle: every reader reads every block
    C = circle_instance(n, "chord")
    order = find_compatible_order(C)
    for read in (
        lambda: verify(C, order).strict_circular,
        lambda: is_unimodal(C, order).ok,
        lambda: is_strictly_unimodal(C, order).ok,
        lambda: crossing_violation(C, order, False) is None,
        lambda: crossing_violation(C, order, True) is None,
    ):
        calls.clear()
        assert read()
        assert len(calls) == -(-n // rows) and sum(calls) == n


class TestDefinitionEquivalences:
    def test_unimodality_equals_quadruple_sweeps(self):
        rng = np.random.default_rng(31337)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            D = random_space(n, rng, ints=bool(rng.integers(2)))
            for order in enumerate_circular_orders(n):
                assert is_unimodal(D, order).ok == quasi_circular_by_quadruples(D, order, False)
                assert (
                    is_strictly_unimodal(D, order).ok
                    == quasi_circular_by_quadruples(D, order, True)
                )

    def test_unimodal_orders_make_balls_arcs(self):
        rng = np.random.default_rng(2024)
        hits = 0
        while hits < 40:
            n = int(rng.integers(4, 8))
            D = random_space(n, rng, ints=True)
            order = canonicalize(rng.permutation(n))
            if not is_unimodal(D, order).ok:
                continue
            hits += 1
            pos = {p: i for i, p in enumerate(order.seq)}
            for x in range(n):
                for r in np.unique(D.values):
                    ball = [y for y in range(n) if D.values[x, y] <= r]
                    if len(ball) in (0, n):
                        continue
                    spans = sorted((pos[y] - pos[x]) % n for y in ball)
                    # ball must be contiguous around x in the cyclic order
                    gaps = [b - a for a, b in zip(spans, spans[1:])]
                    wrap = spans[0] + n - spans[-1]
                    assert sum(g > 1 for g in gaps + [wrap]) <= 1, (D.values, order.seq, x, r)

    def test_strict_rows_have_value_multiplicity_two(self):
        rng = np.random.default_rng(555)
        hits = 0
        while hits < 40:
            n = int(rng.integers(4, 8))
            D = random_space(n, rng, ints=bool(rng.integers(2)))
            order = canonicalize(rng.permutation(n))
            if not is_strictly_unimodal(D, order).ok:
                continue
            hits += 1
            for x in range(n):
                row = [D.values[x, y] for y in range(n) if y != x]
                for value in set(row):
                    assert row.count(value) <= 2


def test_arc_restriction_matches_arc_between(fixture4):
    # the two arc readings used by the arc-based oracle partition the circle,
    # and each reads as is_linear_robinson does on its run of points
    order = canonicalize((0, 1, 3, 2))
    seq = np.array(order.seq)
    runs = (order.seq[0:3], order.seq[2:] + order.seq[:1])
    assert set(runs[0]) | set(runs[1]) == {0, 1, 2, 3}
    _, triples, arcs = _position_tables(4)
    pair = list(combinations(range(4), 2)).index((0, 2))
    readings = []
    for k, run in enumerate(runs):
        inside = [tuple(t) for t in seq[triples[:, arcs[2 * pair + k]]].T.tolist()]
        assert sorted(inside) == sorted(combinations(run, 3))
        reading = all(is_linear_robinson(fixture4, t) for t in inside)
        assert reading == is_linear_robinson(fixture4, run)
        readings.append(reading)
    assert any(readings)


def _quantised_circle(rng, n):
    # arc distances on a random circle, rounded up to one of q levels
    q = int(rng.integers(2, 7))
    a = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    d = np.abs(a[:, None] - a[None, :])
    v = np.ceil(np.minimum(d, 2 * np.pi - d) * q / np.pi)
    np.fill_diagonal(v, 0.0)
    return v


def _ellipse(rng, n):
    # Euclidean distances on an ellipse, exact or rounded up to q levels:
    # rows are often unimodal while farthest arcs of nearby points cross
    t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    pts = np.stack([np.cos(t), rng.uniform(0.2, 1.0) * np.sin(t)], axis=1)
    v = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=-1))
    if rng.random() < 0.5:
        v = np.ceil(v * int(rng.integers(2, 7)) / v.max())
        np.fill_diagonal(v, 0.0)
    return v


def _near_even_circle(rng, n):
    # chord distances of points jittered off an even circle, plus small
    # symmetric noise
    jitter, scale = rng.uniform(0, 0.4), rng.uniform(0, 0.02)
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
    noise = np.triu(rng.uniform(-scale, scale, (n, n)), 1)
    return 2 * np.sin(np.abs(angles[:, None] - angles[None, :]) / 2) + noise + noise.T


def _first_crossing(D, order, strict):
    """First pair (x, y) in position order, then pattern, straight from
    farthest_set, pair by pair; x' and y' are the qualifying farthest
    neighbors nearest to x and to y."""
    seq = order.seq
    n = len(seq)
    far = [farthest_set(D, x)[1] for x in range(n)]
    for p in range(n):
        for t in range(1, n):
            x, y = seq[p], seq[(p + t) % n]
            xy = [seq[(p + k) % n] for k in range(1, t)]
            yx = [seq[(p + k) % n] for k in range(t + 1, n)]
            fx, fy = far[x], far[y]
            if not strict and (x in fy or y in fx):
                continue
            # each side listed outward from the point whose neighbor it holds
            for pattern, x_side, y_side in (
                ("x<x'<y<y'", xy, yx),
                ("x<y'<y<x'", yx[::-1], xy[::-1]),
            ):
                xs = [a for a in x_side if a in fx and (strict or a not in fy)]
                ys = [b for b in y_side if b in fy and (strict or b not in fx)]
                if xs and ys:
                    return x, y, xs[0], ys[0], pattern
    return None


class TestMidSizeDifferential:
    """verify against the quadruple definitions at n = 9..14: all four flags
    and the crossing witnesses at eps = 0, the quasi flags at eps > 0 too,
    there also on a copy of the draw symmetric only within eps, and the
    strict circular flag at eps > 0; then, at n = 9..60, the construction
    against verify on planted orders."""

    MINIMUMS = {
        "quasi_not_circular": 20,
        "strict_quasi": 20,
        "strict_not_circular": 15,
        # draws where eps > 0 changes a quasi flag from its eps = 0 value
        "eps_changes_quasi": 25,
        "eps_changes_strict": 25,
    }
    EPS = (0.05, 0.31)

    def test_flags_and_witnesses_match_definitions(self, monkeypatch):
        rng = np.random.default_rng(90210)
        noise = np.random.default_rng(90211)  # its own stream: the draws do not shift
        seen = dict.fromkeys(self.MINIMUMS, 0)
        drawn = 0
        while any(seen[k] < m for k, m in self.MINIMUMS.items()):
            drawn += 1
            assert drawn <= 3000, seen
            n = int(rng.integers(9, 15))
            D = DissimilarityMatrix(
                (_quantised_circle if rng.random() < 0.5 else _ellipse)(rng, n)
            )
            seq = list(range(n))
            for _ in range(int(rng.integers(0, 3))):
                k = int(rng.integers(n - 1))
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
            order = canonicalize(seq)

            rep = verify(D, order)
            assert (rep.quasi, rep.strict_quasi, rep.circular, rep.strict_circular) == (
                quasi_circular_by_quadruples(D, order, False),
                quasi_circular_by_quadruples(D, order, True),
                pre_circular_by_quadruples(D, order, False),
                pre_circular_by_quadruples(D, order, True),
            ), (D.values.tolist(), seq)
            changed = {"quasi": False, "strict_quasi": False}
            for eps in self.EPS:
                rep_eps = verify(D, order, eps)
                assert (rep_eps.quasi, rep_eps.strict_quasi) == (
                    quasi_circular_by_quadruples(D, order, False, eps),
                    quasi_circular_by_quadruples(D, order, True, eps),
                ), (D.values.tolist(), seq, eps)
                noisy = D.values + np.triu(noise.uniform(0, eps / 2, (n, n)), 1)
                D_noisy = DissimilarityMatrix(noisy, eps)
                rep_noisy = verify(D_noisy, order, eps)
                assert (rep_noisy.quasi, rep_noisy.strict_quasi) == (
                    quasi_circular_by_quadruples(D_noisy, order, False, eps),
                    quasi_circular_by_quadruples(D_noisy, order, True, eps),
                ), (noisy.tolist(), seq, eps)
                changed["quasi"] |= rep_eps.quasi != rep.quasi
                changed["strict_quasi"] |= rep_eps.strict_quasi != rep.strict_quasi

            for strict, unimodal, circular in (
                (False, rep.quasi, rep.circular),
                (True, rep.strict_quasi, rep.strict_circular),
            ):
                if not unimodal or circular:
                    continue
                w = rep.witnesses["strict_circular" if strict else "circular"]
                assert (w.x, w.y, w.x_prime, w.y_prime, w.pattern) == _first_crossing(
                    D, order, strict
                )

            for rows in (1, 3):
                monkeypatch.setattr(verification, "_BLOCK_BYTES", rows * 16 * n)
                assert verify(D, order).to_json_dict() == rep.to_json_dict()
            monkeypatch.undo()

            seen["quasi_not_circular"] += rep.quasi and not rep.circular
            seen["strict_quasi"] += rep.strict_quasi
            seen["strict_not_circular"] += rep.strict_quasi and not rep.strict_circular
            seen["eps_changes_quasi"] += changed["quasi"]
            seen["eps_changes_strict"] += changed["strict_quasi"]

    STRICT_MINIMUMS = {"strict_quasi": 300, "strict_circular": 200, "eps_changes_flag": 50}

    def test_strict_circular_at_positive_eps(self):
        # near-even chord circles, jittered and with small symmetric noise:
        # on a strictly unimodal order the failing offsets of each row form
        # an interval, so the strict crossing rule is exact at eps > 0 too
        rng = np.random.default_rng(4242)
        seen = dict.fromkeys(self.STRICT_MINIMUMS, 0)
        drawn = 0
        while any(seen[k] < m for k, m in self.STRICT_MINIMUMS.items()):
            drawn += 1
            assert drawn <= 2000, seen
            n = int(rng.integers(9, 15))
            D = DissimilarityMatrix(_near_even_circle(rng, n))
            order = canonicalize(range(n))
            at_zero = verify(D, order).strict_circular
            for eps in (0.02, 0.05):
                rep = verify(D, order, eps)
                if not rep.strict_quasi:
                    continue
                assert rep.strict_circular == pre_circular_by_quadruples(D, order, True, eps), (
                    D.values.tolist(),
                    eps,
                )
                seen["strict_quasi"] += 1
                seen["strict_circular"] += rep.strict_circular
                seen["eps_changes_flag"] += rep.strict_circular != at_zero

    COMPLETE_MINIMUMS = {
        "strict_quasi": 150,
        "strict_quasi_at_eps": 30,
        "strict_circular_at_eps": 20,
        "strict_quasi_not_circular": 10,
        "two_orders": 60,
        "pick_checked": 120,
    }

    def test_construction_finds_planted_orders(self):
        # completeness beyond the oracle's n <= 8: an order planted on
        # shuffled labels that verify accepts for a strict class is among
        # the orders compatible_orders keeps for it, at eps = 0 the
        # construction's pick is one of the strict quasi orders, and two
        # orders come back only split by their bipartition
        rng = np.random.default_rng(60606)
        seen = dict.fromkeys(self.COMPLETE_MINIMUMS, 0)
        drawn = 0
        while any(seen[k] < m for k, m in self.COMPLETE_MINIMUMS.items()):
            drawn += 1
            assert drawn <= 1000, seen
            n, kind = int(rng.integers(9, 61)), int(rng.integers(3))
            if kind == 0:
                values = _near_even_circle(rng, n)
            elif kind == 1:
                # scaled up, many two-cluster spaces stay strict at eps > 0
                k, seed = int(rng.integers(2, n - 1)), int(rng.integers(1 << 30))
                values = 1000 * two_cluster_instance(k, n - k, seed=seed).values
            else:
                values = _ellipse(rng, n)
            perm = rng.permutation(n)
            D = DissimilarityMatrix(values[np.ix_(perm, perm)])
            planted = canonicalize(np.argsort(perm).tolist())
            for eps in (0.0, 0.02, 0.05):
                rep = verify(D, planted, eps)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TieWarning)
                    quasi = compatible_orders(D, "strict-quasi", eps)
                    circular = compatible_orders(D, "strict-circular", eps)
                    pick = find_compatible_order(D) if eps == 0.0 else None
                case = (values.tolist(), perm.tolist(), eps)
                for accepted, s in ((rep.strict_quasi, quasi), (rep.strict_circular, circular)):
                    if accepted:
                        assert planted in s.orders, case
                    if len(s.orders) == 2:
                        assert split_by_reversal(s), case
                        seen["two_orders"] += 1
                if pick is not None and quasi.orders:
                    assert pick in quasi.orders, case
                    seen["pick_checked"] += 1
                seen["strict_quasi"] += rep.strict_quasi
                seen["strict_quasi_at_eps"] += bool(eps) and rep.strict_quasi
                seen["strict_circular_at_eps"] += bool(eps) and rep.strict_circular
                seen["strict_quasi_not_circular"] += rep.strict_quasi and not rep.strict_circular


def _read(seq, p):
    """The points of the circular read of the row at position p."""
    n = len(seq)
    return np.array([seq[(p + k) % n] for k in range(1, n)], dtype=np.intp)


def _read_margins(values, seq, p, i, j, k):
    """The qcr margin of entries i < j < k of row p's read: with z the row
    point, the chain x < y < z < t is (read[j], read[k], z, read[i])."""
    pts = _read(seq, p)
    return _qcr_margin(values, pts[j], pts[k], seq[p], pts[i])


def _reference_scan(values, seq, eps):
    """A full row scan rebuilt row by row: per row, both flags from the
    qcr/sqcr margin on every triple i < j < k of its circular read, the size
    and ends of its plateau at the maximum; the first witness of each kind
    from the documented step rule, (first + 1, last + 1), entry by entry."""
    n = len(seq)
    out = {k: [] for k in ("weak_ok", "strict_ok", "max_count", "s_off", "e_off")}
    out["weak_violation"] = out["strict_violation"] = None
    for p in range(n):
        row = [values[seq[p], x] for x in _read(seq, p)]
        L = len(row)
        i, j, k = np.ogrid[:L, :L, :L]
        inside = np.broadcast_to((i < j) & (j < k), (L, L, L))
        margins = _read_margins(values, seq, p, i, j, k)[inside]
        top = max(row)
        plateau = [e for e, x in enumerate(row) if x >= top - eps]
        steps = range(L - 1)  # step s joins entries s and s+1
        # weak: a fall (entry s+1 more than eps below an earlier entry)
        # before a rise (entry s more than eps below a later one); strict: a
        # step not rising by more than eps before one not falling by more
        breaks = {
            "weak": (
                [s for s in steps if row[s + 1] - max(row[: s + 1]) < -eps],
                [s for s in steps if row[s] - max(row[s + 1 :]) < -eps],
            ),
            "strict": (
                [s for s in steps if not row[s + 1] - row[s] > eps],
                [s for s in steps if not row[s + 1] - row[s] < -eps],
            ),
        }
        for key, val in (
            ("weak_ok", bool(np.all(_holds(margins, False, eps)))),
            ("strict_ok", bool(np.all(_holds(margins, True, eps)))),
            ("max_count", len(plateau)), ("s_off", plateau[0] + 1), ("e_off", plateau[-1] + 1),
        ):
            out[key].append(val)
        for kind, (before, after) in breaks.items():
            if not out[kind + "_ok"][-1] and out[kind + "_violation"] is None:
                first = before[0] if before else L - 1
                last = after[-1] if after else -1
                out[kind + "_violation"] = (seq[p], (first + 1, last + 1))
    return out


class TestRowScan:
    MINIMUMS = {"weak_ok": 50, "strict_ok": 20, "weak_bad": 50, "narrow_bad": 50, "wide_bad": 50}

    def test_matches_per_row_reference(self, monkeypatch):
        # blocks of 1 row, 3 rows and the whole matrix: a block's column
        # window wraps past the end of the order, and the last block is
        # often partial
        rng = np.random.default_rng(8128)
        seen = dict.fromkeys(self.MINIMUMS, 0)
        for _ in range(400):
            # small n half the time: a random row then often passes all but
            # one strict rule
            n = int(rng.integers(2, 9 if rng.random() < 0.5 else 41))
            kind = int(rng.integers(4))
            if kind < 2:
                values = random_space(n, rng, ints=kind == 0).values
            else:
                values = (_quantised_circle if kind == 2 else _ellipse)(rng, n)
            seq = list(range(n))
            if rng.random() < 0.3:
                seq = [int(i) for i in rng.permutation(n)]
            elif n > 1:
                for _ in range(int(rng.integers(0, 3))):
                    k = int(rng.integers(n - 1))
                    seq[k], seq[k + 1] = seq[k + 1], seq[k]
            D, order = DissimilarityMatrix(values), canonicalize(seq)
            eps = float(rng.choice([0.0, 1e-9, 0.3, 1.0]))
            expect = _reference_scan(D.values, order.seq, eps)
            for rows in (1, 3, n):
                monkeypatch.setattr(verification, "_BLOCK_BYTES", rows * 16 * n)
                # both violations always; the arc ends when no row breaks
                # the weak rule, the only scans the crossing test reads
                got = _scan_fields(verification._scan_rows(D.values, _check_order(D, order), eps))
                assert got == {k: expect[k] for k in got}, (values.tolist(), seq, eps, rows)
            # the witness certifies the failure: the least entry among a..b-1
            # breaks the margin against the largest before a and from b on
            for strict in (False, True):
                violation = expect["strict_violation" if strict else "weak_violation"]
                if violation is None:
                    continue
                point, (a, b) = violation
                p = order.seq.index(point)
                row = np.array([D.values[point, x] for x in _read(order.seq, p)])
                i, k = int(row[:a].argmax()), b + int(row[b:].argmax())
                j = a + int(row[a:b].argmin())
                margin = _read_margins(D.values, order.seq, p, i, j, k)
                assert not _holds(margin, strict, eps), (values.tolist(), seq, eps, strict)
            seen["weak_ok"] += expect["weak_violation"] is None
            seen["strict_ok"] += expect["strict_violation"] is None
            seen["weak_bad"] += expect["weak_violation"] is not None
            if expect["strict_violation"] is not None:
                row = order.seq.index(expect["strict_violation"][0])
                narrow = expect["max_count"][row] <= 2 and (
                    expect["e_off"][row] - expect["s_off"][row] == expect["max_count"][row] - 1
                )
                seen["narrow_bad" if narrow else "wide_bad"] += 1
        assert all(seen[k] >= m for k, m in self.MINIMUMS.items()), seen

    def test_verify_peak_memory_at_n_4000(self):
        # the scan holds one gathered block of about _BLOCK_BYTES and its
        # masks, the crossing test a few key arrays of 2n entries (~64 KiB
        # each); (64, n-1) index arrays, or the whole gathered matrix, would
        # not fit
        import tracemalloc

        from circrob import circle_instance

        D = circle_instance(4000, "chord")
        order = canonicalize(range(4000))
        tracemalloc.start()
        try:
            assert verify(D, order).strict_circular
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak

    # Blocks whose rows all pass the strict rule take the arc ends from the
    # first argmax alone; a block with any other row runs the full rules.
    ACCEPT_CASES = {
        # cycle distances on 5 points, d(0, 3) raised by 0.05: row 0 reads
        # 1, 2, 2.05, 1 (at eps = 0.1 the step within eps comes just before
        # the peak) and row 3 reads 1, 2.05, 2, 1 (just after it)
        "within_eps_beside_peak": (
            [
                [0, 1, 2, 2.05, 1],
                [1, 0, 1, 2, 2],
                [2, 1, 0, 1, 2],
                [2.05, 2, 1, 0, 1],
                [1, 2, 2, 1, 0],
            ],
            False,
        ),
        # reads 1, 1.05 / 1.02, 1 / 1.05, 1.02: peaks at the first and the
        # last entry, each with a neighbour within eps = 0.1
        "peak_at_read_ends": ([[0, 1, 1.05], [1, 0, 1.02], [1.05, 1.02, 0]], False),
        # points 0, 1, 3, 6 on a line: reads 1, 3, 6 / 2, 5, 1 / 3, 3, 2 / 6, 5, 3
        "line": (np.abs(np.subtract.outer([0, 1, 3, 6], [0, 1, 3, 6])), False),
        # rows 1-3 pass the strict rule; row 0 reads three equal maxima, so
        # it passes only the weak one and its block must fall back
        "weak_only_row": (
            [[0, 1, 1, 1], [1, 0, 0.5, 2], [1, 0.5, 0, 0.4], [1, 2, 0.4, 0]],
            True,
        ),
    }

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.1])
    @pytest.mark.parametrize("case", sorted(ACCEPT_CASES))
    def test_accept_path_matches_reference(self, monkeypatch, case, eps):
        values, strict_bad = self.ACCEPT_CASES[case]
        D = DissimilarityMatrix(values)
        seq = tuple(range(D.n))
        expect = _reference_scan(D.values, seq, eps)
        assert expect["weak_violation"] is None
        assert (expect["strict_violation"] is not None) == strict_bad
        for rows in (1, D.n):
            monkeypatch.setattr(verification, "_BLOCK_BYTES", rows * 16 * D.n)
            got = _scan_fields(verification._scan_rows(D.values, np.arange(D.n), eps))
            assert got == {k: expect[k] for k in got}, (case, eps, rows)


# eps > 0.  The quasi case passes only if eps applies to every pair of a row
# read: applied to neighbouring entries alone, verify accepts the order.
# The circular case: the crossing test reads farthest arcs taken within eps
# of each row maximum, and verify accepts an order the definitions reject.
_EPS_QUASI = (
    [
        [0, 1.101, 1.287, 2.267, 2.035],
        [1.101, 0, 0.707, 0.83, 2.055],
        [1.287, 0.707, 0, 0.966, 0.964],
        [2.267, 0.83, 0.966, 0, 1.161],
        [2.035, 2.055, 0.964, 1.161, 0],
    ],
    (0, 1, 2, 4, 3),
)
_EPS_CIRCULAR = (
    [
        [0, 2.112, 1.749, 1.896, 1.143, 1.214],
        [2.112, 0, 0.799, 2.283, 1.862, 2.073],
        [1.749, 0.799, 0, 2.211, 2.268, 1.997],
        [1.896, 2.283, 2.211, 0, 1.893, 2.255],
        [1.143, 1.862, 2.268, 1.893, 0, 1.021],
        [1.214, 2.073, 1.997, 2.255, 1.021, 0],
    ],
    (0, 4, 3, 2, 1, 5),
)


# Symmetric only within eps: the row scan and the definitions both read the
# stored lower triangle.
_EPS_ASYMMETRIC = (
    [[0, 2.5, 1.2, 1.4], [2.6, 0, 2.6, 2.2], [1.1, 2.7, 0, 1.2], [1.4, 2.3, 1.1, 0]],
    (0, 1, 2, 3),
    0.3,
)


@pytest.mark.parametrize(
    "rows, seq, eps",
    [
        pytest.param(*_EPS_QUASI, 0.31, id="quasi"),
        pytest.param(*_EPS_ASYMMETRIC, id="asymmetric"),
        pytest.param(
            *_EPS_CIRCULAR,
            0.31,
            id="circular",
            marks=pytest.mark.xfail(
                raises=AssertionError,
                strict=True,
                reason="the crossing rule reads farthest arcs within eps of the row maximum",
            ),
        ),
    ],
)
def test_positive_eps_matches_definitions(rows, seq, eps):
    D, order = DissimilarityMatrix(rows, eps), canonicalize(seq)
    rep = verify(D, order, eps)
    assert (rep.quasi, rep.circular) == (
        quasi_circular_by_quadruples(D, order, False, eps),
        pre_circular_by_quadruples(D, order, False, eps),
    )


def _block_crossing(order_arr, S, E, strict):
    """The (64, n-1) pair-block crossing rule, kept as the reference for the
    running-extremum sweep: every pair (x at position p, y at offset t)
    tested at once, first hit in position order."""
    n = S.size
    if n < 4:
        return None
    t = np.arange(1, n)
    for start in range(0, n, 64):
        P = np.arange(start, min(start + 64, n))[:, None]
        Q = (P + t) % n
        sx, ex, sy, ey = S[P], E[P], S[Q], E[Q]
        pat1 = (sx < t) & (sy < n - t)
        pat2 = (ex > t) & (ey > n - t)
        if not strict:
            pair_ok = ~((sx <= t) & (t <= ex)) & ~((sy <= n - t) & (n - t <= ey))
            pat1 &= pair_ok
            pat2 &= pair_ok
        hits = pat1 | pat2
        if not hits.any():
            continue
        b, j = divmod(int(hits.argmax()), n - 1)
        p, q = start + b, int(Q[b, j])
        ends, pattern = (S, "x<x'<y<y'") if pat1[b, j] else (E, "x<y'<y<x'")
        return verification.CrossingWitness(
            x=int(order_arr[p]),
            y=int(order_arr[q]),
            x_prime=int(order_arr[(p + ends[p]) % n]),
            y_prime=int(order_arr[(q + ends[q]) % n]),
            pattern=pattern,
        )
    return None


def _random_arcs(rng, n):
    """Farthest-arc ends 1 <= S <= E <= n-1: uniform, or around the opposite
    point as on a circle, with about one end pinned to S = n-1, E = S or
    E = n-1."""
    if rng.random() < 0.3:
        S = rng.integers(1, n, n)
        E = S + (rng.integers(0, n - S) if rng.random() < 0.5 else 0)
    else:
        # opposite-point arcs of an evenly spaced circle, a few ends moved
        S = np.full(n, n // 2) + rng.integers(-1, 2, n) * (rng.random(n) < 2 / n)
        E = S + n % 2 + rng.integers(-1, 2, n) * (rng.random(n) < 2 / n)
        S, E = np.clip(S, 1, n - 1), np.clip(E, 1, n - 1)
    pinned = rng.random(n) < 1.0 / n
    choice = rng.integers(0, 3, n)
    S = np.where(pinned & (choice == 0), n - 1, S)
    E = np.where(pinned & (choice == 2), n - 1, E)
    E = np.where((pinned & (choice == 1)) | (E < S), S, E)
    return S.astype(np.intp), E.astype(np.intp)


def _arc_scan(S, E):
    # the crossing test reads only the arc ends of a scan
    return verification._RowScan(S, E, None, None)


class TestRangeMinSweep:
    """_crossing_from_scan against the pair-block rule on synthetic arcs."""

    def test_matches_block_rule(self):
        rng = np.random.default_rng(5150)

        def check(S, E):
            order_arr = rng.permutation(S.size)
            scan = _arc_scan(S, E)
            found = {}
            for strict in (False, True):
                got = found[strict] = verification._crossing_from_scan(order_arr, scan, strict)
                assert got == _block_crossing(order_arr, S, E, strict), (
                    S.tolist(), E.tolist(), strict
                )
            return found

        no_hit = {False: 0, True: 0}
        hit = {False: 0, True: 0}
        drawn = 0
        while min(no_hit.values()) < 200 or min(hit.values()) < 200:
            drawn += 1
            assert drawn <= 5000, (no_hit, hit)
            for strict, got in check(*_random_arcs(rng, int(rng.integers(4, 65)))).items():
                (hit if got else no_hit)[strict] += 1
        # the window ends: position n-1 with S = E = n-1 starts its pattern-1
        # window at the last index 2n-1; S = E = 1 everywhere leaves every
        # pattern-2 window empty, S = E = n-1 every pattern-1 window
        for n in (4, 5, 64):
            S, E = _random_arcs(rng, n)
            S[-1] = E[-1] = n - 1
            for arcs in ((S, E), (np.ones(n, np.intp),) * 2, (np.full(n, n - 1, np.intp),) * 2):
                check(*arcs)

    def test_peak_memory_at_n_10000(self):
        # the running extrema hold a few arrays of 2n keys; the pair blocks
        # they replace held (64, n-1) arrays, ~27 MiB at this n
        import tracemalloc

        n = 10_000
        half = np.full(n, n // 2, dtype=np.intp)
        scan = _arc_scan(half, half.copy())
        order_arr = np.arange(n)
        for strict in (False, True):
            tracemalloc.start()
            try:
                assert verification._crossing_from_scan(order_arr, scan, strict) is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2**20, peak
