import warnings

import numpy as np
import pytest

from circrob import (
    DissimilarityMatrix,
    TieWarning,
    bipartition_criterion,
    canonicalize,
    circle_instance,
    compatible_orders,
    counterexample_fixture,
    find_compatible_order,
    oracle_classify,
    orders_agree,
    perturb,
    sqcr,
    two_cluster_instance,
    verify,
)
from circrob.recognition import _cut, _j_mask
from conftest import mixed_small_space, random_space, split_by_reversal


def j_set(D, x, y):
    return set(np.flatnonzero(_j_mask(D.values, x, y, 0.0)).tolist())


def near_far(D):
    # the cut at point 0: (x', N, F, meet), with x' the first farthest point
    # of 0 and N, F, meet the points at least as close to 0 as to x', vice
    # versa, and both
    x_prime, in_N, meet = _cut(D.values, 0.0)
    masks = (in_N, ~in_N | meet, meet)
    return (x_prime, *(set(np.flatnonzero(m).tolist()) for m in masks))


class TestJSet:
    def test_fixture_no_interior(self, fixture4):
        assert j_set(fixture4, 0, 1) == {0, 1}

    def test_circle_interior(self, circle5):
        assert j_set(circle5, 0, 2) == {0, 1, 2}

    def test_contains_endpoints(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            D = random_space(int(rng.integers(2, 7)), rng)
            x, y = rng.permutation(D.n)[:2]
            assert {int(x), int(y)} <= j_set(D, int(x), int(y))


class TestNearFarPartition:
    def test_fixture(self, fixture4):
        assert near_far(fixture4) == (3, {0, 1}, {2, 3}, set())

    def test_circle(self, circle5):
        assert near_far(circle5) == (2, {0, 1, 4}, {1, 2, 3}, {1})

    def test_two_points(self):
        D = DissimilarityMatrix([[0, 5], [5, 0]])
        assert near_far(D) == (1, {0}, {1}, set())

    def test_covers_everything(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            D = random_space(int(rng.integers(2, 8)), rng)
            from circrob import farthest_set

            _, fx = farthest_set(D, 0)
            x_prime, N, F, meet = near_far(D)
            assert x_prime == min(fx)
            assert N | F == set(range(D.n))
            assert meet == N & F
            assert 0 in N and min(fx) in F


class TestOrdersAgree:
    def test_fixture_straight(self, fixture4):
        assert orders_agree(fixture4, (0, 1), (2, 3))

    def test_fixture_flipped(self, fixture4):
        # (0,1,3,2) is the strictly circular order, also fine
        assert orders_agree(fixture4, (0, 1), (3, 2))

    def test_singleton_side(self, fixture4):
        assert orders_agree(fixture4, (0,), (1, 2, 3))

    def test_overlap_rejected(self, fixture4):
        with pytest.raises(ValueError, match="overlap"):
            orders_agree(fixture4, (0, 1), (1, 2, 3))

    def test_non_cover_rejected(self, fixture4):
        with pytest.raises(ValueError, match="cover"):
            orders_agree(fixture4, (0, 1), (2,))
        with pytest.raises(ValueError, match="nonempty"):
            orders_agree(fixture4, (), (0, 1, 2, 3))

    @pytest.mark.parametrize(
        "X_N", [[0, 1.7, 2.2], np.array([0.0, 1.0, 2.0])], ids=["list", "ndarray"]
    )
    def test_non_integer_index_rejected(self, X_N):
        # [0, 1.7, 2.2] would truncate to (0, 1, 2), which agrees with (3, 4, 5)
        with pytest.raises(ValueError, match="not a sequence of indices"):
            orders_agree(circle_instance(6, "arc"), X_N, [3, 4, 5])

    def test_rejects_wrong_composition_of_circle(self):
        # natural halves of the 6-circle, second half reversed: the straight
        # composition is wrong and must be flagged
        C = circle_instance(6, "arc")
        assert orders_agree(C, (0, 1, 2), (3, 4, 5))
        assert not orders_agree(C, (0, 1, 2), (5, 4, 3))

    def test_matches_pointwise_sqcr(self):
        # reference: the four families written out point by point with sqcr
        def reference(D, xn, xf, eps):
            def holds(a, b, c, d):
                rotations = ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c))
                return all(sqcr(D, q, eps) for q in rotations)

            families = (
                [(a, xn[-1], xf[0], xf[1]) for a in xn[:-1]]
                + [(a, xf[-2], xf[-1], xn[0]) for a in xn[1:]]
                + [(a, xf[-1], xn[0], xn[1]) for a in xf[:-1]]
                + [(a, xn[-2], xn[-1], xf[0]) for a in xf[1:]]
            )
            return all(holds(*chain) for chain in families)

        # circles in their true order with one or two entries redrawn, so
        # that the outcome often hinges on a single quadruple
        rng = np.random.default_rng(404)
        outcomes = set()
        for _ in range(1000):
            n = int(rng.integers(5, 9))
            v = circle_instance(n, "chord", np.sort(rng.uniform(0, 2 * np.pi, n))).values.copy()
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.choice(n, 2, replace=False)
                v[i, j] = v[j, i] = rng.uniform(0.05, 2.0)
            D = DissimilarityMatrix(v)
            k = int(rng.integers(2, n - 1))
            xn, xf = list(range(k)), list(range(k, n))[:: int(rng.choice([1, -1]))]
            eps = float(rng.choice([0.0, 0.05]))
            got = orders_agree(D, xn, xf, eps)
            assert got == reference(D, xn, xf, eps)
            outcomes.add(got)
        assert outcomes == {True, False}


class TestFindCompatibleOrder:
    def test_fixture(self, fixture4):
        assert find_compatible_order(fixture4).seq == (0, 1, 2, 3)

    def test_circle5(self, circle5):
        assert find_compatible_order(circle5).seq == (0, 1, 2, 3, 4)

    def test_singleton(self):
        D = DissimilarityMatrix([[0.0]])
        assert find_compatible_order(D).seq == (0,)

    def test_pair(self):
        D = DissimilarityMatrix([[0, 2], [2, 0]])
        assert find_compatible_order(D).seq == (0, 1)

    def test_odd_circle_with_farthest_pair_tie(self):
        # n = 7 arc circle: both farthest neighbors of 0 fall into the sorted
        # arc and tie at the eccentricity; must still recover the cycle
        C = circle_instance(7, "arc")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not even warn
            order = find_compatible_order(C)
        assert order == canonicalize(range(7))

    def test_total_on_non_strict_input(self, equilateral4):
        order = find_compatible_order(equilateral4)
        assert sorted(order.seq) == [0, 1, 2, 3]

    def test_tie_warning_on_flat_input(self):
        EQ5 = DissimilarityMatrix(np.ones((5, 5)) - np.eye(5))
        with pytest.warns(TieWarning):
            find_compatible_order(EQ5)

    @pytest.mark.parametrize("entry", [find_compatible_order, compatible_orders])
    def test_tie_warning_points_at_caller(self, entry):
        EQ5 = DissimilarityMatrix(np.ones((5, 5)) - np.eye(5))
        with pytest.warns(TieWarning) as record:
            entry(EQ5)
        assert {w.filename for w in record} == {__file__}


class TestDistSorted:
    # a stable sort by key, then index, warning on equal keys; the far arc
    # extremity x' is appended by the construction itself, which
    # test_odd_circle_with_farthest_pair_tie covers
    def test_ties_by_index_and_warned(self):
        from circrob.recognition import _dist_sorted

        pts = np.arange(6)
        key = np.array([1.0, 1.0, 0.5, 1.0, 3.0, 2.0])
        with pytest.warns(TieWarning):
            assert _dist_sorted(pts, key).tolist() == [2, 0, 1, 3, 5, 4]
        with pytest.warns(TieWarning):
            out = _dist_sorted(pts, key, descending=True)
        assert out.tolist() == [4, 5, 0, 1, 3, 2]

    def test_distinct_keys_are_silent(self):
        from circrob.recognition import _dist_sorted

        key = np.array([1.0, 1.5, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _dist_sorted(np.arange(4), key).tolist() == [2, 0, 1, 3]
            out = _dist_sorted(np.array([1, 2, 3]), key, descending=True)
            assert out.tolist() == [3, 1, 2]
            assert _dist_sorted(np.array([3]), np.ones(4)).tolist() == [3]


class TestCompatibleOrders:
    def test_fixture_strict_quasi(self, fixture4):
        s = compatible_orders(fixture4, "strict-quasi")
        assert [o.seq for o in s.orders] == [(0, 1, 2, 3), (0, 1, 3, 2)]
        assert s.bipartition == (frozenset({0, 1}), frozenset({2, 3}), 1.0)

    def test_fixture_strict_circular(self, fixture4):
        s = compatible_orders(fixture4, "strict-circular")
        assert [o.seq for o in s.orders] == [(0, 1, 3, 2)]
        assert s.bipartition is None

    def test_equilateral_empty(self, equilateral4):
        assert compatible_orders(equilateral4, "strict-quasi").orders == ()

    def test_circle_unique_strict_circular(self, circle5):
        s = compatible_orders(circle5, "strict-circular")
        assert [o.seq for o in s.orders] == [(0, 1, 2, 3, 4)]

    def test_unknown_strictness(self, fixture4):
        with pytest.raises(ValueError):
            compatible_orders(fixture4, "quasi")

    def test_json_schema(self, fixture4):
        d = compatible_orders(fixture4, "strict-quasi").to_json_dict()
        assert d["orders"] == [[0, 1, 2, 3], [0, 1, 3, 2]]
        assert d["bipartition"] == {"N": [0, 1], "F": [2, 3], "delta": 1.0}

    def test_within_eps_asymmetry_reads_lower_triangle(self):
        # noisy circles symmetric only within eps: the construction, the
        # scan and the bipartition all read the stored lower triangle, so the
        # answer equals that of the mirrored lower triangle
        rng = np.random.default_rng(5151)
        eps = 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            for _ in range(300):
                n = int(rng.integers(5, 8))
                noise = rng.uniform(-eps / 4, eps / 4, (n, n))
                vals = circle_instance(n, "chord").values + noise
                np.fill_diagonal(vals, 0.0)
                lower = np.tril(vals) + np.tril(vals, -1).T
                for cls in ("strict-quasi", "strict-circular"):
                    got = compatible_orders(DissimilarityMatrix(vals, eps), cls, eps)
                    want = compatible_orders(DissimilarityMatrix(lower, eps), cls, eps)
                    assert got.to_json_dict() == want.to_json_dict(), (vals.tolist(), cls)


class TestCandidateReports:
    @pytest.fixture(params=["circle", "two-cluster", "perturbed", "fixture"])
    def space(self, request):
        return {
            "circle": lambda: circle_instance(40, "chord"),
            "two-cluster": lambda: two_cluster_instance(12, 9, seed=2),
            "perturbed": lambda: perturb(circle_instance(40, "chord"), 1e-3, seed=5),
            "fixture": counterexample_fixture,
        }[request.param]()

    def test_pick_first_and_reports_match_verify(self, space):
        for strictness in ("strict-quasi", "strict-circular"):
            cands = compatible_orders(space, strictness).candidates
            assert cands[0][0] == find_compatible_order(space)
            assert len({o for o, _ in cands}) == len(cands)
            for order, report in cands:
                assert report == verify(space, order)

    # row scans per recognize: the two-cluster space and the fixture each
    # have a threshold split, so the second candidate's report is derived
    # from the first scan; the circle has one candidate
    SCANS = {"circle": 1, "two-cluster": 1, "perturbed": 2, "fixture": 1}

    def test_recognize_verifies_each_candidate_once(
        self, space, request, tmp_path, monkeypatch
    ):
        import circrob.recognition
        import circrob.verification
        from circrob.cli import _write_matrix, main
        from circrob.verification import _scan_rows

        scanned = []

        def counting_scan(values, order_arr, eps):
            scanned.append(order_arr.tolist())
            return _scan_rows(values, order_arr, eps)

        path = tmp_path / "d.txt"
        _write_matrix(space, path)
        for module in (circrob.recognition, circrob.verification):
            monkeypatch.setattr(module, "_scan_rows", counting_scan)
        main(["recognize", "--input", str(path), "--json"])
        monkeypatch.undo()
        candidates = [list(o.seq) for o, _ in compatible_orders(space).candidates]
        assert len(scanned) == self.SCANS[request.node.callspec.params["space"]]
        assert scanned == candidates[: len(scanned)]

    DERIVED_MINIMUMS = {"derived": 300, "derived_crossing": 30, "strict_first_no_split": 100}

    def test_derived_report_matches_verify(self):
        # the second candidate's report, derived from the first scan when the
        # space splits, equals its own verify on shuffled two-cluster spaces
        # (half of them perturbed) and perturbed circles; the circles give two
        # candidates without a split, where no report may be derived
        rng = np.random.default_rng(27027)
        seen = dict.fromkeys(self.DERIVED_MINIMUMS, 0)
        drawn = 0
        while any(seen[k] < m for k, m in self.DERIVED_MINIMUMS.items()):
            drawn += 1
            assert drawn <= 600, seen
            n, kind = int(rng.integers(4, 61)), int(rng.integers(3))
            seed = int(rng.integers(1 << 30))
            if kind < 2:
                k = int(rng.integers(2, n - 1))
                D = DissimilarityMatrix(1000 * two_cluster_instance(k, n - k, seed=seed).values)
                if kind == 1:
                    D = perturb(D, 1.0, seed=seed)
            else:
                D = perturb(circle_instance(n, "chord"), 1e-3, seed=seed)
            perm = rng.permutation(n)
            D = DissimilarityMatrix(D.values[np.ix_(perm, perm)])
            for eps in (0.0, 1e-9, 0.02, 0.05):
                for strictness in ("strict-quasi", "strict-circular"):
                    cands = compatible_orders(D, strictness, eps).candidates
                    for order, report in cands:
                        want = verify(D, order, eps).to_json_dict()
                        assert report.to_json_dict() == want, (D.values.tolist(), eps)
                if len(cands) < 2 or not cands[0][1].strict_quasi:
                    continue
                if bipartition_criterion(D, eps) is None:
                    seen["strict_first_no_split"] += 1
                else:
                    seen["derived"] += 1
                    seen["derived_crossing"] += "strict_circular" in cands[1][1].witnesses


class TestBipartitionCriterion:
    def test_fixture(self, fixture4):
        assert bipartition_criterion(fixture4) == (
            frozenset({0, 1}),
            frozenset({2, 3}),
            1.0,
        )

    def test_circle_absent(self, circle5):
        assert bipartition_criterion(circle5) is None

    def test_small_n_absent(self):
        D = DissimilarityMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert bipartition_criterion(D) is None

    def test_found_partition_is_valid(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(300):
            D = mixed_small_space(rng, n_lo=4, n_hi=7)
            res = bipartition_criterion(D)
            if res is None:
                continue
            found += 1
            N, F, delta = res
            assert len(N) > 1 and len(F) > 1 and N | F == set(range(D.n)) and not N & F
            for u in range(D.n):
                for v in range(u + 1, D.n):
                    crossing = (u in N) != (v in N)
                    assert (D.values[u, v] > delta) == crossing
        assert found  # the pool does contain two-cluster-like instances

    @staticmethod
    def _whole_block_reference(D, eps=0.0):
        # seeds from the first flat maximum, not the cut at point 0, and
        # blocks copied with np.ix_
        v = D.values
        if D.n < 4:
            return None
        i, j = np.unravel_index(int(np.argmax(v)), v.shape)
        near_i = (v[:, i] - v[:, j]) < -eps
        near_j = (v[:, j] - v[:, i]) < -eps
        if not (near_i | near_j).all() or near_i.sum() < 2 or near_j.sum() < 2:
            return None
        N, F = np.flatnonzero(near_i), np.flatnonzero(near_j)
        intra = max(v[np.ix_(N, N)].max(), v[np.ix_(F, F)].max())
        if v[np.ix_(N, F)].min() - intra <= eps:
            return None
        return frozenset(N.tolist()), frozenset(F.tolist()), float(intra)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_matches_whole_block_reference(self, block, monkeypatch):
        import circrob.recognition as rec

        monkeypatch.setattr(rec, "_BAND", block)
        rng = np.random.default_rng(77)
        spaces = [mixed_small_space(rng, n_lo=4, n_hi=9) for _ in range(150)]
        spaces += [random_space(int(rng.integers(4, 9)), rng, ints=True) for _ in range(150)]
        spaces += [
            two_cluster_instance(int(k), int(l), seed=int(s))
            for k, l, s in rng.integers(2, 90, size=(12, 3))
        ]
        found = 0
        for D in spaces:
            for eps in (0.0, 0.5):
                got = bipartition_criterion(D, eps)
                want = self._whole_block_reference(D, eps)
                assert (got is None) == (want is None), D.values.tolist()
                if got is None:
                    continue
                # the reference's N holds the first row of the largest entry
                assert {got[0], got[1]} == {want[0], want[1]} and got[2] == want[2]
                assert 0 in got[0]
                found += 1
        assert found >= 24

    def test_peak_memory_below_quarter_matrix(self):
        import tracemalloc

        D = two_cluster_instance(1000, 1000, seed=1)
        tracemalloc.start()
        try:
            assert bipartition_criterion(D) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * D.values.nbytes, peak / D.values.nbytes


class TestAgainstOracle:
    def test_sets_and_membership(self):
        rng = np.random.default_rng(20240810)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            for _ in range(150):
                D = mixed_small_space(rng)
                oc = oracle_classify(D)
                got_sq = compatible_orders(D, "strict-quasi")
                assert list(got_sq.orders) == sorted(
                    oc.strict_quasi_circular, key=lambda o: o.seq
                )
                got_sc = compatible_orders(D, "strict-circular")
                assert list(got_sc.orders) == sorted(
                    oc.strict_circular_by_arcs, key=lambda o: o.seq
                )
                if oc.strict_quasi_circular:
                    assert find_compatible_order(D) in oc.strict_quasi_circular


class TestStructureOfReturnedOrders:
    def _compatible_pairs(self, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            while len(out) < count:
                D = mixed_small_space(rng, n_lo=4, n_hi=7)
                s = compatible_orders(D, "strict-quasi")
                for order in s.orders:
                    out.append((D, order))
        return out

    def test_distance_monotone_along_wings(self):
        # distances from x strictly increase from x to its farthest arc and
        # strictly decrease on the way back
        from circrob import farthest_set

        for D, order in self._compatible_pairs(40, seed=606):
            n = D.n
            pos = {p: i for i, p in enumerate(order.seq)}
            for x in range(n):
                _, fx = farthest_set(D, x)
                offsets = sorted((pos[y] - pos[x]) % n for y in fx)
                lo, hi = offsets[0], offsets[-1]
                ring = [D.values[x, order.seq[(pos[x] + k) % n]] for k in range(1, n)]
                for k in range(1, lo):
                    assert ring[k - 1] < ring[k]
                for k in range(hi, n - 1):
                    assert ring[k - 1] > ring[k]

    def test_j_sets_are_arcs_of_compatible_orders(self):
        for D, order in self._compatible_pairs(40, seed=707):
            n = D.n
            pos = {p: i for i, p in enumerate(order.seq)}
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    others = [
                        D.values[x, z] >= D.values[x, y] and D.values[y, z] >= D.values[x, y]
                        for z in range(n)
                        if z not in (x, y)
                    ]
                    if not all(others):
                        continue  # d(x,y) must be minimal against every third point
                    members = j_set(D, x, y)
                    spans = sorted((pos[p] - pos[x]) % n for p in members)
                    gaps = [b - a for a, b in zip(spans, spans[1:])]
                    wrap = spans[0] + n - spans[-1]
                    assert sum(g > 1 for g in gaps + [wrap]) <= 1

    def test_two_orders_differ_by_reversing_a_cluster(self):
        rng = np.random.default_rng(2222)
        two = {0.0: 0, 0.05: 0}
        for _ in range(120):
            k, l = (int(m) for m in rng.integers(2, 12, size=2))
            perm = rng.permutation(k + l)
            C = two_cluster_instance(k, l, seed=int(rng.integers(1 << 30)))
            # chords to the far cluster are nearly flat in the angle: scaled up,
            # many spaces stay strict at eps = 0.05
            D = DissimilarityMatrix(1000 * C.values[np.ix_(perm, perm)])
            for eps in two:
                s = compatible_orders(D, "strict-quasi", eps)
                if len(s.orders) != 2:
                    continue
                two[eps] += 1
                assert 0 in s.bipartition[0]
                assert split_by_reversal(s)
        assert min(two.values()) >= 50, two
