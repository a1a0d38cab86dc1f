import math

import numpy as np
import pytest

from circrob import (
    GenerationError,
    GeneratorSpec,
    TieWarning,
    bipartition_criterion,
    canonicalize,
    circle_instance,
    compatible_orders,
    counterexample_fixture,
    oracle_classify,
    perturb,
    two_cluster_instance,
    verify,
)


class TestCircleInstance:
    def test_arc_distances(self):
        C = circle_instance(5, "arc")
        for i in range(5):
            for j in range(5):
                assert C.values[i, j] == min(abs(i - j), 5 - abs(i - j))

    def test_chord_distances(self):
        C = circle_instance(4, "chord")
        assert C.values[0, 1] == pytest.approx(math.sqrt(2))
        assert C.values[0, 2] == pytest.approx(2.0)

    def test_single_point(self):
        assert circle_instance(1).values.tolist() == [[0.0]]

    def test_explicit_angles(self):
        angles = [0.0, 0.5, 2.0, 4.0]
        C = circle_instance(4, "arc", angles=angles)
        assert C.values[0, 1] == pytest.approx(0.5)
        assert C.values[0, 3] == pytest.approx(2 * math.pi - 4.0)

    def test_bad_angles_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            circle_instance(3, "arc", angles=[0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="2\\*pi"):
            circle_instance(2, "arc", angles=[0.0, 7.0])
        with pytest.raises(ValueError, match="metric"):
            circle_instance(3, "euclid")
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            circle_instance(0)
        with pytest.raises(ValueError, match=r"expected 3 angles, got shape \(2,\)"):
            circle_instance(3, "arc", angles=[0.0, 1.0])

    def test_jittered_angles_strictly_circular(self):
        rng = np.random.default_rng(123)
        angles = np.sort(rng.uniform(0, 2 * math.pi, 12))
        C = circle_instance(12, "chord", angles=angles)
        rep = verify(C, canonicalize(range(12)))
        assert rep.strict_circular

    def test_even_spacing_verifies_all_flags(self):
        for n in (4, 5, 6, 9):
            for metric in ("arc", "chord"):
                rep = verify(circle_instance(n, metric), canonicalize(range(n)))
                assert rep.quasi and rep.strict_quasi and rep.circular and rep.strict_circular

    def test_matrix_built_in_place(self):
        # the generator's own array becomes the matrix: no second n x n copy
        import tracemalloc

        tracemalloc.start()
        try:
            D = circle_instance(1500, "chord")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * D.values.nbytes


class TestTwoClusterInstance:
    def test_minimal_collapses_to_two_order_pattern(self):
        D = two_cluster_instance(2, 2, seed=0)
        res = bipartition_criterion(D)
        assert res is not None
        N, F, delta = res
        intra = max(
            D.values[u, v] for part in (N, F) for u in part for v in part if u != v
        )
        assert delta == pytest.approx(intra)

    def test_two_orders_cross_checked_with_oracle(self):
        D = two_cluster_instance(3, 2, seed=1)
        got = compatible_orders(D, "strict-quasi")
        assert len(got.orders) == 2
        assert set(got.orders) == set(oracle_classify(D).strict_quasi_circular)

    def test_size_constraint(self):
        with pytest.raises(ValueError):
            two_cluster_instance(1, 5)

    def test_deterministic_per_seed(self):
        assert two_cluster_instance(4, 3, seed=9) == two_cluster_instance(4, 3, seed=9)


class TestPerturb:
    def test_zero_epsilon_identity(self, circle5):
        assert perturb(circle5, 0.0, seed=3) == circle5

    def test_small_jitter_keeps_fixture_strict_quasi(self, fixture4):
        P = perturb(fixture4, 0.01, seed=0)
        assert verify(P, canonicalize(range(4))).strict_quasi

    def test_large_jitter_rejected_by_recognition(self, circle5):
        P = perturb(circle5, 10.0, seed=0)
        with pytest.warns(TieWarning):
            assert compatible_orders(P, "strict-quasi").orders == ()

    def test_symmetric_and_positive(self, circle5):
        P = perturb(circle5, 1.5, seed=11)
        assert np.array_equal(P.values, P.values.T)
        off = P.values[~np.eye(5, dtype=bool)]
        assert (off > 0).all()

    def test_input_untouched_and_output_frozen(self, circle5):
        before = circle5.values.copy()
        P = perturb(circle5, 0.3, seed=2)
        assert np.array_equal(circle5.values, before)
        assert not P.values.flags.writeable

    def test_negative_epsilon_rejected(self, circle5):
        with pytest.raises(ValueError):
            perturb(circle5, -0.1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, circle5, epsilon):
        with pytest.raises(ValueError, match="finite"):
            perturb(circle5, epsilon)


class TestCounterexampleFixture:
    def test_exact_values(self):
        D = counterexample_fixture()
        assert D.values.tolist() == [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]

    def test_symmetry_entry(self):
        D = counterexample_fixture()
        assert D.values[2, 1] == D.values[1, 2] == 3

    def test_natural_order_strict_quasi_only(self):
        rep = verify(counterexample_fixture(), canonicalize(range(4)))
        assert rep.strict_quasi and not rep.strict_circular


def test_generator_spec_json():
    spec = GeneratorSpec(kind="two-cluster", n=7, seed=5, epsilon=0.0, params={"k": 3, "l": 4})
    d = spec.to_json_dict()
    assert d == {
        "kind": "two-cluster",
        "n": 7,
        "seed": 5,
        "epsilon": 0.0,
        "params": {"k": 3, "l": 4},
    }


def test_generation_error_is_reported(monkeypatch):
    # force every candidate draw to fail validation
    import circrob.generators as gen

    monkeypatch.setattr(gen, "_TWO_CLUSTER_RETRIES", 2)
    monkeypatch.setattr(gen, "bipartition_criterion", lambda D: None)
    with pytest.raises(GenerationError, match="attempts"):
        gen.two_cluster_instance(2, 2, seed=0)
