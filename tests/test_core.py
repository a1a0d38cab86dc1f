import io
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circrob import (
    DissimilarityMatrix,
    MatrixFormatError,
    canonicalize,
    chain_holds,
    farthest_set,
    load_matrix,
)
from circrob.oracle import _position_tables


class TestLoadMatrix:
    def test_full_format_fixture(self):
        D = load_matrix("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0")
        assert D.n == 4
        assert D.values[0, 3] == 3.0
        assert D.values[2, 1] == 3.0

    def test_single_point(self):
        D = load_matrix("1\n0")
        assert D.n == 1

    def test_nonzero_diagonal_reports_indices(self):
        with pytest.raises(MatrixFormatError, match=r"\(1,1\)"):
            load_matrix("2\n0 1\n1 1")

    def test_lower_triangle_format(self):
        D = load_matrix("3\n1\n2 1\n")
        assert D.values.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_csv_variant(self):
        D = load_matrix("3\n0,1,2\n1,0,1\n2,1,0")
        assert D.values[0, 2] == 2.0

    def test_reads_stream(self):
        D = load_matrix(io.StringIO("2\n0 1\n1 0"))
        assert D.n == 2

    def test_asymmetry_rejected(self):
        with pytest.raises(MatrixFormatError, match="asymmetric"):
            load_matrix("2\n0 1\n2 0")

    def test_asymmetry_within_tolerance_accepted(self):
        D = load_matrix("2\n0 1.0\n1.005 0", eps=0.01)
        assert D.values[0, 1] == D.values[1, 0] == 1.005

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
    def test_bad_eps_rejected(self, eps):
        # the tolerance is checked before it is used: at eps = -1 the zero
        # diagonal would otherwise read as an asymmetry
        with pytest.raises(ValueError, match="finite number >= 0"):
            DissimilarityMatrix(np.zeros((1, 1)), eps=eps)
        with pytest.raises(ValueError, match="finite number >= 0"):
            load_matrix("2\n0 1\n1 0", eps=eps)

    def test_eps_checked_before_reading(self):
        class Unreadable(io.StringIO):
            def read(self, size=-1):
                raise OSError("not readable")

        with pytest.raises(ValueError, match="finite number >= 0"):
            load_matrix(Unreadable(), eps=-1.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(MatrixFormatError, match="negative"):
            load_matrix("2\n0 -1\n-1 0")

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(MatrixFormatError, match="positive"):
            load_matrix("3\n0 0 1\n0 0 1\n1 1 0")

    def test_wrong_count_rejected(self):
        with pytest.raises(MatrixFormatError, match="expected"):
            load_matrix("3\n0 1\n1 0")

    def test_non_numeric_rejected(self):
        with pytest.raises(MatrixFormatError, match=r"non-numeric entry 'a' at value 2 after n"):
            load_matrix("2\n0 a\na 0")

    def test_first_token_and_count_errors(self):
        with pytest.raises(MatrixFormatError, match="empty input"):
            load_matrix(" \n, \t")
        with pytest.raises(MatrixFormatError, match="point count, got '2.0'"):
            load_matrix("2.0\n0 1\n1 0")
        with pytest.raises(MatrixFormatError, match="must be >= 1, got 0"):
            load_matrix("0\n")
        with pytest.raises(MatrixFormatError, match="at least one point"):
            DissimilarityMatrix(np.zeros((0, 0)))
        with pytest.raises(MatrixFormatError, match=r"expected 4 values .* got 5"):
            load_matrix("2\n0 1\n1 0 7")

    def test_point_count_too_large_for_memory(self):
        # the values are counted without a matrix to store them in
        with pytest.raises(MatrixFormatError, match=r"expected 1000000000000000000000000 .* got 2"):
            load_matrix("1000000000000\n1 2")


def _reference_load(text, eps=0.0):
    """Whole-text parse and whole-matrix checks, the loader's reference:
    split() and float() on every token, the lower triangle filled by a
    double loop, each check run over the full matrix, and the lower triangle
    mirrored onto the upper one of an accepted matrix."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise MatrixFormatError("empty input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(f"first token must be the point count, got {tokens[0]!r}")
    if n < 1:
        raise MatrixFormatError(f"point count must be >= 1, got {n}")
    vals = []
    for k, t in enumerate(tokens[1:]):
        try:
            vals.append(float(t))
        except ValueError:
            raise MatrixFormatError(f"non-numeric entry {t!r} at value {k + 1} after n")
    full, tri = n * n, n * (n - 1) // 2
    if len(vals) == full:
        arr = np.array(vals).reshape(n, n)
    elif len(vals) == tri:
        arr = np.zeros((n, n))
        k = 0
        for i in range(1, n):
            for j in range(i):
                arr[i, j] = arr[j, i] = vals[k]
                k += 1
    else:
        raise MatrixFormatError(
            f"expected {full} values (full) or {tri} (lower triangle) after"
            f" n={n}, got {len(vals)}"
        )
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise MatrixFormatError(f"non-finite entry at ({i},{j})")
    asym = np.abs(arr - arr.T)
    if asym.max(initial=0.0) > eps:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise MatrixFormatError(f"asymmetric entries at ({i},{j}): {arr[i, j]} vs {arr[j, i]}")
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > 0:
        i = int(np.argmax(diag))
        raise MatrixFormatError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    off = ~np.eye(n, dtype=bool)
    if ((arr < 0) & off).any():
        i, j = np.argwhere((arr < 0) & off)[0]
        raise MatrixFormatError(f"negative entry at ({i},{j}): {arr[i, j]}")
    if ((arr <= 0) & off).any():
        i, j = np.argwhere((arr <= 0) & off)[0]
        raise MatrixFormatError(
            f"zero off-diagonal entry at ({i},{j}): distinct points must have"
            " positive dissimilarity"
        )
    return np.where(np.tri(n, dtype=bool), arr, arr.T)


def _outcome(load, text, eps):
    """The loaded values as bytes (bit-exact), or the error message."""
    try:
        out = load(text, eps)
    except MatrixFormatError as exc:
        return "error", str(exc)
    values = out.values if hasattr(out, "values") else out
    return "ok", values.tobytes()


def _render(vals, n, lower, rng):
    """Matrix text with mixed separators: spaces, tabs, commas, CRLF line
    ends, and sometimes no final newline."""
    rows = [vals[i, :i] for i in range(1, n)] if lower else list(vals)
    seps = [" ", "\t", ",", " , ", "  "]
    lines = [str(n)]
    for row in rows:
        sep = seps[int(rng.integers(len(seps)))]
        lines.append(sep.join(repr(float(v)) for v in row))
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    text = eol.join(lines)
    return text if rng.random() < 0.3 else text + eol


def _valid(rng, n):
    """A random valid matrix."""
    vals = np.triu(rng.uniform(0.5, 3.0, size=(n, n)).round(3), 1)
    return vals + vals.T


def _planted(rng, n):
    """A random valid matrix, or one with faults planted at random places,
    ties of the largest asymmetry included."""
    vals = _valid(rng, n)
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        kind = int(rng.integers(0, 7))
        if kind == 0:
            vals[i, j] = np.nan
        elif kind == 1:
            vals[i, j] = -np.inf if rng.random() < 0.5 else np.inf
        elif kind in (2, 3):  # one-sided change; a fixed size makes ties
            vals[i, j] += 0.25 if kind == 2 else float(rng.uniform(0, 1))
        elif kind == 4:
            vals[i, j] = vals[j, i] = -float(rng.uniform(0.1, 1))
        elif kind == 5:
            vals[i, j] = vals[j, i] = 0.0
        else:
            vals[i, i] = float(rng.uniform(0, 1))
    return vals


class TestStreamedLoad:
    """load_matrix against _reference_load with tiny chunks and bands, so
    tokens are cut by chunk boundaries and checks span several bands."""

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("band", ["one", "all"])
    def test_matches_reference(self, monkeypatch, chunk, band):
        import circrob.core as core

        rng = np.random.default_rng(1000 * chunk + len(band))
        monkeypatch.setattr(core, "_CHUNK", chunk)
        checked = {"ok": 0, "error": 0, "asymmetric": 0}
        for trial in range(60):
            n = int(rng.integers(1, 9))
            monkeypatch.setattr(core, "_BAND", 1 if band == "one" else n)
            eps = 0.3 if trial % 5 == 0 else 0.0
            within = eps > 0 and n > 1 and trial % 10 == 0
            vals = _valid(rng, n) if within else _planted(rng, n)
            if within:
                # one entry of a valid matrix changed by less than eps
                i, j = rng.choice(n, 2, replace=False)
                vals[i, j] += float(rng.uniform(-0.29, 0.29))
            lower = not within and n > 1 and rng.random() < 0.4
            if lower:
                # format B carries only the lower triangle; plant there
                vals = np.where(np.tri(n, k=-1, dtype=bool), vals, vals.T)
                np.fill_diagonal(vals, 0.0)
            text = _render(vals, n, lower, rng)
            want = _outcome(_reference_load, text, eps)
            assert _outcome(load_matrix, text, eps) == want, text
            assert _outcome(load_matrix, io.StringIO(text), eps) == want, text
            checked[want[0]] += 1
            checked["asymmetric"] += want[0] == "ok" and not np.array_equal(vals, vals.T)
        assert checked["ok"] and checked["error"] and checked["asymmetric"] >= 4, checked

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_bad_tokens_located(self, monkeypatch, chunk):
        import circrob.core as core

        monkeypatch.setattr(core, "_CHUNK", chunk)
        base = "3\n0 1 2\n1 0 1\n2 1 0"
        tokens = base.split()
        for k in range(1, len(tokens)):
            for bad in ("x", "1.2.3", "0x10", "--1"):
                text = " ".join(tokens[:k] + [bad] + tokens[k + 1 :])
                want = _outcome(_reference_load, text, 0.0)
                assert want[0] == "error"
                assert _outcome(load_matrix, text, 0.0) == want
        for text in ("", " \n ", "x 1", "2.5 0", "-3 1", "0", "3\n1 2", "2\n0 1 1 0 0"):
            assert _outcome(load_matrix, text, 0.0) == _outcome(_reference_load, text, 0.0)

    @pytest.mark.parametrize("band", [1, 3, 64])
    def test_validator_bands(self, monkeypatch, band):
        import circrob.core as core

        monkeypatch.setattr(core, "_BAND", band)
        rng = np.random.default_rng(band)
        for _ in range(80):
            n = int(rng.integers(1, 12))
            vals = _planted(rng, n)
            text = _render(vals, n, False, rng)
            assert _outcome(DissimilarityMatrix, vals, 0.0) == _outcome(
                _reference_load, text, 0.0
            )

    def test_largest_asymmetry_first_in_row_order(self, monkeypatch):
        import circrob.core as core

        monkeypatch.setattr(core, "_BAND", 2)
        vals = np.ones((6, 6)) - np.eye(6)
        vals[4, 1] += 0.5  # tie: (1,4) comes first in row-major order
        vals[5, 3] += 0.5
        vals[0, 2] += 0.25
        with pytest.raises(MatrixFormatError, match=r"at \(1,4\): 1.0 vs 1.5"):
            DissimilarityMatrix(vals)

    def test_str_and_handle_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = np.triu(rng.random((40, 40)) + 0.1, 1)
        vals = vals + vals.T
        path = tmp_path / "m.txt"
        path.write_text(_render(vals, 40, False, rng))
        with open(path) as fh:
            from_handle = load_matrix(fh).values
        from_str = load_matrix(path.read_text()).values
        assert from_handle.tobytes() == from_str.tobytes() == vals.tobytes()


class TestLoadMemory:
    @pytest.mark.parametrize("lower", [False, True])
    def test_peak_at_most_twice_the_matrix(self, tmp_path, lower):
        import tracemalloc

        from circrob import circle_instance

        n = 600
        V = circle_instance(n, "chord").values
        path = tmp_path / "m.txt"
        with open(path, "w") as fh:
            fh.write(f"{n}\n")
            for i in range(n):
                row = V[i, :i] if lower else V[i]
                fh.write(" ".join(map(repr, row.tolist())) + "\n")
        tracemalloc.start()
        try:
            with open(path) as fh:
                D = load_matrix(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(D.values, V)
        assert peak <= 2 * V.nbytes, peak / V.nbytes


class TestNoCopy:
    def test_constructor_always_copies(self):
        owner = np.ones((3, 3)) - np.eye(3)
        view = owner[:]  # a writeable alias taken before the owner is frozen
        owner.flags.writeable = False
        buffer = memoryview(bytearray(owner.tobytes())).toreadonly()
        for arr in (owner, owner[:], np.asfortranarray(owner), owner.astype(np.float32),
                    np.frombuffer(buffer).reshape(3, 3)):
            D = DissimilarityMatrix(arr)
            assert not np.shares_memory(D.values, arr)
            assert not D.values.flags.writeable and D.values.flags.c_contiguous
        D = DissimilarityMatrix(owner)
        view[0, 1] = 5.0
        assert D.values[0, 1] == 1.0

    def test_adopt_mirrors_within_eps_in_place(self):
        arr = np.array([[0.0, 1.0, 2.0], [1.1, 0.0, 1.0], [2.0, 0.9, 0.0]])
        D = DissimilarityMatrix._adopt(arr, eps=0.2)
        assert D.values is arr and not arr.flags.writeable
        assert arr.tolist() == [[0.0, 1.1, 2.0], [1.1, 0.0, 0.9], [2.0, 0.9, 0.0]]

    def test_adopt_keeps_float64_c_array(self):
        arr = np.ones((3, 3)) - np.eye(3)
        assert DissimilarityMatrix._adopt(arr).values is arr
        assert not arr.flags.writeable
        for other in (np.asfortranarray(arr), arr.astype(np.float32)):
            D = DissimilarityMatrix._adopt(other)
            assert D.values.dtype == np.float64 and D.values.flags.c_contiguous
            assert np.array_equal(D.values, arr)
        with pytest.raises(MatrixFormatError, match="asymmetric"):
            DissimilarityMatrix._adopt(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestCanonicalize:
    def test_rotation(self):
        assert canonicalize((2, 3, 0, 1)).seq == (0, 1, 2, 3)

    def test_reflection(self):
        assert canonicalize((0, 3, 2, 1)).seq == (0, 1, 2, 3)

    def test_direction_rule(self):
        assert canonicalize((1, 3, 0, 2)).seq == (0, 2, 1, 3)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            canonicalize((0, 0, 1))
        # an index too large for a C long is no index either
        with pytest.raises(ValueError, match="permutation"):
            canonicalize((0, 2**70))
        # nor is a non-integral one, even where truncating it would give
        # one, nor a float or bool, even with an integral value
        for seq in ([0, 1.5, 2.9], [0.0, 1.0, 2.0], [True, False]):
            with pytest.raises(ValueError, match="permutation"):
                canonicalize(seq)

    def test_tiny(self):
        assert canonicalize((0,)).seq == (0,)
        assert canonicalize((1, 0)).seq == (0, 1)

    @given(st.permutations(list(range(6))), st.integers(0, 5), st.booleans())
    def test_idempotent_and_invariant(self, perm, shift, flip):
        base = canonicalize(perm)
        assert canonicalize(base.seq) == base
        rotated = perm[shift:] + perm[:shift]
        if flip:
            rotated = rotated[::-1]
        assert canonicalize(rotated) == base

    @given(st.permutations(list(range(5))))
    def test_reverse_same_class(self, perm):
        order = canonicalize(perm)
        assert order.reverse() == order


class TestChainHolds:
    def test_subsequence(self):
        o = canonicalize(range(5))
        assert chain_holds(o, (0, 2, 4))

    def test_contradiction(self):
        o = canonicalize(range(5))
        assert not chain_holds(o, (0, 4, 2))

    def test_repeated_points_skipped(self):
        o = canonicalize(range(4))
        assert chain_holds(o, (0, 0, 2, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            chain_holds(canonicalize(range(4)), (0, 9))
        with pytest.raises(ValueError, match="nonempty"):
            chain_holds(canonicalize(range(4)), ())

    def test_integer_array_points(self):
        o = canonicalize((0, 3, 1, 4, 2))
        for pts in ((0, 2, 4), (0, 4, 2), (3, 3, 4, 2)):
            assert chain_holds(o, np.array(pts)) == chain_holds(o, pts)

    @given(st.data())
    def test_rotation_of_distinct_chain_agrees(self, data):
        # circular-order axiom: beta(u,v,w) implies beta(v,w,u)
        perm = data.draw(st.permutations(list(range(6))))
        o = canonicalize(perm)
        pts = data.draw(st.lists(st.integers(0, 5), min_size=3, max_size=5, unique=True))
        rotated = pts[1:] + pts[:1]
        assert chain_holds(o, pts) == chain_holds(o, rotated)


@pytest.mark.parametrize(
    "call",
    [
        lambda D, o: farthest_set(D, 1.5),
        lambda D, o: chain_holds(o, [0, 1.5, 2]),
        # an integral float would pass a range check and a dict lookup
        lambda D, o: chain_holds(o, [0, 1.0, 2]),
    ],
    ids=["farthest_set", "chain_holds", "chain_holds_integral_float"],
)
def test_non_integer_index_rejected(fixture4, call):
    with pytest.raises(ValueError, match="not a sequence of indices"):
        call(fixture4, canonicalize(range(4)))


class TestArcBetween:
    # the oracle's arc between two positions, read off its arc mask: the two
    # ends and every position of a triple inside the arc
    @staticmethod
    def _arc(n, a, b):
        _, triples, arcs = _position_tables(n)
        pair = list(combinations(range(n), 2)).index((min(a, b), max(a, b)))
        inside = triples[:, arcs[2 * pair + (a > b)]]
        return {a, b} | set(inside.ravel().tolist()), inside.shape[1]

    def test_contiguous_run(self):
        assert self._arc(5, 1, 3) == ({1, 2, 3}, 1)

    def test_wraparound(self):
        assert self._arc(5, 3, 1) == ({3, 4, 0, 1}, 4)

    @given(st.data())
    def test_sizes_sum(self, data):
        n = data.draw(st.integers(3, 8))
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1).filter(lambda v: v != a))
        one, one_triples = self._arc(n, a, b)
        other, other_triples = self._arc(n, b, a)
        assert len(one) + len(other) == n + 2
        assert one | other == set(range(n))
        assert one & other == {a, b}
        assert (one_triples, other_triples) == (comb(len(one), 3), comb(len(other), 3))


class TestFarthestSet:
    def test_fixture(self, fixture4):
        assert farthest_set(fixture4, 0) == (3.0, frozenset({3}))

    def test_circle_plateau(self, circle5):
        assert farthest_set(circle5, 0) == (2.0, frozenset({2, 3}))

    def test_two_points(self):
        D = load_matrix("2\n0 5\n5 0")
        assert farthest_set(D, 0) == (5.0, frozenset({1}))

    def test_single_point_errors(self):
        D = load_matrix("1\n0")
        with pytest.raises(ValueError):
            farthest_set(D, 0)

    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_members_attain_max(self, n, seed):
        from conftest import random_space

        rng = np.random.default_rng(seed)
        D = random_space(n, rng, ints=True)
        for x in range(n):
            r, members = farthest_set(D, x)
            assert members
            assert all(D.values[x, y] == r for y in members)
            assert all(D.values[x, y] < r for y in range(n) if y != x and y not in members)


def test_package_reexports_each_module_all():
    # each module's __all__ is its public API; the package lists exactly their
    # union, each name once, bound to the module's own object
    import circrob
    from circrob import core, generators, oracle, predicates, recognition, verification

    modules = (core, generators, oracle, predicates, recognition, verification)
    names = [name for module in modules for name in module.__all__]
    assert sorted(circrob.__all__) == sorted(set(names)) == sorted(names)
    assert len(names) == 39  # the public API: a name added or removed changes it
    for module in modules:
        for name in module.__all__:
            assert getattr(circrob, name) is getattr(module, name)
