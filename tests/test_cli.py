import io
import json
import re

import numpy as np
import pytest

from circrob import load_matrix, oracle_classify
from circrob.cli import main

FIXTURE_TEXT = "4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"
EQUILATERAL_TEXT = "4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"
OCTAGON_TEXT = "8\n" + "".join(
    " ".join("0" if i == j else "1" for j in range(8)) + "\n" for i in range(8)
)
# the oracle's own message, through recognize and oracle alike
CAP_ERROR = "error: oracle classification is capped at n <= 8, got n=9\n"


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fixture.txt"
    path.write_text(FIXTURE_TEXT)
    return str(path)


@pytest.fixture
def equilateral_file(tmp_path):
    path = tmp_path / "equilateral.txt"
    path.write_text(EQUILATERAL_TEXT)
    return str(path)


@pytest.fixture
def big_file(tmp_path):
    # 9 points: beyond the oracle cap
    import numpy as np

    n = 9
    vals = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    path = tmp_path / "big.txt"
    path.write_text(str(n) + "\n" + "\n".join(" ".join(map(str, r)) for r in vals) + "\n")
    return str(path)


class TestRecognize:
    def test_strict_quasi_holds(self, fixture_file, capsys):
        assert main(["recognize", "--input", fixture_file, "--class", "strict-quasi"]) == 0
        out = capsys.readouterr().out
        assert "0,1,2,3 | 0,1,3,2" in out

    def test_strict_circular_holds(self, fixture_file, capsys):
        assert main(["recognize", "--input", fixture_file, "--class", "strict-circular"]) == 0
        assert "0,1,3,2" in capsys.readouterr().out

    def test_equilateral_not_strict(self, equilateral_file):
        assert main(["recognize", "--input", equilateral_file, "--class", "strict-quasi"]) == 1

    @pytest.mark.parametrize("cls", ["quasi", "circular"])
    @pytest.mark.parametrize("text", [FIXTURE_TEXT, EQUILATERAL_TEXT], ids=["fixture", "equilateral"])
    def test_nonstrict_class_via_oracle(self, cls, text, tmp_path, capsys):
        path = tmp_path / "D.txt"
        path.write_text(text)
        assert main(["recognize", "--input", str(path), "--class", cls, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        oc = oracle_classify(load_matrix(text))
        orders = oc.quasi_circular if cls == "quasi" else oc.circular_by_arcs
        assert payload == {"class": cls, "holds": True, "orders": [list(o.seq) for o in orders]}
        if text == FIXTURE_TEXT:
            expected = {"quasi": [[0, 1, 2, 3], [0, 1, 3, 2]], "circular": [[0, 1, 3, 2]]}
            assert payload["orders"] == expected[cls]

    def test_nonstrict_class_too_big(self, big_file, capsys):
        assert main(["recognize", "--input", big_file, "--class", "circular"]) == 2
        assert capsys.readouterr().err == CAP_ERROR

    def test_missing_file(self):
        assert main(["recognize", "--input", "/nonexistent/x.txt"]) == 2

    def test_tie_warning_one_line(self, tmp_path, capsys):
        # all distances equal: the construction meets ties, and the warning
        # is one line, without Python's source location
        path = tmp_path / "octagon.txt"
        path.write_text(OCTAGON_TEXT)
        assert main(["recognize", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "warning: equal distance keys while ordering points; instance may not be strict\n"
        )

    def test_json_output(self, fixture_file, capsys):
        assert main(["recognize", "--input", fixture_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidate"] == [0, 1, 2, 3]
        assert payload["order_set"]["orders"] == [[0, 1, 2, 3], [0, 1, 3, 2]]
        assert payload["order_set"]["bipartition"]["delta"] == 1.0


def _npz_bytes() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, m=np.ones((2, 2)) - np.eye(2))
    return buf.getvalue()


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["recognize"],
            ["recognize", "--class", "circular"],
            ["verify", "--order", "0,1,2,3"],
            ["oracle"],
        ],
    )
    def test_non_utf8_file(self, tmp_path, capsys, argv):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["recognize"], ["verify", "--order", "0,1,2"]])
    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("truncated", "3\n0 1 2\n1 0 1\n2 1",
             r"expected 9 values \(full\) or 3 \(lower triangle\) after n=3, got 8"),
            ("too-many", "3\n0 1 2\n1 0 1\n2 1 0 5", r"expected 9 values .* got 10"),
            ("asymmetric", "3\n0 1 2\n1 0 1\n2 4 0", r"asymmetric entries at \(1,2\): 1.0 vs 4.0"),
            ("empty", "", r"empty input"),
            ("zero-points", "0\n", r"point count must be >= 1, got 0"),
        ],
    )
    def test_bad_file_located(self, tmp_path, capsys, argv, name, text, message):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    @pytest.mark.parametrize("argv", [["recognize"], ["verify", "--order", "0,1,2"]])
    def test_non_numeric_in_second_chunk(self, tmp_path, capsys, argv):
        from circrob.core import _CHUNK

        n = 80
        vals = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / 7.0
        tokens = [repr(float(v)) for v in vals.ravel()]
        offset = len(str(n)) + 1
        k = 0
        while offset <= _CHUNK + 5:  # the first token starting in the second chunk
            offset += len(tokens[k]) + 1
            k += 1
        assert offset < 2 * _CHUNK
        tokens[k] = "1.5e"
        path = tmp_path / "bad.txt"
        path.write_text(f"{n}\n" + " ".join(tokens) + "\n")
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: non-numeric entry '1.5e' at value {k + 1} after n\n"

    @pytest.mark.parametrize("argv", [["recognize"], ["verify", "--order", "0,1,2"]])
    @pytest.mark.parametrize(
        "name,make,message",
        [
            ("corrupt", lambda p: p.write_bytes(b"\x93NUMPY\x01\x00garbage"),
             "not a readable .npy file"),
            ("empty", lambda p: p.write_bytes(b""), "not a readable .npy file"),
            ("one-d", lambda p: np.save(p, np.arange(3.0)), r"square, got shape \(3,\)"),
            ("object", lambda p: np.save(p, np.array([[0, None], [None, 0]]), allow_pickle=True),
             "not a readable .npy file"),
            ("strings", lambda p: np.save(p, np.array([["0", "1"], ["1", "0"]])),
             "real numbers"),
            ("zip", lambda p: p.write_bytes(_npz_bytes()), "real numbers"),
        ],
    )
    def test_bad_npy(self, tmp_path, capsys, argv, name, make, message):
        path = tmp_path / f"{name}.npy"
        make(path)
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    def test_within_eps_npy_read_like_mirrored_text(self, tmp_path, capsys):
        # symmetric only within --epsilon: both inputs keep the lower
        # triangle, and the memory-mapped file is not written
        rows = np.array(
            [[0, 2.9, 2.0, 2.3], [2.9, 0, 1.9, 1.6], [2.0, 1.9, 0, 1.7], [2.3, 1.5, 1.7, 0]]
        )
        npy = tmp_path / "m.npy"
        np.save(npy, rows)
        before = npy.read_bytes()
        paths = [npy]
        for name, keep in (("lower", np.tri(4, dtype=bool)), ("upper", ~np.tri(4, k=-1, dtype=bool))):
            paths.append(tmp_path / f"{name}.txt")
            mirrored = np.where(keep, rows, rows.T).tolist()
            paths[-1].write_text("4\n" + "\n".join(" ".join(map(repr, r)) for r in mirrored))
        outputs = []
        for path in paths:
            capsys.readouterr()
            argv = ["verify", "--input", str(path), "--order", "0,1,2,3", "--epsilon", "0.3"]
            outputs.append((main([*argv, "--json"]), capsys.readouterr().out))
        assert outputs[0] == outputs[1] != outputs[2]
        assert npy.read_bytes() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["recognize", "--workers", "2"],
            ["verify", "--order", "0,1,2,3", "--workers", "2"],
            ["bench"],
        ],
    )
    def test_removed_options_rejected(self, fixture_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv[:1], "--input", fixture_file, *argv[1:]])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "argv", [["recognize"], ["verify", "--order", "0,1,2,3"], ["oracle"]]
    )
    @pytest.mark.parametrize("eps", ["nan", "-1", "inf", "-inf", "x"])
    def test_bad_epsilon(self, fixture_file, capsys, argv, eps):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", fixture_file, f"--epsilon={eps}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --epsilon:" in err, err

    def test_perturb_nan_epsilon(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        argv = ["generate", "--kind", "perturbed", "--epsilon", "nan", "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: epsilon must be a finite number")
        assert not out.exists()

    def test_generate_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "c.txt"
        assert main(["generate", "--kind", "circle-chord", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_generate_too_large(self, tmp_path, capsys):
        # 10^8 points ask for ~71 PiB, past any address space: the allocation
        # fails at once instead of being overcommitted
        out = tmp_path / "c.txt"
        argv = ["generate", "--kind", "circle-chord", "--n", "100000000", "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_generation_error(self, tmp_path, capsys, monkeypatch):
        # with no attempt left, two_cluster_instance raises GenerationError
        monkeypatch.setattr("circrob.generators._TWO_CLUSTER_RETRIES", 0)
        out = tmp_path / "t.txt"
        assert main(["generate", "--kind", "two-cluster", "--n", "8", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: no valid two-cluster instance")
        assert not out.exists()


class TestVerify:
    def test_natural_order_flags(self, fixture_file, capsys):
        rc = main(["verify", "--input", fixture_file, "--order", "0,1,2,3", "--json"])
        assert rc == 0  # default class: quasi
        payload = json.loads(capsys.readouterr().out)
        assert payload["quasi"] and payload["strict_quasi"]
        assert not payload["circular"] and not payload["strict_circular"]
        assert payload["witness"] is not None

    def test_swapped_order_all_flags(self, fixture_file, capsys):
        rc = main(
            ["verify", "--input", fixture_file, "--order", "0,1,3,2",
             "--class", "strict-circular", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strict_circular"] and payload["witness"] is None

    def test_bad_order_all_false(self, fixture_file):
        assert main(["verify", "--input", fixture_file, "--order", "0,2,1,3"]) == 1

    def test_requested_class_decides_exit(self, fixture_file):
        assert (
            main(["verify", "--input", fixture_file, "--order", "0,1,2,3",
                  "--class", "strict-circular"])
            == 1
        )

    def test_not_a_permutation(self, fixture_file):
        assert main(["verify", "--input", fixture_file, "--order", "0,1,2,2"]) == 2

    def test_index_beyond_c_long(self, fixture_file, capsys):
        order = "0,1,2,99999999999999999999"
        assert main(["verify", "--input", fixture_file, "--order", order]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not a permutation") and "Traceback" not in err

    def test_order_not_an_integer(self, fixture_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", fixture_file, "--order", "0,1,x,3"])
        assert exc.value.code == 2
        assert "error: argument --order: not an integer: 'x'" in capsys.readouterr().err

    def test_wrong_length(self, fixture_file, capsys):
        assert main(["verify", "--input", fixture_file, "--order", "0,1,2"]) == 2
        assert capsys.readouterr().err == "error: order has 3 points, matrix has 4\n"


class TestOracle:
    def test_fixture_sets(self, fixture_file, capsys):
        assert main(["oracle", "--input", fixture_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["strict_quasi_circular"]) == 2
        assert payload["strict_circular_by_arcs"] == [[0, 1, 3, 2]]
        assert payload["pre_circular"] == payload["circular_by_arcs"]

    def test_cap(self, big_file, capsys):
        assert main(["oracle", "--input", big_file]) == 2
        assert capsys.readouterr().err == CAP_ERROR


class TestGenerate:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("fixture", []),
            ("circle-arc", ["--n", "6"]),
            ("circle-chord", ["--n", "7"]),
            ("two-cluster", ["--n", "6"]),
            ("perturbed", ["--n", "6", "--epsilon", "0.01", "--seed", "4"]),
        ],
    )
    def test_roundtrip(self, tmp_path, kind, extra, capsys):
        out = tmp_path / f"{kind}.txt"
        assert main(["generate", "--kind", kind, "--output", str(out), *extra]) == 0
        D = load_matrix(out.read_text())
        sidecar = json.loads(out.with_suffix(".txt.json").read_text())
        assert sidecar["kind"] == kind
        assert sidecar["n"] == D.n

    def test_text_and_npy_recognized_alike(self, tmp_path, capsys):
        text, npy = tmp_path / "c.txt", tmp_path / "c.npy"
        args = ["generate", "--kind", "two-cluster", "--n", "300", "--seed", "3"]
        assert main([*args, "--output", str(text)]) == 0
        assert main([*args, "--output", str(npy)]) == 0
        assert np.load(npy).tobytes() == load_matrix(text.read_text()).values.tobytes()
        outputs = []
        for path in (text, npy):
            capsys.readouterr()
            assert main(["recognize", "--input", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["order_set"]["bipartition"] is not None

    def test_two_cluster_size_error(self, tmp_path):
        out = tmp_path / "x.txt"
        rc = main(["generate", "--kind", "two-cluster", "--k", "1", "--l", "5",
                   "--n", "6", "--output", str(out)])
        assert rc == 2

    def test_generated_circle_recognized(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        main(["generate", "--kind", "circle-chord", "--n", "12", "--output", str(out)])
        assert main(["recognize", "--input", str(out), "--class", "strict-circular"]) == 0


class TestRecognizeOracleAgreement:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_compatible_sets_agree(self, tmp_path, capsys, n):
        path = tmp_path / "c.txt"
        main(["generate", "--kind", "circle-arc", "--n", str(n), "--output", str(path)])
        capsys.readouterr()
        main(["recognize", "--input", str(path), "--class", "strict-quasi", "--json"])
        rec = json.loads(capsys.readouterr().out)
        main(["oracle", "--input", str(path), "--json"])
        orc = json.loads(capsys.readouterr().out)
        assert rec["order_set"]["orders"] == sorted(orc["strict_quasi_circular"])
