"""Command-line interface: recognize, verify, oracle, generate.

Exit codes: 0 when the requested property holds, 1 when it does not, 2 on
input or usage errors.  The commands raise on bad input; `main` is where such
an error becomes one `error:` line on stderr and exit code 2, and a warning
(a TieWarning on tied distances) one `warning:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import (
    DissimilarityMatrix, MatrixFormatError, _check_eps, canonicalize, load_matrix
)
from .generators import (
    GenerationError, GeneratorSpec, circle_instance, counterexample_fixture, perturb,
    two_cluster_instance,
)
from .oracle import oracle_classify
from .recognition import compatible_orders
from .verification import verify

_CLASSES = ("quasi", "strict-quasi", "circular", "strict-circular")


def _fmt_order(seq) -> str:
    return ",".join(str(i) for i in seq)


def _print(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _tolerance(text: str) -> float:
    """The --epsilon of recognize, verify and oracle: a finite number >= 0."""
    try:
        return _check_eps(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _indices(text: str) -> list[int]:
    """The --order of verify: integers separated by commas or spaces."""
    out = []
    for token in text.replace(",", " ").split():
        try:
            out.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None
    return out


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one `warning:` line on stderr, without the source
    location and line that Python's format adds."""
    print(f"warning: {message}", file=sys.stderr)


def _read_npy(path: str) -> np.ndarray:
    """The array in a .npy file, mapped copy-on-write: the file is never written."""
    try:
        arr = np.load(path, mmap_mode="c", allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise MatrixFormatError(f"not a readable .npy file: {exc}") from None
    if isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf":
        return arr
    if hasattr(arr, "close"):  # a zip (.npz) archive named *.npy
        arr.close()
    raise MatrixFormatError("a .npy matrix must hold one array of real numbers")


def _load(args) -> DissimilarityMatrix:
    """The matrix in --input (a .npy array, or text in format A, B or CSV),
    read with --epsilon."""
    if args.input.endswith(".npy"):
        return DissimilarityMatrix._adopt(_read_npy(args.input), eps=args.epsilon)
    with open(args.input) as fh:
        return load_matrix(fh, eps=args.epsilon)


def _cmd_recognize(args) -> int:
    D = _load(args)
    if args.cls in ("quasi", "circular"):
        # no construction algorithm exists for the non-strict classes: the
        # exhaustive oracle answers them, up to its cap
        cls = oracle_classify(D, eps=args.epsilon)
        orders = cls.quasi_circular if args.cls == "quasi" else cls.circular_by_arcs
        holds = len(orders) > 0
        payload = {"class": args.cls, "holds": holds, "orders": [list(o.seq) for o in orders]}
        _print(
            payload,
            args.json,
            [
                f"class {args.cls}: {'holds' if holds else 'does not hold'}",
                "compatible orders: "
                + (" | ".join(_fmt_order(o.seq) for o in orders) or "(none)"),
            ],
        )
        return 0 if holds else 1

    order_set = compatible_orders(D, args.cls, eps=args.epsilon)
    candidate, report = order_set.candidates[0]
    holds = len(order_set.orders) > 0
    payload = {
        "class": args.cls,
        "holds": holds,
        "candidate": list(candidate.seq),
        "report": report.to_json_dict(),
        "order_set": order_set.to_json_dict(),
    }
    lines = [
        f"candidate order: {_fmt_order(candidate.seq)}",
        f"quasi: {report.quasi}  strict-quasi: {report.strict_quasi}"
        f"  circular: {report.circular}  strict-circular: {report.strict_circular}",
        f"class {args.cls}: {'holds' if holds else 'does not hold'}",
        "compatible orders: "
        + (" | ".join(_fmt_order(o.seq) for o in order_set.orders) or "(none)"),
    ]
    if order_set.bipartition is not None:
        N, F, delta = order_set.bipartition
        lines.append(f"bipartition: N={sorted(N)} F={sorted(F)} delta={delta}")
    _print(payload, args.json, lines)
    return 0 if holds else 1


def _cmd_verify(args) -> int:
    D = _load(args)
    order = canonicalize(args.order)
    report = verify(D, order, eps=args.epsilon)
    payload = report.to_json_dict()
    payload["order"] = list(order.seq)
    _print(
        payload,
        args.json,
        [
            f"order (canonical): {_fmt_order(order.seq)}",
            f"quasi: {report.quasi}",
            f"strict-quasi: {report.strict_quasi}",
            f"circular: {report.circular}",
            f"strict-circular: {report.strict_circular}",
        ],
    )
    return 0 if getattr(report, args.cls.replace("-", "_")) else 1


def _cmd_oracle(args) -> int:
    cls = oracle_classify(_load(args), eps=args.epsilon)
    payload = cls.to_json_dict()
    lines = [
        f"{name}: " + (" | ".join(_fmt_order(o) for o in orders) or "(none)")
        for name, orders in payload.items()
    ]
    _print(payload, args.json, lines)
    return 0


def _write_matrix(D: DissimilarityMatrix, out: Path) -> None:
    """Write D as a .npy array when `out` ends in .npy, the rule _load reads
    by, else as format-A text, one row at a time, with repr() values so that
    the text loads back bit-identical."""
    if str(out).endswith(".npy"):
        with out.open("wb") as fh:
            np.save(fh, D.values, allow_pickle=False)
        return
    with out.open("w") as fh:
        fh.write(f"{D.n}\n")
        for row in D.values:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def _cmd_generate(args) -> int:
    params: dict = {}
    if args.kind == "fixture":
        D = counterexample_fixture()
    elif args.kind in ("circle-arc", "circle-chord"):
        D = circle_instance(args.n, args.kind.split("-")[1])
    elif args.kind == "two-cluster":
        k = args.k if args.k is not None else args.n // 2
        l = args.l if args.l is not None else args.n - args.n // 2
        params = {"k": k, "l": l}
        D = two_cluster_instance(k, l, seed=args.seed)
    else:  # perturbed
        D = perturb(circle_instance(args.n, "chord"), args.epsilon, seed=args.seed)
    spec = GeneratorSpec(
        kind=args.kind, n=D.n, seed=args.seed, epsilon=args.epsilon, params=params
    )
    out = Path(args.output)
    _write_matrix(D, out)
    out.with_suffix(out.suffix + ".json").write_text(
        json.dumps(spec.to_json_dict(), indent=2) + "\n"
    )
    print(f"wrote n={D.n} matrix to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circrob",
        description="Recognize and verify circular Robinson dissimilarity spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--input", required=True, help="matrix file (format A, B, CSV, or .npy)")
    matrix.add_argument("--epsilon", type=_tolerance, default=0.0)
    matrix.add_argument("--json", action="store_true")

    p = sub.add_parser("recognize", parents=[matrix], help="construct and check compatible orders")
    p.add_argument(
        "--class",
        dest="cls",
        choices=_CLASSES,
        default="strict-quasi",
        help="quasi and circular go through the exhaustive oracle (n <= 8)",
    )
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("verify", parents=[matrix], help="check one explicit order")
    p.add_argument("--order", type=_indices, required=True, help="comma-separated indices")
    p.add_argument("--class", dest="cls", choices=_CLASSES, default="quasi")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", parents=[matrix], help="exhaustive classification for small n")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("generate", help="emit a test instance")
    p.add_argument(
        "--kind",
        required=True,
        choices=("circle-arc", "circle-chord", "two-cluster", "perturbed", "fixture"),
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=None, help="first cluster size (two-cluster)")
    p.add_argument("--l", type=int, default=None, help="second cluster size (two-cluster)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.0, help="perturbation magnitude")
    p.add_argument("--output", required=True, help="*.npy for a numpy array, else format-A text")
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except (OSError, ValueError, GenerationError, MemoryError) as exc:
            # ValueError covers MatrixFormatError and UnicodeDecodeError
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
