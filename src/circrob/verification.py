"""O(n^2) verification of a circular order against the four compatibility notions.

Quasi-circular compatibility is a condition on each row, read circularly
from after the diagonal: for entries i < j < k of the read, qcr asks that
v[j] >= min(v[i], v[k]) - eps and sqcr that v[j] > min(v[i], v[k]) + eps.
Both flags come from one order-break rule over the steps of a read (step s
joins entries s and s+1): a row fails when a step of one kind comes before a
step of another.  Weak: a fall (entry s+1 more than eps below an earlier
entry) before a rise (entry s more than eps below a later one).  Strict: a
step that does not rise by more than eps before one that does not fall by
more than eps; the entries up to j each exceed all earlier ones by more than
eps iff every step up to j rises by more than eps.  A failing row's witness
is a :class:`RowWitness`, whose docstring says what it certifies.

Circular compatibility additionally forbids, for unimodal-compatible orders,
any pair x, y with farthest neighbors x', y' arranged as x < x' < y < y' or
x < y' < y < x' around the cycle (the farthest arcs must interleave).  In the
non-strict mode a witness only counts when x, x' avoid F_y and y, y' avoid
F_x.  The farthest set of every point is an arc of the order whenever the
matrix is unimodal, so the witness search works on the arc extremities S and
E alone.  On the unrolled cycle u in [0, 2n), a point crosses some partner
iff the suffix minimum of the keys u + S[u mod n] (or u + E) passes it, or
the prefix maximum of the other keys does: two running extrema, so the
crossing test is O(n).

verify runs the row scan, the only one in this module, and builds its
report from it; is_unimodal, is_strictly_unimodal and crossing_violation
read their answers off that report.  Each costs at most one O(n^2) row scan
plus O(n): the scan ends at the first block with a weak violation, which
already holds both violations the full scan would report, and the crossing
test then does not run.  compatible_orders takes the same two steps on its
first candidate, so that it can derive a second candidate's report from
the scan's arc ends.

The scan reads the rows in blocks of about _BLOCK_BYTES, small enough to
stay in cache.  A block's rows are gathered once, in position order, over
the columns of the order written twice that their reads cover; each read
starts one column after the one before, so the reads of a block are one
strided view of the gather, with no index array and no copy.  Each block
first takes one strict-accept check, at every eps: when every row of the
block passes the strict rule, the arc ends come from each row's first
argmax and its two neighbours, and neither the order-break rules nor the
running maxima of the weak rule at eps > 0 run.  So on an accepted order
the scan costs about the same at eps > 0 as at eps = 0.  Any other block
runs both rules in full.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Optional

import numpy as np

from .core import CircularOrder, DissimilarityMatrix, _check_eps, _check_order

__all__ = [
    "UnimodalityReport",
    "RowWitness",
    "CrossingWitness",
    "ClassificationReport",
    "is_unimodal",
    "is_strictly_unimodal",
    "crossing_violation",
    "verify",
]

# bytes of gathered rows per scan block: small enough to stay in cache
_BLOCK_BYTES = 512 << 10


@dataclass(frozen=True)
class UnimodalityReport:
    """Outcome of the circular row scan: on failure, ``violating_row`` and
    ``violating_positions`` are the ``row`` and ``positions`` of the
    :class:`RowWitness`."""

    ok: bool
    violating_row: Optional[int]
    violating_positions: Optional[tuple[int, int]]


class RowWitness(NamedTuple):
    """A row whose circular read breaks the (strict) quasi rule.

    ``positions`` (a, b) are 0-based offsets into the circular read of point
    ``row`` (offset 0 is the entry just after the diagonal), one past the
    first and the last step of the order break: the least entry among
    offsets a..b-1 breaks the (strict) qcr margin against the largest entry
    before a and the largest from b on.
    """

    row: int
    positions: tuple[int, int]

    def to_json_dict(self) -> dict[str, Any]:
        return {"row": self.row, "positions": list(self.positions)}


@dataclass(frozen=True)
class CrossingWitness:
    """Pair (x, y) with farthest neighbors laid out in a forbidden chain."""

    x: int
    y: int
    x_prime: int
    y_prime: int
    pattern: str  # "x<x'<y<y'" or "x<y'<y<x'"

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ClassificationReport:
    """The four flags, and a witness under the key of each false one.

    ``witnesses`` is stored as a read-only copy of the mapping given, so
    one witness may stand under two keys.
    """

    quasi: bool
    strict_quasi: bool
    circular: bool
    strict_circular: bool
    witnesses: Mapping[str, RowWitness | CrossingWitness] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def to_json_dict(self) -> dict[str, Any]:
        witness = None
        if self.witnesses:
            witness = {key: val.to_json_dict() for key, val in self.witnesses.items()}
        return {
            "quasi": self.quasi,
            "strict_quasi": self.strict_quasi,
            "circular": self.circular,
            "strict_circular": self.strict_circular,
            "witness": witness,
        }


class _RowScan(NamedTuple):
    """What verify's row scan found: per position the 1-based offsets
    s_off/e_off of the first/last row-maximum entry in the circular read
    (the farthest arc), and the first weak and strict violations as
    RowWitness of their point.  The scan stops at the first block with a weak
    violation, leaving s_off/e_off past it at their initial values; they
    are read only when there is no weak violation, so the scan was whole."""

    s_off: np.ndarray
    e_off: np.ndarray
    weak_violation: Optional[RowWitness]
    strict_violation: Optional[RowWitness]


def _break(before: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the step masks, the first marked step of `before` (the step
    count when none is) and the last marked step of `after` (-1 when none
    is).  The row breaks its order when first < last."""
    L = before.shape[1]
    first = np.where(before.any(axis=1), before.argmax(axis=1), L)
    last = np.where(after.any(axis=1), (L - 1) - after[:, ::-1].argmax(axis=1), -1)
    return first, last


def _scan_block(
    v: np.ndarray, eps: float, S: np.ndarray, E: np.ndarray
) -> tuple[Optional[RowWitness], Optional[RowWitness]]:
    """Scan the circular reads v (B, n-1) of a block of rows: write each
    row's arc ends into S and E, and return the block's first weak and
    first strict violation, each a RowWitness of the row within the block,
    or None.

    One check runs first, at every eps: a row breaks the strict rule iff
    some step that does not rise by more than eps is followed at once by
    one that does not fall by more than eps (no step does neither).  When
    no row of the block has such a pair, every row passes the strict rule,
    hence the weak one, and its plateau within eps of the maximum is its
    first argmax r plus at most one neighbour, so the arc ends come from r
    alone.  Any other block runs both order-break rules in full."""
    L = v.shape[1]
    # step s joins entries s and s+1
    step = v[:, 1:] - v[:, :-1]
    no_rise, no_fall = step <= eps, step >= -eps
    if not (no_rise[:, :-1] & no_fall[:, 1:]).any():
        rows, r = np.arange(v.shape[0]), v.argmax(axis=1)
        top = v[rows, r] - eps
        S[:] = 1 + r - ((r > 0) & (v[rows, r - 1] >= top))
        E[:] = 1 + r + ((r + 1 < L) & (v[rows, np.minimum(r + 1, L - 1)] >= top))
        return None, None

    m = v.max(axis=1)
    plateau = v >= (m[:, None] - eps)
    S[:] = 1 + plateau.argmax(axis=1)
    E[:] = L - plateau[:, ::-1].argmax(axis=1)
    if eps:
        # weak: entry s+1 lies more than eps below an earlier entry, entry s
        # more than eps below a later one
        ahead = np.maximum.accumulate(v[:, :-1], axis=1)
        behind = np.maximum.accumulate(v[:, :0:-1], axis=1)[:, ::-1]
        w_fall, w_rise = v[:, 1:] - ahead < -eps, v[:, :-1] - behind < -eps
    else:
        # exact at eps = 0: before the first fall the running maximum is the
        # previous entry, and the mirror holds for the last rise
        w_fall, w_rise = ~no_fall, ~no_rise
    found = []
    for first, last in (_break(w_fall, w_rise), _break(no_rise, no_fall)):
        ok = first >= last
        b = int(ok.argmin())
        found.append(None if ok[b] else RowWitness(b, (int(first[b]) + 1, int(last[b]) + 1)))
    return found[0], found[1]


def _scan_rows(values: np.ndarray, order_arr: np.ndarray, eps: float) -> _RowScan:
    """verify's row scan: the rows up to the first block with a weak
    violation, or all of them.  A row that passes the strict rule passes the
    weak one, so that block or an earlier one holds the first strict
    violation too."""
    n = order_arr.size
    S, E = np.ones(n, dtype=np.intp), np.ones(n, dtype=np.intp)
    weak = strict = None
    if n < 2:
        return _RowScan(S, E, weak, strict)
    # Row b of a block reads positions start + b + 1 .. start + b + n - 1
    # (mod n): columns b .. b + n - 2 of the gather g, so a row stride one
    # entry longer than g's makes the reads of the block one view of g.
    B = min(n, max(1, _BLOCK_BYTES // (16 * n)))  # a row is gathered twice: 16n bytes
    cols = np.concatenate([order_arr, order_arr])
    for start in range(0, n, B):
        k = min(B, n - start)
        rows = order_arr[start : start + k]
        g = values[rows].take(cols[start + 1 : start + n + k - 1], axis=1)
        v = np.ndarray((k, n - 1), g.dtype, g, 0, (g.strides[0] + g.itemsize, g.itemsize))
        w, s = _scan_block(v, eps, S[start : start + k], E[start : start + k])
        if strict is None and s is not None:
            strict = s._replace(row=int(rows[s.row]))
        if w is not None:
            weak = w._replace(row=int(rows[w.row]))
            break
    return _RowScan(S, E, weak, strict)


def _unimodality(report: ClassificationReport, key: str) -> UnimodalityReport:
    """The unimodality report of the "quasi" or "strict_quasi" witness."""
    w = report.witnesses.get(key)
    if w is None:
        return UnimodalityReport(ok=True, violating_row=None, violating_positions=None)
    return UnimodalityReport(ok=False, violating_row=w.row, violating_positions=w.positions)


def is_unimodal(D: DissimilarityMatrix, order: CircularOrder, eps: float = 0.0) -> UnimodalityReport:
    """No circular row read has a falling step before a rising one: no entry
    lies more than eps below both an earlier and a later entry.

    Equivalent to: the order is compatible for quasi-circular Robinson.
    Read off verify's report.
    """
    return _unimodality(verify(D, order, eps), "quasi")


def is_strictly_unimodal(
    D: DissimilarityMatrix, order: CircularOrder, eps: float = 0.0
) -> UnimodalityReport:
    """No circular row read has a step that does not rise by more than eps
    before one that does not fall by more than eps: each read climbs by more
    than eps per step, takes at most one step within eps, then falls by
    more than eps per step.

    Equivalent to: the order is compatible for strict quasi-circular Robinson.
    Read off verify's report.
    """
    return _unimodality(verify(D, order, eps), "strict_quasi")


def _crossing_from_scan(
    order_arr: np.ndarray, scan: _RowScan, strict: bool
) -> Optional[CrossingWitness]:
    n = order_arr.size
    if n < 4:
        return None
    # Offsets relative to each point: the farthest arc of the point at
    # position p spans offsets S[p]..E[p] in 1..n-1 after cutting the cycle
    # at p.  On the unrolled axis u = p + t, the point y at offset t sees x
    # at offset n - t.  Pattern 1 (x<x'<y<y') asks for a partner past x's
    # near end a[p] whose own near end falls short of x: near[u] < p + n.
    # Pattern 2 (x<y'<y<x') asks for a partner before x's far end b[p]
    # whose far end passes x: far[u] > p + n.  Strict arcs are a, b = S, E;
    # the non-strict mode keeps only x and y outside each other's arc, which
    # swaps the ends.  near[u] >= u + 1 and far[u] <= u + n - 1, so no u past
    # the pattern-1 window (u >= p + n) and none before the pattern-2 window
    # (u <= p) can hit: each window stretches to the end (start) of the axis,
    # and one suffix minimum and one prefix maximum test every p in O(n).
    S, E = scan.s_off, scan.e_off
    a, b = (S, E) if strict else (E, S)
    u = np.arange(2 * n)
    near, far = u + np.tile(a, 2), u + np.tile(b, 2)
    pos = np.arange(n)
    hits = np.minimum.accumulate(near[::-1])[::-1][pos + a + 1] < pos + n
    hits |= np.maximum.accumulate(far)[pos + b - 1] > pos + n
    if not hits.any():
        return None
    # the first partner y of the first hit x, pattern 1 before pattern 2
    px = int(hits.argmax())
    t = np.arange(1, n)
    pat1 = (t > a[px]) & (near[px + t] < px + n)
    pat2 = (t < b[px]) & (far[px + t] > px + n)
    j = int((pat1 | pat2).argmax())
    py = (px + 1 + j) % n
    ends, pattern = (S, "x<x'<y<y'") if pat1[j] else (E, "x<y'<y<x'")
    return CrossingWitness(
        x=int(order_arr[px]),
        y=int(order_arr[py]),
        x_prime=int(order_arr[(px + ends[px]) % n]),
        y_prime=int(order_arr[(py + ends[py]) % n]),
        pattern=pattern,
    )


def crossing_violation(
    D: DissimilarityMatrix, order: CircularOrder, strict: bool, eps: float = 0.0
) -> Optional[CrossingWitness]:
    """Search for farthest-neighbor chains that rule out circular compatibility.

    Requires the order to be (strictly) unimodal-compatible, so that farthest
    sets are arcs.  Returns None iff the order is compatible for (strict)
    circular Robinson, given that precondition.  Read off verify's report.
    """
    report = verify(D, order, eps)
    if not (report.strict_quasi if strict else report.quasi):
        mode = "strictly unimodal" if strict else "unimodal"
        raise ValueError(f"crossing test requires a {mode} compatible order")
    return report.witnesses.get("strict_circular" if strict else "circular")


def verify(
    D: DissimilarityMatrix, order: CircularOrder, eps: float = 0.0
) -> ClassificationReport:
    """Classify the order against all four compatibility notions at once.

    At most one O(n^2) row scan plus O(n): the scan, the only one in this
    module, stops at the first block of rows with a weak violation, with
    the witnesses the full scan gives.  A block whose rows all pass the
    strict rule skips both order-break rules, so a strictly unimodal order
    costs about the same at eps > 0 as at eps = 0.  The quasi flags and the
    strict circular flag equal the quadruple definitions at every eps, the
    weak circular flag at eps = 0 only: at eps > 0 the crossing rule on
    farthest arcs within eps of the row maximum can differ from
    pre-circular and circular by arcs.
    """
    order_arr = _check_order(D, order)
    return _report_from_scan(order_arr, _scan_rows(D.values, order_arr, _check_eps(eps)))


def _report_from_scan(order_arr: np.ndarray, scan: _RowScan) -> ClassificationReport:
    """verify's report of the order from its row scan: the quasi witnesses
    of the scan, and the crossing tests in O(n) where the quasi rules pass."""
    found: dict[str, RowWitness | CrossingWitness] = {}
    for strict, viol, quasi_key, circ_key in (
        (False, scan.weak_violation, "quasi", "circular"),
        (True, scan.strict_violation, "strict_quasi", "strict_circular"),
    ):
        if viol is not None:
            found[quasi_key] = found[circ_key] = viol
        elif (w := _crossing_from_scan(order_arr, scan, strict)) is not None:
            found[circ_key] = w
    # flags and witnesses in field order, the quasi witnesses first
    keys = ("quasi", "strict_quasi", "circular", "strict_circular")
    return ClassificationReport(
        **{key: key not in found for key in keys},
        witnesses={key: found[key] for key in keys if key in found},
    )
