"""Reference tables and their regeneration-and-diff checks.

The classification results this package reproduces are shipped as embedded
data (not test fixtures), so end users can audit them and re-derive every
row from first principles with :func:`reproduce`:

* ``threepairs`` / ``fourpairs`` -- the complete lists of three- and
  four-pair curves of degree <= 30, keyed by (degree, Newton pairs,
  multiplicity sequence);
* ``induct`` -- the block-reduction chains proving existence of those
  curves, ending in the base registry;
* ``onepair`` / ``twopairs`` -- the classical one- and two-pair
  classifications, instantiated for degree <= 30 from their closed forms;
* ``lct-kashiwara`` / ``lct-tono`` / ``lct-orevkov`` -- closed-form log
  canonical thresholds and self-intersections over the standard parameter
  grids, cross-checked against recomputation from Newton pairs;
* ``all`` -- the union of the four classification tables against the full
  degree-<= 30 classification run.

Every classification table is diffed against classified records
(:func:`~cuspidal.enumerate.classify_record`): the four pair tables and
``induct`` each enumerate and classify their own pair count once, and
``induct`` reads existence and the reduction chain off those records.

A note on ``twopairs``: the published closed-form list restricts its
second item to k >= 3, but the k = 2, l >= 1 instantiation produces the
genuine degree-25 curve with pairs (5,31),(2,3) (it is the same curve as
the first special tangency family member at l = 0, lambda = 1), so the
embedded table instantiates item 2 for k >= 2 with the degenerate
first-pair cases filtered out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import invariants as inv
from .enumerate import _classify_cells, classify_range, max_pairs_bound
from .existence import CANDIDATE, PROVED_REDUCTION
from .families import (
    FamilyParameterError,
    _closed_forms,
    family_curve,
    kashiwara_grid,
    orevkov_grid,
    tono_grid,
)
from .records import FLAG_INCONSISTENT, CurveRecord

TABLE_IDS = (
    "onepair",
    "twopairs",
    "threepairs",
    "fourpairs",
    "induct",
    "lct-kashiwara",
    "lct-tono",
    "lct-orevkov",
    "all",
)

# (degree, newton pairs, multiplicity sequence), in published row order.
THREE_PAIR_ROWS = (
    (12, ((2, 3), (2, 5), (2, 3)), "8,4_4,2_3"),
    (16, ((2, 7), (2, 3), (2, 3)), "8_3,4_3,2_3"),
    (16, ((3, 4), (2, 7), (2, 3)), "12,4_6,2_3"),
    (18, ((2, 3), (2, 5), (3, 5)), "12,6_4,3_3,2"),
    (18, ((2, 3), (3, 8), (2, 5)), "12,6_4,4,2_4"),
    (19, ((2, 3), (2, 7), (3, 7)), "12,6_5,3_4"),
    (20, ((4, 5), (2, 9), (2, 3)), "16,4_8,2_3"),
    (24, ((2, 7), (2, 3), (3, 5)), "12_3,6_3,3_3,2"),
    (24, ((2, 7), (3, 5), (2, 5)), "12_3,6_3,4,2_4"),
    (24, ((3, 11), (2, 5), (2, 3)), "12_3,8,4_4,2_3"),
    (24, ((2, 3), (2, 5), (4, 7)), "16,8_4,4_3,3"),
    (24, ((2, 3), (4, 11), (2, 7)), "16,8_4,6,2_6"),
    (24, ((3, 4), (2, 7), (3, 5)), "18,6_6,3_3,2"),
    (24, ((3, 4), (3, 11), (2, 5)), "18,6_6,4,2_4"),
    (24, ((5, 6), (2, 11), (2, 3)), "20,4_10,2_3"),
    (27, ((2, 3), (3, 8), (3, 8)), "18,9_4,6,3_4,2"),
    (28, ((2, 3), (3, 10), (3, 10)), "18,9_5,3_6"),
    (28, ((6, 7), (2, 13), (2, 3)), "24,4_12,2_3"),
    (30, ((2, 3), (2, 5), (5, 9)), "20,10_4,5_3,4"),
    (30, ((2, 3), (5, 14), (2, 9)), "20,10_4,8,2_8"),
    (30, ((4, 5), (2, 9), (3, 5)), "24,6_8,3_3,2"),
    (30, ((4, 5), (3, 14), (2, 5)), "24,6_8,4,2_4"),
)

FOUR_PAIR_ROWS = (
    (24, ((2, 3), (2, 5), (2, 3), (2, 3)), "16,8_4,4_3,2_3"),
)

# (degree, mult, (d', mult'), (d'', mult'') or None); "smooth" marks a
# reduction all the way down to the smooth conic.
REDUCTION_ROWS = (
    (12, "8,4_4,2_3", (4, "2_3"), None),
    (16, "8_3,4_3,2_3", (8, "4_3,2_3"), (4, "2_3")),
    (16, "12,4_6,2_3", (4, "2_3"), None),
    (18, "12,6_4,3_3,2", (6, "3_3,2"), None),
    (18, "12,6_4,4,2_4", (6, "4,2_4"), None),
    (20, "16,4_8,2_3", (4, "2_3"), None),
    (24, "12_3,6_3,3_3,2", (12, "6_3,3_3,2"), (6, "3_3,2")),
    (24, "12_3,6_3,4,2_4", (12, "6_3,4,2_4"), (6, "4,2_4")),
    (24, "12_3,8,4_4,2_3", (12, "8,4_4,2_3"), (4, "2_3")),
    (24, "16,8_4,4_3,3", (8, "4_3,3"), (4, "3")),
    (24, "16,8_4,6,2_6", (8, "6,2_6"), (2, "smooth")),
    (24, "18,6_6,3_3,2", (6, "3_3,2"), None),
    (24, "18,6_6,4,2_4", (6, "4,2_4"), None),
    (24, "20,4_10,2_3", (4, "2_3"), None),
    (27, "18,9_4,6,3_4,2", (9, "6,3_4,2"), (3, "2")),
    (28, "24,4_12,2_3", (4, "2_3"), None),
    (30, "20,10_4,5_3,4", (10, "5_3,4"), (5, "4")),
    (30, "20,10_4,8,2_8", (10, "8,2_8"), (2, "smooth")),
    (30, "24,6_8,3_3,2", (6, "3_3,2"), None),
    (30, "24,6_8,4,2_4", (6, "4,2_4"), None),
)


def one_pair_rows(max_degree: int) -> tuple[tuple[int, inv.Pairs], ...]:
    """The complete one-pair classification up to max_degree: the generic
    (d-1, d) curve, the even-degree (d/2, 2d-1) curve, two Fibonacci
    families and the sporadic degree-8 and degree-16 curves.  Here and in
    :func:`two_pair_rows` the Fibonacci rows stop at
    ``inv.FIBONACCI_INDEX_BOUND``."""
    rows = set()
    for d in range(3, max_degree + 1):
        rows.add((d, ((d - 1, d),)))
        if d % 2 == 0:
            rows.add((d, ((d // 2, 2 * d - 1),)))
    j = 5
    # phi_(j-2) phi_j >= phi_j, so no row is left once phi_j passes max_degree
    while j + 2 <= inv.FIBONACCI_INDEX_BOUND and inv.fibonacci(j) <= max_degree:
        if j % 2 == 1:
            d = inv.fibonacci(j - 2) * inv.fibonacci(j)  # = fib(j-1)^2 + 1
            if d <= max_degree:
                rows.add((d, ((inv.fibonacci(j - 2) ** 2, inv.fibonacci(j) ** 2),)))
            if inv.fibonacci(j) <= max_degree:
                rows.add((inv.fibonacci(j), ((inv.fibonacci(j - 2), inv.fibonacci(j + 2)),)))
        j += 1
    if max_degree >= 8:
        rows.add((8, ((3, 22),)))
    if max_degree >= 16:
        rows.add((16, ((6, 43),)))
    return tuple(sorted(rows))


def two_pair_rows(max_degree: int) -> tuple[tuple[int, inv.Pairs], ...]:
    """The complete two-pair classification up to max_degree (see the
    module docstring for the k >= 2 reading of the second item)."""
    rows = set()

    def add(d, pairs):
        try:
            inv.validate_newton_pairs(pairs)
        except inv.InvalidCuspData:
            return  # degenerate instantiation (leading p = 1)
        if d <= max_degree:
            rows.add((d, pairs))

    fib, top = inv.fibonacci, inv.FIBONACCI_INDEX_BOUND
    k = 2
    while 2 * k + 1 <= top and fib(2 * k - 1) * fib(2 * k + 1) * fib(2 * k - 3) ** 2 <= max_degree:
        l = 0
        while True:
            head = l * fib(2 * k - 1) ** 2 + fib(2 * k - 3) ** 2
            d = fib(2 * k - 1) * fib(2 * k + 1) * head
            if d > max_degree:
                break
            if not (k == 2 and l == 0):
                q1 = l * fib(2 * k + 1) ** 2 + fib(2 * k - 1) ** 2 + 2
                add(d, ((head, q1), (fib(2 * k - 1) ** 2, head)))
            l += 1
        k += 1
    k = 2
    while 2 * k + 1 <= top and fib(2 * k + 1) * fib(2 * k - 3) ** 2 <= max_degree:
        l = 0
        while True:
            head = l * fib(2 * k - 1) ** 2 + fib(2 * k - 3) ** 2
            d = fib(2 * k + 1) * head
            if d > max_degree:
                break
            q1 = l * fib(2 * k + 1) ** 2 + fib(2 * k - 1) ** 2 + 2
            add(d, ((head, q1), (fib(2 * k - 1), l * fib(2 * k - 1) + fib(2 * k - 5))))
            l += 1
        k += 1
    for n in range(3, max_degree + 1):
        for m in range(2, max_degree // n + 1):
            add(n * m, ((n - 1, n), (m, n * m - 1)))
    for n in range(2, max_degree + 1):
        for m in range(2, max_degree // (2 * n) + 1):
            add(2 * n * m, ((n, 4 * n - 1), (m, n * m - 1)))
    n = 3
    while n * n + 1 <= max_degree:
        add(n * n + 1, ((n - 1, n), (n, (n + 1) ** 2)))
        n += 1
    n = 2
    while 8 * n * n + 4 * n + 1 <= max_degree:
        add(8 * n * n + 4 * n + 1, ((n, 4 * n + 1), (4 * n + 1, (2 * n + 1) ** 2)))
        n += 1
    k = 2
    while 4 * k + 4 <= top and fib(4 * k + 2) <= max_degree:
        add(fib(4 * k + 2), ((fib(4 * k) // 3, fib(4 * k + 4) // 3), (3, 1)))
        k += 1
    k = 2
    while 4 * k + 4 <= top and 2 * fib(4 * k + 2) <= max_degree:
        add(2 * fib(4 * k + 2), ((fib(4 * k) // 3, fib(4 * k + 4) // 3), (6, 1)))
        k += 1
    return tuple(sorted(rows))


@dataclass(frozen=True)
class ExpectedTable:
    identifier: str
    description: str
    rows: tuple


def expected_table(identifier: str) -> ExpectedTable:
    if identifier == "threepairs":
        return ExpectedTable("threepairs", "three-pair curves of degree <= 30", THREE_PAIR_ROWS)
    if identifier == "fourpairs":
        return ExpectedTable("fourpairs", "four-pair curves of degree <= 30", FOUR_PAIR_ROWS)
    if identifier == "induct":
        return ExpectedTable("induct", "reduction chains for the three-pair curves", REDUCTION_ROWS)
    if identifier == "onepair":
        return ExpectedTable("onepair", "one-pair curves of degree <= 30", one_pair_rows(30))
    if identifier == "twopairs":
        return ExpectedTable("twopairs", "two-pair curves of degree <= 30", two_pair_rows(30))
    raise KeyError(f"no embedded table {identifier!r}")


# the classification tables, by their number of Newton pairs
_PAIR_COUNTS = {"onepair": 1, "twopairs": 2, "threepairs": 3, "fourpairs": 4}

# standard cross-check grids
KASHIWARA_GRID = (3, 2, 2)  # l <= 3, N <= 2, lambda_i <= 2
TONO_GRID = (7, 4, 5)       # a <= 7, s <= 4, n <= 5
OREVKOV_GRID = 4            # k <= 4


@dataclass
class ReproduceReport:
    """Row-level diff of a regenerated table against the embedded one."""

    table: str
    matched: int = 0
    total: int = 0
    missing: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)
    mismatched: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.missing or self.unexpected or self.mismatched)

    def render(self) -> str:
        lines = [f"table {self.table}: {self.matched}/{self.total} rows match"]
        lines += [f"  missing:    {row}" for row in self.missing]
        lines += [f"  unexpected: {row}" for row in self.unexpected]
        lines += [f"  mismatch:   {row}" for row in self.mismatched]
        lines += [f"  note: {note}" for note in self.notes]
        lines.append(f"  [{'OK' if self.ok else 'FAIL'} in {self.elapsed:.2f}s]")
        return "\n".join(lines)


def _pair_row_str(degree: int, pairs: inv.Pairs, mult: str | None = None) -> str:
    text = f"d={degree} {inv.format_newton(pairs)}"
    return text if mult is None else f"{text} [{mult}]"


def _classified(pair_count: int, worker_count: int) -> list[CurveRecord]:
    """The classified records of one pair count over degrees <= 30, one
    search task per degree, in canonical order for any worker count."""
    cells = [(d, pair_count) for d in range(3, 31) if max_pairs_bound(d) >= pair_count]
    return _classify_cells(cells, worker_count)


def _diff_pair_table(
    report: ReproduceReport, expected: set, got: set, row_str=_pair_row_str, key=None
) -> None:
    report.total = len(expected)
    report.matched = len(expected & got)
    report.missing = [row_str(*row) for row in sorted(expected - got, key=key)]
    report.unexpected = [row_str(*row) for row in sorted(got - expected, key=key)]


def _diff_classified(
    report: ReproduceReport, expected: set, records, with_mult: bool = False
) -> None:
    """Diff classified records against (degree, pairs) rows, or against
    (degree, pairs, multiplicity) rows ``with_mult``.  A candidate with no
    known construction is noted and left out of the rows."""
    got = set()
    for record in records:
        if record.existence == CANDIDATE:
            report.notes.append(
                "unconfirmed candidate (passes the counting criterion, no "
                f"known construction): {_pair_row_str(record.degree, record.newton)}"
            )
            continue
        row = (record.degree, record.newton)
        got.add(row + (inv.format_multiplicity(record.mult),) if with_mult else row)
    _diff_pair_table(report, expected, got)


def _reproduce_induct(report, worker_count):
    expected = {
        (d, m, step1, step2) for d, m, step1, step2 in REDUCTION_ROWS
    }
    got = set()
    for record in _classified(3, worker_count):
        blocks = [s for s in record.reduction_chain if s.rule.startswith("block")]
        if not blocks:
            report.notes.append(
                f"d={record.degree} [{inv.format_multiplicity(record.mult)}] "
                f"resolved by {record.existence} (not a block-reduction row)"
            )
            continue
        if record.existence != PROVED_REDUCTION:
            report.mismatched.append(
                f"d={record.degree} chain does not end in the base registry"
            )
            continue
        steps = [
            (s.to_degree, inv.format_multiplicity(s.to_mult)) for s in blocks
        ]
        got.add(
            (
                record.degree,
                inv.format_multiplicity(record.mult),
                steps[0],
                steps[1] if len(steps) > 1 else None,
            )
        )

    def row_str(d, m, s1, s2):
        out = f"d={d} [{m}] -> d'={s1[0]} [{s1[1]}]"
        if s2 is not None:
            out += f" -> d''={s2[0]} [{s2[1]}]"
        return out

    # rows without a second step hold None, which does not order
    _diff_pair_table(report, expected, got, row_str, key=str)


def _reproduce_lct(report, grid_specs):
    rejected = 0
    for spec in grid_specs:
        try:
            record = family_curve(spec)
        except FamilyParameterError:
            rejected += 1
            continue
        report.total += 1
        expected_lct, expected_si = _closed_forms(spec, record.newton)
        if FLAG_INCONSISTENT in record.flags:
            # both values are recorded; the row "matches" exactly when the
            # discrepancy is visible rather than silently resolved
            if record.lct != expected_lct:
                report.matched += 1
                report.notes.append(
                    f"{spec.describe()}: flagged inconsistent source data "
                    f"(pairs give lct {record.lct}, closed form {expected_lct})"
                )
            else:
                report.mismatched.append(
                    f"{spec.describe()}: expected a flagged discrepancy"
                )
            continue
        if record.lct == expected_lct and record.self_intersection == expected_si:
            report.matched += 1
        else:
            report.mismatched.append(
                f"{spec.describe()}: recomputed (lct={record.lct}, "
                f"C^2={record.self_intersection}), closed form "
                f"(lct={expected_lct}, C^2={expected_si})"
            )
    if rejected:
        report.notes.append(f"{rejected} parameter combinations rejected by validation")


def _reproduce_all(report, worker_count):
    expected = {(d, pairs) for d, pairs, _ in THREE_PAIR_ROWS + FOUR_PAIR_ROWS}
    expected.update(one_pair_rows(30))
    expected.update(two_pair_rows(30))
    _diff_classified(report, expected, classify_range(30, worker_count))


def reproduce(identifier: str, worker_count: int = 1) -> ReproduceReport:
    """Regenerate one table from first principles and diff it row by row
    against the embedded expected data."""
    report = ReproduceReport(identifier)
    start = time.monotonic()
    if identifier in _PAIR_COUNTS:
        pair_count = _PAIR_COUNTS[identifier]
        rows = set(expected_table(identifier).rows)
        _diff_classified(report, rows, _classified(pair_count, worker_count), pair_count >= 3)
    elif identifier == "induct":
        _reproduce_induct(report, worker_count)
    elif identifier == "lct-kashiwara":
        _reproduce_lct(report, kashiwara_grid(*KASHIWARA_GRID))
    elif identifier == "lct-tono":
        _reproduce_lct(report, tono_grid(*TONO_GRID))
    elif identifier == "lct-orevkov":
        _reproduce_lct(report, orevkov_grid(OREVKOV_GRID))
    elif identifier == "all":
        _reproduce_all(report, worker_count)
    else:
        raise KeyError(f"unknown table id {identifier!r}; choose from {TABLE_IDS}")
    report.elapsed = time.monotonic() - start
    return report
