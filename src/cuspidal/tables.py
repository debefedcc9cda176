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
  classifications for degree <= 30, which are exactly family members
  (:func:`~cuspidal.families.member_rows`): one pair, the AMS curves (d)
  and (2, m), kashiwara-ii-ge, kashiwara-ii-sp and the first Orevkov
  curves, of degrees 8 and 16; two pairs, the AMS curves (n, m) and
  (2, n, m), kashiwara-iiplus-ge and kashiwara-iiplus-sp with one lambda,
  tono-ia, tono-iia and the Orevkov curves from k = 2;
* ``lct-kashiwara`` / ``lct-tono`` / ``lct-orevkov`` -- closed-form log
  canonical thresholds and self-intersections over the standard parameter
  grids, cross-checked against recomputation from Newton pairs;
* ``all`` -- the union of the four classification tables against the full
  degree-<= 30 classification run.

One registry holds the tables: ``_PAIR_TABLES`` maps each pair table to
its number of Newton pairs and its rows, built on first use and once per
process, and
``_LCT_GRIDS`` maps each ``lct-*`` table to its parameter grid.
:data:`TABLE_IDS`, :func:`expected_table`, :func:`reproduce` and the
expected rows of ``all`` all read it, and ``MAX_DEGREE``, the paper's
bound from :mod:`~cuspidal.existence`, is the one degree bound.

Every classification table is diffed against classified records, which
carry the fields of :func:`~cuspidal.enumerate.classify_record` from the
search task that builds them: the four pair tables and
``induct`` each search and classify their own pair count once, in one
search over every degree with one task per (degree, a), as
``classify_range`` does for every pair count at once, and ``induct``
reads existence and the reduction chain off those records.

The degree-25 curve with pairs (5,31),(2,3) is in ``twopairs`` as
kashiwara-iiplus-sp at l = 0, lambda = 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, partial

from . import invariants as inv
from .enumerate import PRUNED, _search, classify_range, max_pairs_bound
from .existence import CANDIDATE, MAX_DEGREE, PROVED_REDUCTION
from .families import (
    FamilyParameterError,
    _closed_forms,
    family_curve,
    kashiwara_grid,
    member_rows,
    orevkov_grid,
    tono_grid,
)
from .records import FLAG_INCONSISTENT, CurveRecord

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


# the classification tables: id -> (number of Newton pairs, rows); the
# family members' rows are built on first use, once per process
_PAIR_TABLES = {
    "onepair": (1, cache(partial(member_rows, 1, MAX_DEGREE))),
    "twopairs": (2, cache(partial(member_rows, 2, MAX_DEGREE))),
    "threepairs": (3, lambda: THREE_PAIR_ROWS),
    "fourpairs": (4, lambda: FOUR_PAIR_ROWS),
}

# the closed-form cross-checks: id -> standard parameter grid
_LCT_GRIDS = {
    "lct-kashiwara": lambda: kashiwara_grid(3, 2, 2),  # l <= 3, N <= 2, lambda_i <= 2
    "lct-tono": lambda: tono_grid(7, 4, 5),  # a <= 7, s <= 4, n <= 5
    "lct-orevkov": lambda: orevkov_grid(4),  # k <= 4
}

TABLE_IDS = (*_PAIR_TABLES, "induct", *_LCT_GRIDS, "all")


def expected_table(identifier: str) -> tuple:
    """The embedded rows of a classification table or of ``induct``:
    (degree, pairs) for one and two pairs, (degree, pairs, multiplicity)
    for three and four, and the :data:`REDUCTION_ROWS` for ``induct``."""
    if identifier == "induct":
        return REDUCTION_ROWS
    if identifier not in _PAIR_TABLES:
        raise KeyError(f"no embedded table {identifier!r}")
    return _PAIR_TABLES[identifier][1]()


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
    """The classified records of one pair count over degrees <= MAX_DEGREE,
    from one search over the cells (degree, pair count), one task per
    (degree, a), each classifying the records it builds, in canonical order
    for any worker count."""
    ks = range(pair_count, pair_count + 1)
    cells = [(d, ks) for d in range(3, MAX_DEGREE + 1) if max_pairs_bound(d) >= pair_count]
    return _search(cells, PRUNED, worker_count, classify=True)


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
    _diff_pair_table(report, set(REDUCTION_ROWS), got, row_str, key=str)


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


def reproduce(identifier: str, worker_count: int = 1) -> ReproduceReport:
    """Regenerate one table from first principles and diff it row by row
    against the embedded expected data."""
    report = ReproduceReport(identifier)
    start = time.monotonic()
    if identifier in _PAIR_TABLES:
        pair_count, rows = _PAIR_TABLES[identifier]
        records = _classified(pair_count, worker_count)
        _diff_classified(report, set(rows()), records, with_mult=pair_count >= 3)
    elif identifier in _LCT_GRIDS:
        _reproduce_lct(report, _LCT_GRIDS[identifier]())
    elif identifier == "induct":
        _reproduce_induct(report, worker_count)
    elif identifier == "all":
        expected = {row[:2] for _, rows in _PAIR_TABLES.values() for row in rows()}
        _diff_classified(report, expected, classify_range(MAX_DEGREE, worker_count))
    else:
        raise KeyError(f"unknown table id {identifier!r}; choose from {TABLE_IDS}")
    report.elapsed = time.monotonic() - start
    return report
