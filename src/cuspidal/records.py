"""Curve records and their JSON/CSV/Markdown writers.

A :class:`CurveRecord` bundles everything this package knows about one
rational unicuspidal plane curve: degree, all four cusp representations,
the scalar invariants, the semigroup generators, an optional family
attribution with its logarithmic Kodaira dimension, an existence status and
the reduction chain that proves it.  Records are immutable; derived fields
are computed once by :func:`curve_record`, or for a search leaf by
:func:`_record`, and every stored invariant can be recomputed from the
Newton pairs.  A search leaf gets its classification fields when it is
built; any other record gets them attached with ``dataclasses.replace``.

Records are written in three formats (JSON, CSV, Markdown) and never read
back.  :class:`OutputDocument` writes them in the order it is given; every
caller passes canonical order (degree, then lexicographic Newton pairs), so
repeated runs are byte-identical.  Each record's JSON text is written
directly, without ``json.dumps``; the run metadata goes through
``json.dumps``.  The document is byte-identical to
``json.dumps(payload, indent=2) + "\n"`` with ASCII escapes, keys in
:func:`record_to_json_dict` order; the oracle tests in
``tests/test_records.py`` hold it to that reference.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str

from . import invariants as inv
from .existence import CANDIDATE, ReductionStep
from .semigroup import _generators

KODAIRA_NEG_INF = float("-inf")

FLAG_INCONSISTENT = "inconsistent-source-data"
FLAG_FRONTIER = "frontier"


@dataclass(frozen=True)
class FamilySpec:
    """A family attribution: which closed-form construction, which parameters.

    kinds: ams (params = ordered factorization of the degree);
    kashiwara-ii-{ge,sp} (params = (l,)); kashiwara-ii{plus,minus}-{ge,sp}
    (params = (l, lambda_1, ..., lambda_N)); tono-ia (a,); tono-ib (a, s);
    tono-iia (n,); tono-iib (n, s); orevkov / orevkov-star (k,).
    """

    kind: str
    params: tuple[int, ...]

    def describe(self) -> str:
        return f"{self.kind}{list(self.params)}"


@dataclass(frozen=True)
class CurveRecord:
    degree: int
    newton: inv.Pairs
    puiseux: inv.Pairs
    mult: inv.MultRuns
    delta: int
    semigroup_generators: tuple[int, ...]
    lct: Fraction
    self_intersection: int
    family: FamilySpec | None = None
    kodaira: float | int | None = None
    existence: str = CANDIDATE
    reduction_chain: tuple[ReductionStep, ...] = ()
    flags: tuple[str, ...] = ()

    def sort_key(self) -> tuple:
        return (self.degree, self.newton)


def cusp_data(
    degree: int, newton: inv.Pairs, *, strict: bool = True
) -> tuple[inv.Pairs, inv.MultRuns, int]:
    """Puiseux pairs, multiplicity runs and delta of the cusp with these
    Newton pairs, after the checks that :func:`curve_record` runs on them.

    delta comes from the multiplicity sequence, which equals the Puiseux
    formula on valid data.  ``strict`` (the default) adds validation on
    top: the Newton pairs must satisfy the cusp invariants and delta must
    equal the genus (d-1)(d-2)/2 of a degree-d curve.  The empty Newton
    sequence is the degenerate smooth branch (no cusp); it is only
    meaningful at degree <= 2 and is used for the smooth conic, so at any
    other degree it raises, strict or not.  Every failure raises
    :class:`~cuspidal.invariants.InvalidCuspData`.
    """
    if not newton:
        if inv.genus_target(degree) != 0:
            raise inv.InvalidCuspData(
                f"a smooth degree-{degree} curve is not rational; no record"
            )
        return (), (), 0
    if strict:
        inv.validate_newton_pairs(newton)
    puiseux = inv._puiseux_from_newton(newton)
    mult = inv._staged_euclid(puiseux)
    delta = inv._delta_from_runs(mult)
    if strict and delta != inv.genus_target(degree):
        raise inv.InvalidCuspData(
            f"delta {delta} != genus {inv.genus_target(degree)} at degree {degree}"
        )
    return puiseux, mult, delta


def curve_record(degree: int, newton: inv.Pairs, *, strict: bool = True) -> CurveRecord:
    """Build a record with all derived fields computed from the Newton pairs.

    Every field is derived from the Puiseux pairs, computed once by
    :func:`cusp_data`, which also runs the checks of ``strict`` (the
    default): the Newton pairs must satisfy the cusp invariants and delta
    must equal the genus.  The record carries only these invariants: no
    family, existence "candidate" and no flag.  Callers attach the rest
    with ``dataclasses.replace`` (``family_curve`` its spec, Kodaira
    dimension, existence and flag; ``classify_record`` the attribution and
    the existence proof).  ``family_curve`` builds with ``strict=False``
    for known-bad source data, which it flags.  The search does not call
    this: a leaf, whose gcd chain and delta equation have already proved
    what strict checks, builds its record once through :func:`_record`,
    with its chain's generators and, when classified, its classification
    fields.  The empty Newton sequence gives the smooth conic.
    """
    puiseux, mult, delta = cusp_data(degree, newton, strict=strict)
    if not newton:
        return CurveRecord(degree, newton, puiseux, mult, delta, (1,), Fraction(1), 3 * degree - 2)
    gens = _generators([p for p, _ in newton], [Q for _, Q in puiseux])
    return _record(degree, newton, puiseux, mult, delta, gens)


def _record(degree, newton, puiseux, mult, delta, gens, **classified) -> CurveRecord:
    """The record of a cusp from its :func:`cusp_data` and generators, with
    the lct and the self-intersection read off the Puiseux pairs, built
    once: ``classified`` holds any classification fields it carries
    (family, Kodaira dimension, existence, chain and flags)."""
    lct_value = inv._lct_from_puiseux(puiseux)
    self_int = inv._self_intersection_from_puiseux(degree, puiseux)
    return CurveRecord(degree, newton, puiseux, mult, delta, gens, lct_value, self_int, **classified)


# ---------------------------------------------------------------------------
# serialization

def _kodaira_to_json(value: float | int | None):
    if value is None:
        return None
    if value == KODAIRA_NEG_INF:
        return "-inf"
    return int(value)


def _step_to_json(step: ReductionStep) -> dict:
    out = {
        "rule": step.rule,
        "from": {
            "degree": step.from_degree,
            "mult": inv.format_multiplicity(step.from_mult),
        },
        "to": None,
    }
    if step.to_degree is not None:
        out["to"] = {
            "degree": step.to_degree,
            "mult": inv.format_multiplicity(step.to_mult),
        }
    return out


def record_to_json_dict(record: CurveRecord) -> dict:
    """A record as the JSON value ``OutputDocument.to_json`` writes for it.

    ``to_json`` does not call this: it writes the same text directly with
    :func:`_record_json`.  This dict is the reference the oracle tests compare
    that text against, and what callers inspect field by field.
    """
    out = {
        "degree": record.degree,
        "newton_pairs": [list(p) for p in record.newton],
        "puiseux_pairs": [list(p) for p in record.puiseux],
        "multiplicity_sequence": inv.format_multiplicity(record.mult),
        "delta": record.delta,
        "semigroup_generators": list(record.semigroup_generators),
        "lct": {"num": record.lct.numerator, "den": record.lct.denominator},
        "self_intersection": record.self_intersection,
        "family": None
        if record.family is None
        else {"kind": record.family.kind, "params": list(record.family.params)},
        "kodaira": _kodaira_to_json(record.kodaira),
        "existence": record.existence,
        "reduction_chain": [_step_to_json(s) for s in record.reduction_chain],
    }
    if record.flags:
        out["flags"] = list(record.flags)
    return out


# newline plus the indentation of a record's lines in the document, and of
# the lines below them
_N4, _N6, _N8, _N10 = ("\n" + " " * n for n in (4, 6, 8, 10))


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON list of written items, or with ``brackets="{}"`` a JSON object
    of written ``"key": value`` fields; ``pad`` is a newline plus the
    indentation of the line the block starts on, and an empty block is
    the bare bracket pair."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1] if items else brackets


def _int_list(values, pad: str) -> str:
    return _json_block(list(map(str, values)), pad)


def _pairs_json(pairs) -> str:
    return _json_block([f"[{_N10}{p},{_N10}{q}{_N8}]" for p, q in pairs], _N6)


def _degree_mult_json(degree: int, mult) -> str:
    return _json_block(
        ['"degree": ' + str(degree), '"mult": ' + _str(inv.format_multiplicity(mult))], _N10, "{}"
    )


def _step_json(step: ReductionStep) -> str:
    to = "null" if step.to_degree is None else _degree_mult_json(step.to_degree, step.to_mult)
    return _json_block(
        [
            '"rule": ' + _str(step.rule),
            '"from": ' + _degree_mult_json(step.from_degree, step.from_mult),
            '"to": ' + to,
        ],
        _N8, "{}",
    )


def _record_json(record: CurveRecord) -> str:
    """The text ``json.dumps(record_to_json_dict(record), indent=2)`` gives
    for the record nested at depth 2 (4 spaces) of the document."""
    family = record.family
    if family is None:
        family_text = "null"
    else:
        family_text = _json_block(
            ['"kind": ' + _str(family.kind), '"params": ' + _int_list(family.params, _N8)], _N6, "{}"
        )
    kodaira = _kodaira_to_json(record.kodaira)
    if isinstance(kodaira, str):
        kodaira = _str(kodaira)
    fields = [
        '"degree": ' + str(record.degree),
        '"newton_pairs": ' + _pairs_json(record.newton),
        '"puiseux_pairs": ' + _pairs_json(record.puiseux),
        '"multiplicity_sequence": ' + _str(inv.format_multiplicity(record.mult)),
        '"delta": ' + str(record.delta),
        '"semigroup_generators": ' + _int_list(record.semigroup_generators, _N6),
        '"lct": ' + _json_block(
            ['"num": ' + str(record.lct.numerator), '"den": ' + str(record.lct.denominator)], _N6, "{}"
        ),
        '"self_intersection": ' + str(record.self_intersection),
        '"family": ' + family_text,
        '"kodaira": ' + ("null" if kodaira is None else str(kodaira)),
        '"existence": ' + _str(record.existence),
        '"reduction_chain": ' + _json_block(list(map(_step_json, record.reduction_chain)), _N6),
    ]
    if record.flags:
        fields.append('"flags": ' + _json_block(list(map(_str, record.flags)), _N6))
    return _json_block(fields, _N4, "{}")


CSV_COLUMNS = [
    "degree",
    "newton_pairs",
    "puiseux_pairs",
    "multiplicity_sequence",
    "delta",
    "semigroup_generators",
    "lct",
    "self_intersection",
    "family",
    "kodaira",
    "existence",
    "reduction_chain",
    "flags",
]


def record_to_flat_dict(record: CurveRecord) -> dict:
    """Stringified fields, identical data to the JSON form."""
    return {
        "degree": record.degree,
        "newton_pairs": inv.format_newton(record.newton),
        "puiseux_pairs": inv.format_newton(record.puiseux),
        "multiplicity_sequence": inv.format_multiplicity(record.mult),
        "delta": record.delta,
        "semigroup_generators": ",".join(map(str, record.semigroup_generators)),
        "lct": f"{record.lct.numerator}/{record.lct.denominator}",
        "self_intersection": record.self_intersection,
        "family": "" if record.family is None else record.family.describe(),
        "kodaira": "" if record.kodaira is None else str(_kodaira_to_json(record.kodaira)),
        "existence": record.existence,
        "reduction_chain": "; ".join(s.describe() for s in record.reduction_chain),
        "flags": "; ".join(record.flags),
    }


@dataclass(frozen=True)
class OutputDocument:
    """A batch of records plus run metadata, ready to serialize."""

    records: tuple[CurveRecord, ...]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        records = _json_block(list(map(_record_json, self.records)), "\n  ")
        # JSON escapes newlines inside strings, so each one json.dumps
        # writes starts a line, which nesting indents by two more spaces
        metadata = json.dumps(self.metadata, indent=2).replace("\n", "\n  ")
        return _json_block(['"metadata": ' + metadata, '"records": ' + records], "\n", "{}") + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in self.records:
            writer.writerow(record_to_flat_dict(record).values())
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(CSV_COLUMNS) + " |",
            "| " + " | ".join("---" for _ in CSV_COLUMNS) + " |",
        ]
        for record in self.records:
            flat = record_to_flat_dict(record)
            lines.append("| " + " | ".join(str(flat[c]) for c in CSV_COLUMNS) + " |")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown output format {fmt!r}")
