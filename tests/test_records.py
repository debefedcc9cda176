import csv
import hashlib
import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cuspidal import families
from cuspidal.enumerate import classify_range
from cuspidal.families import tono_curve
from cuspidal.invariants import InvalidCuspData
from cuspidal.records import (
    CSV_COLUMNS,
    OutputDocument,
    curve_record,
    record_to_flat_dict,
    record_to_json_dict,
)


@pytest.fixture(scope="module")
def classified():
    return classify_range(13)


@pytest.fixture(scope="module")
def classified_40():
    return classify_range(40)


def _family_members():
    """Every member of the benchmark's family grids that the generators accept."""
    members = []
    for spec in (
        *families.ams_grid(30),
        *families.kashiwara_grid(3, 2, 2),
        *families.tono_grid(7, 4, 5),
        *families.orevkov_grid(4),
    ):
        try:
            members.append(families.family_curve(spec))
        except families.FamilyParameterError:
            pass
    return members


def _reference_json(doc: OutputDocument) -> str:
    records = [record_to_json_dict(r) for r in doc.records]
    payload = {"metadata": doc.metadata, "records": records}
    return json.dumps(payload, indent=2) + "\n"


def test_curve_record_derived_fields():
    record = curve_record(12, ((2, 3), (2, 5), (2, 3)))
    assert record.delta == 55
    assert record.puiseux == ((8, 12), (4, 10), (2, 3))
    assert record.semigroup_generators == (8, 12, 34, 71)
    assert record.lct == Fraction(5, 24)
    assert record.self_intersection == 2


def test_curve_record_rejects_wrong_degree():
    with pytest.raises(InvalidCuspData, match="delta"):
        curve_record(11, ((2, 3), (2, 5), (2, 3)))


def test_record_of_inconsistent_source_data():
    # the published tono-iib pairs violate the cusp invariants (q_1 < p_1),
    # so the record is built unvalidated and carries a flag
    data = record_to_json_dict(tono_curve("tono-iib", (2, 2)))
    assert data["newton_pairs"] == [[14, 9], [7, 16], [9, 16]]
    assert data["delta"] == 253851
    assert data["semigroup_generators"] == [882, 567, 8082, 56590]
    assert data["multiplicity_sequence"] == "567,315,252,63_6,18_3,9_3,7,2_3"
    assert data["lct"] == {"num": 23, "den": 7938}
    assert data["self_intersection"] == -758
    assert data["flags"] == ["inconsistent-source-data"]


def test_kodaira_serialization():
    record = classify_range(8)[-1]
    data = record_to_json_dict(record)
    assert data["kodaira"] in (None, "-inf", 1, 2)


def test_schema_validation(classified):
    schema = json.loads(
        resources.files("cuspidal.data").joinpath("curve_record.schema.json").read_text()
    )
    doc = OutputDocument(
        tuple(classified),
        {"tool": "cuspidal", "version": "1", "command": "enumerate", "elapsed_seconds": 0.1},
    )
    jsonschema.validate(json.loads(doc.to_json()), schema)


def test_csv_and_markdown_carry_identical_data(classified):
    doc = OutputDocument(tuple(classified), {})
    rows = list(csv.DictReader(io.StringIO(doc.to_csv())))
    assert len(rows) == len(classified)
    for row, record in zip(rows, classified):
        flat = {k: str(v) for k, v in record_to_flat_dict(record).items()}
        assert row == flat
    md = doc.to_markdown().splitlines()
    assert md[0].count("|") == len(CSV_COLUMNS) + 1
    assert len(md) == len(classified) + 2
    for line, record in zip(md[2:], classified):
        cells = [c.strip() for c in line.strip("|").split("|")]
        flat = record_to_flat_dict(record)
        assert cells == [str(flat[c]).strip() for c in CSV_COLUMNS]


def test_classify_range_40_renders_the_pinned_bytes(classified_40):
    # the digest the benchmark checks every run against; any change to a
    # record's bytes at degree <= 40 shows here first
    expected = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
    )["classify-d40"]["rendered_sha256"]
    doc = OutputDocument(tuple(classified_40), {})
    rendered = "".join(doc.render(fmt) for fmt in ("json", "csv", "md"))
    assert hashlib.sha256(rendered.encode()).hexdigest() == expected


def test_to_json_equals_the_json_dumps_reference(classified_40):
    # to_json writes each record's text directly and the metadata through
    # json.dumps; json.dumps(indent=2) of the record_to_json_dict payload is
    # the reference the whole document must equal byte for byte
    members = _family_members()
    assert len(members) == 253
    invariants_meta = {
        "tool": "cuspidal",
        "command": "invariants",
        "elapsed_seconds": 0.125,
        "bl_check": {"passed": False, "first_failing_j": None, "note": {}},
        "delta_matches_genus": True,
        "runs": [],
        "label": "d\u00e9j\u00e0 \"vu\" \\ \u03b4",
    }
    documents = [
        OutputDocument(tuple(classified_40), {"tool": "cuspidal"}),
        OutputDocument(tuple(members), {}),
        OutputDocument((), {}),
        OutputDocument((), invariants_meta),
        OutputDocument((curve_record(2, ()), members[-1]), invariants_meta),
    ]
    for doc in documents:
        assert doc.to_json() == _reference_json(doc)
    assert documents[2].to_json() == '{\n  "metadata": {},\n  "records": []\n}\n'


def test_flat_dict_keys_are_the_csv_columns(classified):
    # to_csv writes the flat dict's values in order, under a CSV_COLUMNS header
    for record in (*classified, tono_curve("tono-iib", (2, 2))):
        assert list(record_to_flat_dict(record)) == CSV_COLUMNS


def test_smooth_record_needs_low_degree():
    assert curve_record(2, ()).degree == 2
    with pytest.raises(InvalidCuspData):
        curve_record(5, ())


def test_stored_fields_recomputable_from_newton(classified):
    from cuspidal.invariants import (
        delta_from_puiseux,
        lct,
        multiplicity_sequence,
        newton_to_puiseux,
        self_intersection,
    )
    from cuspidal.semigroup import generators_from_newton

    for record in classified:
        puiseux = newton_to_puiseux(record.newton)
        assert record.puiseux == puiseux
        assert record.mult == multiplicity_sequence(record.newton)
        assert record.delta == delta_from_puiseux(puiseux)
        assert record.semigroup_generators == generators_from_newton(record.newton)
        assert record.lct == lct(puiseux)
        assert record.self_intersection == self_intersection(record.degree, puiseux)
