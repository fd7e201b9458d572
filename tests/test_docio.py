"""JSON document parsing, canonical serialization, and round-trip stability."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from ivprob import (
    Database,
    DocumentError,
    IntervalDistribution,
    RealDistribution,
    format_scalar,
    load_document,
    parse_document,
    serialize_document,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


# ---------------------------------------------------------------- parsing ---


def test_parse_database_document():
    doc = load_document(FIXTURES / "db_d.json")
    assert isinstance(doc, Database)
    assert doc.space.names == ("X", "Y")
    assert len(doc.tables) == 2
    np.testing.assert_allclose(doc.tables[0].lower, [0.7, 0.3], atol=0.0)
    np.testing.assert_allclose(doc.tables[0].upper, [0.7, 0.3], atol=0.0)


def test_parse_single_table_document():
    doc = load_document(FIXTURES / "abc_i.json")
    assert isinstance(doc, IntervalDistribution)
    assert doc.space.names == ("A", "B", "C")
    assert doc.lower[0] == pytest.approx(0.24)
    assert doc.upper[0] == pytest.approx(0.26)


def test_scalar_p_means_degenerate_interval():
    doc = load_document(FIXTURES / "abc_mid.json")
    assert isinstance(doc, IntervalDistribution)
    np.testing.assert_array_equal(doc.lower, doc.upper)
    assert doc.is_degenerate


def test_rows_may_arrive_in_any_order():
    permuted = parse_document(fixture_text("permuted_d.json"))
    canonical = parse_document(fixture_text("db_d.json"))
    for got, want in zip(permuted.tables, canonical.tables):
        np.testing.assert_array_equal(got.lower, want.lower)
        np.testing.assert_array_equal(got.upper, want.upper)
    assert serialize_document(permuted) == serialize_document(canonical)


# ------------------------------------------------------------ serializing ---


def test_round_trip_is_byte_stable():
    for name in ("db_d.json", "db_i.json", "abc_i.json", "abc_mid.json", "ei_star.json"):
        text = fixture_text(name)
        doc = parse_document(text)
        assert serialize_document(doc) + "\n" == text, name


def test_round_trip_preserves_values():
    for name in ("db_d.json", "db_i.json", "abc_i.json", "abc_mid.json"):
        doc = parse_document(fixture_text(name))
        again = parse_document(serialize_document(doc))
        if isinstance(doc, Database):
            assert again.space == doc.space
            for got, want in zip(again.tables, doc.tables):
                np.testing.assert_array_equal(got.lower, want.lower)
                np.testing.assert_array_equal(got.upper, want.upper)
        else:
            assert again.space == doc.space
            np.testing.assert_array_equal(again.lower, doc.lower)
            np.testing.assert_array_equal(again.upper, doc.upper)


def test_serialized_output_is_valid_json_in_canonical_order():
    doc = parse_document(fixture_text("permuted_d.json"))
    payload = json.loads(serialize_document(doc))
    keys = [row["key"] for row in payload["tables"][0]["rows"]]
    assert keys == [["x1"], ["x2"]]


def test_real_distribution_serializes_as_scalars(abc_mid):
    text = serialize_document(abc_mid)
    payload = json.loads(text)
    assert payload["table"]["rows"][0]["p"] == pytest.approx(0.25)
    assert not isinstance(payload["table"]["rows"][0]["p"], list)


def test_interval_serializes_as_pair(abc_i):
    payload = json.loads(serialize_document(abc_i))
    first = payload["table"]["rows"][0]["p"]
    assert first == [pytest.approx(0.24), pytest.approx(0.26)]


def test_format_scalar_fixed_point():
    assert format_scalar(0.12) == "0.120000000"
    assert format_scalar(0.0) == "0.000000000"
    assert format_scalar(-0.0) == "0.000000000"
    assert format_scalar(7 / 30) == "0.233333333"


def test_text_format_renders_aligned_table(abc_mid):
    text = serialize_document(abc_mid, fmt="table")
    lines = text.splitlines()
    assert lines[0].split() == ["A", "B", "C", "p"]
    assert len(lines) == 9


# ----------------------------------------------------------------- errors ---


STRUCTURAL_PROBLEMS = [
    (lambda d: d.pop("variables"), '"variables" must be a non-empty list'),
    (lambda d: d.update(variables=[]), '"variables" must be a non-empty list'),
    (
        lambda d: d.update(variables=[{"name": "X"}]),
        'variable \'X\': "domain" must be a list of strings',
    ),
    (
        lambda d: d.update(variables=[{"name": "X", "domain": []}]),
        "variable 'X': variable 'X' needs at least one value label",
    ),
    (
        lambda d: d.update(variables=[{"name": "X", "domain": ["a", "a"]}]),
        "variable 'X': variable 'X' has duplicate value labels",
    ),
    (
        lambda d: d.pop("table"),
        'document must contain exactly one of "table" or "tables"',
    ),
    (
        lambda d: d.update(tables=[]),
        'document must contain exactly one of "table" or "tables"',
    ),
    (
        lambda d: d["table"]["rows"][0].update(key=["0", "0"]),
        "row key ['0', '0'] must have one label per variable in ['A', 'B', 'C']",
    ),
    (
        lambda d: d["table"]["rows"].append(dict(d["table"]["rows"][0])),
        "duplicate row for key ['0', '0', '0']",
    ),
    (
        lambda d: d["table"]["rows"][0].pop("p"),
        'row [\'0\', \'0\', \'0\'] is missing "p"',
    ),
    # A string splits into the labels of a valid cell, a list label cannot
    # be looked up, and a number is never a label.
    (
        lambda d: d["table"]["rows"][0].update(key="000"),
        'row "key" must be a list of value labels',
    ),
    (
        lambda d: d["table"]["rows"][0].update(key=[["0"], "0", "0"]),
        'row "key" must be a list of value labels',
    ),
    (
        lambda d: d["table"]["rows"][0].update(key=["0", "0", 0]),
        'row "key" must be a list of value labels',
    ),
]


@pytest.mark.parametrize(
    ("mutate", "message"),
    STRUCTURAL_PROBLEMS,
    ids=[f"<lambda>{k}" for k in range(len(STRUCTURAL_PROBLEMS))],
)
def test_structural_problems_raise_document_error(mutate, message):
    base = json.loads(fixture_text("abc_mid.json"))
    mutate(base)
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(base))
    assert str(info.value) == message


def test_both_table_and_tables_rejected():
    base = json.loads(fixture_text("abc_mid.json"))
    base["tables"] = [base["table"]]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(base))


def test_malformed_json_raises_document_error():
    with pytest.raises(DocumentError):
        parse_document(fixture_text("malformed.json"))


def test_missing_row_raises_and_names_cell():
    with pytest.raises(DocumentError, match="x2"):
        parse_document(fixture_text("bad_missing_row.json"))


def test_duplicate_row_raises():
    with pytest.raises(DocumentError, match="x1"):
        parse_document(fixture_text("bad_duplicate_row.json"))


def test_unknown_label_in_key():
    base = json.loads(fixture_text("abc_mid.json"))
    base["table"]["rows"][0]["key"] = ["0", "0", "zebra"]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(base))


def test_unknown_variable_in_vars():
    base = json.loads(fixture_text("abc_mid.json"))
    base["table"]["vars"] = ["A", "B", "Q"]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(base))


@pytest.mark.parametrize(
    ("bad_p", "message"),
    [
        pytest.param(True, "expected a number, found True", id="True"),
        pytest.param(float("nan"), "number must be finite", id="nan"),
        pytest.param("0.3", "expected a number, found '0.3'", id="0.3"),
        pytest.param([0.1], "interval must be a [lo, hi] pair", id="bad_p3"),
        pytest.param([0.1, 0.2, 0.3], "interval must be a [lo, hi] pair", id="bad_p4"),
        pytest.param(None, "expected a number, found None", id="None"),
    ],
)
def test_bad_probability_payloads(bad_p, message):
    base = json.loads(fixture_text("abc_mid.json"))
    base["table"]["rows"][0]["p"] = bad_p
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(base))
    assert str(info.value) == f"row ['0', '0', '0']: {message}"


def test_semantically_invalid_interval_still_parses():
    # lower > upper is a domain-validity problem, not a document problem.
    doc = parse_document(fixture_text("bad_lower_gt_upper.json"))
    assert isinstance(doc, IntervalDistribution)
    assert doc.violations()  # non-empty violation list


def test_load_document_missing_file():
    with pytest.raises(OSError):
        load_document(FIXTURES / "does_not_exist.json")
