"""Property tests for the document format: canonical bytes survive a round trip."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ivprob import (  # noqa: E402
    IntervalDistribution,
    Space,
    Variable,
    parse_document,
    serialize_document,
)

# Quotes and backslashes are escaped by JSON, and non-ASCII text is written
# as \u escapes, surrogate pairs included.
LABELS = st.text(
    st.sampled_from(["a", "B", '"', "\\", " ", "é", "中", "😀"]), min_size=1, max_size=3
)


@st.composite
def tables(draw):
    """A table on 1-3 variables with bounds on the 9-decimal grid.

    Its bounds need not be valid: parsing checks structure only.
    """
    names = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    domains = [draw(st.lists(LABELS, min_size=1, max_size=3, unique=True)) for _ in names]
    space = Space(tuple(Variable(n, tuple(d)) for n, d in zip(names, domains)))
    n = space.cell_count
    grid = st.integers(0, 10**9)
    ends = np.sort(np.array(draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n))))
    degenerate = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lower = ends[:, 0] / 1e9
    upper = np.where(degenerate, lower, ends[:, 1] / 1e9)
    return IntervalDistribution(space, lower, upper)


@settings(max_examples=150, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_canonical_documents_round_trip(table, rnd: random.Random):
    text = serialize_document(table)
    assert text.isascii()
    doc = json.loads(text)
    assert [row["key"] for row in doc["table"]["rows"]] == [list(c) for c in table.space.cells()]
    parsed = parse_document(text)
    assert serialize_document(parsed) == text
    np.testing.assert_array_equal(parsed.lower, table.lower)
    np.testing.assert_array_equal(parsed.upper, table.upper)

    rnd.shuffle(doc["table"]["rows"])
    shuffled = parse_document(json.dumps(doc))
    np.testing.assert_array_equal(shuffled.lower, parsed.lower)
    np.testing.assert_array_equal(shuffled.upper, parsed.upper)
