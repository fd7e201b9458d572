"""Property tests for the two ends of the entropy range, u1 and u2."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ivprob import (  # noqa: E402
    IntervalDistribution,
    Space,
    Variable,
    box_maxent,
    box_minent,
    shannon_entropy,
)
from ivprob.model import SUM_TOLERANCE  # noqa: E402


@st.composite
def boxes(draw):
    """Valid boxes with one-label variables, zero widths and edge sums.

    Bounds are drawn around a hidden distribution, each side either zero or
    up to 0.5 wide, and then scaled so that their sums can sit at
    ``1 ± SUM_TOLERANCE``.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    assume(int(np.prod(sizes)) <= 12)
    space = Space(
        tuple(
            Variable(f"V{k}", tuple(f"v{m}" for m in range(size)))
            for k, size in enumerate(sizes)
        )
    )
    n = space.cell_count
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    width = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
    below = np.array(draw(st.lists(width, min_size=n, max_size=n)))
    above = np.array(draw(st.lists(width, min_size=n, max_size=n)))
    scale = 1.0 + draw(st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0])) * SUM_TOLERANCE
    lower = np.clip(p - below, 0.0, None) * scale
    upper = np.clip((p + above) * scale, None, 1.0)
    box = IntervalDistribution(space, lower, upper)
    assume(not box.violations())
    return box


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(boxes())
def test_entropy_range_ends_lie_in_the_box(i):
    # Both return a RealDistribution, so both points passed its sum check.
    top = box_maxent(i)
    bottom = box_minent(i)
    # Dividing by a sum within SUM_TOLERANCE of 1 moves a cell by at most that.
    atol = 2 * SUM_TOLERANCE
    for p in (top.p, bottom.p):
        assert np.all(p >= i.lower - atol) and np.all(p <= i.upper + atol)
    assert shannon_entropy(bottom) <= shannon_entropy(top) + 1e-12
