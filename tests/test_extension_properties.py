"""Property tests for the closed-form envelope of tables that share no variable."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ivprob import Database, IntervalDistribution, Space, Variable, extension_star  # noqa: E402
from ivprob.extension import _joint_envelope  # noqa: E402


@st.composite
def tables(draw, space):
    """A valid table on ``space`` around a hidden distribution.

    It is degenerate, or each side of each cell is zero, near zero (1e-10 to
    1e-9) or 1e-6 to 0.3 wide.  Hidden cells are 0 or at least 1e-3 / 24.
    Nothing nonzero is drawn below 1e-10: at that scale the joint LP, the
    reference here, itself misses by up to 1e-12 (see
    ``test_disjoint_envelope_is_exact_below_lp_noise`` in test_extension.py).
    """
    n = space.cell_count
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    if draw(st.booleans()):
        return IntervalDistribution(space, p, p)
    width = st.one_of(st.just(0.0), st.floats(1e-10, 1e-9), st.floats(1e-6, 0.3))
    below = np.array(draw(st.lists(width, min_size=n, max_size=n)))
    above = np.array(draw(st.lists(width, min_size=n, max_size=n)))
    lower, upper = np.clip(p - below, 0.0, None), np.clip(p + above, None, 1.0)
    table = IntervalDistribution(space, lower, upper)
    assume(not table.violations())
    return table


@st.composite
def disjoint_databases(draw):
    """Up to three tables on disjoint variable sets, each in a drawn variable order.

    Variables may have one label, and a variable that no table holds widens
    the ambient space.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    assume(int(np.prod(sizes)) <= 24)
    space = Space(
        tuple(
            Variable(f"V{k}", tuple(f"v{k}.{m}" for m in range(size)))
            for k, size in enumerate(sizes)
        )
    )
    owner = draw(st.lists(st.integers(-1, 2), min_size=len(sizes), max_size=len(sizes)))
    out = []
    for t in range(3):
        names = [name for name, o in zip(space.names, owner) if o == t]
        if names:
            out.append(draw(tables(space.subspace(draw(st.permutations(names))))))
    return Database(tuple(out), space=space)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(disjoint_databases())
def test_disjoint_envelope_equals_the_joint_lp(db):
    got = extension_star(db)
    want = _joint_envelope(db)
    np.testing.assert_allclose(got.lower, want.lower, atol=1e-15, rtol=0.0)
    np.testing.assert_allclose(got.upper, want.upper, atol=1e-15, rtol=0.0)
