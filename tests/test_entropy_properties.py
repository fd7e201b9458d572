"""Property tests for the two ends of the entropy range, u1 and u2, and for IPF."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from ivprob import (  # noqa: E402
    Database,
    IntervalDistribution,
    Space,
    Variable,
    box_maxent,
    box_minent,
    entropy,
    maxent_ipf,
    shannon_entropy,
)
from ivprob.model import SUM_TOLERANCE  # noqa: E402
from oracles import box_minent_reference, ipf_outcome, ipf_reference  # noqa: E402


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


def _same_minimizer(i) -> bool:
    return box_minent(i).p.tobytes() == box_minent_reference(i).p.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(boxes())
def test_minent_matches_the_plain_enumeration_bit_for_bit(i):
    assert _same_minimizer(i)


@st.composite
def tied_boxes(draw):
    """Boxes whose vertices tie: every cell in [0, 1], or every cell in one [a, b].

    With one interval for every cell, every vertex is a permutation of one
    profile, so the least entropy is tied across groups and within them up
    to rounding.  ``a = b`` gives the one point of the box.
    """
    n = draw(st.integers(1, 12))
    space = Space((Variable("V", tuple(f"v{k}" for k in range(n))),))
    kind = draw(st.sampled_from(["free", "shared", "point"]))
    if kind == "free":
        return IntervalDistribution(space, np.zeros(n), np.ones(n))
    scale = 1.0 + draw(st.sampled_from([0.0, -1.0, 1.0])) * SUM_TOLERANCE
    if kind == "point":
        a = b = scale / n
    else:
        a = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)) / n * scale
        b = min(1.0, draw(st.sampled_from([1.0, 1.5, 2.0, n]) | st.floats(1.0, n)) / n * scale)
    box = IntervalDistribution(space, np.full(n, a), np.full(n, b))
    assume(not box.violations())
    return box


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_boxes())
def test_minent_keeps_the_tie_rule_of_the_plain_enumeration(i):
    assert _same_minimizer(i)


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_minent_matches_the_plain_enumeration_up_to_the_cap(n):
    rng = np.random.default_rng(n)
    space = Space((Variable("V", tuple(f"v{k}" for k in range(n))),))
    for width in (0.0, 1e-9, 0.01, 0.1, 0.5):
        p = rng.dirichlet(np.ones(n))
        lower = np.clip(p - rng.uniform(0.0, width, n), 0.0, None)
        upper = np.clip(p + rng.uniform(0.0, width, n), None, 1.0)
        assert _same_minimizer(IntervalDistribution(space, lower, upper))


@st.composite
def skewed_chains(draw):
    """Real chains of 2-3 tables that disagree by k * 1e-9 on one shared cell.

    The tables are consecutive pair marginals of a hidden joint.  One table
    after the first then moves k * 1e-9 (k = 1-3) of mass between two of its
    cells that differ only in the variable it shares with the table before.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    assume(int(np.prod(sizes)) <= 24)
    space = Space(
        tuple(
            Variable(f"V{k}", tuple(f"v{m}" for m in range(size)))
            for k, size in enumerate(sizes)
        )
    )
    n = space.cell_count
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    p /= p.sum()
    tables = [
        np.bincount(space.projection_map(space.names[j : j + 2]), weights=p).reshape(
            sizes[j : j + 2]
        )
        for j in range(len(sizes) - 1)
    ]
    t = draw(st.integers(1, len(tables) - 1))
    x, other = draw(st.permutations(range(sizes[t])))[:2]
    y = draw(st.integers(0, sizes[t + 1] - 1))
    shift = draw(st.integers(1, 3)) * 1e-9
    tables[t][x, y] -= shift
    tables[t][other, y] += shift
    return Database(
        [
            IntervalDistribution(space.subspace(space.names[j : j + 2]), m.ravel(), m.ravel())
            for j, m in enumerate(tables)
        ]
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(skewed_chains(), st.integers(1, 2_000))
def test_ipf_matches_the_full_sweep_loop(db, cap):
    # The cap is drawn too, so that whole periods are skipped towards caps of
    # either parity and at any distance from the sweep a repeat is found at.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy, "IPF_MAX_SWEEPS", cap)
        patch.setattr(oracles, "IPF_MAX_SWEEPS", cap)
        assert ipf_outcome(maxent_ipf, db) == ipf_outcome(ipf_reference, db)


@st.composite
def exact_marginals(draw):
    """2-4 tables that are exact marginals of one joint, summing to 1 ± 1 ulp.

    Each table holds a drawn subset of the variables, in a drawn order, and
    one of its cells may be nudged by one ulp either way.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    assume(int(np.prod(sizes)) <= 36)
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
    tables = []
    for _ in range(draw(st.integers(2, 4))):
        names = draw(st.permutations(space.names))[: draw(st.integers(1, len(sizes)))]
        m = np.bincount(space.projection_map(names), weights=p)
        cell = int(np.argmax(m))
        nudged = np.nextafter(m[cell], draw(st.sampled_from([-np.inf, m[cell], np.inf])))
        m[cell] = min(nudged, 1.0)  # no cell may exceed 1
        tables.append(IntervalDistribution(space.subspace(names), m, m))
    return Database(tables, space=space)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exact_marginals())
def test_ipf_certificate_never_fires_on_marginals_of_one_joint(db):
    assert not oracles.ipf_certified(db)


@st.composite
def chains_near_the_bound(draw):
    """(chain, hidden joint, scale): a real chain that disagrees near the bound.

    As in ``skewed_chains``, table ``t`` moves mass between two cells that
    differ only in the variable ``S`` it shares with table ``t - 1``.  The
    mass moved is ``scale`` times the gap the certificate tests against,
    ``(k_(t-1) + k_t) * IPF_TOLERANCE``, where ``k`` is a table's cell count
    over that of ``S``.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    space = Space(
        tuple(
            Variable(f"V{k}", tuple(f"v{m}" for m in range(size)))
            for k, size in enumerate(sizes)
        )
    )
    n = space.cell_count
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    p /= p.sum()
    tables = [
        np.bincount(space.projection_map(space.names[j : j + 2]), weights=p).reshape(
            sizes[j : j + 2]
        )
        for j in range(len(sizes) - 1)
    ]
    t = draw(st.integers(1, len(tables) - 1))
    x, other = draw(st.permutations(range(sizes[t])))[:2]
    y = draw(st.integers(0, sizes[t + 1] - 1))
    scale = draw(st.floats(0.5, 3.0))
    shift = scale * (sizes[t - 1] + sizes[t + 1]) * entropy.IPF_TOLERANCE
    tables[t][x, y] -= shift
    tables[t][other, y] += shift
    db = Database(
        [
            IntervalDistribution(space.subspace(space.names[j : j + 2]), m.ravel(), m.ravel())
            for j, m in enumerate(tables)
        ]
    )
    return db, p, scale


def _deviation(db, q) -> float:
    """The largest deviation of ``q``'s marginals from ``db``'s normalized tables."""
    return max(
        float(np.abs(np.bincount(db.space.projection_map(t.space.names), weights=q)
                     - t.lower / t.lower.sum()).max())
        for t in db.tables
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chains_near_the_bound(), st.integers(1, 300), st.floats(0.0, 1.0))
def test_ipf_certificate_fires_only_when_no_joint_is_within_tolerance(case, cap, mix):
    db, hidden, scale = case
    certified = oracles.ipf_certified(db)
    # The float margin is below a tenth of the smallest bound, 4e-10.
    if scale < 0.95:
        assert not certified
    if scale > 1.2:
        assert certified
    if certified:
        # The full loop tests every sweep's iterate and never stops.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "IPF_MAX_SWEEPS", cap)
            message, last = ipf_outcome(ipf_reference, db)
        assert isinstance(message, str)
        last = np.frombuffer(last)
        for q in (hidden, last, mix * hidden + (1.0 - mix) * last):
            assert _deviation(db, q) >= entropy.IPF_TOLERANCE
