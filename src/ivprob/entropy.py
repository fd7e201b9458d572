"""Shannon-entropy machinery over real and interval distributions.

Provides entropy, conditional entropy, and KL divergence (all in bits);
maximum-entropy fitting of real marginal tables by iterative proportional
fitting, one ``bincount`` marginal per table and sweep, which stops early,
with the same result, once its iterate repeats, and skips its stopping test
when two tables disagree too far on a shared marginal for it ever to pass;
and the two ends of an interval distribution's entropy range, which the
measures ``measure_u1`` and ``measure_u2`` report: the maximum by exact
water-filling, the minimum by enumerating the vertices of the box.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConvergenceError, EnumerationLimitError, SpaceMismatchError
from .extension import project_real
from .model import (
    Database,
    IntervalDistribution,
    RealDistribution,
    Space,
    compare_sum,
    require_valid,
)

#: IPF stops when every table's marginal matches within this deviation.
IPF_TOLERANCE = 1e-10
#: IPF sweep cap; exceeding it signals inconsistent tables (or a too-low cap).
IPF_MAX_SWEEPS = 10_000
#: Refuse exact entropy minimization beyond this many cells (exponential).
MINENT_CELL_CAP = 16


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p with the 0 log 0 = 0 convention; supports 2-d batches."""
    terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def shannon_entropy(p: RealDistribution) -> float:
    """Shannon entropy of ``p`` in bits; in [0, log2(cell count)]."""
    return float(_entropy_bits(p.p))


def _split_variables(p: RealDistribution, target, given) -> tuple[tuple, tuple]:
    given = tuple(given)  # read a one-shot iterable once
    target_names = p.space.ordered_subset(target)
    given_names = p.space.ordered_subset(given) if given else ()
    overlap = set(target_names) & set(given_names)
    if overlap:
        raise ValueError(
            f"target and conditioning variables overlap: {sorted(overlap)}"
        )
    return target_names, given_names


def conditional_entropy(p: RealDistribution, target, given) -> float:
    """H(target | given) = H(target ∪ given) − H(given), in bits.

    ``given`` may be empty, in which case this is the marginal entropy of
    ``target``.  Both sets must be disjoint subsets of ``p``'s variables.
    """
    target_names, given_names = _split_variables(p, target, given)
    joint = project_real(p, target_names + given_names)
    h_joint = shannon_entropy(joint)
    if not given_names:
        return max(0.0, h_joint)
    h_given = shannon_entropy(project_real(p, given_names))
    return max(0.0, h_joint - h_given)


def kl_divergence(p: RealDistribution, q: RealDistribution) -> float:
    """Relative entropy sum p log2(p/q) in bits; 0 iff the two agree.

    Requires ``q`` to dominate ``p``: a cell where ``q`` is zero but ``p`` is
    not has infinite divergence and is rejected with the offending cell named.
    """
    if p.space != q.space:
        raise SpaceMismatchError("divergence requires distributions on one space")
    bad = np.nonzero((q.p == 0.0) & (p.p > 0.0))[0]
    if bad.size:
        labels = p.space.cell_tuple(int(bad[0]))
        raise ValueError(
            f"divergence is infinite: cell {labels} has zero reference "
            "probability but positive mass"
        )
    mask = p.p > 0.0
    val = float(np.sum(p.p[mask] * np.log2(p.p[mask] / q.p[mask])))
    return max(0.0, val)


def _never_within_tolerance(space: Space, tables, targets) -> bool:
    """True if no joint can match every target within ``IPF_TOLERANCE``.

    Take two tables ``t`` and ``u`` that share the variables ``S``, and their
    targets' marginals ``a`` and ``b`` on ``S``.  Each cell of ``S`` sums
    ``k_t = cells(t) / cells(S)`` cells of ``t``, so a joint whose marginals
    all lie within the tolerance of their targets has an ``S`` marginal
    within ``k_t * IPF_TOLERANCE`` of ``a`` and within ``k_u * IPF_TOLERANCE``
    of ``b``.  A larger gap between ``a`` and ``b`` proves that IPF's stopping
    test can never pass: tables whose shared marginals disagree have no
    common joint (Vorob'ev, Theory Probab. Appl. 7, 1962).
    """
    for (t, a_target), (u, b_target) in itertools.combinations(zip(tables, targets), 2):
        shared = set(t.space.names) & set(u.space.names)
        if not shared:
            continue
        names = space.ordered_subset(shared)
        a = np.bincount(t.space.projection_map(names), weights=a_target)
        b = np.bincount(u.space.projection_map(names), weights=b_target)
        # The float margin.  a, b and the two tables' fitted marginals that
        # the stopping test reads are float sums of nonnegative terms, at most
        # SPACE_CELL_CAP = 4096 of them, adding up to about 1.  Over one cell
        # of S each of the four is within 4096 * 2**-53 of its exact value,
        # and the other roundings (the deviations, |a - b|, the bound) are
        # relative, of 2**-53; so the gap that floats show is within
        # 4 * 4096 * 2**-53 < 2e-12 of the exact one, well inside 1e-11.
        slack = (a_target.size + b_target.size) / a.size * IPF_TOLERANCE + 1e-11
        if np.abs(a - b).max() > slack:
            return True
    return False


def maxent_ipf(db: Database) -> RealDistribution:
    """Maximum-entropy joint matching every real-valued table of ``db``.

    Iterative proportional fitting from the uniform start: each sweep rescales
    the joint once per table, in order, by that table's own ``bincount``
    marginal, so the marginal matches exactly.  Fitting stops once every
    table's marginal is within ``IPF_TOLERANCE`` of its target.  For
    consistent real marginals this converges to the unique maximum-entropy
    element of the set of joints with those marginals.

    Once the joint repeats bit for bit, the fit is periodic and cannot
    converge, so whole periods up to the cap are skipped: the joint returned,
    or the error raised, is the same as running every sweep.  Before the
    first sweep, the targets of every pair of tables that share variables
    are compared on those variables; a gap that no joint within
    ``IPF_TOLERANCE`` of both could leave proves the stopping test can never
    pass, so the sweeps skip it.  Either way, the error reports the deviation
    of the last sweep's joint.

    Raises :class:`ConvergenceError` after ``IPF_MAX_SWEEPS`` sweeps, which
    signals inconsistent tables (or, for extreme inputs, a too-low cap), and
    :class:`ValueError` if any table is interval-valued.
    """
    require_valid(db)
    for table in db.tables:
        if not table.is_degenerate:
            raise ValueError(
                "maximum-entropy fitting requires real-valued tables; "
                f"table over {table.space.names} has interval cells"
            )
    space = db.space
    n = space.cell_count
    maps = [space.projection_map(table.space.names) for table in db.tables]
    # + 0.0 turns a -0.0 target into 0.0, so its ratio cannot flip a sign bit
    targets = [table.lower / table.lower.sum() + 0.0 for table in db.tables]
    hopeless = _never_within_tolerance(space, db.tables, targets)

    def deviation(p):  # the largest gap between a table's marginal and its target
        gaps = [np.abs(np.bincount(pm, weights=p, minlength=t.size) - t).max()
                for pm, t in zip(maps, targets)]
        return float(np.max(gaps, initial=0.0))

    p = np.full(n, 1.0 / n)
    # A sweep reads nothing but p, so once p repeats bit for bit every later
    # sweep repeats too.  Brent's cycle detection (BIT 20, 1980) compares p
    # with one copy saved after sweeps 1, 2, 4, 8, ...; on a match, whole
    # periods are skipped and the last partial period runs as usual.
    saved, saved_at = b"", 0
    sweep = 0
    while sweep < IPF_MAX_SWEEPS:
        for pm, target in zip(maps, targets):
            current = np.bincount(pm, weights=p, minlength=target.size)
            # 0 where the target is 0: the divisor is at least 1e-300
            p = p * (target / np.maximum(current, 1e-300))[pm]
        sweep += 1
        if not hopeless and deviation(p) < IPF_TOLERANCE:
            return RealDistribution(space, p / p.sum())
        # bytes, not floats: a signed zero or a NaN payload is a different state
        state = p.tobytes()
        if state == saved:
            period = sweep - saved_at
            sweep += (IPF_MAX_SWEEPS - sweep) // period * period
        elif sweep & (sweep - 1) == 0:
            saved, saved_at = state, sweep
    raise ConvergenceError(
        f"marginal fitting did not converge in {IPF_MAX_SWEEPS} sweeps "
        f"(residual deviation {deviation(p) if sweep else np.inf:.3e}); "
        "the tables may be inconsistent"
    )


def box_maxent(i: IntervalDistribution) -> RealDistribution:
    """The entropy maximizer over ``{p : i.lower <= p <= i.upper, sum = 1}``.

    The maximizer is a water-filling profile: every cell takes a common level
    ``c`` clamped into its own bounds, with ``c`` chosen so the cells sum to
    one (Abellán & Moral, *Maximum of entropy for credal sets*, IJUFKS, 2003).
    The clamped sum is piecewise linear and nondecreasing in ``c``, with its
    breakpoints at the bounds, so it is evaluated at every breakpoint from
    cumulative sums of the sorted bounds and ``c`` is interpolated exactly on
    the segment where it first reaches one: O(n log n) time, O(n) memory.
    """
    i.require_valid()
    lower, upper = np.sort(i.lower), np.sort(i.upper)
    levels = np.sort(np.concatenate((lower, upper)))
    low = np.searchsorted(lower, levels, side="right")  # cells with lower <= c
    high = np.searchsorted(upper, levels)  # cells with upper < c, all among them
    lower_sums = np.cumsum(np.append(0.0, lower))
    upper_sums = np.cumsum(np.append(0.0, upper))
    # m(c) = the lower bounds above c + the upper bounds below c + c per free cell
    mass = lower_sums[-1] - lower_sums[low] + upper_sums[high] + levels * (low - high)
    k = int(np.argmax(mass >= 1.0))
    if k == 0:  # sum(lower) >= 1, or sum(upper) < 1 within SUM_TOLERANCE
        level = levels[0] if mass[0] >= 1.0 else levels[-1]
    else:
        step = (1.0 - mass[k - 1]) / (mass[k] - mass[k - 1])
        level = levels[k - 1] + step * (levels[k] - levels[k - 1])
    p = np.clip(level, i.lower, i.upper)
    return RealDistribution(i.space, p / p.sum())


def measure_u1(i: IntervalDistribution) -> float:
    """Maximum Shannon entropy over the distributions inside ``i``, in bits."""
    return shannon_entropy(box_maxent(i))


def box_minent(i: IntervalDistribution) -> RealDistribution:
    """An entropy minimizer over ``{p : i.lower <= p <= i.upper, sum = 1}``.

    Entropy is strictly concave, so a minimum lies at a vertex of the feasible
    polytope, and each vertex has at most one cell strictly between its
    bounds.  One grid of the ``2^n`` endpoint patterns yields them all: for
    each cell ``f``, the rows with ``f`` at its lower bound, ``f`` reset to
    absorb the slack when that lands inside ``f``'s bounds (by
    :func:`~ivprob.model.compare_sum`).  A vertex with every cell at an
    endpoint is among them too: it is the candidate of any cell at its lower
    bound, and the all-upper vertex is the candidate of every cell.  Each
    candidate is divided by its sum, and the first of least entropy wins.
    This is exponential in the cell count and refuses spaces larger than
    ``MINENT_CELL_CAP`` cells.
    """
    i.require_valid()
    n = i.space.cell_count
    if n > MINENT_CELL_CAP:
        raise EnumerationLimitError(
            f"exact entropy minimization enumerates 2^{n} endpoint patterns; "
            f"refusing beyond {MINENT_CELL_CAP} cells"
        )
    at_upper = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    grid = np.where(at_upper, i.upper, i.lower)
    sums = grid.sum(axis=1)
    best_value, best_point = np.inf, None
    for f in range(n):  # cell f absorbs the slack, the rest at endpoints
        rows = ~at_upper[:, f]
        rest = sums[rows] - i.lower[f]  # the sum of the other cells
        ok = compare_sum(rest + i.lower[f]) <= 0
        ok &= compare_sum(rest + i.upper[f]) >= 0
        points = grid[rows][ok]
        points[:, f] = np.clip(1.0 - rest[ok], i.lower[f], i.upper[f])
        if points.size:
            points /= points.sum(axis=1, keepdims=True)
            values = _entropy_bits(points)
            t = int(np.argmin(values))
            if values[t] < best_value - 1e-15:
                best_value, best_point = float(values[t]), points[t]
    if best_point is None:
        # Unreachable for a valid interval table, whose box always meets the
        # simplex; kept as a guard for tolerance pathologies.
        raise ConvergenceError("no feasible endpoint pattern found")
    return RealDistribution(i.space, best_point)


def measure_u2(i: IntervalDistribution) -> float:
    """Minimum Shannon entropy over the distributions inside ``i``, in bits."""
    return shannon_entropy(box_minent(i))


def mvd_strength(p: RealDistribution, u, w) -> float:
    """How far ``p`` is from the multivalued dependency u ->> w, in bits.

    With z the remaining variables, this is H(w|u) − H(w|u ∪ z): zero exactly
    when w and z are conditionally independent given u — i.e. when the joint
    splits losslessly into its (u ∪ w) and (u ∪ z) marginals — and otherwise
    the divergence between ``p`` and that split.
    """
    u = tuple(u)  # read a one-shot iterable once
    u_names = p.space.ordered_subset(u) if u else ()
    w_names = p.space.ordered_subset(w)
    overlap = set(u_names) & set(w_names)
    if overlap:
        raise ValueError(f"dependency variable sets overlap: {sorted(overlap)}")
    z_names = tuple(
        name for name in p.space.names if name not in set(u_names) | set(w_names)
    )
    loose = conditional_entropy(p, w_names, u_names)
    tight = conditional_entropy(p, w_names, u_names + z_names)
    return max(0.0, loose - tight)
