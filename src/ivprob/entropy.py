"""Shannon-entropy machinery over real and interval distributions.

Provides entropy, conditional entropy, and KL divergence (all in bits);
maximum-entropy fitting of real marginal tables by iterative proportional
fitting, one ``bincount`` marginal per table and sweep, which stops early,
with the same result, once its iterate repeats, and skips its stopping test
when two tables disagree too far on a shared marginal for it ever to pass;
and the two ends of an interval distribution's entropy range, which the
measures ``measure_u1`` and ``measure_u2`` report: the maximum by exact
water-filling, the minimum by screening the vertices of the box with a
cheap score and evaluating only the near-least ones exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConvergenceError, EnumerationLimitError, SpaceMismatchError
from .extension import project_real
from .model import (
    SUM_TOLERANCE,
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
#: ``box_minent`` evaluates exactly the candidates scored within this of the
#: least score; its comment on the shortlist shows why 1e-7 is enough.
MINENT_MARGIN = 1e-7
#: Endpoint patterns per array in ``box_minent``, which bounds its memory.
MINENT_BLOCK = 4096


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


def _plogp(x: np.ndarray) -> np.ndarray:
    """-x log2 x per cell, 0 at 0: a zero is read as the least subnormal (log2 -1074)."""
    return -x * np.log2(np.maximum(x, 5e-324))


def _endpoint_grid(i: IntervalDistribution, patterns: np.ndarray):
    """(bits, rows): bit ``j`` of a pattern puts cell ``j`` at its upper bound."""
    cells = np.arange(i.lower.size)
    bits = (patterns[:, None] >> cells) & 1
    return bits, np.array((i.lower, i.upper))[bits, cells]


def _vertices(i: IntervalDistribution, patterns: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Normalized candidates: each pattern's row, with cell ``slack`` taking the slack.

    Row by row these are the float expressions of enumerating every pattern,
    so each row comes out with the same bits.
    """
    _, points = _endpoint_grid(i, patterns)
    rest = points.sum(axis=1) - i.lower[slack]  # the sum of the other cells
    fill = np.clip(1.0 - rest, i.lower[slack], i.upper[slack])
    points[np.arange(slack.size), slack] = fill
    points /= points.sum(axis=1, keepdims=True)
    return points


def box_minent(i: IntervalDistribution) -> RealDistribution:
    """An entropy minimizer over ``{p : i.lower <= p <= i.upper, sum = 1}``.

    Entropy is strictly concave, so a minimum lies at a vertex of the feasible
    polytope, and each vertex has at most one cell strictly between its
    bounds.  The ``2^n`` endpoint patterns yield them all: for each cell
    ``f``, the patterns with ``f`` at its lower bound, ``f`` reset to absorb
    the slack when that lands inside ``f``'s bounds (by
    :func:`~ivprob.model.compare_sum`).  A vertex with every cell at an
    endpoint is among them too: it is the candidate of any cell at its lower
    bound, and the all-upper vertex is the candidate of every cell.

    The search runs in two stages and returns the point that dividing every
    candidate by its sum and taking the first of least entropy would: groups
    in ``f`` order, the first least value within a group, and a later group
    winning only by more than 1e-15.  The screen drops the patterns whose
    sum rules out every candidate, then scores every other candidate,
    ``MINENT_BLOCK`` patterns at a time, by its entropy before dividing by
    the sum, ``log2`` only on feasible ones.  The exact pass divides and
    evaluates only the candidates scored within ``MINENT_MARGIN`` of the
    least score, and applies the rule to them.  This is still exponential in
    the cell count and refuses spaces larger than ``MINENT_CELL_CAP`` cells.
    """
    i.require_valid()
    n = i.space.cell_count
    if n > MINENT_CELL_CAP:
        raise EnumerationLimitError(
            f"exact entropy minimization enumerates 2^{n} endpoint patterns; "
            f"refusing beyond {MINENT_CELL_CAP} cells"
        )
    lower, upper = i.lower, i.upper
    h_lower, h_upper = _plogp(np.array((lower, upper)))
    # What cell j at its upper bound adds to a pattern's sum and to its sum of
    # -x log2 x.  Doubling over the cells gives both for every pattern, to
    # rounding, without a 2^n x n array.
    steps = np.array((upper - lower, h_upper - h_lower)).T
    subset = np.empty((2**n, 2))
    subset[0] = lower.sum(), h_lower.sum()
    for j in range(n):
        np.add(subset[: 2**j], steps[j], out=subset[2**j : 2 ** (j + 1)])
    approx, mass = subset.T
    # A pattern with a feasible candidate sums to at most 1 + SUM_TOLERANCE,
    # and to at least 1 - SUM_TOLERANCE less the width of its slack cell.
    # Sums of at most 16 terms in [0, 1] round by less than 1e-13, in approx
    # and in the feasibility test alike, so 1e-12 more keeps every such row.
    slop = SUM_TOLERANCE + 1e-12
    near = np.flatnonzero(
        (approx <= 1.0 + slop) & (approx >= 1.0 - slop - steps[:, 0].max())
    )
    least, shortlist = np.inf, []  # (keys, scores) within the margin, per block
    for start in range(0, near.size, MINENT_BLOCK):
        patterns = near[start : start + MINENT_BLOCK]
        bits, grid = _endpoint_grid(i, patterns)
        rest = grid.sum(axis=1)[:, None] - lower  # per pattern and slack cell
        ok = (bits == 0) & (compare_sum(rest + lower) <= 0)
        ok &= compare_sum(rest + upper) >= 0
        rows, slack = np.nonzero(ok)
        x = np.clip(1.0 - rest[rows, slack], lower[slack], upper[slack])
        score = mass[patterns[rows]] - h_lower[slack] + _plogp(x)
        low = score.min(initial=np.inf)
        if low < least:
            least = low
            shortlist = [
                (k[s <= least + MINENT_MARGIN], s[s <= least + MINENT_MARGIN])
                for k, s in shortlist
            ]
        new = score <= least + MINENT_MARGIN
        keys = slack[new] * 2**n + patterns[rows[new]]  # below 2^20: int32 holds it
        shortlist.append((keys.astype(np.int32), score[new]))
    if least == np.inf:
        # Unreachable for a valid interval table, whose box always meets the
        # simplex; kept as a guard for tolerance pathologies.
        raise ConvergenceError("no feasible endpoint pattern found")
    # Why the shortlist is enough.  A candidate x with float sum S has entropy
    # H(x / S) = G / S + log2 S, where G = sum -x log2 x is its score, so the
    # two differ by at most |log2 S| + log2(16) |1/S - 1|.  Feasibility puts S
    # within SUM_TOLERANCE and a few ulps of 1, so with rounding the gap is
    # d < 6e-9.  Let E be the least exact value and T = MINENT_MARGIN - 2d.
    # Every candidate within T of E scores within MINENT_MARGIN of the least
    # score, so a group whose least value is within T of E keeps that value
    # and its first position; any other group keeps a larger least value, or
    # none, and both are above E + T.  Run the group rule over all candidates
    # (A) and over the shortlist (B).  After k groups, A and B agree, or both
    # hold a best value above E + T - k * 2e-15: a group above E + T moves
    # only a best that is above it, and a group within T either moves both
    # bests to its own value or leaves each above the bound (2e-15 covers
    # 1e-15 and the rounding of best - 1e-15).  A ends within 2e-15 of E, far
    # below E + T - 16 * 2e-15, so A and B agree.
    keys = np.concatenate([k for k, _ in shortlist])
    del shortlist
    keys.sort()
    slack, patterns = np.divmod(keys, 2**n)  # by slack cell, then by pattern
    values = np.empty(keys.size)
    for first in range(0, keys.size, MINENT_BLOCK):
        chunk = slice(first, first + MINENT_BLOCK)
        points = _vertices(i, patterns[chunk], slack[chunk])
        values[chunk] = _entropy_bits(points)
    best_value, best, start = np.inf, 0, 0
    for end in [*(np.flatnonzero(np.diff(slack)) + 1).tolist(), keys.size]:
        t = start + int(np.argmin(values[start:end]))  # the group's first least value
        if values[t] < best_value - 1e-15:
            best_value, best = values[t], t
        start = end
    if best < first:  # an earlier chunk held the winner: rebuild its row
        points, best = _vertices(i, patterns[best : best + 1], slack[best : best + 1]), first
    return RealDistribution(i.space, points[best - first])


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
