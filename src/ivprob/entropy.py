"""Shannon-entropy machinery over real and interval distributions.

Provides entropy, conditional entropy, and KL divergence (all in bits);
maximum-entropy fitting of real marginal tables by iterative proportional
fitting; and exact entropy maximization/minimization over an interval
distribution's box — the two ends of the entropy range that the measures
``measure_u1`` and ``measure_u2`` report.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, EnumerationLimitError, SpaceMismatchError
from .model import Database, IntervalDistribution, RealDistribution, require_valid

#: IPF stops when every table's marginal matches within this deviation.
IPF_TOLERANCE = 1e-10
#: IPF sweep cap; exceeding it signals inconsistent tables (or a too-low cap).
IPF_MAX_SWEEPS = 10_000
#: Bisection steps for the entropy-maximizing clamp level (width 2^-200).
BISECTION_STEPS = 200
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
    target_names = p.space.ordered_subset(target)
    given_names = p.space.ordered_subset(given) if tuple(given) else ()
    if not target_names:
        raise ValueError("conditional entropy requires a non-empty target set")
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
    from .extension import project_real

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


def maxent_ipf(db: Database) -> RealDistribution:
    """Maximum-entropy joint matching every real-valued table of ``db``.

    Iterative proportional fitting from the uniform start: each sweep rescales
    the joint so one table's marginal matches exactly, cycling through the
    tables until the largest marginal deviation falls below ``IPF_TOLERANCE``.
    For consistent real marginals this converges to the unique maximum-entropy
    element of the set of joints with those marginals.

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
    fits = []
    for table in db.tables:
        pm = space.projection_map(table.space.names)
        target = table.lower / table.lower.sum()
        fits.append((pm, table.space.cell_count, target))

    p = np.full(n, 1.0 / n)
    deviation = np.inf
    for _ in range(IPF_MAX_SWEEPS):
        for pm, k, target in fits:
            current = np.bincount(pm, weights=p, minlength=k)
            ratio = np.where(target > 0.0, target / np.maximum(current, 1e-300), 0.0)
            p = p * ratio[pm]
        deviation = 0.0
        for pm, k, target in fits:
            current = np.bincount(pm, weights=p, minlength=k)
            deviation = max(deviation, float(np.max(np.abs(current - target))))
        if deviation < IPF_TOLERANCE:
            return RealDistribution(space, p / p.sum())
    raise ConvergenceError(
        f"marginal fitting did not converge in {IPF_MAX_SWEEPS} sweeps "
        f"(residual deviation {deviation:.3e}); the tables may be inconsistent"
    )


def box_maxent(i: IntervalDistribution) -> RealDistribution:
    """The entropy maximizer over ``{p : i.lower <= p <= i.upper, sum = 1}``.

    The maximizer is a water-filling profile: every cell takes a common level
    ``c`` clamped into its own bounds, with ``c`` chosen so the cells sum to
    one.  The clamped sum is nondecreasing in ``c``, so ``c`` is found by
    bisection.
    """
    i.require_valid()
    lo_level, hi_level = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo_level + hi_level)
        if float(np.clip(mid, i.lower, i.upper).sum()) < 1.0:
            lo_level = mid
        else:
            hi_level = mid
    p = np.clip(hi_level, i.lower, i.upper)
    return RealDistribution(i.space, p / p.sum())


def measure_u1(i: IntervalDistribution) -> float:
    """Maximum Shannon entropy over the distributions inside ``i``, in bits."""
    return shannon_entropy(box_maxent(i))


def box_minent(i: IntervalDistribution) -> RealDistribution:
    """An entropy minimizer over ``{p : i.lower <= p <= i.upper, sum = 1}``.

    Entropy is strictly concave, so a minimum lies at a vertex of the feasible
    polytope, and each vertex has at most one cell strictly between its
    bounds.  All such patterns — every cell clamped to an endpoint, plus one
    optional residual cell — are enumerated exactly; the entropy-minimal
    feasible one wins.  This is exponential in the cell count and refuses
    spaces larger than ``MINENT_CELL_CAP`` cells.
    """
    i.require_valid()
    n = i.space.cell_count
    if n > MINENT_CELL_CAP:
        raise EnumerationLimitError(
            f"exact entropy minimization enumerates 2^{n} endpoint patterns; "
            f"refusing beyond {MINENT_CELL_CAP} cells"
        )
    tol = 1e-9
    best_value = np.inf
    best_point = None

    def consider(points: np.ndarray) -> None:
        nonlocal best_value, best_point
        if not points.size:
            return
        values = _entropy_bits(points)
        t = int(np.argmin(values))
        if values[t] < best_value - 1e-15:
            best_value = float(values[t])
            best_point = points[t]

    def endpoint_grid(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        k = lower.size
        if k == 0:
            return np.zeros((1, 0))
        bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
        return np.where(bits == 1, upper, lower)

    # Every cell at an endpoint.
    full = endpoint_grid(i.lower, i.upper)
    consider(full[np.abs(full.sum(axis=1) - 1.0) <= tol])

    # One residual cell absorbing the slack, the rest at endpoints.
    idx = np.arange(n)
    for f in range(n):
        rest = idx != f
        others = endpoint_grid(i.lower[rest], i.upper[rest])
        r = 1.0 - others.sum(axis=1)
        ok = (r >= i.lower[f] - tol) & (r <= i.upper[f] + tol)
        if not ok.any():
            continue
        points = np.empty((int(ok.sum()), n))
        points[:, rest] = others[ok]
        points[:, f] = np.clip(r[ok], i.lower[f], i.upper[f])
        consider(points)

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
    u_names = p.space.ordered_subset(u) if tuple(u) else ()
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
