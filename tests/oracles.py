"""Brute-force reference implementations and random instance generators.

Everything here recomputes results by direct enumeration, gridding, or plain
formula loops — deliberately avoiding the library's LP/vectorized code paths —
so tests can compare the two independently.  The one LP code here is a
reference simplex kernel that solves with the basis afresh at every pivot;
the solver's kept-inverse kernel must follow it pivot for pivot.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from ivprob import Database, IntervalDistribution, RealDistribution, Scheme, Space, Variable
from ivprob import entropy
from ivprob.entropy import IPF_MAX_SWEEPS, IPF_TOLERANCE
from ivprob.errors import ConvergenceError, SolverError
from ivprob.simplex import FEASIBILITY_TOL, PIVOT_TOL, _residual

FEAS_TOL = 1e-9


# ---------------------------------------------------------------------------
# formula oracles


def entropy_bits(p) -> float:
    """Plain-loop Shannon entropy in bits with 0 log 0 = 0."""
    total = 0.0
    for v in np.asarray(p, dtype=float).ravel():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def factored_join(p_flat, shape, u_axes, w_axes, z_axes) -> np.ndarray:
    """Conditional-independence join q(uwz) = p(uw) p(uz) / p(u).

    This is the closed form of the maximum-entropy joint matching the
    (u ∪ w) and (u ∪ z) marginals of ``p``; axes index the reshaped array.
    """
    arr = np.asarray(p_flat, dtype=float).reshape(shape)
    all_axes = set(range(len(shape)))

    def marg(keep):
        drop = tuple(sorted(all_axes - set(keep)))
        return arr.sum(axis=drop, keepdims=True) if drop else arr.copy()

    m_uw = marg(set(u_axes) | set(w_axes))
    m_uz = marg(set(u_axes) | set(z_axes))
    m_u = marg(set(u_axes))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(m_u > 0.0, m_uw * m_uz / np.where(m_u > 0.0, m_u, 1.0), 0.0)
    return np.broadcast_to(q, shape).ravel().copy()


def ipf_reference(db: Database) -> RealDistribution:
    """Maximum-entropy fit by per-table iterative proportional fitting.

    The sweep loop of ``entropy.maxent_ipf`` with neither its repeat skip nor
    its certificate: every table's marginal is a fresh ``bincount`` both when
    it is fitted and when the deviation is taken, after every sweep.
    ``maxent_ipf`` must match it bit for bit, in the joint it returns or in
    the message of the ``ConvergenceError`` it raises.  Expects a valid
    database of real tables.
    """
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


class _BincountSpy:
    """numpy, except that ``bincount`` keeps the weights of its last call."""

    numpy = np  # bound here, as the spy also stands in for this module's np
    weights = None

    def __getattr__(self, name):
        return getattr(self.numpy, name)

    def bincount(self, x, weights=None, minlength=0):
        self.weights = weights
        return self.numpy.bincount(x, weights=weights, minlength=minlength)


def ipf_outcome(fit, db: Database) -> tuple[bytes | str, bytes]:
    """What ``fit(db)`` ends with: (its joint's bytes or its error message, p).

    ``p`` is the bytes of the iterate after the last sweep.  Both IPF loops
    end with the per-table ``bincount`` weighted by it that takes the
    deviation they stop at or report, so the numpy of ``fit``'s module is
    wrapped for the call to keep those weights.  A fit that skips to the
    wrong phase of a cycle shows only in ``p``: its message prints three
    digits of a deviation that the phases share.
    """
    module = sys.modules[fit.__module__]
    spy = _BincountSpy()
    module.np = spy
    try:
        result = fit(db).p.tobytes()
    except ConvergenceError as exc:
        result = str(exc)
    finally:
        module.np = spy.numpy
    p = b"" if spy.weights is None else spy.weights.tobytes()
    return result, p


def ipf_certified(db: Database) -> bool:
    """Whether ``maxent_ipf`` proves before sweeping that ``db`` cannot converge.

    A certified fit skips the stopping test in its sweeps.  The fit runs with
    a cap of 0 sweeps, so it ends at once, and the certificate is wrapped for
    the call to keep its verdict.
    """
    check = entropy._never_within_tolerance
    verdicts = []

    def recording(*args):
        verdicts.append(check(*args))
        return verdicts[-1]

    cap = entropy.IPF_MAX_SWEEPS
    entropy._never_within_tolerance, entropy.IPF_MAX_SWEEPS = recording, 0
    try:
        entropy.maxent_ipf(db)
    except ConvergenceError:
        pass
    finally:
        entropy._never_within_tolerance, entropy.IPF_MAX_SWEEPS = check, cap
    (verdict,) = verdicts
    return verdict


def chain_cell_bounds(tables) -> tuple[np.ndarray, np.ndarray]:
    """Sharp joint cell bounds of a real chain database, by plain loops.

    ``tables[k]`` is the real marginal of variables ``k`` and ``k + 1`` as a
    2-D array, so the cliques are the tables and the separators are the
    shared variables.  Each joint cell ``x`` lies in
    ``[max(0, sum_C p_C(x_C) - sum_S p_S(x_S)), min_C p_C(x_C)]`` (Dobra &
    Fienberg, PNAS 97:11885, 2000).  Separator marginals are row sums of the
    following table.  Cells come back in row-major order.
    """
    tables = [np.asarray(t, dtype=float) for t in tables]
    shape = [tables[0].shape[0]] + [t.shape[1] for t in tables]
    lower, upper = [], []
    for cell in itertools.product(*(range(s) for s in shape)):
        cliques = [t[cell[k], cell[k + 1]] for k, t in enumerate(tables)]
        separators = [sum(t[cell[k + 1], :]) for k, t in enumerate(tables[1:])]
        lower.append(max(0.0, sum(cliques) - sum(separators)))
        upper.append(min(cliques))
    return np.array(lower), np.array(upper)


# ---------------------------------------------------------------------------
# grid oracles over the box-simplex set {p : lower <= p <= upper, sum(p) = 1}


def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    count = max(int(round((hi - lo) / step)), 0) + 1
    return np.linspace(lo, hi, count)


def grid_objective_range(lower, upper, cells, step) -> tuple[float, float]:
    """Min/max of ``sum(p[j] for j in cells)`` by gridding only those cells.

    The remaining cells are constrained solely by their bounds and the total,
    so a remainder ``r = 1 - sum`` is feasible exactly when it lies between
    the rest's summed bounds — the grid over the objective cells therefore
    explores the full box-simplex set at the given resolution.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    cells = list(cells)
    rest = np.setdiff1d(np.arange(lower.size), cells)
    lo_rest = float(lower[rest].sum())
    hi_rest = float(upper[rest].sum())
    axes = [_axis_grid(lower[j], upper[j], step) for j in cells]
    total = np.zeros(tuple(len(a) for a in axes))
    for k, axis in enumerate(axes):
        shape = [1] * len(axes)
        shape[k] = len(axis)
        total = total + axis.reshape(shape)
    r = 1.0 - total
    ok = (r >= lo_rest - FEAS_TOL) & (r <= hi_rest + FEAS_TOL)
    vals = total[ok]
    return float(vals.min()), float(vals.max())


def grid_linear_range(
    lower, upper, objective, step, rows=(), row_slack: float = 0.0
) -> tuple[float, float]:
    """Min/max of ``objective @ p`` over the gridded box-simplex set.

    All cells but the last are gridded at ``step``; the last absorbs the
    remainder exactly.  ``rows`` are extra ranged constraints
    ``(coefficients, row_lower, row_upper)`` filtered at the grid points;
    ``row_slack`` relaxes them, which lets a caller bracket the true optimum
    (exact filter: every accepted point is feasible; slackened filter: every
    feasible point has an accepted grid neighbour).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    objective = np.asarray(objective, dtype=float)
    n = lower.size
    axes = [_axis_grid(lower[j], upper[j], step) for j in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij") if n > 1 else []
    last = 1.0 - sum(grids) if grids else np.array(1.0)
    ok = (last >= lower[n - 1] - FEAS_TOL) & (last <= upper[n - 1] + FEAS_TOL)

    def combine(coefs):
        return sum(c * g for c, g in zip(coefs[: n - 1], grids)) + coefs[n - 1] * last

    for coefs, row_lower, row_upper in rows:
        val = combine(np.asarray(coefs, dtype=float))
        slack = row_slack + FEAS_TOL
        ok = ok & (val >= row_lower - slack) & (val <= row_upper + slack)
    vals = np.asarray(combine(objective))[np.asarray(ok)]
    if vals.size == 0:
        return np.inf, -np.inf
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# vertex oracles


def feasible_vertices(lower, upper, tol: float = FEAS_TOL) -> np.ndarray:
    """All vertices of the box-simplex polytope, by pattern enumeration.

    A vertex clamps every cell to an endpoint except at most one, which
    absorbs the remainder; infeasible patterns are dropped.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    points = []
    for pattern in itertools.product((0, 1), repeat=n):
        p = np.where(pattern, upper, lower)
        if abs(p.sum() - 1.0) <= tol:
            points.append(p)
    for free in range(n):
        others = [j for j in range(n) if j != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            p = np.empty(n)
            p[others] = np.where(pattern, upper[others], lower[others])
            r = 1.0 - p[others].sum()
            if lower[free] - tol <= r <= upper[free] + tol:
                p[free] = min(max(r, lower[free]), upper[free])
                points.append(p)
    arr = np.array(points)
    return np.unique(np.round(arr, 12), axis=0)


def min_entropy_by_vertices(lower, upper) -> float:
    """Exact minimum entropy: scan every polytope vertex."""
    return min(entropy_bits(v) for v in feasible_vertices(lower, upper))


def sample_box_simplex(lower, upper, count: int, rng) -> np.ndarray:
    """Random feasible points as convex mixtures of polytope vertices."""
    verts = feasible_vertices(lower, upper)
    take = min(len(verts), 32)
    chosen = verts[rng.choice(len(verts), size=take, replace=False)]
    weights = rng.exponential(size=(count, take))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ chosen


# ---------------------------------------------------------------------------
# grid-search entropy maximization


def transfer_ascent_max_entropy(lower, upper, step: float = 1e-3) -> np.ndarray:
    """Entropy maximizer by pairwise-transfer grid search.

    From a feasible start, repeatedly scan every cell pair for the best mass
    transfer on a ``step``-spaced grid (endpoints included) and apply it;
    stop when a full sweep improves nothing.  Pairwise transfers span the
    feasible directions of the box-simplex set and entropy is strictly
    concave, so the stopping point is the global maximum up to grid
    resolution.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    verts = feasible_vertices(lower, upper)
    p = verts.mean(axis=0)

    def h2(x):
        return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)

    n = p.size
    for _ in range(200):
        gained = 0.0
        for j in range(n):
            for k in range(j + 1, n):
                t_lo = max(lower[k] - p[k], p[j] - upper[j])
                t_hi = min(p[j] - lower[j], upper[k] - p[k])
                if t_hi - t_lo <= 1e-15:
                    continue
                ts = np.concatenate(
                    [np.arange(t_lo, t_hi, step), [t_hi, 0.0]]
                )
                scores = h2(p[j] - ts) + h2(p[k] + ts)
                best = int(np.argmax(scores))
                base = float(scores[-1])  # ts[-1] == 0.0, the no-op transfer
                if scores[best] > base + 1e-13:
                    gained += scores[best] - base
                    p[j] -= ts[best]
                    p[k] += ts[best]
        if gained < 1e-12:
            break
    return p


# ---------------------------------------------------------------------------
# simplex reference kernel


def max_residual(cs, p) -> float:
    """Largest violation of any row of ``cs`` or of the unit box at ``p``.

    ``p`` is one point or a ``k x n`` stack of points; the stack's residual is
    the largest over its points.  This is the check that the solver applies
    to every witness.
    """
    return _residual(cs.a, cs.row_lower, cs.row_upper, 0.0, 1.0, p)


def three_solve_iterate(ax, lo_x, hi_x, cost, basis, at_upper):
    """The simplex pivot loop that solves with the basis three times per pivot.

    The same loop as ``simplex._iterate`` (Bland's rule, the same ratio test
    and ties), but with no kept inverse: every pivot solves ``B xb = -N xn``,
    ``B^T y = c_B`` and ``B w = a_e`` from the basis columns with
    ``np.linalg.solve``, so no rounding carries from one pivot to the next.
    Updates ``basis`` and ``at_upper`` in place and returns them with the
    final point.
    """
    m, n_tot = ax.shape
    fixed = lo_x == hi_x
    max_iter = 200 * (n_tot + m) + 1000
    for _ in range(max_iter):
        x = np.where(at_upper, hi_x, lo_x)
        x[basis] = 0.0
        if not np.all(np.isfinite(x)):
            raise SolverError("nonbasic variable resting at an infinite bound")
        bmat = ax[:, basis]
        try:
            xb = np.linalg.solve(bmat, -(ax @ x))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis: {exc}") from exc
        x[basis] = xb

        y = np.linalg.solve(bmat.T, cost[basis])
        red = cost - y @ ax
        red[basis] = 0.0  # basic columns never enter
        can_enter = ~fixed & (
            (~at_upper & (red > FEASIBILITY_TOL)) | (at_upper & (red < -FEASIBILITY_TOL))
        )
        if not can_enter.any():
            return basis, at_upper, x

        e = int(np.argmax(can_enter))  # Bland: smallest eligible index
        delta = -1.0 if at_upper[e] else 1.0
        w = np.linalg.solve(bmat, ax[:, e])
        step = delta * w  # basic values move by -t * step

        # Ratio test, including the entering variable's own bound span.
        best_t = hi_x[e] - lo_x[e]
        best_col = e
        best_row = -1
        for i in range(m):
            si = step[i]
            if si > PIVOT_TOL:
                t = (xb[i] - lo_x[basis[i]]) / si
            elif si < -PIVOT_TOL:
                t = (xb[i] - hi_x[basis[i]]) / si
            else:
                continue
            if t < 0.0:
                t = 0.0  # degenerate basic value slightly past its bound
            if t < best_t - 1e-12 or (t < best_t + 1e-12 and basis[i] < best_col):
                best_t, best_col, best_row = t, int(basis[i]), i

        if not np.isfinite(best_t):
            raise SolverError("unbounded direction in a box-bounded program")

        if best_row < 0:
            at_upper[e] = not at_upper[e]  # bound flip, basis unchanged
        else:
            leaving = basis[best_row]
            basis[best_row] = e
            at_upper[leaving] = step[best_row] < 0.0  # hit which of its bounds
    raise SolverError(f"no convergence within {max_iter} pivots")


# ---------------------------------------------------------------------------
# random instance generation (all driven by a caller-provided seeded rng)


def random_space(rng, max_cells: int = 8, max_variables: int = 3) -> Space:
    """A random small space; shapes drawn so the cell count stays bounded."""
    shapes = [
        s
        for s in [
            (2,), (3,), (4,), (5,), (6,), (7,), (8,),
            (2, 2), (2, 3), (2, 4), (3, 2),
            (2, 2, 2),
        ]
        if np.prod(s) <= max_cells and len(s) <= max_variables
    ]
    shape = shapes[rng.integers(len(shapes))]
    variables = tuple(
        Variable(f"V{k + 1}", tuple(f"v{k + 1}.{m + 1}" for m in range(size)))
        for k, size in enumerate(shape)
    )
    return Space(variables)


def random_real(rng, space: Space, floor: float = 0.0) -> RealDistribution:
    """A random distribution; ``floor`` keeps every cell strictly positive."""
    raw = rng.exponential(size=space.cell_count) + floor
    return RealDistribution(space, raw / raw.sum())


def random_interval(rng, space: Space, width: float = 0.5) -> IntervalDistribution:
    """A random valid interval table, built around a hidden distribution.

    Sampling bounds outward from an interior point guarantees the validity
    invariants (a feasible distribution exists between the bound sums).
    """
    p = random_real(rng, space).p
    lower = np.clip(p - rng.uniform(0.0, width, p.size), 0.0, None)
    upper = np.clip(p + rng.uniform(0.0, width, p.size), None, 1.0)
    return IntervalDistribution(space, lower, upper)


def widen(rng, i: IntervalDistribution, amount: float = 0.5) -> IntervalDistribution:
    """A strictly-less-informative table containing ``i`` cellwise."""
    lower = i.lower * rng.uniform(0.0, 1.0, i.lower.size)
    upper = i.upper + (1.0 - i.upper) * rng.uniform(0.0, amount, i.upper.size)
    return IntervalDistribution(i.space, lower, upper)


def random_cover_scheme(rng, names) -> Scheme:
    """A random antichain of variable subsets covering every name."""
    names = list(names)
    subsets = []
    missing = set(names)
    while missing:
        size = int(rng.integers(1, len(names) + 1))
        pick = rng.choice(len(names), size=size, replace=False)
        subset = tuple(names[k] for k in pick)
        subsets.append(subset)
        missing -= set(subset)
    return Scheme(subsets)


def refine_scheme(rng, scheme: Scheme) -> Scheme:
    """A random refinement: every original subset is partitioned in place."""
    pieces = []
    for subset in scheme.subsets:
        members = list(subset)
        rng.shuffle(members)
        cuts = int(rng.integers(1, len(members) + 1))
        bounds = np.linspace(0, len(members), cuts + 1).astype(int)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b > a:
                pieces.append(tuple(members[a:b]))
    return Scheme(pieces)


def random_consistent_database(rng, space: Space, tables: int = 2) -> Database:
    """A database guaranteed consistent: widened marginals of a hidden joint."""
    p = random_real(rng, space).p
    names = list(space.names)
    out = []
    for _ in range(tables):
        size = int(rng.integers(1, len(names) + 1))
        pick = sorted(rng.choice(len(names), size=size, replace=False))
        sub_names = tuple(names[k] for k in pick)
        sub = space.subspace(sub_names)
        pm = space.projection_map(sub_names)
        marginal = np.zeros(sub.cell_count)
        np.add.at(marginal, pm, p)
        lower = np.clip(marginal - rng.uniform(0.0, 0.3, sub.cell_count), 0.0, None)
        upper = np.clip(marginal + rng.uniform(0.0, 0.3, sub.cell_count), None, 1.0)
        out.append(IntervalDistribution(sub, lower, upper))
    return Database(tuple(out), space=space)
