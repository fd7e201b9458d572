"""Interval extensions, projections, and reconstruction.

A consistent database admits many joint distributions; the *extension
envelope* records, per joint cell, the exact minimum and maximum probability
over all of them.  Projection plays the same game over a single interval
distribution's box: the marginal bounds are min/max of fiber sums, not sums of
endpoints.  Reconstruction composes the two — project onto a scheme, then take
the envelope of the projected database — and measures what the scheme forgot.

Every endpoint returned by these functions is attained by a feasible joint;
the envelopes are exact, not outer bounds.  Over a single box the endpoints
have a closed form, the reachable bounds of probability intervals (de Campos,
Huete & Moral, IJUFKS 1994).

A database's envelope combines those of its components
(:func:`~ivprob.polytope.components`), the groups of tables linked by shared
variables.  Tables on disjoint variable sets couple freely
(Fréchet 1951; Vorob'ev 1962), so a joint cell ``x`` is bounded by the Fréchet
bounds over the components' envelopes ``[l_C, u_C]``: at most
``min_C u_C(x_C)`` and at least ``max(0, sum_C l_C(x_C) - (k - 1))`` over
``k`` factors, where the ambient variables in no table form one more factor, of
lower bound 0, unless they have a single cell.  If a table's lower bounds sum
above 1 or upper bounds below 1 in floats (the tolerance edge), all tables
form one component, decided by one LP.  Off the edge a one-table component
takes its reachable bounds, and any other the joint LP over its variables.
The joint LP maximizes ``p_j`` and then ``-p_j`` for every joint cell ``j``
over the database polytope in one simplex call, one phase 1 for the polytope
and then one phase 2 per endpoint still open.  The ``2n`` objectives go to
the solver as their ``2n`` unit nonzeros, and only the ``2n`` values come
back.  An endpoint is open until some witness reaches its valid bound: for
``p_j`` the least upper bound of the table cells that hold the cell (and 1),
and 0 for ``-p_j``.  The maxima go first because a witness that pushes one
cell to its cap leaves many others at 0, which proves their minima without
runs of their own.  Every LP endpoint is attained by its LP witness or by the
earlier witness that reached its bound, and the solver checks each such
witness at 1e-9.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError
from .model import (
    Database,
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    require_valid,
)
from .polytope import OPTIMAL, _straddles_one, components, constraints_from_database, optimize


def _scrubbed(space: Space, lower: np.ndarray, upper: np.ndarray) -> IntervalDistribution:
    # Endpoints are probabilities of (sums of) cells; scrub float dust.
    lower = np.clip(lower, 0.0, 1.0)
    upper = np.clip(upper, 0.0, 1.0)
    return IntervalDistribution(space, np.minimum(lower, upper), upper)


def _box_envelope(
    i: IntervalDistribution, pm: np.ndarray, space: Space
) -> IntervalDistribution:
    """Min/max of every fiber sum over ``{p : i.lower <= p <= i.upper, sum(p) = 1}``.

    Cell ``j`` of ``i`` belongs to fiber ``pm[j]`` of ``space``.  A fiber ``S``
    can hold at least ``max(sum_S lower, 1 - sum_notS upper)`` and at most
    ``min(sum_S upper, 1 - sum_notS lower)``, and both are attained: the
    reachable bounds of probability intervals (de Campos, Huete & Moral,
    IJUFKS 1994).
    """
    i.require_valid()
    k = space.cell_count
    low = np.bincount(pm, weights=i.lower, minlength=k)
    high = np.bincount(pm, weights=i.upper, minlength=k)
    lower = np.maximum(low, 1.0 - (i.upper.sum() - high))
    upper = np.minimum(high, 1.0 - (i.lower.sum() - low))
    return _scrubbed(space, lower, upper)


def extension_star(db: Database) -> IntervalDistribution:
    """Narrowest interval table containing every joint consistent with ``db``.

    For each cell of the ambient space the endpoints are the exact min and max
    probabilities over all joint distributions whose marginals satisfy every
    table of the database.  Every such joint is more informative than the
    result, and each endpoint is attained by one of them.  The endpoints are
    the Fréchet bounds over the envelopes of the database's components, the
    groups of tables linked by shared variables, or all tables at the
    tolerance edge; only a one-table component off that edge skips the joint
    LP (see the module docstring).

    Raises :class:`InfeasibleError` when the database is inconsistent.
    """
    require_valid(db)
    parts = components(db)
    space = db.space
    held = {name for t in db.tables for name in t.space.names}
    free = any(v.size > 1 for v in space.variables if v.name not in held)
    # Summing from +0.0 keeps a zero lower endpoint +0.0 rather than -0.0.
    lower = np.zeros(space.cell_count)
    upper = np.ones(space.cell_count)
    for tables, names in parts:
        if len(tables) == 1 and _straddles_one(tables[0]):  # a lone table off the edge
            sub = tables[0].space
            reach = _box_envelope(tables[0], np.arange(sub.cell_count), sub)
        else:
            sub = space.subspace(names)
            reach = _joint_envelope(Database(tables, space=sub))
        pm = space.projection_map(sub.names)
        lower += reach.lower[pm]
        upper = np.minimum(upper, reach.upper[pm])
    # The free cells are one more factor, of lower bound 0; a single free
    # cell holds mass 1 in every joint, which makes no factor at all.
    factors = len(parts) + free
    return _scrubbed(space, np.maximum(lower - (factors - 1), 0.0), upper)


def _joint_envelope(db: Database) -> IntervalDistribution:
    """``extension_star`` by the joint LP, for any database."""
    cs = constraints_from_database(db)
    n = cs.space.cell_count
    # One simplex call maximizes p_j (row j) and then -p_j (row n + j) for
    # every cell: its shared phase 1 is the feasibility probe, so an empty
    # system fails with one clear error.  No p_j exceeds the least upper bound
    # of the table cells that hold cell j, and no -p_j exceeds 0; a witness
    # that reaches such a bound proves that endpoint without its own LP.  The
    # maxima run first: their witnesses sit at vertices with many zero cells.
    caps = [t.upper[cs.space.projection_map(t.space.names)] for t in db.tables]
    cap = np.min(caps + [np.ones(n)], axis=0)
    objectives = (np.arange(2 * n), np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n))
    result = optimize(cs, objectives, np.concatenate([cap, np.zeros(n)]))
    if result.status != OPTIMAL:
        raise InfeasibleError(
            "no joint distribution satisfies the constraints",
            infeasibility=result.infeasibility,
        )
    # 0.0 - v, not -v: a zero lower endpoint stays +0.0 rather than -0.0.
    lower = 0.0 - result.objective[n:]
    return _scrubbed(cs.space, lower, result.objective[:n])


def joint_intervals(db: Database) -> IntervalDistribution:
    """Joint cell bounds implied by a database of real-valued tables.

    The same envelope as :func:`extension_star`; under this name it is read as
    the narrowest interval distribution consistent with observed real
    marginals.
    """
    return extension_star(db)


def project_real(p: RealDistribution, onto) -> RealDistribution:
    """Marginal of ``p`` on the given variables, by fiber summation."""
    names = p.space.ordered_subset(onto)
    sub = p.space.subspace(names)
    pm = p.space.projection_map(names)
    return RealDistribution(sub, np.bincount(pm, weights=p.p, minlength=sub.cell_count))


def project_interval(i: IntervalDistribution, onto) -> IntervalDistribution:
    """Marginal interval table of ``i`` on the given variables.

    Each marginal cell's endpoints are the min and max of the corresponding
    fiber sum over ``{p : i.lower <= p <= i.upper, sum(p) = 1}``.  These are
    generally tighter than the sums of ``i``'s endpoints, because the
    normalization couples the cells.  For degenerate ``i`` this reduces to
    plain marginal summation.
    """
    names = i.space.ordered_subset(onto)
    return _box_envelope(i, i.space.projection_map(names), i.space.subspace(names))


def project_database(i: IntervalDistribution, scheme: Scheme) -> Database:
    """One marginal table per scheme subset, over ``i``'s ambient space."""
    tables = tuple(project_interval(i, subset) for subset in scheme.subsets)
    return Database(tables, space=i.space)


def reconstruct(i: IntervalDistribution, scheme: Scheme) -> IntervalDistribution:
    """What the scheme's marginal tables still say about the joint.

    Projects ``i`` onto every scheme subset and returns the extension envelope
    of the projected database.  The result is never more informative than
    ``tighten(i)``; the gap between the two is exactly the information the
    scheme fails to represent.
    """
    return extension_star(project_database(i, scheme))


def tighten(i: IntervalDistribution) -> IntervalDistribution:
    """Shrink ``i``'s intervals until every endpoint is attainable.

    An endpoint can be slack when the remaining cells cannot absorb it under
    normalization (e.g. lower bounds 0 with upper bounds (0.3, 0.4, 0.5) force
    each cell's minimum up to 1 minus the others' maxima).  The result is the
    narrowest interval table with the same feasible set; idempotent.
    """
    return _box_envelope(i, np.arange(i.space.cell_count), i.space)
