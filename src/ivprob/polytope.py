"""Linear constraint systems over joint-cell probabilities, and their optima.

A database induces a polytope of joint distributions: for every marginal table
cell with bounds ``[l, u]`` the ambient cells projecting onto it must sum to a
value in ``[l, u]``, and the whole joint vector must be a probability
distribution.  :func:`constraints_from_database` assembles that system as a
:class:`ConstraintSystem` of ranged rows ``row_lower <= a @ p <= row_upper``:
its dense read-only arrays hold one fiber-indicator row per table cell, with
the cell's bounds as the row's range, plus the normalization row.  Every
system lies in the unit box ``0 <= p <= 1``, and :func:`optimize` passes its
arrays with those column bounds straight to the bounded-variable simplex to
compute exact maxima of linear objectives (a minimum is the maximum of the
negated objective); this is the LP path behind the envelopes of database
components that have no closed form (see :mod:`ivprob.extension`).
:func:`optimize` takes objectives by their nonzeros, with an upper bound on
each one's maximum (NaN where none is known), and makes one simplex call for
all of them, so phase 1 runs once per system; it returns that call's one
:class:`~ivprob.simplex.SimplexResult`, the values only, every witness behind
them checked by the solver where it was found.
:func:`constraints_from_box` builds the system of an interval box
``{p : lower <= p <= upper, sum(p) = 1}`` as that of a one-table database
over the box's own space.  Box envelopes have a closed form (see
:mod:`ivprob.extension`), so the box system serves as an LP reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import Database, IntervalDistribution, Space, require_valid

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE

#: Witness residuals are enforced at this tolerance.
FEASIBILITY_TOL = simplex.FEASIBILITY_TOL


def normalization_row(space: Space) -> np.ndarray:
    """The all-ones coefficients of the simplex equality ``sum_j p_j = 1``."""
    row = np.ones(space.cell_count)
    row.flags.writeable = False
    return row


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Ranged rows ``row_lower <= a @ p <= row_upper`` over the unit box ``0 <= p <= 1``.

    ``a`` is a dense ``m x n`` matrix over the ``n`` cells of ``space``, and
    ``row_lower`` and ``row_upper`` hold each row's finite range; equal bounds
    make an equality row.  Exactly one row must be the normalization equality
    ``sum_j p_j = 1``.  The arrays are stored as read-only copies.
    """

    space: Space
    a: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray

    def __post_init__(self):
        n = self.space.cell_count
        a = _read_only(self.a)
        row_lower = _read_only(self.row_lower)
        row_upper = _read_only(self.row_upper)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"constraint matrix must have one column per cell ({n})")
        if row_lower.shape != (len(a),) or row_upper.shape != (len(a),):
            raise ValueError("every row needs one lower and one upper bound")
        if not all(np.all(np.isfinite(v)) for v in (a, row_lower, row_upper)):
            raise ValueError("constraint coefficients and row bounds must be finite")
        is_norm = (row_lower == 1.0) & (row_upper == 1.0) & np.all(a == 1.0, axis=1)
        n_norm = int(np.sum(is_norm))
        if n_norm != 1:
            raise ValueError(f"expected exactly one normalization row, found {n_norm}")
        for name, value in (("a", a), ("row_lower", row_lower), ("row_upper", row_upper)):
            object.__setattr__(self, name, value)

    def max_residual(self, p: np.ndarray) -> float:
        """Largest violation of any row or of the unit box at ``p``.

        ``p`` is one point or a ``k x n`` stack of points, one per row; the
        stack's residual is the largest over its points.  This is the check
        that :func:`ivprob.simplex.solve` applies to every witness.
        """
        return simplex._residual(self.a, self.row_lower, self.row_upper, 0.0, 1.0, p)


def constraints_from_database(db: Database) -> ConstraintSystem:
    """The joint-cell system implied by a database's marginal tables.

    Each table cell with bounds ``[l, u]`` yields one row ``l <= f @ p <= u``
    over the indicator ``f`` of the cells of ``db.space`` that project onto
    it, unless it restates the normalization row (a one-cell table of
    probability 1).
    Rows follow the tables and their cells in order; the normalization row is
    appended last.
    """
    require_valid(db)
    space = db.space
    rows, row_lower, row_upper = [], [], []
    for table in db.tables:
        pm = space.projection_map(table.space.names)
        fibers = pm == np.arange(table.space.cell_count)[:, None]
        keep = ~((table.lower == 1.0) & (table.upper == 1.0) & fibers.all(axis=1))
        rows.append(fibers[keep])
        row_lower.append(table.lower[keep])
        row_upper.append(table.upper[keep])
    rows.append(normalization_row(space)[None, :])
    row_lower.append([1.0])
    row_upper.append([1.0])
    return ConstraintSystem(
        space, np.vstack(rows), np.concatenate(row_lower), np.concatenate(row_upper)
    )


def constraints_from_box(i: IntervalDistribution) -> ConstraintSystem:
    """The system ``{p : i.lower <= p <= i.upper, sum(p) = 1}``.

    A box is a one-table database over its own space, so each cell becomes
    one ranged identity row ``i.lower[j] <= p_j <= i.upper[j]`` (none for a
    one-cell box, whose row would restate the normalization); the
    normalization row follows.
    """
    return constraints_from_database(Database((i,)))


def optimize(
    cs: ConstraintSystem, objectives: tuple, bounds: np.ndarray
) -> simplex.SimplexResult:
    """Exact maximum of every objective row over the system, in one simplex call.

    ``objectives`` holds the rows' ``(row, cell, coef)`` nonzeros and
    ``bounds`` one upper bound per row, NaN where none is known, as
    :func:`ivprob.simplex.solve` takes them with the unit box as column
    bounds.  A minimum is the maximum of the negated row.  The single phase 1
    decides feasibility for all rows, so the result is infeasible as a whole
    or holds every row's value, each attained by a witness that the solver
    checked.  The feasible region is inside the unit box, so an unbounded
    program or a witness that fails its check indicates a solver bug and
    raises :class:`~ivprob.errors.SolverError`.
    """
    n = cs.space.cell_count
    return simplex.solve(
        cs.a, cs.row_lower, cs.row_upper, np.zeros(n), np.ones(n), objectives, bounds
    )


def is_consistent(db: Database) -> bool:
    """True iff some joint distribution satisfies every table of ``db``.

    The probe has no objective row, so it stops after phase 1.
    """
    return optimize(constraints_from_database(db), ((), (), ()), ()).status == OPTIMAL
