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
negated objective); this is the LP path behind the envelopes of databases
whose tables share a variable.
:func:`optimize` takes a matrix of objectives, and optionally an upper bound
on each one's maximum, and makes one simplex call for all of them, so phase 1
runs once per system; it returns that call's one
:class:`~ivprob.simplex.SimplexResult` after one residual check of the whole
witness matrix, which covers the rows that a reused witness proved.
:func:`constraints_from_box` builds the system of an interval box
``{p : lower <= p <= upper, sum(p) = 1}`` as that of a one-table database
over the box's own space.  Box envelopes have a closed form (see
:mod:`ivprob.extension`), so the box system serves as an LP reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import SolverError
from .model import Database, IntervalDistribution, Space, require_valid

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE

#: Witness residuals and objective agreement are enforced at this tolerance.
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
        stack's residual is the largest over its points.  Only the ``k x m``
        row products are built, never a ``k x n`` temporary.
        """
        ap = p @ self.a.T
        rows = np.maximum(self.row_lower - ap, ap - self.row_upper)
        bounds = max(-p.min(initial=0.0), p.max(initial=1.0) - 1.0)
        return float(max(np.max(rows), bounds, 0.0))

    def cell_upper(self) -> np.ndarray:
        """A valid upper bound on each cell over the system.

        A row whose coefficients are all 0 or 1, such as a fiber indicator,
        caps each of its cells at the row's upper bound, since no cell is
        negative; the unit box caps every cell at 1.  The bound of cell ``j``
        is the least of these.  Only the nonzeros are read, so no ``m x n``
        temporary is built.
        """
        rows, cols = np.nonzero(self.a)
        indicator = np.ones(len(self.a), dtype=bool)
        indicator[rows[self.a[rows, cols] != 1.0]] = False
        keep = indicator[rows]
        upper = np.ones(self.space.cell_count)
        np.minimum.at(upper, cols[keep], self.row_upper[rows[keep]])
        return upper


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
    cs: ConstraintSystem,
    objectives: np.ndarray,
    bounds: np.ndarray | None = None,
) -> simplex.SimplexResult:
    """Exact maximum of every row of the ``k x n`` matrix ``objectives`` over the system.

    A minimum is the maximum of the negated row.  One simplex call solves all
    rows, and its single phase 1 decides feasibility for all of them, so the
    result is either infeasible as a whole or holds one checked witness per
    row in ``x`` and its value in ``objective``.  The feasible region is
    inside the unit box, so an unbounded program, or a witness off the system
    by more than ``FEASIBILITY_TOL``, indicates a solver bug and raises
    :class:`SolverError`.  :func:`ivprob.simplex.solve` checks the shape and
    finiteness of ``objectives``.

    ``bounds``, if given, holds an upper bound on each row's maximum (NaN
    where none is known); a row whose bound an earlier witness reaches takes
    that witness without an LP of its own (see :func:`ivprob.simplex.solve`).
    """
    n = cs.space.cell_count
    objs = np.asarray(objectives, dtype=np.float64)
    res = simplex.solve(
        cs.a, cs.row_lower, cs.row_upper, np.zeros(n), np.ones(n), objs, bounds=bounds
    )
    if res.status != OPTIMAL:
        return res
    x = res.x
    x[(x < 0.0) & (x > -FEASIBILITY_TOL)] = 0.0
    resid = cs.max_residual(x)
    if resid > FEASIBILITY_TOL:
        raise SolverError(f"witness violates constraints by {resid}")
    return simplex.SimplexResult(OPTIMAL, x, np.einsum("ij,ij->i", objs, x), 0.0)


def is_consistent(db: Database) -> bool:
    """True iff some joint distribution satisfies every table of ``db``.

    The zero objective's bound 0 is reached by any feasible point, so the
    probe stops after phase 1.
    """
    cs = constraints_from_database(db)
    probe = optimize(cs, np.zeros((1, cs.space.cell_count)), bounds=[0.0])
    return probe.status == OPTIMAL
