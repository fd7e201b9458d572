"""Bounded-variable primal simplex for small dense linear programs.

Solves, for every row ``c`` of a ``k x n`` cost matrix, each with its own
direction,

    maximize  c . x    (or minimize)
    s.t.      row_lower <= A x <= row_upper    (ranged rows; equal bounds make
                                                an equality row, and one side
                                                may be infinite)
              lo <= x <= hi                    (finite bounds on every
                                                structural variable; the
                                                feasible region here always
                                                sits inside the unit box)

Every row gets one logical variable ``s`` with ``A x - s = 0`` and
``row_lower <= s <= row_upper``, so a row is stated once whatever its range,
the standard input of bounded-variable simplex codes (Maros, *Computational
Techniques of the Simplex Method*, 2003).  The method is the textbook
two-phase primal simplex generalized to bounded variables: nonbasic variables
rest at one of their bounds, a pivot either swaps a basic/nonbasic pair or
flips the entering variable to its opposite bound, and Bland's smallest-index
rule (applied to entering candidates and to ratio-test ties alike) guarantees
termination without cycling.  Each run keeps an explicit inverse of its basis:
the basic values, the duals and the entering column are products with it, a
basis change updates it in product form (one eta column, a rank-1 update), and
every ``_REFACTOR_INTERVAL`` changes it is inverted afresh from the basis
columns, so rounding error from the updates cannot build up over a long run
(Maros 2003, ch. 8).

Phase 1 starts from ``x = lo``.  A row whose start ``A lo`` lies in its range
puts its logical in the basis; any other row fixes its logical at the violated
bound and puts an artificial variable in the basis, whose value is the gap.
Phase 1 does not depend on the objective, so it runs once per system, and
every cost row's phase 2 starts from a copy of the phase-1 basis, its bound
flags and its inverse, which is computed once.  Each row's witness is
therefore bit-identical to a solve with that row alone, and an envelope sweep
over one polytope pays for one feasibility search, not one per objective (the
warm start for re-optimizing one polytope, Chvátal, *Linear Programming*,
1983, ch. 8).  One call returns one :class:`SimplexResult` for all rows.

Vertices are reached exactly (up to float rounding of the input data), which
downstream callers rely on for witness feasibility at tight tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

#: Residual/optimality tolerance.
FEASIBILITY_TOL = 1e-9
#: Entries below this magnitude never serve as pivot elements.
PIVOT_TOL = 1e-11
#: Basis changes between two fresh inversions of the basis in one run.
_REFACTOR_INTERVAL = 32


@dataclass(frozen=True)
class SimplexResult:
    status: str
    #: One optimal witness per cost row (``k x n``) when optimal.
    x: np.ndarray | None
    #: One optimal value per cost row when optimal.
    objective: np.ndarray | None
    #: Phase-1 optimum (total residual constraint violation) when infeasible.
    infeasibility: float


def solve(
    a: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    costs: np.ndarray,
    maximize: Sequence[bool],
) -> SimplexResult:
    """Optimize each row of the ``k x n`` cost matrix ``costs``; see module docstring.

    Row ``r`` is maximized when ``maximize[r]`` is true and minimized
    otherwise.  The one result holds row ``r``'s witness in ``x[r]`` and its
    value in ``objective[r]``; all rows share one phase 1, so an infeasible
    system gives one infeasible result.  Crossed bounds, of a column or of a
    row, make the system infeasible with the largest crossing as its
    ``infeasibility``.
    """
    a = np.asarray(a, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    flags = np.asarray(maximize, dtype=bool)
    m, n = a.shape
    if m == 0:
        raise ValueError("at least one constraint row is required")
    if costs.ndim != 2 or costs.shape[1] != n:
        raise ValueError(f"costs must be a matrix with one coefficient per column ({n})")
    if flags.shape != (len(costs),):
        raise ValueError(f"expected one maximize flag per cost row ({len(costs)})")

    # Extended problem: structural | one logical per row | artificials.
    lo_x = np.concatenate([lo, row_lower]).astype(np.float64)
    hi_x = np.concatenate([hi, row_upper]).astype(np.float64)
    if np.any(lo_x > hi_x):
        return SimplexResult(INFEASIBLE, None, None, float(np.max(lo_x - hi_x)))

    # Nonbasic start: structural at lower bound.  A row whose start lies
    # outside its range rests its logical at the violated bound and takes a
    # basic artificial, signed so that its value, the gap, is nonnegative.
    start = a @ lo_x[:n]
    below = start < lo_x[n:]
    above = start > hi_x[n:]
    bad = np.flatnonzero(below | above)
    art0 = n + m
    artificial = np.zeros((m, len(bad)))
    artificial[bad, np.arange(len(bad))] = np.where(below[bad], 1.0, -1.0)
    ax = np.hstack([a, -np.eye(m), artificial])
    lo_x = np.concatenate([lo_x, np.zeros(len(bad))])
    hi_x = np.concatenate([hi_x, np.full(len(bad), np.inf)])
    at_upper = np.zeros(len(lo_x), dtype=bool)
    at_upper[n:art0] = above
    basis = n + np.arange(m)
    basis[bad] = art0 + np.arange(len(bad))

    # Phase 1: drive the total artificial mass to zero.
    c1 = np.zeros(len(lo_x))
    c1[art0:] = -1.0
    basis, at_upper, x = _iterate(ax, lo_x, hi_x, c1, basis, at_upper, _invert(ax, basis))
    infeas = float(x[art0:].sum())
    if infeas > FEASIBILITY_TOL:
        return SimplexResult(INFEASIBLE, None, None, infeas)

    # Phase 2: pin artificials at zero and optimize each real objective from
    # copies of the phase-1 basis, bound flags and basis inverse (_iterate
    # overwrites them).
    hi_x[art0:] = 0.0
    binv = _invert(ax, basis)
    xs = np.empty((len(costs), n))
    for r, (row, up) in enumerate(zip(costs, flags)):
        c2 = np.zeros(len(lo_x))
        c2[:n] = row if up else -row
        _, _, x = _iterate(ax, lo_x, hi_x, c2, basis.copy(), at_upper.copy(), binv.copy())
        xs[r] = x[:n]
    return SimplexResult(OPTIMAL, xs, np.einsum("ij,ij->i", costs, xs), 0.0)


def _invert(ax, basis):
    """The inverse of the basis matrix ``ax[:, basis]``."""
    try:
        return np.linalg.inv(ax[:, basis])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular basis: {exc}") from exc


def _iterate(ax, lo_x, hi_x, cost, basis, at_upper, binv):
    """Run primal pivots until no improving nonbasic variable remains.

    Every row of ``ax`` equals zero (the logicals carry the row ranges), so
    the basic values are ``xb = -B^-1 N xn``.  ``binv`` is the inverse of the
    starting basis ``B = ax[:, basis]``; a basis change multiplies it by one
    eta matrix (divide the pivot row by the pivot ``w[r]``, subtract ``w[i]``
    times it from every other row ``i``), and after ``_REFACTOR_INTERVAL``
    changes it is replaced by a fresh inverse of the current basis.
    """
    m, n_tot = ax.shape
    fixed = lo_x == hi_x
    max_iter = 200 * (n_tot + m) + 1000
    updates = 0
    for _ in range(max_iter):
        x = np.where(at_upper, hi_x, lo_x)
        x[basis] = 0.0
        if not np.all(np.isfinite(x)):
            raise SolverError("nonbasic variable resting at an infinite bound")
        xb = binv @ -(ax @ x)
        x[basis] = xb

        y = cost[basis] @ binv
        red = cost - y @ ax
        red[basis] = 0.0  # basic columns never enter
        can_enter = ~fixed & (
            (~at_upper & (red > FEASIBILITY_TOL)) | (at_upper & (red < -FEASIBILITY_TOL))
        )
        if not can_enter.any():
            return basis, at_upper, x

        e = int(np.argmax(can_enter))  # Bland: smallest eligible index
        delta = -1.0 if at_upper[e] else 1.0
        w = binv @ ax[:, e]
        step = delta * w  # basic values move by -t * step

        # Ratio test, including the entering variable's own bound span.  It
        # runs on Python floats: at a few dozen rows a loop over lists beats
        # numpy's per-call overhead.
        best_t = float(hi_x[e] - lo_x[e])
        best_col = e
        best_row = -1
        rows = zip(step.tolist(), xb.tolist(), lo_x[basis].tolist(), hi_x[basis].tolist(),
                   basis.tolist())
        for i, (si, xi, li, ui, col) in enumerate(rows):
            if si > PIVOT_TOL:
                t = (xi - li) / si
            elif si < -PIVOT_TOL:
                t = (xi - ui) / si
            else:
                continue
            if t < 0.0:
                t = 0.0  # degenerate basic value slightly past its bound
            if t < best_t - 1e-12 or (t < best_t + 1e-12 and col < best_col):
                best_t, best_col, best_row = t, col, i

        if not math.isfinite(best_t):
            raise SolverError("unbounded direction in a box-bounded program")

        if best_row < 0:
            at_upper[e] = not at_upper[e]  # bound flip, basis unchanged
            continue
        leaving = basis[best_row]
        basis[best_row] = e
        at_upper[leaving] = step[best_row] < 0.0  # hit which of its bounds
        updates += 1
        if updates == _REFACTOR_INTERVAL:
            binv = _invert(ax, basis)
            updates = 0
        else:
            pivot = binv[best_row] / w[best_row]
            binv -= np.outer(w, pivot)
            binv[best_row] = pivot
    raise SolverError(f"no convergence within {max_iter} pivots")
