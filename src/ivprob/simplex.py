"""Bounded-variable primal simplex for small dense linear programs.

Solves, for each of ``k`` objective rows ``c``, given by their nonzeros,

    maximize  c . x
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
every objective row's phase 2 starts from a copy of the phase-1 basis, its
bound flags and its inverse, which is computed once.  An envelope sweep over
one polytope thus pays for one feasibility search, not one per objective (the
warm start for re-optimizing one polytope, Chvátal, *Linear Programming*,
1983, ch. 8).  One call returns one :class:`SimplexResult`: every row's
value, and no witness.  A minimum is the maximum of the negated row (Chvátal
1983), so a caller that wants one negates the row and the value it gets back.

Each row comes with an upper bound on its maximum, NaN where none is known.
Every witness, the phase-1 vertex first, is a feasible point, so a row whose
bound a witness already reaches is optimal there and is not solved: its value
is taken at that witness (witness reuse, as in flux variability analysis,
Gudmundsson & Thiele, BMC Bioinformatics 11:489, 2010).  A row that is solved
has the value of a solve with that row alone, bit for bit; a proved row's
value is the earlier witness's, which can differ from its own LP's in the
last bits.  Every witness is checked against the rows and the column bounds
where it is found, in stacks of at most one per constraint row, so the check
never holds more than the constraint matrix does.

Vertices are reached exactly (up to float rounding of the input data), which
downstream callers rely on for witness feasibility at tight tolerances.
"""

from __future__ import annotations

import math
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
    #: One optimal value per objective row when optimal.
    objective: np.ndarray | None
    #: Phase-1 optimum (total residual constraint violation) when infeasible.
    infeasibility: float


def solve(
    a: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    objectives: tuple,
    bounds: np.ndarray,
) -> SimplexResult:
    """Maximize every objective row; see module docstring.

    ``objectives`` holds the rows' nonzeros as three equal-length vectors
    ``(rows, cols, coefs)``: row ``rows[i]`` has coefficient ``coefs[i]`` on
    column ``cols[i]``, and repeated pairs add up.  ``bounds[r]`` is an upper
    bound on row ``r``'s maximum (no feasible point exceeds it), NaN where
    none is known; there are ``len(bounds)`` rows.  The result holds row
    ``r``'s value in ``objective[r]``; all rows share one phase 1, so an
    infeasible system gives one infeasible result.  Crossed bounds, of a
    column or of a row, make the system infeasible with the largest crossing
    as its ``infeasibility``.  A witness off a row range or a column bound by
    more than ``FEASIBILITY_TOL`` raises :class:`SolverError`.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m == 0:
        raise ValueError("at least one constraint row is required")
    bounds = np.array(bounds, dtype=np.float64)  # a copy: phase 2 lowers solved rows' bounds
    if not isinstance(objectives, tuple):  # a dense 3 x n matrix would unpack by rows
        raise ValueError("objectives must be a (rows, cols, coefs) tuple of nonzeros")
    types = (np.intp, np.intp, np.float64)
    rows, cols, coefs = (np.asarray(v, t) for v, t in zip(objectives, types, strict=True))
    if bounds.ndim != 1 or rows.ndim != 1 or not rows.shape == cols.shape == coefs.shape:
        raise ValueError("expected a bound per row, and a row, column and coefficient per nonzero")
    k = len(bounds)
    order = np.argsort(rows, kind="stable")  # each row's nonzeros together, in their order
    rows, cols, coefs = rows[order], cols[order], coefs[order]
    inside = not rows.size or (0 <= rows[0] and rows[-1] < k and 0 <= cols.min() and cols.max() < n)
    if not (inside and np.isfinite(coefs).all()):
        raise ValueError(f"objective nonzeros must be finite and index {k} rows and {n} columns")

    # Extended problem: structural | one logical per row | artificials.
    lo_x = np.concatenate([lo, row_lower]).astype(np.float64)
    hi_x = np.concatenate([hi, row_upper]).astype(np.float64)
    if np.any(lo_x > hi_x):
        return SimplexResult(INFEASIBLE, None, float(np.max(lo_x - hi_x)))

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
        return SimplexResult(INFEASIBLE, None, infeas)

    # Witnesses are copied into a stack of m rows, checked whenever it fills,
    # so the check holds no more than the constraint matrix does and no
    # kernel point outlives its run.  A witness settles every open row
    # whose bound its value reaches, in plain float comparison (a NaN bound is
    # never reached), at that value.  Values are summed over the nonzeros, so
    # one witness costs O(nonzeros), not a k x n product.
    stack = np.empty((m, n))
    held = 0  # witnesses in the stack, not yet checked
    value = np.empty(k)
    todo = np.ones(k, dtype=bool)

    def check():
        nonlocal held
        resid = _residual(a, row_lower, row_upper, lo, hi, stack[:held])
        held = 0
        if not resid <= FEASIBILITY_TOL:  # a NaN residual fails too
            raise SolverError(f"witness violates constraints by {resid}")

    def settle(w):
        nonlocal held
        stack[held] = w
        held += 1
        if held == m:
            check()
        values = np.bincount(rows, coefs * w[cols], minlength=k)
        reached = todo & (values >= bounds)
        np.copyto(value, values, where=reached)
        todo[reached] = False

    settle(x[:n])

    # Phase 2: pin artificials at zero and optimize each open row from copies
    # of the phase-1 basis, bound flags and basis inverse (_iterate overwrites
    # them).  A row's costs are scattered from lists: it has few nonzeros,
    # and a Python loop over them beats numpy's per-call overhead.
    hi_x[art0:] = 0.0
    binv = _invert(ax, basis) if todo.any() else None
    starts = np.searchsorted(rows, np.arange(k + 1)).tolist()
    col_list, coef_list = cols.tolist(), coefs.tolist()
    for r in range(k):
        if not todo[r]:
            continue
        c2 = np.zeros(len(lo_x))
        for i in range(starts[r], starts[r + 1]):
            c2[col_list[i]] += coef_list[i]
        _, _, x = _iterate(ax, lo_x, hi_x, c2, basis.copy(), at_upper.copy(), binv.copy())
        bounds[r] = -np.inf  # so that its own witness settles it
        settle(x[:n])
    if held:
        check()
    return SimplexResult(OPTIMAL, value, 0.0)


def _residual(a, row_lower, row_upper, lo, hi, points):
    """Largest violation of a row range or a column bound by a point or a stack of points.

    Only row products and column-wise extremes are built, never a temporary
    the size of the stack.
    """
    points = np.atleast_2d(points)
    ap = points @ a.T
    # A NaN in a point makes the first term NaN, which max() then returns.
    return float(max((lo - points.min(axis=0)).max(), (points.max(axis=0) - hi).max(),
                     (row_lower - ap).max(), (ap - row_upper).max(), 0.0))


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
    changes it is replaced by a fresh inverse of the current basis.  The
    basic values are computed from the inverse only at the start and after
    each refactorization; in between, a step of length ``t`` moves them by
    ``-t * step``, sets the entering variable's value and rests the leaving
    one exactly at the bound it hit.  ``sign`` is +1 for a nonbasic variable
    at its lower bound, -1 at its upper bound and 0 for a basic or fixed
    one, so a column may enter exactly when its reduced cost times ``sign``
    exceeds ``FEASIBILITY_TOL``.  The column bounds are read once per run as
    lists of Python floats, and the basic values, the step and the basis's
    bounds are kept as lists, so the ratio test and the pivot bookkeeping
    handle no numpy scalars; each float operation is the one a numpy array
    would do, so every run ends at the same bits.
    """
    m, n_tot = ax.shape
    max_iter = 200 * (n_tot + m) + 1000
    sign = np.where(at_upper, -1.0, 1.0)
    sign[lo_x == hi_x] = 0.0
    sign[basis] = 0.0
    lo_l, hi_l = lo_x.tolist(), hi_x.tolist()
    cols = basis.tolist()
    lo_b = [lo_l[j] for j in cols]
    hi_b = [hi_l[j] for j in cols]
    updates = 0
    xb = None
    for _ in range(max_iter):
        if xb is None:
            x = np.where(at_upper, hi_x, lo_x)
            x[basis] = 0.0
            if not np.isfinite(x).all():
                raise SolverError("nonbasic variable resting at an infinite bound")
            xb = (binv @ -(ax @ x)).tolist()

        y = cost[basis] @ binv
        can_enter = sign * (cost - y @ ax) > FEASIBILITY_TOL
        e = int(can_enter.argmax())  # Bland: smallest eligible index
        if not can_enter[e]:
            x = np.where(at_upper, hi_x, lo_x)
            x[basis] = xb
            return basis, at_upper, x

        w = binv @ ax[:, e]
        w_l = w.tolist()
        up_e = bool(at_upper[e])
        step = [-v for v in w_l] if up_e else w_l  # basic values move by -t * step

        # Ratio test, including the entering variable's own bound span.  It
        # runs on Python floats: at a few dozen rows a loop over lists beats
        # numpy's per-call overhead.
        best_t = hi_l[e] - lo_l[e]
        best_col = e
        best_row = -1
        for i, (si, xi, li, ui, col) in enumerate(zip(step, xb, lo_b, hi_b, cols)):
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

        xb = [xi - best_t * si for xi, si in zip(xb, step)]
        if best_row < 0:
            at_upper[e] = not up_e  # bound flip, basis unchanged
            sign[e] = 1.0 if up_e else -1.0
            continue
        leaving = cols[best_row]
        up = step[best_row] < 0.0  # hit which of its bounds
        at_upper[leaving] = up
        sign[leaving] = 0.0 if lo_l[leaving] == hi_l[leaving] else (-1.0 if up else 1.0)
        xb[best_row] = hi_l[e] - best_t if up_e else lo_l[e] + best_t
        basis[best_row] = cols[best_row] = e
        lo_b[best_row] = lo_l[e]
        hi_b[best_row] = hi_l[e]
        sign[e] = 0.0
        updates += 1
        if updates == _REFACTOR_INTERVAL:
            binv = _invert(ax, basis)
            updates = 0
            xb = None
        else:
            pivot = binv[best_row] / w_l[best_row]
            binv -= w[:, None] * pivot
            binv[best_row] = pivot
    raise SolverError(f"no convergence within {max_iter} pivots")
