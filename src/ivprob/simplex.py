"""Bounded-variable primal simplex for small dense linear programs.

Solves

    maximize  c . x
    s.t.      A x  (<=, >=, =)  b        (row-wise relations)
              lo <= x <= hi              (finite bounds on every structural
                                          variable; the feasible region here
                                          always sits inside the unit box)

The method is the textbook two-phase primal simplex generalized to bounded
variables: nonbasic variables rest at one of their bounds, a pivot either
swaps a basic/nonbasic pair or flips the entering variable to its opposite
bound, and Bland's smallest-index rule (applied to entering candidates and to
ratio-test ties alike) guarantees termination without cycling.  Each iteration
refactorizes the small basis with dense solves, so no error accumulates across
pivots.

Phase 1 does not depend on the objective, so it runs once per system: given a
``k x n`` cost matrix, every row's phase 2 starts from a copy of the phase-1
basis and bound flags.  Each row's result is therefore bit-identical to a
single solve with that row alone, and an envelope sweep over one polytope
pays for one feasibility search, not one per objective (the warm start for
re-optimizing one polytope, Chvátal, *Linear Programming*, 1983, ch. 8).

Vertices are reached exactly (up to float rounding of the input data), which
downstream callers rely on for witness feasibility at tight tolerances.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

LE = "<="
GE = ">="
EQ = "="

#: Residual/optimality tolerance.
FEASIBILITY_TOL = 1e-9
#: Entries below this magnitude never serve as pivot elements.
PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    #: Phase-1 optimum (total residual constraint violation) when infeasible.
    infeasibility: float


def solve(
    a: np.ndarray,
    relations,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    c: np.ndarray,
    maximize: bool | Sequence[bool] = True,
) -> SimplexResult | list[SimplexResult]:
    """Solve the bounded LP (minimize ``c . x`` when not ``maximize``); see module docstring.

    ``c`` is one cost vector of length ``n`` with a single ``maximize`` flag,
    and one :class:`SimplexResult` is returned; or a ``k x n`` cost matrix
    with one flag per row, and a list of ``k`` results is returned, all
    sharing one phase 1 (so an infeasible system gives ``k`` infeasible
    results with one ``infeasibility``).
    """
    a = np.asarray(a, dtype=np.float64)
    relations = list(relations)
    b = np.asarray(b, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = a.shape
    if m == 0:
        raise ValueError("at least one constraint row is required")
    single = c.ndim == 1
    costs = c[None, :] if single else c
    flags = np.asarray([maximize] if single else maximize, dtype=bool)
    if costs.ndim != 2 or costs.shape[1] != n:
        raise ValueError(f"every cost vector needs one coefficient per column ({n})")
    if flags.shape != (len(costs),):
        raise ValueError(f"expected one maximize flag per cost row ({len(costs)})")
    if np.any(lo > hi):
        infeasible = SimplexResult(INFEASIBLE, None, None, float(np.max(lo - hi)))
        return infeasible if single else [infeasible] * len(costs)

    # Extended problem: structural | slacks (inequality rows) | artificials.
    slack_of = [-1] * m
    n_slack = 0
    for i, rel in enumerate(relations):
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        if rel != EQ:
            slack_of[i] = n + n_slack
            n_slack += 1
    art0 = n + n_slack
    n_tot = art0 + m

    ax = np.zeros((m, n_tot))
    ax[:, :n] = a
    lo_x = np.zeros(n_tot)
    hi_x = np.zeros(n_tot)
    lo_x[:n] = lo
    hi_x[:n] = hi
    for i, rel in enumerate(relations):
        j = slack_of[i]
        if j >= 0:
            ax[i, j] = 1.0
            # a.x + s = b with s >= 0 for "<=" rows, s <= 0 for ">=" rows.
            lo_x[j], hi_x[j] = (0.0, np.inf) if rel == LE else (-np.inf, 0.0)

    # Nonbasic start: structural at lower bound, slacks at zero.
    at_upper = np.zeros(n_tot, dtype=bool)
    for i, rel in enumerate(relations):
        if rel == GE:
            at_upper[slack_of[i]] = True  # the finite bound of a ">=" slack

    start = np.where(at_upper, hi_x, lo_x)
    start[art0:] = 0.0
    residual = b - ax @ start

    # Basis: the row's slack when it can absorb the residual, else the
    # artificial, signed so its starting value is nonnegative.
    basis = np.empty(m, dtype=np.intp)
    for i, rel in enumerate(relations):
        j = slack_of[i]
        if rel == LE and residual[i] >= 0.0:
            basis[i] = j
        elif rel == GE and residual[i] <= 0.0:
            basis[i] = j
        else:
            basis[i] = art0 + i
        ax[i, art0 + i] = 1.0 if residual[i] >= 0.0 else -1.0
        if basis[i] == art0 + i:
            hi_x[art0 + i] = np.inf

    # Phase 1: drive the total artificial mass to zero.
    c1 = np.zeros(n_tot)
    c1[art0:] = -1.0
    basis, at_upper, x = _iterate(ax, b, lo_x, hi_x, c1, basis, at_upper)
    infeas = float(x[art0:].sum())
    if infeas > FEASIBILITY_TOL:
        infeasible = SimplexResult(INFEASIBLE, None, None, infeas)
        return infeasible if single else [infeasible] * len(costs)

    # Phase 2: pin artificials at zero and optimize each real objective from
    # a copy of the phase-1 basis (_iterate updates its basis in place).
    lo_x[art0:] = 0.0
    hi_x[art0:] = 0.0
    results = []
    for row, up in zip(costs, flags):
        c2 = np.zeros(n_tot)
        c2[:n] = row if up else -row
        _, _, x = _iterate(ax, b, lo_x, hi_x, c2, basis.copy(), at_upper.copy())
        xs = x[:n].copy()
        results.append(SimplexResult(OPTIMAL, xs, float(row @ xs), 0.0))
    return results[0] if single else results


def _iterate(ax, b, lo_x, hi_x, cost, basis, at_upper):
    """Run primal pivots until no improving nonbasic variable remains."""
    m, n_tot = ax.shape
    fixed = lo_x == hi_x
    max_iter = 200 * (n_tot + m) + 1000
    for _ in range(max_iter):
        in_basis = np.zeros(n_tot, dtype=bool)
        in_basis[basis] = True

        x = np.where(at_upper, hi_x, lo_x)
        x[basis] = 0.0
        if not np.all(np.isfinite(x)):
            raise SolverError("nonbasic variable resting at an infinite bound")
        bmat = ax[:, basis]
        try:
            xb = np.linalg.solve(bmat, b - ax @ x)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis: {exc}") from exc
        x[basis] = xb

        y = np.linalg.solve(bmat.T, cost[basis])
        red = cost - y @ ax
        can_enter = ~in_basis & ~fixed & (
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
