"""Linear constraint systems over joint-cell probabilities, and their optima.

A database induces a polytope of joint distributions: for every marginal table
cell with bounds ``[l, u]`` the ambient cells projecting onto it must sum to a
value in ``[l, u]``, and the whole joint vector must be a probability
distribution.  :func:`constraints_from_database` assembles that system and
:func:`optimize` computes exact min/max linear objectives over it via the
bounded-variable simplex; this is the LP path behind database envelopes.
:func:`constraints_from_box` assembles the per-cell box system
``{p : lower <= p <= upper, sum(p) = 1}``.  Box envelopes have a closed form
(see :mod:`ivprob.extension`), so the box system serves as an LP reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .errors import SolverError
from .model import Database, IntervalDistribution, RealDistribution, Space, require_valid

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE

LE = simplex.LE
GE = simplex.GE
EQ = simplex.EQ

#: Witness residuals and objective agreement are enforced at this tolerance.
FEASIBILITY_TOL = simplex.FEASIBILITY_TOL


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(coef * p[cell] for cell, coef in terms)  relation  rhs``."""

    terms: tuple[tuple[int, float], ...]
    relation: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((int(j), float(c)) for j, c in self.terms)
        )
        if self.relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {self.relation!r}")
        if not np.isfinite(self.rhs):
            raise ValueError("constraint right-hand side must be finite")
        if any(not np.isfinite(c) for _, c in self.terms):
            raise ValueError("constraint coefficients must be finite")
        if any(j < 0 for j, _ in self.terms):
            raise ValueError("negative cell index in constraint")

    def residual(self, p: np.ndarray) -> float:
        """Signed violation of this row at ``p`` (0 when satisfied)."""
        val = sum(c * p[j] for j, c in self.terms)
        if self.relation == LE:
            return max(0.0, val - self.rhs)
        if self.relation == GE:
            return max(0.0, self.rhs - val)
        return abs(val - self.rhs)


def normalization_row(space: Space) -> LinearConstraint:
    """The simplex equality ``sum_j p_j = 1``."""
    return LinearConstraint(
        tuple((j, 1.0) for j in range(space.cell_count)), EQ, 1.0
    )


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """General rows plus a finite per-cell variable box over a joint space.

    Exactly one normalization equality must be present among the rows; the box
    defaults to ``[0, 1]`` per cell and is tightened by box-style systems.
    """

    space: Space
    constraints: tuple[LinearConstraint, ...]
    lower: np.ndarray = field(default=None)
    upper: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.space.cell_count
        object.__setattr__(self, "constraints", tuple(self.constraints))
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, float).copy()
        upper = np.ones(n) if self.upper is None else np.asarray(self.upper, float).copy()
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must have one entry per cell")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("cell bounds must be finite")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        for row in self.constraints:
            if any(j >= n for j, _ in row.terms):
                raise ValueError("constraint references a cell outside the space")
        n_norm = sum(1 for row in self.constraints if _is_normalization(row, n))
        if n_norm != 1:
            raise ValueError(f"expected exactly one normalization row, found {n_norm}")

    def max_residual(self, p: np.ndarray) -> float:
        """Largest violation of any row or bound at ``p``."""
        worst = max((row.residual(p) for row in self.constraints), default=0.0)
        worst = max(worst, float(np.max(self.lower - p, initial=0.0)))
        worst = max(worst, float(np.max(p - self.upper, initial=0.0)))
        return worst


def _is_normalization(row: LinearConstraint, n: int) -> bool:
    if row.relation != EQ or row.rhs != 1.0 or len(row.terms) != n:
        return False
    return all(c == 1.0 for _, c in row.terms) and (
        sorted(j for j, _ in row.terms) == list(range(n))
    )


def constraints_from_database(db: Database, ambient: Space | None = None) -> ConstraintSystem:
    """The joint-cell system implied by a database's marginal tables.

    Each table cell with bounds ``[l, u]`` yields a ``>= l`` and a ``<= u``
    row over the ambient cells that project onto it; a degenerate cell yields
    a single equality instead.  The normalization row is appended last.
    """
    require_valid(db)
    if ambient is None:
        ambient = db.space
    rows: list[LinearConstraint] = []
    for table in db.tables:
        names = table.space.names
        for name in names:
            if name not in ambient.names:
                raise ValueError(f"ambient space does not cover table variable {name!r}")
        pm = ambient.projection_map(names)
        fibers = [np.nonzero(pm == t)[0] for t in range(table.space.cell_count)]
        for t, fiber in enumerate(fibers):
            terms = tuple((int(j), 1.0) for j in fiber)
            lo, hi = float(table.lower[t]), float(table.upper[t])
            if lo == hi:
                rows.append(LinearConstraint(terms, EQ, lo))
            else:
                rows.append(LinearConstraint(terms, GE, lo))
                rows.append(LinearConstraint(terms, LE, hi))
    rows.append(normalization_row(ambient))
    return ConstraintSystem(ambient, tuple(rows))


def constraints_from_box(i: IntervalDistribution) -> ConstraintSystem:
    """The system ``{p : i.lower <= p <= i.upper, sum(p) = 1}``.

    The per-cell bounds are carried as the variable box rather than as
    explicit rows; the solver treats them identically.
    """
    i.require_valid()
    return ConstraintSystem(
        i.space, (normalization_row(i.space),), i.lower, i.upper
    )


@dataclass(frozen=True)
class LpOutcome:
    """Result of one linear program over a constraint system."""

    status: str
    value: float | None = None
    witness: RealDistribution | None = None
    #: Total residual infeasibility reported by phase 1 when status is infeasible.
    infeasibility: float = 0.0


def optimize(cs: ConstraintSystem, objective, direction: str) -> LpOutcome:
    """Exact min or max of ``objective . p`` over the system.

    Returns an optimal outcome whose witness attains the value, or an
    infeasible outcome; the feasible region is inside the unit box, so an
    unbounded program indicates a solver bug and raises :class:`SolverError`.
    """
    n = cs.space.cell_count
    obj = np.asarray(objective, dtype=np.float64)
    if obj.shape != (n,):
        raise ValueError(f"objective must have one coefficient per cell ({n})")
    if not np.all(np.isfinite(obj)):
        raise ValueError("objective coefficients must be finite")
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    if np.any(cs.lower > cs.upper):
        return LpOutcome(INFEASIBLE, infeasibility=float(np.max(cs.lower - cs.upper)))

    m = len(cs.constraints)
    a = np.zeros((m, n))
    b = np.empty(m)
    rel = []
    for i, row in enumerate(cs.constraints):
        for j, coef in row.terms:
            a[i, j] += coef
        b[i] = row.rhs
        rel.append(row.relation)

    res = simplex.solve(a, rel, b, cs.lower, cs.upper, obj, maximize=direction == "max")
    if res.status != OPTIMAL:
        return LpOutcome(INFEASIBLE, infeasibility=res.infeasibility)

    x = res.x
    x = np.where((x < 0.0) & (x > -FEASIBILITY_TOL), 0.0, x)
    resid = cs.max_residual(x)
    if resid > FEASIBILITY_TOL:
        raise SolverError(f"witness violates constraints by {resid}")
    value = float(obj @ x)
    return LpOutcome(OPTIMAL, value=value, witness=RealDistribution(cs.space, x))


def is_consistent(db: Database) -> bool:
    """True iff some joint distribution satisfies every table of ``db``."""
    cs = constraints_from_database(db)
    probe = optimize(cs, np.zeros(cs.space.cell_count), "max")
    return probe.status == OPTIMAL
