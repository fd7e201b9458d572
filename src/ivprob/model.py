"""Domain types for finite multivariate probability spaces.

A :class:`Space` is an ordered list of finitely-valued variables and fixes a
canonical enumeration of the joint cells: row-major lexicographic order of the
domain indices, first variable slowest, which is numpy's mixed-radix code
(``np.ravel_multi_index``/``np.unravel_index`` over the domain sizes).  All
distributions, tables and file formats in this package use that order.

Distributions come in two flavours:

* :class:`IntervalDistribution` -- per-cell probability bounds ``[lower,
  upper]``.  A well-formed interval distribution satisfies ``0 <= lower[j] <=
  upper[j] <= 1`` for every cell, ``sum(upper) >= 1`` and ``sum(lower) <= 1``
  (so that at least one real distribution fits inside the box).
* :class:`RealDistribution` -- an ordinary probability vector, equivalently a
  degenerate interval distribution with ``lower == upper``.

A :class:`Database` is a collection of marginal tables (interval or real) over
subsets of the variables; a :class:`Scheme` names such a collection of subsets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EnumerationLimitError,
    SpaceMismatchError,
    UnknownVariableError,
    ValidationError,
)

#: Slack allowed on the sum invariants (interval endpoints produced by linear
#: programming carry float error of this magnitude at most).
SUM_TOLERANCE = 1e-9
#: Refuse spaces beyond this many joint cells, before any per-cell array is
#: allocated.  A database envelope solves up to ``2n`` LPs over ``n`` columns:
#: ``extend`` on a seeded (8,8,8,8) interval chain of this size takes about
#: 30 s and peaks at about 61 MB RSS on a 2-core Xeon.
SPACE_CELL_CAP = 4096


def compare_sum(total):
    """Compare a probability total with 1: -1 below, 0 within, +1 above.

    Within means inside ``1 ± SUM_TOLERANCE``.  Every check of a sum against
    1 makes this one float comparison, so :meth:`IntervalDistribution.violations`,
    :class:`RealDistribution` and ``entropy.box_minent`` agree at the edge.
    Works elementwise on arrays.
    """
    above = total > 1.0 + SUM_TOLERANCE
    below = total < 1.0 - SUM_TOLERANCE
    return above * 1 - below


@dataclass(frozen=True)
class Variable:
    """A named variable with a finite, ordered domain of value labels."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if len(self.domain) < 1:
            raise ValueError(f"variable {self.name!r} needs at least one value label")
        if any(not lab for lab in self.domain):
            raise ValueError(f"variable {self.name!r} has an empty value label")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate value labels")

    @property
    def size(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class Space:
    """An ordered product of variable domains with canonical cell enumeration.

    Cell ``k`` corresponds to the tuple of labels obtained by decoding ``k``
    row-major over the domain sizes (first variable slowest), so the all-first
    tuple has index 0 and the all-last tuple has index ``cell_count - 1``.
    numpy's ``ravel_multi_index`` and ``unravel_index`` over ``shape`` encode
    and decode that order.  A space of more than ``SPACE_CELL_CAP`` cells is
    refused with :class:`~ivprob.errors.EnumerationLimitError`.  Its geometry
    (names, shape, cell count) is computed once, on first use.
    """

    variables: tuple[Variable, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise ValueError("a space needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in space: {names}")
        if self.cell_count > SPACE_CELL_CAP:
            raise EnumerationLimitError(
                f"a space of {self.cell_count} joint cells is too large; "
                f"refusing beyond {SPACE_CELL_CAP} cells"
            )

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.variables)

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariableError(f"unknown variable {name!r}")

    def cell_index(self, labels: Sequence[str]) -> int:
        """Canonical index of the cell named by one label per variable."""
        labels = tuple(labels)
        if len(labels) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} labels, got {len(labels)}"
            )
        positions = []
        for var, lab in zip(self.variables, labels):
            try:
                positions.append(var.domain.index(lab))
            except ValueError:
                raise UnknownVariableError(
                    f"variable {var.name!r} has no value label {lab!r}"
                ) from None
        return int(np.ravel_multi_index(positions, self.shape))

    def cell_tuple(self, index: int) -> tuple[str, ...]:
        """Inverse of :meth:`cell_index`."""
        if not 0 <= index < self.cell_count:
            raise ValueError(f"cell index {index} out of range [0, {self.cell_count})")
        positions = np.unravel_index(index, self.shape)
        return tuple(v.domain[k] for v, k in zip(self.variables, positions))

    def cells(self) -> Iterable[tuple[str, ...]]:
        """All cell tuples in canonical order."""
        return itertools.product(*(v.domain for v in self.variables))

    def ordered_subset(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given variable names, deduplicated, in this space's order."""
        wanted = set(names)
        if not wanted:
            raise ValueError("variable subset must be non-empty")
        for n in wanted:
            self.variable(n)
        return tuple(n for n in self.names if n in wanted)

    def subspace(self, names: Sequence[str]) -> "Space":
        """The space over ``names`` with their declared domains, in the given order."""
        return Space(tuple(self.variable(n) for n in names))

    def projection_map(self, names: Sequence[str]) -> np.ndarray:
        """Map each joint cell index to its cell index in ``subspace(names)``.

        ``names`` may appear in any order; the target enumeration is row-major
        over that order.
        """
        return _projection_map(self, tuple(names))


@lru_cache(maxsize=128)
def _projection_map(space: Space, names: tuple[str, ...]) -> np.ndarray:
    sub = space.subspace(names)
    positions = np.unravel_index(np.arange(space.cell_count), space.shape)
    out = np.ravel_multi_index([positions[space.names.index(n)] for n in names], sub.shape)
    out.flags.writeable = False
    return out


def _as_cell_array(space: Space, values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)  # a copy, even of an array
    if arr.shape != (space.cell_count,):
        raise ValueError(
            f"{what} must have one entry per cell "
            f"({space.cell_count}), got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class IntervalDistribution:
    """Per-cell probability bounds over a space.

    Construction checks only structural integrity (shape, finiteness); the
    probabilistic invariants are reported by :meth:`violations` so that
    invalid data can be inspected rather than merely rejected.
    """

    space: Space
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_cell_array(self.space, self.lower, "lower"))
        object.__setattr__(self, "upper", _as_cell_array(self.space, self.upper, "upper"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalDistribution):
            return NotImplemented
        return (
            self.space == other.space
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def is_degenerate(self) -> bool:
        """True when every interval has zero width (a real distribution)."""
        return bool((self.lower == self.upper).all())

    def violations(self) -> list[str]:
        """Human-readable list of invariant violations (empty when valid).

        The bounds are read-only, so the list is computed on the first call;
        every call returns a fresh copy of it.
        """
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        out = []
        bad = (self.lower < 0.0) | (self.upper > 1.0) | (self.lower > self.upper)
        for j in np.flatnonzero(bad):
            lo, hi = self.lower[j], self.upper[j]
            cell = " ".join(self.space.cell_tuple(int(j)))
            if lo < 0.0:
                out.append(f"cell ({cell}): lower {lo} < 0")
            if hi > 1.0:
                out.append(f"cell ({cell}): upper {hi} > 1")
            if lo > hi:
                out.append(f"cell ({cell}): lower {lo} > upper {hi}")
        if compare_sum(float(self.lower.sum())) > 0:
            out.append(f"sum of lower bounds {self.lower.sum()} > 1")
        if compare_sum(float(self.upper.sum())) < 0:
            out.append(f"sum of upper bounds {self.upper.sum()} < 1")
        return tuple(out)

    def require_valid(self) -> "IntervalDistribution":
        problems = self.violations()
        if problems:
            raise ValidationError(problems)
        return self

    def to_real(self) -> "RealDistribution":
        """Midpoints as a real distribution; fails if any interval has positive width."""
        if float(np.max(self.widths)) > 0.0:
            raise ValueError("interval distribution is not degenerate")
        return RealDistribution(self.space, (self.lower + self.upper) / 2.0)


@dataclass(frozen=True, eq=False)
class RealDistribution:
    """A real-valued probability distribution over a space."""

    space: Space
    p: np.ndarray

    def __post_init__(self):
        arr = _as_cell_array(self.space, self.p, "p")
        if np.any(arr < -1e-12):
            raise ValueError(f"p contains negative entries (min {arr.min()})")
        arr = np.where(arr < 0.0, 0.0, arr)  # scrub -1e-17 style solver fuzz; -0.0 is kept
        total = float(arr.sum())
        if compare_sum(total) != 0:
            raise ValueError(f"p sums to {total}, expected 1 within {SUM_TOLERANCE}")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealDistribution):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.p, other.p)

    def as_interval(self) -> IntervalDistribution:
        """This distribution viewed as a degenerate interval distribution."""
        return IntervalDistribution(self.space, self.p, self.p)


@dataclass(frozen=True, init=False)
class Scheme:
    """A set of variable-name subsets, normalized to an antichain.

    Subsets contained in another subset contribute no constraints, so they are
    dropped at construction; the remaining subsets are stored in a canonical
    sorted order.
    """

    subsets: tuple[frozenset[str], ...]

    def __init__(self, subsets: Iterable[Iterable[str]]):
        sets = {frozenset(s) for s in subsets}
        if not sets:
            raise ValueError("a scheme needs at least one subset")
        if any(not s for s in sets):
            raise ValueError("scheme subsets must be non-empty")
        kept = [s for s in sets if not any(s < t for t in sets)]
        kept.sort(key=lambda s: tuple(sorted(s)))
        object.__setattr__(self, "subsets", tuple(kept))

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        """Parse ``"A,B|B,C"`` style notation: subsets split by ``|``, names by ``,``."""
        subsets = []
        for part in text.split("|"):
            names = [n.strip() for n in part.split(",")]
            if any(not n for n in names):
                raise ValueError(f"malformed scheme text {text!r}")
            subsets.append(names)
        return cls(subsets)

    def sort_key(self):
        """Total order used for deterministic ranking: size, then names."""
        return (len(self.subsets), tuple(tuple(sorted(s)) for s in self.subsets))

    def __str__(self) -> str:
        return "|".join(",".join(sorted(s)) for s in self.subsets)


@dataclass(frozen=True, eq=False)
class Database:
    """A collection of marginal tables over subsets of an ambient space.

    Each table is an :class:`IntervalDistribution` over its own declared
    variables; a real-valued table is simply one whose intervals are all
    degenerate, and a :class:`RealDistribution` passed here is converted with
    :meth:`RealDistribution.as_interval` automatically.  When ``space`` is not
    given it is derived as the union of the
    tables' variables in first-appearance order.  An explicit ``space`` may be
    wider than the union (the extra variables are unconstrained).
    """

    tables: tuple[IntervalDistribution, ...]
    space: Space

    def __init__(
        self,
        tables: Iterable[IntervalDistribution | RealDistribution],
        space: Space | None = None,
    ):
        tables = tuple(
            t.as_interval() if isinstance(t, RealDistribution) else t for t in tables
        )
        if space is None:
            seen: dict[str, Variable] = {}
            for t in tables:
                for v in t.space.variables:
                    seen.setdefault(v.name, v)
            if not seen:
                raise ValueError("an empty database needs an explicit ambient space")
            space = Space(tuple(seen.values()))
        else:
            for t in tables:
                for name in t.space.names:
                    if name not in space.names:
                        raise ValueError(
                            f"ambient space does not cover table variable {name!r}"
                        )
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "space", space)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.space == other.space and self.tables == other.tables

    @property
    def is_real(self) -> bool:
        """True when every table is degenerate (a real-valued database)."""
        return all(t.is_degenerate for t in self.tables)

    @property
    def scheme(self) -> Scheme:
        if not self.tables:
            raise ValueError("an empty database has no scheme")
        return Scheme([t.space.names for t in self.tables])


def validate(db: Database) -> list[str]:
    """All invariant violations in a database; an empty list means valid.

    Checks every table's interval-distribution invariants and that variable
    domains agree across tables (and with the ambient space) wherever a
    variable is shared.
    """
    out = []
    for t in db.tables:
        label = ",".join(t.space.names)
        for v in t.violations():
            out.append(f"table ({label}): {v}")
        for var in t.space.variables:
            ambient_var = db.space.variable(var.name)
            if ambient_var.domain != var.domain:
                out.append(
                    f"table ({label}): variable {var.name!r} domain "
                    f"{list(var.domain)} disagrees with {list(ambient_var.domain)}"
                )
    return out


def require_valid(db: Database) -> Database:
    problems = validate(db)
    if problems:
        raise ValidationError(problems)
    return db


def is_more_informative(
    i: IntervalDistribution, i2: IntervalDistribution, atol: float = 0.0
) -> bool:
    """True iff every interval of ``i`` is contained in the matching interval of ``i2``.

    Containment is exact by default; ``atol`` admits endpoints off by solver
    noise when comparing computed tables.
    """
    if i.space != i2.space:
        raise SpaceMismatchError("interval distributions are over different spaces")
    return bool(
        np.all(i.lower >= i2.lower - atol) and np.all(i.upper <= i2.upper + atol)
    )
