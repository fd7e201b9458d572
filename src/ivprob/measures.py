"""Width-based uncertainty, interval distance, and scheme comparison.

The mean interval width ``measure_u0`` quantifies how much an interval table
leaves unsaid; ``distance_d0`` extends it to a metric between tables on one
space.  A database scheme is scored by the d0 distance between a distribution
and its reconstruction from the scheme's marginal tables — the information the
scheme loses — and schemes are ranked by that loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, SpaceMismatchError
from .extension import reconstruct
from .model import IntervalDistribution, Scheme, Space

#: Refuse scheme enumeration beyond this many variables (antichain explosion).
SCHEME_VARIABLE_CAP = 5


def measure_u0(i: IntervalDistribution) -> float:
    """Mean interval width of ``i``; 0 iff degenerate, at most 1."""
    return float(np.mean(i.widths))


def distance_d0(i: IntervalDistribution, i2: IntervalDistribution) -> float:
    """Mean endpoint displacement between two tables on the same space.

    Per cell, the absolute shifts of the two endpoints are added; the mean
    over cells is a metric: zero only for equal tables, symmetric, and
    triangle-respecting.  For nested tables (``i`` inside ``i2`` cellwise) it
    equals ``measure_u0(i2) - measure_u0(i)``.
    """
    if i.space != i2.space:
        raise SpaceMismatchError("distance requires tables on the same space")
    return float(
        np.mean(np.abs(i.upper - i2.upper) + np.abs(i.lower - i2.lower))
    )


@dataclass(frozen=True)
class SchemeReport:
    """One scheme's score against a reference distribution."""

    scheme: Scheme
    loss: float
    reconstruction: IntervalDistribution


def information_loss(i: IntervalDistribution, scheme: Scheme) -> SchemeReport:
    """Score a scheme by what reconstruction from its tables forgets.

    The loss is ``distance_d0(i, reconstruct(i, scheme))``; when ``i`` is
    inside its reconstruction cellwise this is exactly the growth in mean
    width.  Refining a scheme keeps less of the joint structure, so it can
    only raise the loss; coarsening can only lower it.

    The loss is rounded to 12 decimals.  It is a mean of endpoint gaps on the
    9-decimal grid of the input, so it often lies exactly halfway between two
    printed values, and rounding keeps last-bit noise of the LP solver from
    deciding how it prints or how it sorts.
    """
    recon = reconstruct(i, scheme)
    return SchemeReport(scheme, round(distance_d0(i, recon), 12), recon)


def is_refinement(x: Scheme, y: Scheme) -> bool:
    """True iff every subset of ``x`` is contained in some subset of ``y``.

    A refinement keeps at most the information of what it refines: its tables
    are marginals of the other scheme's tables.
    """
    return all(any(s <= t for t in y.subsets) for s in x.subsets)


def rank_schemes(
    i: IntervalDistribution, schemes: list[Scheme]
) -> list[SchemeReport]:
    """Score every scheme and sort by ascending information loss.

    Losses are compared at the 9 decimals the CLI prints, so float noise
    cannot order schemes whose printed losses are equal; such ties are broken
    by subset count, then lexicographic subset order.
    """
    if not schemes:
        raise ValueError("ranking requires at least one scheme")
    reports = [information_loss(i, scheme) for scheme in schemes]
    reports.sort(key=lambda r: (round(r.loss, 9), r.scheme.sort_key()))
    return reports


def enumerate_schemes(space: Space, max_subsets: int | None = None) -> list[Scheme]:
    """All antichain covers of the space's variables, smallest first.

    Each scheme is a set of incomparable variable subsets that jointly cover
    every variable; ``max_subsets`` bounds how many subsets a scheme may use.
    The count grows explosively, so spaces beyond ``SCHEME_VARIABLE_CAP``
    variables are refused.
    """
    names = space.names
    n = len(names)
    if n > SCHEME_VARIABLE_CAP:
        raise EnumerationLimitError(
            f"scheme enumeration over {n} variables is exponential; "
            f"refusing beyond {SCHEME_VARIABLE_CAP}"
        )
    if max_subsets is not None and max_subsets < 1:
        raise ValueError("max_subsets must be at least 1")
    full = (1 << n) - 1
    masks = range(1, full + 1)
    found: list[Scheme] = []

    def to_subset(mask: int) -> tuple[str, ...]:
        return tuple(names[b] for b in range(n) if mask >> b & 1)

    def grow(chosen: list[int], union: int, start: int) -> None:
        if union == full:
            found.append(Scheme(to_subset(m) for m in chosen))
        if max_subsets is not None and len(chosen) >= max_subsets:
            return
        for m in masks[start:]:
            if any(m & c in (m, c) for c in chosen):
                continue
            grow(chosen + [m], union | m, m)

    grow([], 0, 0)
    found.sort(key=Scheme.sort_key)
    return found
