"""Shared fixtures: the two worked examples used throughout the tests.

The first example is a pair of binary variables X, Y with real marginals
(0.7, 0.3) and (0.6, 0.4), plus an interval database over X, Y, Z.  The
second is an interval distribution over three binary variables A, B, C whose
midpoint factors as A independent of C given B, which makes scheme
{{A,B},{B,C}} lossless for the midpoint and best for the intervals.
"""

from __future__ import annotations

import numpy as np
import pytest

from ivprob import (
    Database,
    IntervalDistribution,
    RealDistribution,
    SimplexResult,
    Space,
    Variable,
    optimize,
    simplex,
)
from ivprob.polytope import OPTIMAL

from oracles import three_solve_iterate


def _binary(name: str, prefix: str) -> Variable:
    return Variable(name, (f"{prefix}1", f"{prefix}2"))


@pytest.fixture(scope="session")
def space_x():
    return Space((_binary("X", "x"),))


@pytest.fixture(scope="session")
def space_y():
    return Space((_binary("Y", "y"),))


@pytest.fixture(scope="session")
def space_xy():
    return Space((_binary("X", "x"), _binary("Y", "y")))


@pytest.fixture(scope="session")
def space_xyz():
    return Space((_binary("X", "x"), _binary("Y", "y"), _binary("Z", "z")))


@pytest.fixture(scope="session")
def db_d(space_x, space_y):
    """Real marginal tables X=(0.7, 0.3), Y=(0.6, 0.4)."""
    return Database(
        (
            RealDistribution(space_x, np.array([0.7, 0.3])).as_interval(),
            RealDistribution(space_y, np.array([0.6, 0.4])).as_interval(),
        )
    )


@pytest.fixture(scope="session")
def i_d_expected(space_xy):
    """Narrowest joint intervals for db_d."""
    return IntervalDistribution(
        space_xy, [0.3, 0.1, 0.0, 0.0], [0.6, 0.4, 0.3, 0.3]
    )


@pytest.fixture(scope="session")
def ed_star(space_xy):
    """Maximum-entropy joint for db_d: the independent product."""
    return RealDistribution(space_xy, np.array([0.42, 0.28, 0.18, 0.12]))


@pytest.fixture(scope="session")
def db_i(space_xy, space_y, space_xyz):
    """Interval tables over (X, Y) and (Y, Z)."""
    space_yz = Space((space_y.variables[0], space_xyz.variables[2]))
    i1 = IntervalDistribution(
        space_xy, [0.2, 0.4, 0.0, 0.0], [0.6, 0.8, 0.2, 0.1]
    )
    i2 = IntervalDistribution(
        space_yz, [0.0, 0.2, 0.1, 0.0], [0.3, 0.5, 0.4, 0.2]
    )
    return Database((i1, i2))


@pytest.fixture(scope="session")
def ei_star_expected(space_xyz):
    """Joint envelope of db_i (cells in row-major x, y, z order)."""
    return IntervalDistribution(
        space_xyz,
        [0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, 0.5, 0.4, 0.2, 0.2, 0.2, 0.1, 0.1],
    )


@pytest.fixture(scope="session")
def abc_space():
    return Space(
        (
            Variable("A", ("0", "1")),
            Variable("B", ("0", "1")),
            Variable("C", ("0", "1")),
        )
    )


@pytest.fixture(scope="session")
def abc_i(abc_space):
    """Interval table of width 0.02 around the factoring midpoint."""
    lower = [0.24, 0.24, 0.04, 0.04, 0.04, 0.04, 0.14, 0.14]
    upper = [0.26, 0.26, 0.06, 0.06, 0.06, 0.06, 0.16, 0.16]
    return IntervalDistribution(abc_space, lower, upper)


@pytest.fixture(scope="session")
def abc_mid(abc_space):
    """The midpoint distribution; C is independent of A given B."""
    return RealDistribution(
        abc_space, np.array([0.25, 0.25, 0.05, 0.05, 0.05, 0.05, 0.15, 0.15])
    )


@pytest.fixture(scope="session")
def abc_projections(abc_space):
    """Expected marginal interval tables of abc_i on AB, BC, and AC."""
    ab = IntervalDistribution(
        abc_space.subspace(("A", "B")),
        [0.48, 0.08, 0.08, 0.28],
        [0.52, 0.12, 0.12, 0.32],
    )
    bc = IntervalDistribution(
        abc_space.subspace(("B", "C")),
        [0.28, 0.28, 0.18, 0.18],
        [0.32, 0.32, 0.22, 0.22],
    )
    ac = IntervalDistribution(
        abc_space.subspace(("A", "C")),
        [0.28, 0.28, 0.18, 0.18],
        [0.32, 0.32, 0.22, 0.22],
    )
    return {"AB": ab, "BC": bc, "AC": ac}


@pytest.fixture(scope="session")
def abc_recon_ab_bc(abc_space):
    """Expected reconstruction of abc_i from scheme {{A,B},{B,C}}."""
    return IntervalDistribution(
        abc_space,
        [0.16, 0.16, 0.0, 0.0, 0.0, 0.0, 0.06, 0.06],
        [0.32, 0.32, 0.12, 0.12, 0.12, 0.12, 0.22, 0.22],
    )


@pytest.fixture(scope="session")
def abc_recon_ac_bc(abc_space):
    """Expected reconstruction of abc_i from scheme {{A,C},{B,C}}."""
    return IntervalDistribution(
        abc_space,
        [0.06, 0.06, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.32, 0.32, 0.22, 0.22, 0.22, 0.22, 0.22, 0.22],
    )


def assert_intervals_close(actual, expected, atol=1e-9):
    """Endpointwise comparison helper used across the suite."""
    np.testing.assert_allclose(actual.lower, expected.lower, atol=atol, rtol=0.0)
    np.testing.assert_allclose(actual.upper, expected.upper, atol=atol, rtol=0.0)


def nonzeros(costs):
    """The ``(row, cell, coef)`` nonzeros of a dense ``k x n`` cost matrix."""
    costs = np.asarray(costs, dtype=float)
    rows, cols = np.nonzero(costs)
    return rows, cols, costs[rows, cols]


def optimize_rows(cs, costs):
    """``optimize`` for every row of a dense cost matrix, with no known bounds."""
    return optimize(cs, nonzeros(costs), np.full(len(costs), np.nan))


def optimize_one(cs, objective, direction):
    """``optimize`` for the one objective vector: row 0 of a one-row batch.

    ``direction`` is ``"max"`` or ``"min"``; a minimum is found as the
    maximum of the negated objective, and its value negated back.  The row
    carries no bound, so its own phase 2 runs last: with ``kernel_runs``,
    ``last_witness(kernel_runs, n)`` is its witness.
    """
    sign = {"max": 1.0, "min": -1.0}[direction]
    res = optimize_rows(cs, sign * np.asarray(objective, dtype=float)[None, :])
    if res.status != OPTIMAL:
        return res
    return SimplexResult(res.status, sign * res.objective[0], res.infeasibility)


def last_witness(runs, n):
    """The structural part of the point that the last recorded kernel run ended at."""
    return runs[-1][1][2][:n]


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every ``simplex._iterate`` run of the test, as ``(start, end)`` copies.

    ``start`` holds the arguments that ``oracles.three_solve_iterate`` takes
    (``ax, lo_x, hi_x, cost, basis, at_upper``) as the run received them;
    ``end`` holds the ``basis, at_upper, x`` it returned.
    """
    runs = []
    iterate = simplex._iterate

    def recording(ax, lo_x, hi_x, cost, basis, at_upper, binv):
        start = tuple(v.copy() for v in (ax, lo_x, hi_x, cost, basis, at_upper))
        end = iterate(ax, lo_x, hi_x, cost, basis, at_upper, binv)
        runs.append((start, tuple(v.copy() for v in end)))
        return end

    monkeypatch.setattr(simplex, "_iterate", recording)
    return runs


def shift_kernel_end(monkeypatch, run):
    """Patch ``simplex._iterate`` so that its run number ``run`` (from 0) ends 1e-6 off.

    The first column of that run's end point moves, so the witness breaks
    the normalization row.
    """
    iterate, runs = simplex._iterate, []

    def shifted(*args):
        basis, at_upper, x = iterate(*args)
        if len(runs) == run:
            x[0] += 1e-6
        runs.append(None)
        return basis, at_upper, x

    monkeypatch.setattr(simplex, "_iterate", shifted)


def assert_runs_follow_three_solve_kernel(runs):
    """Each run ends where the reference kernel, started from its state, ends.

    The basis and bound flags must match exactly, so every pivot chose the
    same entering column, leaving row and bound flip; the point may differ by
    rounding only.
    """
    assert runs
    for start, (basis, at_upper, x) in runs:
        ref_basis, ref_upper, ref_x = three_solve_iterate(*start)
        np.testing.assert_array_equal(basis, ref_basis)
        np.testing.assert_array_equal(at_upper, ref_upper)
        np.testing.assert_allclose(x, ref_x, atol=1e-12, rtol=0.0)
