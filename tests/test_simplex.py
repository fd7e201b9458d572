"""Bounded-variable simplex solver: known optima and randomized feasibility."""

from __future__ import annotations

import numpy as np
import pytest

from ivprob import SolverError, simplex

from conftest import (
    assert_runs_follow_three_solve_kernel,
    last_witness,
    nonzeros,
    shift_kernel_end,
)


INF = np.inf


def _solve(a, row_lower, row_upper, lo, hi, costs, maximize):
    """``simplex.solve`` on array-likes: one result for all rows of ``costs``.

    ``costs`` is dense and passed by its nonzeros, with no known bounds.  Row
    ``r`` is maximized when ``maximize[r]`` is true; otherwise its minimum is
    found as the maximum of the negated row, and negated back.
    """
    sign = np.where(maximize, 1.0, -1.0)[:, None]
    arrays = [np.asarray(v, float) for v in (a, row_lower, row_upper, lo, hi)]
    costs = sign * np.asarray(costs, float)
    res = simplex.solve(*arrays, nonzeros(costs), np.full(len(costs), np.nan))
    if res.status != simplex.OPTIMAL:
        return res
    return simplex.SimplexResult(res.status, sign[:, 0] * res.objective, res.infeasibility)


def _solve_one(a, row_lower, row_upper, lo, hi, c, maximize=True):
    """The result for the one cost vector ``c``: row 0 of a one-row batch."""
    res = _solve(a, row_lower, row_upper, lo, hi, [c], [maximize])
    if res.status != simplex.OPTIMAL:
        return res
    return simplex.SimplexResult(res.status, res.objective[0], res.infeasibility)


def test_simple_capacity_maximum(kernel_runs):
    res = _solve_one([[1.0, 1.0]], [-INF], [0.8], [0, 0], [1, 1], [1.0, 1.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.8, abs=1e-9)
    assert last_witness(kernel_runs, 2).sum() == pytest.approx(0.8, abs=1e-9)


def test_equality_and_bounds():
    res = _solve_one(
        [[1.0, 1.0, 1.0]], [1.0], [1.0], [0, 0, 0], [0.3, 0.4, 0.5], [1.0, 0.0, 0.0]
    )
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.3, abs=1e-9)
    low = _solve_one(
        [[1.0, 1.0, 1.0]], [1.0], [1.0], [0, 0, 0], [0.3, 0.4, 0.5], [1.0, 0.0, 0.0],
        maximize=False,
    )
    assert low.objective == pytest.approx(0.1, abs=1e-9)


def test_minimize_finds_the_smallest_objective():
    res = _solve_one([[1.0, 2.0]], [-INF], [1.0], [0, 0], [1, 1], [1.0, 1.0], maximize=False)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_infeasible_reports_magnitude():
    res = _solve_one(
        [[1.0], [1.0]], [0.8, -INF], [INF, 0.2], [0.0], [1.0], [1.0]
    )
    assert res.status == simplex.INFEASIBLE
    assert res.infeasibility == pytest.approx(0.6, abs=1e-6)


def test_contradictory_variable_bounds_are_infeasible():
    res = _solve_one([[1.0]], [-INF], [1.0], [0.7], [0.3], [1.0])
    assert res.status == simplex.INFEASIBLE


def test_crossed_row_range_is_infeasible_by_its_gap():
    # Like crossed column bounds: no phase 1, the crossing is the infeasibility.
    res = _solve_one([[1.0, 1.0], [1.0, 0.0]], [0.7, 0.0], [0.3, 1.0], [0, 0], [1, 1], [1.0, 0.0])
    assert res.status == simplex.INFEASIBLE
    assert res.objective is None
    assert res.infeasibility == pytest.approx(0.4)
    many = _solve([[1.0]], [0.9], [0.2], [0.0], [1.0], [[1.0], [1.0]], maximize=[True, False])
    assert many.status == simplex.INFEASIBLE
    assert many.infeasibility == pytest.approx(0.7)
    # Crossed columns and rows together: the larger crossing is reported.
    both = _solve_one([[1.0]], [0.9], [0.2], [0.6], [0.5], [1.0])
    assert both.infeasibility == pytest.approx(0.7)


def test_one_sided_rows_match_loose_finite_ranges(kernel_runs):
    # An infinite side never binds, so it acts like any finite bound that the
    # box keeps out of reach (|a @ x| < 6 here); a row open on both sides is free.
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        lo = rng.uniform(0.0, 0.3, n)
        hi = lo + rng.uniform(0.05, 0.7, n)
        x0 = lo + (hi - lo) * rng.uniform(0.0, 1.0, n)
        a = rng.uniform(-1.0, 1.0, size=(3, n))
        mid = a @ x0
        row_lower = np.array([-INF, mid[1] - rng.uniform(0.0, 0.2), -INF])
        row_upper = np.array([mid[0] + rng.uniform(0.0, 0.2), INF, INF])
        loose_lower = np.where(np.isinf(row_lower), -6.0, row_lower)
        loose_upper = np.where(np.isinf(row_upper), 6.0, row_upper)
        c = rng.normal(size=n)
        for up in (True, False):
            one_sided = _solve_one(a, row_lower, row_upper, lo, hi, c, maximize=up)
            ax = a @ last_witness(kernel_runs, n)
            finite = _solve_one(a, loose_lower, loose_upper, lo, hi, c, maximize=up)
            assert one_sided.status == finite.status == simplex.OPTIMAL
            assert one_sided.objective == pytest.approx(finite.objective, abs=1e-9)
            assert ax[0] <= row_upper[0] + 1e-9 and ax[1] >= row_lower[1] - 1e-9


def test_negative_costs_park_variables_at_lower_bounds(kernel_runs):
    res = _solve_one(
        [[1.0, 1.0]], [-INF], [1.5], [0.2, 0.3], [1.0, 1.0], [-1.0, -2.0]
    )
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(last_witness(kernel_runs, 2), [0.2, 0.3], atol=1e-9)


def test_ge_rows_need_phase_one():
    res = _solve_one(
        [[1.0, 1.0], [1.0, 0.0]],
        [0.9, -INF],
        [INF, 0.4],
        [0, 0],
        [1, 1],
        [0.0, -1.0],
        maximize=True,
    )
    assert res.status == simplex.OPTIMAL
    # minimize x2 subject to x1 + x2 >= 0.9, x1 <= 0.4  ->  x2 = 0.5
    assert res.objective == pytest.approx(-0.5, abs=1e-9)


def _random_system(rng):
    """A random system ``(a, row_lower, row_upper, lo, hi)`` and a point ``x0`` feasible for it."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    lo = rng.uniform(0.0, 0.3, n)
    hi = lo + rng.uniform(0.05, 0.7, n)
    x0 = lo + (hi - lo) * rng.uniform(0.0, 1.0, n)
    a = rng.normal(size=(m, n))
    row_lower, row_upper = [], []
    for row in a @ x0:
        kind = rng.integers(4)
        if kind == 0:  # bounded above only
            row_lower.append(-INF)
            row_upper.append(row + rng.uniform(0.0, 0.5))
        elif kind == 1:  # bounded below only
            row_lower.append(row - rng.uniform(0.0, 0.5))
            row_upper.append(INF)
        elif kind == 2:  # equality
            row_lower.append(row)
            row_upper.append(row)
        else:  # a finite range
            row_lower.append(row - rng.uniform(0.0, 0.5))
            row_upper.append(row + rng.uniform(0.0, 0.5))
    return a, np.array(row_lower), np.array(row_upper), lo, hi, x0


def test_random_systems_around_known_feasible_points(kernel_runs):
    rng = np.random.default_rng(7)
    for _ in range(150):
        a, row_lower, row_upper, lo, hi, x0 = _random_system(rng)
        c = rng.normal(size=len(x0))
        res = _solve_one(a, row_lower, row_upper, lo, hi, c)
        assert res.status == simplex.OPTIMAL
        # x0 is feasible, so the maximum cannot be below c @ x0.
        assert res.objective >= float(c @ x0) - 1e-9
        x = last_witness(kernel_runs, len(x0))
        assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        for coef, rl, ru in zip(a, row_lower, row_upper):
            val = float(coef @ x)
            assert rl - 1e-8 <= val <= ru + 1e-8


def test_zero_width_bounds_fix_variables(kernel_runs):
    res = _solve_one(
        [[1.0, 1.0]], [0.9], [0.9], [0.4, 0.0], [0.4, 1.0], [0.0, 1.0]
    )
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(last_witness(kernel_runs, 2), [0.4, 0.5], atol=1e-9)


# ------------------------------------------------ one phase 1, many costs ---


def test_cost_matrix_rows_match_single_solves_bit_for_bit(kernel_runs):
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, row_lower, row_upper, lo, hi, _ = _random_system(rng)
        n = a.shape[1]
        k = int(rng.integers(1, 7))
        costs = rng.normal(size=(k, n))
        costs[rng.random(k) < 0.3] = 0.0  # zero rows: phase 1's vertex as is
        flags = rng.random(k) < 0.5
        kernel_runs.clear()
        many = _solve(a, row_lower, row_upper, lo, hi, costs, maximize=flags)
        assert many.status == simplex.OPTIMAL
        assert many.objective.shape == (k,)
        # No row has a bound, so each runs its own phase 2, in order.
        witnesses = [end[2][:n] for _, end in kernel_runs[1:]]
        assert len(witnesses) == k
        for row, up, x, objective in zip(costs, flags, witnesses, many.objective):
            one = _solve_one(a, row_lower, row_upper, lo, hi, row, maximize=bool(up))
            assert one.status == simplex.OPTIMAL
            np.testing.assert_array_equal(x, last_witness(kernel_runs, n))
            assert objective == one.objective


def test_cost_matrix_over_infeasible_system_shares_one_infeasibility():
    a, row_lower, row_upper = [[1.0], [1.0]], [0.8, -INF], [INF, 0.2]
    single = _solve_one(a, row_lower, row_upper, [0.0], [1.0], [1.0])
    many = _solve(
        a, row_lower, row_upper, [0.0], [1.0], [[1.0], [-1.0], [0.0]],
        maximize=[True, False, True],
    )
    assert many.status == simplex.INFEASIBLE
    assert many.objective is None
    assert many.infeasibility == single.infeasibility
    crossed = _solve([[1.0]], [-INF], [1.0], [0.7], [0.3], [[1.0], [2.0]], maximize=[True, False])
    assert crossed.status == simplex.INFEASIBLE
    assert crossed.infeasibility == pytest.approx(0.4)


def test_cost_matrix_shape_errors():
    system = [np.asarray(v, float) for v in ([[1.0, 1.0]], [-INF], [0.8], [0, 0], [1, 1])]

    def solve(objectives, bounds=(np.nan,)):
        return simplex.solve(*system, objectives, bounds)

    assert solve(([0, 0], [0, 1], [1.0, 1.0])).status == simplex.OPTIMAL
    for cell in (2, -1):  # no such column
        with pytest.raises(ValueError, match="columns"):
            solve(([0], [cell], [1.0]))
    for row in (1, -1):  # no such row: one bound gives one row
        with pytest.raises(ValueError, match="1 rows"):
            solve(([row], [0], [1.0]))
    with pytest.raises(ValueError, match="bound per row"):
        solve(([0], [0], [1.0]), bounds=[[np.nan]])
    with pytest.raises(ValueError, match="per nonzero"):
        solve(([0, 0], [0], [1.0]))
    with pytest.raises(ValueError, match="per nonzero"):
        solve(([[0]], [[0]], [[1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve(([0, 0], [0, 1], [1.0, bad]))
    # A dense cost matrix is refused, even one whose three rows would read as nonzeros.
    with pytest.raises(ValueError, match="tuple"):
        solve(np.array([[0, 0], [0, 1], [1.0, 1.0]]))


def test_bounds_let_earlier_witnesses_prove_rows(kernel_runs):
    # Over x1 + x2 = 1 phase 1 ends at the vertex (1, 0).  It proves the max
    # of x1 (bound 1); row 0's witness (0, 1) proves row 1 and the max of -x1
    # (bound 0).  Row 2 has no bound, so it is solved like row 0.
    costs = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]
    res = simplex.solve(
        np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0]), np.zeros(2), np.ones(2),
        nonzeros(costs), bounds=[1.0, 1.0, np.nan, 1.0, 0.0],
    )
    assert res.status == simplex.OPTIMAL
    # Phase 1, then rows 0 and 2; each row's value is taken at its witness.
    np.testing.assert_array_equal([end[2][:2] for _, end in kernel_runs], [[1, 0], [0, 1], [0, 1]])
    np.testing.assert_array_equal(res.objective, [1.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="1 rows"):
        simplex.solve(
            np.array([[1.0]]), np.array([-INF]), np.array([1.0]), np.zeros(1), np.ones(1),
            ([0, 1], [0, 0], [1.0, 1.0]), bounds=[1.0],
        )


def test_every_witness_is_checked_phase_one_vertex_included(monkeypatch):
    # Over x1 + x2 = 1 phase 1 ends at (1, 0) and proves the max of x1; the
    # max of x2 runs its own phase 2.  A vertex shifted off the row fails the
    # call, whether or not it settles a row.
    system = [np.asarray(v, float) for v in ([[1.0, 1.0]], [1.0], [1.0], [0, 0], [1, 1])]
    unit = ([0, 1], [0, 1], [1.0, 1.0])
    for objectives, bounds, runs in ((((), (), ()), (), 1), (unit, [1.0, 1.0], 2)):
        for corrupt in range(runs):
            monkeypatch.undo()
            shift_kernel_end(monkeypatch, corrupt)
            with pytest.raises(SolverError, match="witness violates constraints by "):
                simplex.solve(*system, objectives, bounds)
    monkeypatch.undo()
    res = simplex.solve(*system, unit, [1.0, 1.0])
    np.testing.assert_array_equal(res.objective, [1.0, 1.0])


# ------------------------------------------------- the kept basis inverse ---


def test_kept_inverse_follows_the_three_solve_pivot_path(kernel_runs):
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, row_lower, row_upper, lo, hi, _ = _random_system(rng)
        k = int(rng.integers(1, 7))
        costs = rng.normal(size=(k, a.shape[1]))
        flags = rng.random(k) < 0.5
        res = _solve(a, row_lower, row_upper, lo, hi, costs, maximize=flags)
        assert res.status == simplex.OPTIMAL
    assert_runs_follow_three_solve_kernel(kernel_runs)
