"""Constraint-system construction and LP envelope checks against brute force."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from ivprob import (
    ConstraintSystem,
    Database,
    InfeasibleError,
    IntervalDistribution,
    SolverError,
    Space,
    ValidationError,
    Variable,
    constraints_from_box,
    constraints_from_database,
    extension_star,
    is_consistent,
    normalization_row,
    optimize,
    tighten,
    validate,
)
from ivprob.polytope import FEASIBILITY_TOL, OPTIMAL
from ivprob.simplex import INFEASIBLE

from conftest import last_witness, nonzeros, optimize_one, optimize_rows, shift_kernel_end
from oracles import (
    grid_linear_range,
    max_residual,
    random_consistent_database,
    random_interval,
    random_real,
    random_space,
)


def _binary(name, labels):
    return Variable(name, labels)


def _with_normalization(space, coef, row_lower, row_upper):
    """A system holding one ranged row plus the normalization row."""
    return ConstraintSystem(
        space, [coef, normalization_row(space)], [row_lower, 1.0], [row_upper, 1.0]
    )


def test_normalization_row_sums_all_cells(space_xy):
    row = normalization_row(space_xy)
    np.testing.assert_array_equal(row, [1.0, 1.0, 1.0, 1.0])
    assert not row.flags.writeable
    cs = constraints_from_box(IntervalDistribution(space_xy, np.zeros(4), np.ones(4)))
    np.testing.assert_array_equal(cs.a[-1], row)
    np.testing.assert_array_equal(cs.row_lower[-1:], [1.0])
    np.testing.assert_array_equal(cs.row_upper[-1:], [1.0])


def test_constraint_residual(space_xy):
    x = np.array([0.4, 0.0, 0.3, 0.3])
    above = _with_normalization(space_xy, [1.0, 0.0, 1.0, 0.0], 0.0, 0.5)
    assert max_residual(above, x) == pytest.approx(0.2)
    below = _with_normalization(space_xy, [1.0, 0.0, 0.0, 0.0], 0.6, 1.0)
    assert max_residual(below, x) == pytest.approx(0.2)
    eq = _with_normalization(space_xy, [0.0, 1.0, 0.0, 0.0], 0.1, 0.1)
    assert max_residual(eq, x) == pytest.approx(0.1)
    # A row of width zero is violated by the same gap from either side.
    assert max_residual(eq, np.array([0.4, 0.2, 0.2, 0.2])) == pytest.approx(0.1)
    ok = _with_normalization(space_xy, [1.0, 0.0, 1.0, 0.0], 0.5, 1.0)
    assert max_residual(ok, x) == 0.0
    # The normalization row and the unit box are checked too.
    assert max_residual(ok, np.array([0.6, 0.0, 0.3, 0.3])) == pytest.approx(0.2)
    assert max_residual(ok, np.array([1.3, -0.3, 0.0, 0.0])) == pytest.approx(0.3)
    assert max_residual(ok, np.array([0.7, -0.2, 0.3, 0.2])) == pytest.approx(0.2)


def test_residual_of_a_stack_is_the_largest_point_residual():
    rng = np.random.default_rng(61)
    for _ in range(40):
        sp = random_space(rng, max_cells=8, max_variables=3)
        cs = constraints_from_database(random_consistent_database(rng, sp))
        points = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 6)), sp.cell_count))
        points[rng.random(len(points)) < 0.3] = random_real(rng, sp).p  # some rows on the simplex
        each = max(max_residual(cs, p) for p in points)
        assert max_residual(cs, points) == pytest.approx(each, rel=1e-12, abs=1e-15)


def test_residual_of_a_stack_builds_no_stack_sized_temporary():
    # One float copy of the 2,048 x 1,024 stack takes 16 MB; the row
    # products over three rows take 48 kB.
    rng = np.random.default_rng(62)
    sp = Space((Variable("V", tuple(f"v{j}" for j in range(1024))),))
    a = np.vstack([rng.random((2, 1024)) < 0.5, np.ones(1024)])
    cs = ConstraintSystem(sp, a, [0.1, 0.2, 1.0], [0.6, 0.7, 1.0])
    points = rng.uniform(-0.1, 1.1, size=(2048, 1024))
    tracemalloc.start()
    try:
        resid = max_residual(cs, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resid > 0.0
    assert peak < 8 * 2**20


def test_system_requires_exactly_one_normalization(space_x):
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, np.empty((0, 2)), np.empty(0), np.empty(0))
    row = normalization_row(space_x)
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [row, row], [1.0, 1.0], [1.0, 1.0])
    # All-ones coefficients with any other range do not count.
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [row], [0.0], [1.0])
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [row], [1.0], [1.5])
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [row], [0.5], [0.5])
    cs = ConstraintSystem(space_x, [row], [1.0], [1.0])
    assert cs.a.shape == (1, 2)
    np.testing.assert_array_equal(cs.row_lower, [1.0])
    np.testing.assert_array_equal(cs.row_upper, [1.0])


def test_system_rejects_bad_rows(space_x):
    row = normalization_row(space_x)
    with pytest.raises(ValueError):  # one column too many
        ConstraintSystem(space_x, [[1.0, 1.0, 1.0]], [1.0], [1.0])
    with pytest.raises(ValueError):  # a flat row is not a matrix
        ConstraintSystem(space_x, row, [1.0], [1.0])
    with pytest.raises(ValueError):  # lower row bounds do not match the rows
        ConstraintSystem(space_x, [row], [1.0, 0.5], [1.0])
    with pytest.raises(ValueError):  # upper row bounds do not match the rows
        ConstraintSystem(space_x, [row], [1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [[np.inf, 0.0], row], [0.0, 1.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [[1.0, 0.0], row], [np.nan, 1.0], [0.5, 1.0])
    # The solver takes one-sided rows, but a system's rows stay finite.
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [[1.0, 0.0], row], [0.0, 1.0], [np.inf, 1.0])
    with pytest.raises(ValueError):
        ConstraintSystem(space_x, [[1.0, 0.0], row], [-np.inf, 1.0], [0.5, 1.0])


def test_system_arrays_are_read_only_copies(space_x):
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    row_lower = np.array([0.2, 1.0])
    row_upper = np.array([0.5, 1.0])
    cs = ConstraintSystem(space_x, a, row_lower, row_upper)
    a[0, 0] = 7.0
    row_lower[0] = 7.0
    row_upper[0] = 7.0
    np.testing.assert_array_equal(cs.a, [[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(cs.row_lower, [0.2, 1.0])
    np.testing.assert_array_equal(cs.row_upper, [0.5, 1.0])
    for arr in (cs.a, cs.row_lower, cs.row_upper):
        with pytest.raises(ValueError):
            arr[0] = 0.25
    built = constraints_from_database(
        Database((IntervalDistribution(space_x, np.array([0.2, 0.3]), np.array([0.7, 0.8])),))
    )
    with pytest.raises(ValueError):
        built.a[0, 0] = 0.0
    with pytest.raises(ValueError):
        built.row_lower[0] = 0.0
    with pytest.raises(ValueError):
        built.row_upper[0] = 0.0


def test_degenerate_tables_become_equality_rows(db_d):
    cs = constraints_from_database(db_d)
    assert cs.a.shape == (5, 4)
    np.testing.assert_array_equal(cs.row_lower, cs.row_upper)
    np.testing.assert_array_equal(cs.a[-1], [1.0, 1.0, 1.0, 1.0])
    assert cs.row_lower[-1] == 1.0
    # p(x1) row sums cells 0 and 1 of the row-major XY space.
    np.testing.assert_array_equal(cs.a[0], [1.0, 1.0, 0.0, 0.0])
    assert sorted(cs.row_lower[:-1]) == pytest.approx([0.3, 0.4, 0.6, 0.7])


def test_interval_tables_give_one_row_per_table_cell(db_i):
    cs = constraints_from_database(db_i)
    cells = sum(t.space.cell_count for t in db_i.tables)
    assert cells == 8
    assert cs.a.shape == (cells + 1, db_i.space.cell_count)
    for got, want in ((cs.row_lower, [t.lower for t in db_i.tables]),
                      (cs.row_upper, [t.upper for t in db_i.tables])):
        np.testing.assert_array_equal(got[:-1], np.concatenate(want))
    assert np.all(cs.row_lower[:-1] < cs.row_upper[:-1])


def _mixed_table(rng, space, names):
    """A valid marginal table of a random joint: each cell is degenerate or not."""
    sub = space.subspace(names)
    k = sub.cell_count
    marginal = np.zeros(k)
    np.add.at(marginal, space.projection_map(names), random_real(rng, space).p)
    degenerate = rng.uniform(size=k) < rng.choice([0.0, 0.5, 1.0])
    lower = np.clip(marginal - rng.uniform(0.0, 0.3, k), 0.0, None)
    upper = np.clip(marginal + rng.uniform(0.0, 0.3, k), None, 1.0)
    return IntervalDistribution(
        sub, np.where(degenerate, marginal, lower), np.where(degenerate, marginal, upper)
    )


def test_one_cell_table_of_probability_one_adds_no_row(space_x):
    """A degenerate table over one-label variables restates the normalization."""
    one = Space((Variable("S", ("s1",)),))
    sure = IntervalDistribution(one, [1.0], [1.0])
    x = IntervalDistribution(space_x, [0.2, 0.3], [0.7, 0.8])
    db = Database((sure, x))
    cs = constraints_from_database(db)
    assert cs.a.shape == (3, 2)
    np.testing.assert_array_equal(cs.row_lower, [0.2, 0.3, 1.0])
    np.testing.assert_array_equal(cs.row_upper, [0.7, 0.8, 1.0])
    env = extension_star(db)
    np.testing.assert_allclose(env.lower, [0.2, 0.3], atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(env.upper, [0.7, 0.8], atol=1e-12, rtol=0.0)


def test_database_rows_follow_tables_and_cells_in_order():
    """The layout the simplex sees, against a row-by-row rebuild from projection_map."""
    rng = np.random.default_rng(303)
    for _ in range(40):
        space = random_space(rng, max_cells=8)
        names = list(space.names)
        tables = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, len(names) + 1))
            subset = tuple(names[k] for k in rng.permutation(len(names))[:size])
            tables.append(_mixed_table(rng, space, subset))
        cs = constraints_from_database(Database(tuple(tables), space=space))

        rows, row_lower, row_upper = [], [], []
        for table in tables:
            pm = space.projection_map(table.space.names)
            for t in range(table.space.cell_count):
                rows.append([1.0 if pm[j] == t else 0.0 for j in range(space.cell_count)])
                row_lower.append(table.lower[t])
                row_upper.append(table.upper[t])
        rows.append([1.0] * space.cell_count)
        row_lower.append(1.0)
        row_upper.append(1.0)

        np.testing.assert_array_equal(cs.a, rows)
        np.testing.assert_array_equal(cs.row_lower, row_lower)
        np.testing.assert_array_equal(cs.row_upper, row_upper)


def test_optimize_marginal_cell_over_degenerate_database(db_d, kernel_runs):
    cs = constraints_from_database(db_d)
    obj = np.array([1.0, 0.0, 0.0, 0.0])  # p(x1, y1)
    top = optimize_one(cs, obj, "max")
    witness = last_witness(kernel_runs, 4)
    bot = optimize_one(cs, obj, "min")
    assert top.status == OPTIMAL and bot.status == OPTIMAL
    assert top.objective == pytest.approx(0.6, abs=1e-9)
    assert bot.objective == pytest.approx(0.3, abs=1e-9)
    assert witness @ obj == top.objective
    assert max_residual(cs, witness) <= FEASIBILITY_TOL


def test_optimize_rejects_bad_objectives(db_d):
    cs = constraints_from_database(db_d)
    one = [np.nan]
    with pytest.raises(ValueError, match="columns"):
        optimize(cs, ([0], [4], [1.0]), one)
    with pytest.raises(ValueError, match="finite"):
        optimize(cs, ([0], [3], [np.inf]), one)
    with pytest.raises(ValueError, match="finite"):
        optimize(cs, ([0], [3], [np.nan]), one)
    # Nonzeros come as three vectors of one length.
    with pytest.raises(ValueError, match="per nonzero"):
        optimize(cs, ([0, 0], [0, 1], [1.0]), one)
    with pytest.raises(ValueError, match="per nonzero"):
        optimize(cs, ([[0]], [[0]], [[1.0]]), one)
    # One bound per row: a row past the bounds has none.
    with pytest.raises(ValueError, match="1 rows"):
        optimize(cs, ([0, 1], [0, 0], [1.0, 1.0]), one)
    with pytest.raises(ValueError, match="bound per row"):
        optimize(cs, ([0], [0], [1.0]), [one])


def test_optimize_objective_matrix_matches_single_calls(db_d, db_i, kernel_runs):
    rng = np.random.default_rng(41)
    for db in (db_d, db_i):
        cs = constraints_from_database(db)
        n = cs.space.cell_count
        objs = rng.normal(size=(6, n))
        kernel_runs.clear()
        many = optimize_rows(cs, objs)
        assert many.status == OPTIMAL
        assert many.objective.shape == (len(objs),)
        witnesses = [end[2][:n] for _, end in kernel_runs[1:]]
        for obj, x, value in zip(objs, witnesses, many.objective):
            one = optimize_one(cs, obj, "max")
            assert one.status == OPTIMAL
            assert value == one.objective
            np.testing.assert_array_equal(x, last_witness(kernel_runs, n))
            # The max of a row is the min of its negation, on the same witness.
            low = optimize_one(cs, -obj, "min")
            assert low.objective == -value
            np.testing.assert_array_equal(last_witness(kernel_runs, n), x)
            assert max_residual(cs, x) <= FEASIBILITY_TOL


def test_optimize_checks_every_witness_of_the_batch(db_i, monkeypatch, kernel_runs):
    cs = constraints_from_database(db_i)
    n = cs.space.cell_count
    objs, bounds = nonzeros(np.eye(n)), np.full(n, np.nan)
    assert optimize(cs, objs, bounds).status == OPTIMAL
    shift_kernel_end(monkeypatch, len(kernel_runs) - 1)  # the last witness sums to 1 + 1e-6
    with pytest.raises(SolverError, match="witness violates constraints"):
        optimize(cs, objs, bounds)


def test_optimize_detects_contradictory_bounds(space_x):
    # p_1 >= 0.8 and p_2 >= 0.5 cannot both hold with p_1 + p_2 = 1.
    cs = ConstraintSystem(
        space_x,
        [[1.0, 0.0], [0.0, 1.0], normalization_row(space_x)],
        [0.8, 0.5, 1.0],
        [0.9, 0.6, 1.0],
    )
    out = optimize_one(cs, np.array([1.0, 0.0]), "max")
    assert out.status == INFEASIBLE
    assert out.infeasibility == pytest.approx(0.3, abs=1e-9)


def test_empty_database_with_explicit_space_gives_unit_box(space_x):
    db = Database((), space=space_x)
    cs = constraints_from_database(db)
    np.testing.assert_array_equal(cs.a, [[1.0, 1.0]])  # just normalization
    np.testing.assert_array_equal(cs.row_lower, [1.0])
    np.testing.assert_array_equal(cs.row_upper, [1.0])
    top = optimize_one(cs, np.array([1.0, 0.0]), "max")
    bot = optimize_one(cs, np.array([1.0, 0.0]), "min")
    assert top.objective == pytest.approx(1.0, abs=1e-9)
    assert bot.objective == pytest.approx(0.0, abs=1e-9)


def test_box_system_is_a_one_table_database(space_xy):
    i = IntervalDistribution(
        space_xy,
        np.array([0.1, 0.0, 0.2, 0.0]),
        np.array([0.5, 0.4, 0.6, 0.3]),
    )
    cs = constraints_from_box(i)
    assert cs.space == space_xy
    np.testing.assert_array_equal(cs.a, np.vstack([np.eye(4), np.ones(4)]))
    np.testing.assert_array_equal(cs.row_lower, [0.1, 0.0, 0.2, 0.0, 1.0])
    np.testing.assert_array_equal(cs.row_upper, [0.5, 0.4, 0.6, 0.3, 1.0])


def test_one_label_box_of_probability_one_has_one_row():
    """The one cell restates the normalization, so only that row remains."""
    one = Space((Variable("S", ("s1",)),))
    sure = IntervalDistribution(one, [1.0], [1.0])
    cs = constraints_from_box(sure)
    np.testing.assert_array_equal(cs.a, [[1.0]])
    np.testing.assert_array_equal(cs.row_lower, [1.0])
    np.testing.assert_array_equal(cs.row_upper, [1.0])
    lp = [optimize_one(cs, np.ones(1), d).objective for d in ("min", "max")]
    env = tighten(sure)
    assert [env.lower[0], env.upper[0]] == [1.0, 1.0]
    assert lp == [pytest.approx(1.0, abs=1e-12)] * 2


def test_box_envelopes_match_grid_oracle():
    rng = np.random.default_rng(101)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        sp = Space((Variable("V", tuple(f"v{k}" for k in range(n))),))
        i = random_interval(rng, sp, width=0.6)
        cs = constraints_from_box(i)
        for trial in range(3):
            obj = rng.normal(size=n)
            lo_lp = optimize_one(cs, obj, "min").objective
            hi_lp = optimize_one(cs, obj, "max").objective
            lo_g, hi_g = grid_linear_range(i.lower, i.upper, obj, step=1e-3)
            assert lo_lp == pytest.approx(lo_g, abs=5e-3 * np.abs(obj).sum())
            assert hi_lp == pytest.approx(hi_g, abs=5e-3 * np.abs(obj).sum())


def test_database_envelopes_bracket_grid_oracle(space_xy):
    rng = np.random.default_rng(202)
    step = 1e-2
    for _ in range(5):
        db = random_consistent_database(rng, space_xy)
        cs = constraints_from_database(db)
        rows = list(zip(cs.a[:-1], cs.row_lower[:-1], cs.row_upper[:-1]))
        obj = rng.normal(size=4)
        lo_lp = optimize_one(cs, obj, "min").objective
        hi_lp = optimize_one(cs, obj, "max").objective
        # Exact-filter grid can only see a subset of the polytope:
        lo_in, hi_in = grid_linear_range(
            np.zeros(4), np.ones(4), obj, step=step, rows=rows
        )
        if lo_in <= hi_in:  # grid found at least one feasible point
            assert lo_lp <= lo_in + 1e-9
            assert hi_lp >= hi_in - 1e-9
        # Slackened filter covers a superset, so it brackets from outside:
        slack = step * max(np.abs(coef).sum() for coef, _, _ in rows)
        lo_out, hi_out = grid_linear_range(
            np.zeros(4), np.ones(4), obj, step=step, rows=rows, row_slack=slack
        )
        pad = step * np.abs(obj).sum() + 1e-9
        assert lo_out - pad <= lo_lp <= hi_lp <= hi_out + pad


def test_row_scaling_does_not_change_optimum(db_d):
    cs = constraints_from_database(db_d)
    # Every row but the last, the normalization row, is doubled.
    scale = np.where(np.arange(len(cs.a)) < len(cs.a) - 1, 2.0, 1.0)
    doubled = ConstraintSystem(
        cs.space, scale[:, None] * cs.a, scale * cs.row_lower, scale * cs.row_upper
    )
    obj = np.array([1.0, 0.0, 0.0, 0.0])
    assert optimize_one(doubled, obj, "max").objective == pytest.approx(0.6, abs=1e-9)
    assert optimize_one(doubled, obj, "min").objective == pytest.approx(0.3, abs=1e-9)


def test_is_consistent_accepts_and_rejects(space_x, space_xy, db_d, db_i):
    assert is_consistent(db_d)
    assert is_consistent(db_i)
    # Two single-variable tables that disagree about p(x1).
    t1 = IntervalDistribution(space_x, np.array([0.7, 0.3]), np.array([0.7, 0.3]))
    t2 = IntervalDistribution(space_x, np.array([0.2, 0.8]), np.array([0.2, 0.8]))
    assert not is_consistent(Database((t1, t2)))


def test_is_consistent_decides_each_component_on_its_own():
    # Two real chains whose shared marginals disagree by 2e-10.  Each
    # component's phase 1 ends within FEASIBILITY_TOL, but one phase 1 over
    # both adds their infeasibilities and ends just above it.
    v = {name: Variable(name, (name.lower() + "1", name.lower() + "2")) for name in "ABCDEF"}

    def table(names, m):
        return IntervalDistribution(Space(tuple(v[n] for n in names)), m, m)

    left, right = [0.1, 0.2, 0.3, 0.4], [0.15 + 2e-10, 0.25, 0.35 - 2e-10, 0.25]
    db = Database((table("AB", left), table("BC", right), table("DE", left), table("EF", right)))
    assert validate(db) == []
    assert optimize(constraints_from_database(db), ((), (), ()), ()).status == INFEASIBLE
    extension_star(db)
    assert is_consistent(db)
    # A clash in one component still decides the whole database.
    clash = table("EF", [0.6, 0.0, 0.0, 0.4])
    db = Database((table("AB", left), table("BC", right), table("DE", left), clash))
    assert not is_consistent(db)
    with pytest.raises(InfeasibleError):
        extension_star(db)


def test_is_consistent_stops_after_phase_one(db_d, db_i, kernel_runs):
    # db_d's lone tables straddle 1 and need no LP.  db_i's component stops
    # after phase 1: its vertex reaches the zero objective's bound 0.
    for db, runs in ((db_d, 0), (db_i, 1)):
        kernel_runs.clear()
        assert is_consistent(db)
        assert len(kernel_runs) == runs


def test_is_consistent_refuses_an_invalid_lone_table(space_x, space_y):
    # The lower bound above the upper one is invalid, yet the sums straddle 1.
    bad = IntervalDistribution(space_x, np.array([0.6, 0.0]), np.array([0.5, 1.0]))
    good = IntervalDistribution(space_y, np.array([0.6, 0.4]), np.array([0.6, 0.4]))
    with pytest.raises(ValidationError):
        is_consistent(Database((bad, good)))


def test_infeasibility_magnitude_reported(space_x):
    t1 = IntervalDistribution(space_x, np.array([0.7, 0.3]), np.array([0.7, 0.3]))
    t2 = IntervalDistribution(space_x, np.array([0.2, 0.8]), np.array([0.2, 0.8]))
    cs = constraints_from_database(Database((t1, t2)))
    out = optimize_one(cs, np.zeros(2), "max")
    assert out.status == INFEASIBLE
    many = optimize_rows(cs, np.vstack([-np.eye(2), np.eye(2)]))
    assert many.status == INFEASIBLE
    assert many.objective is None
    assert many.infeasibility == out.infeasibility
    # The reported magnitude can never undercut the true minimal L1 violation,
    # which is 1.0 for these clashing tables (attained at p = (0.45, 0.55)).
    assert out.infeasibility >= 1.0 - 1e-9


def test_infeasible_extension_raises_with_magnitude(space_x):
    from ivprob import extension_star

    t1 = IntervalDistribution(space_x, np.array([0.7, 0.3]), np.array([0.7, 0.3]))
    t2 = IntervalDistribution(space_x, np.array([0.2, 0.8]), np.array([0.2, 0.8]))
    with pytest.raises(InfeasibleError) as exc:
        extension_star(Database((t1, t2)))
    assert exc.value.infeasibility is not None
    assert exc.value.infeasibility > 0.0
