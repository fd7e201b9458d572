"""Envelope, projection, reconstruction, and tightening behaviour."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from ivprob import (
    Database,
    InfeasibleError,
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    UnknownVariableError,
    ValidationError,
    Variable,
    constraints_from_box,
    constraints_from_database,
    extension_star,
    is_consistent,
    is_more_informative,
    joint_intervals,
    optimize,
    project_database,
    project_interval,
    project_real,
    reconstruct,
    tighten,
)
from ivprob.extension import _joint_envelope
from ivprob.model import SUM_TOLERANCE
from ivprob.polytope import FEASIBILITY_TOL

from conftest import (
    assert_intervals_close,
    assert_runs_follow_three_solve_kernel,
    last_witness,
    optimize_one,
    optimize_rows,
)
from oracles import (
    chain_cell_bounds,
    grid_linear_range,
    max_residual,
    random_consistent_database,
    random_cover_scheme,
    random_interval,
    random_real,
    random_space,
    refine_scheme,
    three_solve_iterate,
)


def test_joint_intervals_of_two_marginals(db_d, i_d_expected):
    got = joint_intervals(db_d)
    assert_intervals_close(got, i_d_expected)


def test_extension_star_keeps_zero_endpoints_positive(db_d):
    # Lower endpoints come back from maxima of -p_j; a zero must not print as -0.
    got = extension_star(db_d)
    assert not np.signbit(got.lower).any() and not np.signbit(got.upper).any()
    assert np.count_nonzero(got.lower == 0.0) == 2


def test_extension_star_eight_cell_table(db_i, ei_star_expected):
    got = extension_star(db_i)
    assert_intervals_close(got, ei_star_expected)


def test_degenerate_joint_table_is_a_fixed_point(space_xy, ed_star):
    table = ed_star.as_interval()
    got = extension_star(Database((table,)))
    assert_intervals_close(got, table)


def test_point_mass_marginals_force_the_joint(space_x, space_y, space_xy):
    px = RealDistribution(space_x, np.array([1.0, 0.0])).as_interval()
    py = RealDistribution(space_y, np.array([1.0, 0.0])).as_interval()
    got = joint_intervals(Database((px, py), space=space_xy))
    np.testing.assert_allclose(got.lower, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(got.upper, [1.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_single_uniform_marginal_leaves_half_mass_free(space_x, space_xy):
    px = RealDistribution(space_x, np.array([0.5, 0.5])).as_interval()
    got = joint_intervals(Database((px,), space=space_xy))
    np.testing.assert_allclose(got.lower, np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(got.upper, np.full(4, 0.5), atol=1e-9)
    # Cross-check each endpoint against a brute-force grid over the polytope.
    rows = [
        (np.array([1.0, 1.0, 0.0, 0.0]), 0.5, 0.5),
        (np.array([0.0, 0.0, 1.0, 1.0]), 0.5, 0.5),
    ]
    for cell in range(4):
        obj = np.zeros(4)
        obj[cell] = 1.0
        lo_g, hi_g = grid_linear_range(
            np.zeros(4), np.ones(4), obj, step=1e-2, rows=rows
        )
        assert got.lower[cell] == pytest.approx(lo_g, abs=2e-2)
        assert got.upper[cell] == pytest.approx(hi_g, abs=2e-2)


def test_projection_of_extension_onto_two_of_three(db_i, space_xyz):
    env = extension_star(db_i)
    got = project_interval(env, ("X", "Z"))
    assert got.space.names == ("X", "Z")
    np.testing.assert_allclose(got.lower, [0.2, 0.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(got.upper, [0.7, 0.7, 0.3, 0.3], atol=1e-9)


def test_projection_of_abc_interval(abc_i, abc_projections):
    got = project_interval(abc_i, ("A", "B"))
    assert_intervals_close(got, abc_projections["AB"])
    got = project_interval(abc_i, ("A", "C"))
    assert_intervals_close(got, abc_projections["AC"])


def test_projection_preserves_ambient_variable_order(abc_i):
    got = project_interval(abc_i, ("C", "A"))
    assert got.space.names == ("A", "C")


def test_degenerate_projection_is_plain_summation(ed_star):
    got = project_interval(ed_star.as_interval(), ("X",))
    np.testing.assert_allclose(got.lower, [0.7, 0.3], atol=1e-12)
    np.testing.assert_allclose(got.upper, [0.7, 0.3], atol=1e-12)


def test_degenerate_projection_matches_real_projection():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sp = random_space(rng, max_cells=8, max_variables=3)
        if len(sp.variables) < 2:
            continue
        p = random_real(rng, sp)
        names = list(sp.names)
        onto = tuple(rng.permutation(names)[: int(rng.integers(1, len(names)))])
        via_real = project_real(p, onto)
        via_interval = project_interval(p.as_interval(), onto)
        np.testing.assert_allclose(via_interval.lower, via_real.p, atol=1e-9)
        np.testing.assert_allclose(via_interval.upper, via_real.p, atol=1e-9)


def test_project_real_examples(ed_star, abc_space, abc_mid):
    onto_y = project_real(ed_star, ("Y",))
    np.testing.assert_allclose(onto_y.p, [0.6, 0.4], atol=1e-12)
    identity = project_real(ed_star, ("X", "Y"))
    np.testing.assert_allclose(identity.p, ed_star.p, atol=0.0)
    onto_b = project_real(abc_mid, ("B",))
    np.testing.assert_allclose(onto_b.p, [0.6, 0.4], atol=1e-12)


def test_projection_rejects_bad_variable_sets(ed_star):
    with pytest.raises(ValueError):
        project_real(ed_star, ())
    with pytest.raises(UnknownVariableError):
        project_real(ed_star, ("Q",))
    with pytest.raises(ValueError):
        project_interval(ed_star.as_interval(), ())
    with pytest.raises(UnknownVariableError):
        project_interval(ed_star.as_interval(), ("X", "Q"))


def test_project_database_produces_one_table_per_subset(abc_i, abc_projections):
    db = project_database(abc_i, Scheme.parse("A,B|B,C"))
    assert len(db.tables) == 2
    assert_intervals_close(db.tables[0], abc_projections["AB"])
    assert_intervals_close(db.tables[1], abc_projections["BC"])
    assert db.space.names == ("A", "B", "C")


def test_project_database_full_scheme_returns_the_table_itself(abc_i):
    db = project_database(abc_i, Scheme.parse("A,B,C"))
    assert len(db.tables) == 1
    assert_intervals_close(db.tables[0], abc_i)  # abc_i is already tight


def test_reconstruct_known_tables(abc_i, abc_recon_ab_bc, abc_recon_ac_bc):
    got = reconstruct(abc_i, Scheme.parse("A,B|B,C"))
    assert_intervals_close(got, abc_recon_ab_bc)
    got = reconstruct(abc_i, Scheme.parse("A,C|B,C"))
    assert_intervals_close(got, abc_recon_ac_bc)


def test_reconstruct_full_scheme_equals_tighten():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp)
        full = Scheme((frozenset(sp.names),))
        assert_intervals_close(reconstruct(i, full), tighten(i))


def test_tighten_examples(space_x):
    wide = IntervalDistribution(space_x, np.zeros(2), np.ones(2))
    assert_intervals_close(tighten(wide), wide)

    sp3 = Space((Variable("V", ("a", "b", "c")),))
    i = IntervalDistribution(sp3, np.zeros(3), np.array([0.3, 0.4, 0.5]))
    got = tighten(i)
    np.testing.assert_allclose(got.lower, [0.1, 0.2, 0.3], atol=1e-9)
    np.testing.assert_allclose(got.upper, [0.3, 0.4, 0.5], atol=1e-9)


def test_tighten_rejects_unnormalizable_boxes(space_x):
    bad = IntervalDistribution(space_x, np.array([0.0, 0.0]), np.array([0.9, 0.05]))
    with pytest.raises(ValidationError):
        tighten(bad)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda i: project_interval(i, ["X"]), id="project_interval"),
        pytest.param(lambda i: project_database(i, Scheme.parse("X|Y")), id="project_database"),
        pytest.param(lambda i: reconstruct(i, Scheme.parse("X|Y")), id="reconstruct"),
        pytest.param(lambda i: extension_star(Database((i,))), id="extension_star"),
        pytest.param(
            lambda i: constraints_from_database(Database((i,))), id="constraints_from_database"
        ),
    ],
)
def test_entry_points_refuse_an_invalid_table(space_xy, call):
    # A lower bound above its upper one, while the sums straddle 1.
    bad = IntervalDistribution(space_xy, [0.3, 0.2, 0.2, 0.2], [0.2, 0.3, 0.3, 0.3])
    with pytest.raises(ValidationError):
        call(bad)


def test_tighten_is_idempotent():
    rng = np.random.default_rng(37)
    for _ in range(15):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp)
        once = tighten(i)
        twice = tighten(once)
        np.testing.assert_allclose(twice.lower, once.lower, atol=1e-9)
        np.testing.assert_allclose(twice.upper, once.upper, atol=1e-9)


def test_envelope_contains_all_witnesses_and_attains_endpoints(kernel_runs):
    rng = np.random.default_rng(53)
    for _ in range(8):
        sp = random_space(rng, max_cells=6, max_variables=2)
        db = random_consistent_database(rng, sp)
        env = extension_star(db)
        cs = constraints_from_database(db)
        n = sp.cell_count
        for cell in range(n):
            obj = np.zeros(n)
            obj[cell] = 1.0
            for direction, endpoint in (("min", env.lower[cell]), ("max", env.upper[cell])):
                out = optimize_one(cs, obj, direction)
                x = last_witness(kernel_runs, n)
                assert max_residual(cs, x) <= FEASIBILITY_TOL
                assert out.objective == pytest.approx(endpoint, abs=1e-9)
                witness = RealDistribution(cs.space, x)
                assert is_more_informative(witness.as_interval(), env, atol=1e-9)


def test_tight_input_is_more_informative_than_reconstruction():
    rng = np.random.default_rng(67)
    for _ in range(12):
        sp = random_space(rng, max_cells=8, max_variables=3)
        if len(sp.variables) < 2:
            continue
        i = tighten(random_interval(rng, sp))
        scheme = random_cover_scheme(rng, sp.names)
        assert is_more_informative(i, reconstruct(i, scheme), atol=1e-9)


def test_refining_the_scheme_tightens_the_reconstruction():
    rng = np.random.default_rng(79)
    sp = Space(
        (
            Variable("X", ("x1", "x2")),
            Variable("Y", ("y1", "y2")),
            Variable("Z", ("z1", "z2")),
        )
    )
    for _ in range(10):
        i = tighten(random_interval(rng, sp))
        coarse = random_cover_scheme(rng, sp.names)
        fine = refine_scheme(rng, coarse)
        recon_fine = reconstruct(i, fine)
        recon_coarse = reconstruct(i, coarse)
        assert is_more_informative(recon_coarse, recon_fine, atol=1e-9)


# ------------------------------------------- closed form vs the box LP ---


def _edge_boxes(rng, space):
    """Valid boxes around a hidden distribution, one per hard case.

    A generic box; a degenerate one; one with zero-width cells; and two whose
    lower or upper sum sits within ``SUM_TOLERANCE`` of 1 (on either side),
    with zero-width cells among the rest.
    """
    p = random_real(rng, space).p
    down = rng.uniform(0.0, 0.5, p.size)
    up = rng.uniform(0.0, 0.5, p.size)
    pinned = rng.random(p.size) < 0.3
    edge = p * (1.0 + rng.uniform(-0.99, 0.99) * SUM_TOLERANCE)
    generic = (np.clip(p - down, 0.0, None), np.clip(p + up, None, 1.0))
    pinned_generic = tuple(np.where(pinned, p, side) for side in generic)
    at_lower = np.clip(edge + up, None, 1.0)
    at_upper = np.clip(edge - down, 0.0, None)
    cases = [
        generic,
        (edge, edge),
        pinned_generic,
        (edge, np.where(pinned, edge, at_lower)),
        (np.where(pinned, edge, at_upper), edge),
    ]
    return [IntervalDistribution(space, lo, hi).require_valid() for lo, hi in cases]


def _lp_fiber_envelope(i, pm, k):
    """Min and max of every fiber sum by the box LP, the reference path."""
    cs = constraints_from_box(i)
    fibers = [(pm == t).astype(float) for t in range(k)]
    lower = [optimize_one(cs, f, "min").objective for f in fibers]
    upper = [optimize_one(cs, f, "max").objective for f in fibers]
    return np.array(lower), np.array(upper)


def _kernel_test_spaces(rng, count):
    """Random spaces, plus spaces with a one-label variable (single-cell fibers)."""
    single = Variable("S", ("s1",))
    for k in range(count):
        sp = random_space(rng, max_cells=8, max_variables=3)
        yield Space((single,) + sp.variables) if k % 4 == 0 else sp


def test_tighten_matches_the_box_lp():
    rng = np.random.default_rng(211)
    for sp in _kernel_test_spaces(rng, 40):
        n = sp.cell_count
        for i in _edge_boxes(rng, sp):
            got = tighten(i)
            lower, upper = _lp_fiber_envelope(i, np.arange(n), n)
            np.testing.assert_allclose(got.lower, lower, atol=1e-9, rtol=0.0)
            np.testing.assert_allclose(got.upper, upper, atol=1e-9, rtol=0.0)


def test_project_interval_matches_the_box_lp():
    rng = np.random.default_rng(223)
    for sp in _kernel_test_spaces(rng, 40):
        names = list(sp.names)
        subsets = [tuple(names[b] for b in range(len(names)) if mask >> b & 1)
                   for mask in range(1, 1 << len(names))]
        for i in _edge_boxes(rng, sp):
            for onto in subsets:
                got = project_interval(i, onto)
                k = got.space.cell_count
                lower, upper = _lp_fiber_envelope(i, sp.projection_map(onto), k)
                np.testing.assert_allclose(got.lower, lower, atol=1e-9, rtol=0.0)
                np.testing.assert_allclose(got.upper, upper, atol=1e-9, rtol=0.0)


# ------------------------------------- one simplex call per database envelope ---


def _marginal_table(rng, space, names, p, kind):
    """A table on ``names`` around the marginal of ``p``.

    ``kind`` is ``"interval"`` (inequality rows), ``"degenerate"`` (an
    interval table of zero widths: equality rows), ``"real"`` (a
    :class:`RealDistribution`) or ``"mixed"`` (about half the cells degenerate).
    """
    sub = space.subspace(names)
    k = sub.cell_count
    marginal = np.zeros(k)
    np.add.at(marginal, space.projection_map(names), p)
    if kind == "real":
        return RealDistribution(sub, marginal)
    degenerate = rng.uniform(size=k) < {"interval": 0.0, "degenerate": 1.0, "mixed": 0.5}[kind]
    lower = np.clip(marginal - rng.uniform(0.0, 0.3, k), 0.0, None)
    upper = np.clip(marginal + rng.uniform(0.0, 0.3, k), None, 1.0)
    return IntervalDistribution(
        sub, np.where(degenerate, marginal, lower), np.where(degenerate, marginal, upper)
    )


def _sweep_databases(rng, count):
    """Consistent databases with an inconsistent twin each.

    Tables are interval, degenerate, real or a mix of these, over permuted
    variable subsets; every fifth space has a one-label variable and every
    fifth database an ambient space wider than its tables.  The twin adds two
    real tables over all variables, taken from different joints.
    """
    one_label = Variable("S", ("s1",))
    unused = Variable("W", ("w1", "w2"))
    kinds = ("interval", "degenerate", "real", "mixed")
    for case in range(count):
        space = random_space(rng, max_cells=8)
        if case % 5 == 0:
            space = Space((one_label,) + space.variables)
        ambient = Space(space.variables + (unused,)) if case % 5 == 1 else space
        names = list(space.names)
        p = random_real(rng, space).p
        tables = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, len(names) + 1))
            subset = tuple(names[k] for k in rng.permutation(len(names))[:size])
            kind = kinds[case % 4] if case % 8 < 4 else kinds[rng.integers(4)]
            tables.append(_marginal_table(rng, space, subset, p, kind))
        clash = [RealDistribution(space, q) for q in (p, random_real(rng, space).p)]
        yield Database(tuple(tables), space=ambient), Database(tuple(tables + clash), space=ambient)


def _reuse_chains(rng):
    """Chains of every table kind on up to 27 cells, where witness reuse proves rows."""
    for shape in ((3, 3), (2, 3, 4), (3, 3, 3)):
        for kind in ("interval", "real", "mixed", "degenerate"):
            yield _chain_database(rng, shape, kind)


def _envelope_and_solved(db, kernel_runs):
    """The joint-LP envelope of ``db`` and, per endpoint, whether it ran its own phase 2.

    The solved mask is indexed by the sign of the unit cost: row 1 for a max,
    row 0 for a min (solved as the max of its negation).
    """
    kernel_runs.clear()
    env = _joint_envelope(db)
    n = env.space.cell_count
    solved = np.zeros((2, n), dtype=bool)
    for (_, _, _, cost, _, _), _ in kernel_runs[1:]:
        j = int(np.flatnonzero(cost[:n])[0])
        solved[int(cost[j] > 0.0), j] = True
    assert solved.sum() == len(kernel_runs) - 1 < 2 * n  # witness reuse proved the rest
    return env, solved


def _single_lp_envelope(db):
    """Per-cell min and max by single-objective calls, which carry no bound."""
    cs = constraints_from_database(db)
    cells = np.eye(cs.space.cell_count)
    lower = np.clip([optimize_one(cs, e, "min").objective for e in cells], 0.0, 1.0)
    upper = np.clip([optimize_one(cs, e, "max").objective for e in cells], 0.0, 1.0)
    return np.minimum(lower, upper), upper


def _assert_matches_joint_envelope(db, joint):
    """``extension_star`` is the joint LP's envelope: bit for bit when tables
    overlap, and within the proved-endpoint tolerance in closed form."""
    got = extension_star(db)
    held = [name for t in db.tables for name in t.space.names]
    if len(set(held)) < len(held):
        assert got == joint
    else:
        np.testing.assert_allclose(got.lower, joint.lower, atol=1e-15, rtol=0.0)
        np.testing.assert_allclose(got.upper, joint.upper, atol=1e-15, rtol=0.0)


def test_extension_star_equals_per_cell_lps_exactly(kernel_runs):
    rng = np.random.default_rng(401)
    for db, inconsistent in _sweep_databases(rng, 40):
        env, _ = _envelope_and_solved(db, kernel_runs)
        lower, upper = _single_lp_envelope(db)
        np.testing.assert_array_equal(env.lower, lower)
        np.testing.assert_array_equal(env.upper, upper)
        _assert_matches_joint_envelope(db, env)

        cs = constraints_from_database(inconsistent)
        probe = optimize_one(cs, np.zeros(cs.space.cell_count), "max")
        with pytest.raises(InfeasibleError) as exc:
            extension_star(inconsistent)
        assert probe.infeasibility > 0.0
        assert exc.value.infeasibility == probe.infeasibility

    for db in _reuse_chains(rng):
        env, solved = _envelope_and_solved(db, kernel_runs)
        for got, want, own in zip((env.lower, env.upper), _single_lp_envelope(db), solved):
            np.testing.assert_array_equal(got[own], want[own])
            # A proved endpoint is an earlier witness's value, not its own
            # LP's; on these chains the two can differ by 1 ulp.
            np.testing.assert_allclose(got[~own], want[~own], atol=1e-15, rtol=0.0)
        _assert_matches_joint_envelope(db, env)


def test_extension_star_runs_phase_one_once(db_i, kernel_runs):
    n = extension_star(db_i).space.cell_count
    assert n == 8
    # Phase 1 prices the artificials, past the structural columns; phase 2
    # prices structural columns only.
    phase_one = [cost[n:].any() for (_, _, _, cost, _, _), _ in kernel_runs]
    assert phase_one[0] and not any(phase_one[1:])
    # Witness reuse proves 9 of the 16 endpoints, so 7 phase 2 runs remain.
    # The maxima run first, which pays on larger tables (see the chain count
    # below) but on this 8-cell one proves two endpoints fewer.
    assert len(phase_one) - 1 == 7


def _chain_database(rng, shape, kind):
    """Tables on each neighbouring pair of a chain of variables, around one joint."""
    variables = tuple(
        Variable(f"C{k}", tuple(f"c{k}.{m}" for m in range(size)))
        for k, size in enumerate(shape)
    )
    space = Space(variables)
    p = random_real(rng, space).p
    tables = tuple(
        _marginal_table(rng, space, (variables[k].name, variables[k + 1].name), p, kind)
        for k in range(len(shape) - 1)
    )
    return Database(tables, space=space)


#: Three-variable shapes of 8 to 16 cells, the sizes of the benchmark's joints.
_SMALL_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2))


def test_maxima_first_saves_runs_on_two_table_chains(kernel_runs):
    rng = np.random.default_rng(37)
    dbs = [_chain_database(rng, shape, "interval") for shape in _SMALL_SHAPES for _ in range(2)]
    envelopes = [extension_star(db) for db in dbs]
    maxima_first = len(kernel_runs)
    kernel_runs.clear()
    for db, env in zip(dbs, envelopes):
        # The same 2n endpoints and bounds, minima first.
        cs = constraints_from_database(db)
        n = cs.space.cell_count
        caps = [t.upper[cs.space.projection_map(t.space.names)] for t in db.tables]
        bounds = np.concatenate([np.zeros(n), np.min(caps + [np.ones(n)], axis=0)])
        objectives = (np.arange(2 * n), np.tile(np.arange(n), 2), np.repeat([-1.0, 1.0], n))
        values = optimize(cs, objectives, bounds).objective
        np.testing.assert_allclose(0.0 - values[:n], env.lower, atol=1e-15, rtol=0.0)
        np.testing.assert_allclose(values[n:], env.upper, atol=1e-15, rtol=0.0)
    # Runs of both phases; 8 of them are phase 1 in either order.
    assert (maxima_first, len(kernel_runs)) == (94, 121)


def _highs_envelope(db):
    """Per-cell min and max by SciPy's HiGHS, and the largest residual of its witnesses.

    The rows are built here from the labels of every joint cell, not by
    ``constraints_from_database``; a witness's residual is its largest
    violation of a table row, the normalization or the unit box.
    """
    from scipy.optimize import linprog

    shape, n = db.space.shape, db.space.cell_count
    labels = np.indices(shape).reshape(len(shape), n)  # row-major joint cells
    rows, lows, highs = [], [], []
    for table in db.tables:
        axes = [db.space.names.index(name) for name in table.space.names]
        table_cell = np.ravel_multi_index(tuple(labels[axes]), table.space.shape)
        for t in range(table.space.cell_count):
            rows.append((table_cell == t).astype(float))
            lows.append(table.lower[t])
            highs.append(table.upper[t])
    fibers = np.array(rows).reshape(len(rows), n)
    lp = dict(
        A_ub=np.vstack([fibers, -fibers]), b_ub=np.concatenate([highs, np.negative(lows)]),
        A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0.0, 1.0), method="highs",
    )
    cells = np.eye(n)
    mins = [linprog(e, **lp) for e in cells]
    maxs = [linprog(-e, **lp) for e in cells]
    x = np.array([res.x for res in mins + maxs])
    fx = x @ fibers.T
    residual = max(
        np.max(lows - fx, initial=0.0), np.max(fx - highs, initial=0.0),
        np.max(np.abs(x.sum(axis=1) - 1.0)),
        -x.min(), x.max() - 1.0,
    )
    return np.array([r.fun for r in mins]), -np.array([r.fun for r in maxs]), residual


def test_extension_star_matches_highs_on_chains():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(409)
    for shape in ((3, 3), (2, 2, 2, 2), (3, 3, 3), (4, 4, 4), (2,) * 6):
        for kind in ("interval", "real", "mixed"):
            db = _chain_database(rng, shape, kind)
            env = extension_star(db)
            lower, upper, _ = _highs_envelope(db)
            np.testing.assert_allclose(env.lower, lower, atol=1e-7, rtol=0.0)
            np.testing.assert_allclose(env.upper, upper, atol=1e-7, rtol=0.0)


def _disjoint_databases(rng, count):
    """Databases whose tables share no variable, of every table kind.

    The variables of a random space and a one-label one go, in random order,
    to up to three tables; every third ambient space also holds a variable
    that no table does.
    """
    one_label = Variable("S", ("s1",))
    unused = Variable("W", ("w1", "w2"))
    kinds = ("interval", "degenerate", "real", "mixed")
    for case in range(count):
        space = Space((one_label,) + random_space(rng, max_cells=8).variables)
        ambient = Space(space.variables + (unused,)) if case % 3 == 0 else space
        p = random_real(rng, space).p
        owner = rng.integers(3, size=len(space.names))
        tables = []
        for t in range(3):
            names = tuple(space.names[k] for k in rng.permutation(len(owner)) if owner[k] == t)
            if names:
                tables.append(_marginal_table(rng, space, names, p, kinds[case % 4]))
        yield Database(tuple(tables), space=ambient)


def test_disjoint_envelope_matches_highs():
    # The closed form rests on a theorem, not on an LP witness: HiGHS, on rows
    # built independently, must reach every endpoint with a feasible joint.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(421)
    for db in _disjoint_databases(rng, 16):
        env = extension_star(db)
        lower, upper, residual = _highs_envelope(db)
        np.testing.assert_allclose(env.lower, lower, atol=1e-9, rtol=0.0)
        np.testing.assert_allclose(env.upper, upper, atol=1e-9, rtol=0.0)
        assert residual <= 1e-9


def test_disjoint_envelope_is_exact_below_lp_noise(space_x, space_y, space_xy):
    # Bounds 1e-12 apart pin these cells; the joint LP can miss such a pin by
    # up to 1e-12, while the closed form keeps it.
    pinned = IntervalDistribution(space_x, [1.0, 0.0], [1.0, 1e-12])
    got = extension_star(Database((pinned,)))
    assert got == IntervalDistribution(space_x, [1.0, 0.0], [1.0, 0.0])

    tiny = 4.274544882241313e-15
    x = IntervalDistribution(space_x, [tiny, 0.7652804572178621], [tiny, 0.9999999999999958])
    y = IntervalDistribution(space_y, [0.0, 1.0], [0.010201981980951904, 1.0])
    got = extension_star(Database((x, y), space=space_xy))
    # Y is pinned at y2, so cell (x1, y2) holds exactly X's pinned mass.
    assert got.upper[1] == tiny
    assert got.lower[1] == pytest.approx(tiny, abs=1e-16)
    np.testing.assert_array_equal(got.upper[[0, 2]], 0.0)


def _component_cases(rng):
    """``(name, database, cells of each LP)`` for databases of several components.

    Tables sit around one hidden joint, some in an order other than the
    ambient one; free variables come first in the ambient space.  The joint is
    dyadic, so every marginal sums to exactly 1 and every table's bounds
    straddle 1 in floats, except in the two tolerance-edge cases.
    """
    var = {
        name: Variable(name, tuple(f"{name.lower()}.{m}" for m in range(size)))
        for name, size in (("V1", 3), ("V2", 2), ("V3", 3), ("V4", 2), ("V5", 2), ("V6", 2))
    }
    free, one_label = Variable("F", ("f1", "f2", "f3")), Variable("S", ("s1",))

    def database(scheme, kind, extra=()):
        held = {name for names in scheme for name in names}
        space = Space(extra + tuple(v for name, v in var.items() if name in held))
        n = space.cell_count
        p = (rng.multinomial(1024 - n, np.full(n, 1.0 / n)) + 1) / 1024
        tables = [_marginal_table(rng, space, names, p, kind) for names in scheme]
        return Database(tables, space=space)

    chain, group = (("V2", "V1"), ("V2", "V3")), (("V4", "V5"), ("V5", "V6"))
    for kind in ("interval", "mixed"):
        yield "chain plus a free variable", database(chain, kind, (free,)), [18]
        yield "chain plus a disjoint table", database(chain + (("V5", "V4"),), kind), [18]
        yield "two overlapping groups", database(chain + group, kind), [18, 8]
    # A real table summing to 1 + 1 ulp joins every table into one LP over
    # the held variables; the free variable F stays a factor of its own.
    edge = database(chain, "interval", (free,))
    half = np.nextafter(0.5, 1.0)
    space = Space(edge.space.variables + (var["V4"],))
    real = RealDistribution(Space((var["V4"],)), [half, half])
    yield "tolerance edge", Database(tuple(edge.tables) + (real,), space=space), [36]
    # Alone, that table still goes to the LP, not to the closed form.
    yield "one-table tolerance edge", Database((real,)), [2]
    yield "empty database", Database((), space=Space((free, var["V2"]))), []
    yield "empty one-cell database", Database((), space=Space((one_label,))), []
    # Cell (s1, v4.0, v5.0) holds at least 0.7 + 0.6 - 1 only if S is no factor.
    v4 = IntervalDistribution(Space((var["V4"],)), [0.7, 0.2], [0.8, 0.3])
    v5 = IntervalDistribution(Space((var["V5"],)), [0.6, 0.3], [0.7, 0.4])
    space = Space((one_label, var["V4"], var["V5"]))
    yield "one-label free variable", Database((v4, v5), space=space), []


def test_components_combine_by_frechet_bounds(monkeypatch):
    # Each component is solved on its own: an LP holds only the cells of its
    # component's variables, and the Fréchet combination is the joint LP's
    # envelope over the whole space, which HiGHS attains with feasible joints.
    pytest.importorskip("scipy")
    from ivprob import simplex

    columns = []
    solve = simplex.solve

    def recording_solve(a, *args):
        columns.append(a.shape[1])
        return solve(a, *args)

    monkeypatch.setattr(simplex, "solve", recording_solve)
    for name, db, cells in _component_cases(np.random.default_rng(433)):
        joint = _joint_envelope(db)
        columns.clear()
        got = extension_star(db)
        straddle = all(t.lower.sum() <= 1.0 <= t.upper.sum() for t in db.tables)
        assert straddle == (not name.endswith("tolerance edge")), name
        assert columns == cells, name
        np.testing.assert_allclose(got.lower, joint.lower, atol=1e-12, rtol=0.0, err_msg=name)
        np.testing.assert_allclose(got.upper, joint.upper, atol=1e-12, rtol=0.0, err_msg=name)
        lower, upper, residual = _highs_envelope(db)
        np.testing.assert_allclose(got.lower, lower, atol=1e-9, rtol=0.0, err_msg=name)
        np.testing.assert_allclose(got.upper, upper, atol=1e-9, rtol=0.0, err_msg=name)
        assert residual <= 1e-9, name
    # The last case's cell (s1, v4.0, v5.0) holds at least 0.7 + 0.6 - 1.
    assert got.lower[0] == pytest.approx(0.3, abs=1e-12)


def test_is_consistent_exactly_when_the_envelope_exists():
    # Both decide a database by its components' phase 1s, under one grouping
    # and one tolerance-edge rule.  The component cases are all consistent;
    # the last two clash in one component, beside a consistent one.
    cases = [(name, db) for name, db, _ in _component_cases(np.random.default_rng(433))]
    v2, v3 = (Variable(name, (f"{name.lower()}.0", f"{name.lower()}.1")) for name in ("V2", "V3"))
    clash = [RealDistribution(Space((v2,)), m) for m in ([0.7, 0.3], [0.2, 0.8])]
    other = RealDistribution(Space((v3,)), [0.5, 0.5])
    cases += [("clash", Database(clash)), ("clash plus a table", Database(clash + [other]))]
    for name, db in cases:
        try:
            extension_star(db)
            extends = True
        except InfeasibleError:
            extends = False
        assert is_consistent(db) == extends, name
    assert not extends


def test_chain_cell_maximum_is_below_every_table_maximum():
    # min over tables of each table's maximum is no upper endpoint once a
    # chain has three tables: cell (a1, b2, c2, d2) reaches 0.26, while the
    # least of the three tables' maxima over the polytope is 0.33.
    binary = {name: Variable(name, (f"{name.lower()}1", f"{name.lower()}2")) for name in "ABCD"}
    space = Space(tuple(binary.values()))

    def table(names, lower, upper):
        return IntervalDistribution(Space(tuple(binary[n] for n in names)), lower, upper)

    db = Database(
        (
            table("AB", [0.21, 0.18, 0.08, 0.31], [0.52, 0.34, 0.29, 0.37]),
            table("BC", [0.21, 0.08, 0.11, 0.08], [0.27, 0.49, 0.37, 0.39]),
            table("CD", [0.0, 0.13, 0.35, 0.01], [0.25, 0.44, 0.41, 0.42]),
        ),
        space=space,
    )
    cell = ("a1", "b2", "c2", "d2")
    fibers = [
        space.projection_map(t.space.names)
        == t.space.cell_index([label for label in cell if label[0].upper() in t.space.names])
        for t in db.tables
    ]
    maxima = optimize_rows(constraints_from_database(db), np.array(fibers, dtype=float)).objective
    np.testing.assert_allclose(maxima, [0.34, 0.39, 0.33], atol=1e-12, rtol=0.0)
    upper = extension_star(db).upper[space.cell_index(cell)]
    assert upper == pytest.approx(0.26, abs=1e-12)
    assert upper < maxima.min() - 0.05


def test_extension_star_matches_closed_form_bounds_on_real_chains():
    rng = np.random.default_rng(419)
    for shape in ((5, 5, 5), (4, 4, 4, 4), (3, 3, 3, 3, 3), (8, 8, 8)):
        db = _chain_database(rng, shape, "real")
        env = extension_star(db)
        tables = [t.lower.reshape(shape[k], shape[k + 1]) for k, t in enumerate(db.tables)]
        lower, upper = chain_cell_bounds(tables)
        np.testing.assert_allclose(env.lower, lower, atol=1e-15, rtol=0.0)
        np.testing.assert_allclose(env.upper, upper, atol=1e-15, rtol=0.0)


def test_envelope_sweep_holds_no_endpoint_by_cell_array():
    # The 2n endpoint objectives go to the solver by their nonzeros and only
    # their values come back, so the sweep over this 512-cell chain never
    # holds a 2n x n float array: dense objectives or witnesses would take
    # 4 MiB each.
    db = _chain_database(np.random.default_rng(431), (8, 8, 8), "interval")
    n = db.space.cell_count
    tracemalloc.start()
    try:
        extension_star(db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


def test_kept_inverse_follows_the_three_solve_pivot_path_on_chains(kernel_runs):
    rng = np.random.default_rng(23)
    for shape in ((3, 3), (2, 3, 4), (4, 4, 3)):
        for kind in ("interval", "real", "mixed", "degenerate"):
            extension_star(_chain_database(rng, shape, kind))
    assert_runs_follow_three_solve_kernel(kernel_runs)


def _quarter_tight_joint(rng, shape):
    """An interval joint on V1, V2, V3 around a hidden joint ``p``.

    As in the benchmark's joints, a quarter of the cells have a lower bound
    5-50% below ``p`` and the rest have lower bound 0; every upper bound is
    5-50% above ``p``, plus up to 0.2 on the cells of lower bound 0.
    """
    space = Space(tuple(
        Variable(f"V{k + 1}", tuple(f"v{k + 1}.{m + 1}" for m in range(size)))
        for k, size in enumerate(shape)
    ))
    n = space.cell_count
    p = random_real(rng, space).p
    tight = rng.permutation(n) < round(0.25 * n)
    lower = np.where(tight, p * rng.uniform(0.5, 0.95, n), 0.0)
    slack = np.where(tight, 0.0, rng.uniform(0.0, 0.2, n))
    upper = np.minimum(p * rng.uniform(1.05, 1.5, n) + slack, 1.0)
    return IntervalDistribution(space, lower, upper)


def test_kept_inverse_follows_the_three_solve_pivot_path_on_reconstructions(kernel_runs):
    # The LPs of reconstructing 8- to 16-cell joints onto a chain and a
    # triangle; their runs flip bounds and leave basic variables at upper
    # bounds, not only at lower ones.
    rng = np.random.default_rng(29)
    for shape in _SMALL_SHAPES:
        for _ in range(3):
            joint = _quarter_tight_joint(rng, shape)
            for scheme in ("V1,V2|V2,V3", "V1,V2|V2,V3|V1,V3"):
                reconstruct(joint, Scheme.parse(scheme))
    assert_runs_follow_three_solve_kernel(kernel_runs)


def test_refactorized_inverse_keeps_witnesses_exact(monkeypatch, kernel_runs):
    from ivprob import simplex

    db = _chain_database(np.random.default_rng(5), (6, 6, 6), "real")
    inversions = []
    invert = simplex._invert

    def counting_invert(*args):
        inversions.append(None)
        return invert(*args)

    monkeypatch.setattr(simplex, "_invert", counting_invert)
    env = extension_star(db)
    # One inverse starts phase 1 and one starts every phase 2; any other is a
    # refactorization, so some run changed its basis _REFACTOR_INTERVAL times.
    assert len(inversions) > 2
    witnesses = np.array([end[2][: env.space.cell_count] for _, end in kernel_runs])
    assert max_residual(constraints_from_database(db), witnesses) <= 1e-9

    def three_solve(ax, lo_x, hi_x, cost, basis, at_upper, binv):
        return three_solve_iterate(ax, lo_x, hi_x, cost, basis, at_upper)

    monkeypatch.setattr(simplex, "_iterate", three_solve)
    reference = extension_star(db)
    assert_intervals_close(env, reference, atol=1e-12)


def test_ivprob_does_not_import_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ivprob

    # The child imports the same ivprob as this process, ahead of any PYTHONPATH.
    path = [str(Path(ivprob.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = "import sys, ivprob, ivprob.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "False\n"
