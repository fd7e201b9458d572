"""Domain types: spaces, cell ordering, distributions, schemes, databases."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ivprob import (
    Database,
    EnumerationLimitError,
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    SpaceMismatchError,
    UnknownVariableError,
    Variable,
    is_more_informative,
    validate,
)
from ivprob.model import SPACE_CELL_CAP, SUM_TOLERANCE
from oracles import random_interval, random_space, widen


def test_variable_rejects_bad_fields():
    with pytest.raises(ValueError):
        Variable("", ("a",))
    with pytest.raises(ValueError):
        Variable("X", ())
    with pytest.raises(ValueError):
        Variable("X", ("a", "a"))
    with pytest.raises(ValueError):
        Variable("X", ("a", ""))


def test_space_rejects_duplicate_names():
    v = Variable("X", ("a", "b"))
    with pytest.raises(ValueError):
        Space((v, v))


def test_space_refuses_more_cells_than_the_cap():
    binaries = [Variable(f"V{k}", ("0", "1")) for k in range(13)]
    assert Space(tuple(binaries[:12])).cell_count == SPACE_CELL_CAP == 4096
    with pytest.raises(EnumerationLimitError):
        Space(tuple(binaries))
    with pytest.raises(EnumerationLimitError):  # a Database's ambient space too
        Database((), space=Space(tuple(binaries)))


def test_cell_ordering_is_row_major(space_xy):
    assert space_xy.cell_count == 4
    assert space_xy.cell_index(("x1", "y1")) == 0
    assert space_xy.cell_index(("x1", "y2")) == 1
    assert space_xy.cell_index(("x2", "y1")) == 2
    assert space_xy.cell_index(("x2", "y2")) == 3
    assert space_xy.cell_tuple(2) == ("x2", "y1")
    assert list(space_xy.cells()) == [
        ("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2"),
    ]


def test_cell_index_names_unknown_label(space_xy):
    with pytest.raises(UnknownVariableError) as err:
        space_xy.cell_index(("x1", "nope"))
    assert "Y" in str(err.value) and "nope" in str(err.value)


@pytest.mark.parametrize("label", [3, None, ["y1"], ("y1",)])
def test_cell_index_names_a_label_that_is_not_a_string(space_xy, label):
    with pytest.raises(UnknownVariableError) as err:
        space_xy.cell_index(("x1", label))
    assert "Y" in str(err.value)


def test_space_geometry_is_computed_once(space_xyz):
    for name in ("names", "shape", "cell_count"):
        assert getattr(space_xyz, name) is getattr(space_xyz, name)
    assert (space_xyz.shape, space_xyz.cell_count) == ((2, 2, 2), 8)


def test_cell_index_tuple_roundtrip_on_random_spaces():
    rng = np.random.default_rng(20250814)
    one_label = Space(
        (Variable("A", ("a",)), Variable("B", ("b1", "b2", "b3")), Variable("C", ("c",)))
    )
    for space in [*(random_space(rng) for _ in range(25)), one_label]:
        for j in range(space.cell_count):
            index = space.cell_index(space.cell_tuple(j))
            assert type(index) is int and index == j
        # a random subset of the names in random order, projected by brute force
        names = tuple(rng.permutation(space.names)[: rng.integers(1, len(space.names) + 1)].tolist())
        axes = [space.names.index(n) for n in names]
        sub_cells = list(itertools.product(*(space.variable(n).domain for n in names)))
        want = [sub_cells.index(tuple(cell[k] for k in axes)) for cell in space.cells()]
        got = space.projection_map(names)
        assert got.dtype == np.intp and not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_ordered_subset_follows_ambient_order(space_xyz):
    assert space_xyz.ordered_subset(("Z", "X")) == ("X", "Z")
    assert space_xyz.ordered_subset(("Y", "Y")) == ("Y",)
    with pytest.raises(UnknownVariableError):
        space_xyz.ordered_subset(("W",))


def test_projection_map_groups_fibers(space_xy):
    np.testing.assert_array_equal(
        space_xy.projection_map(("X",)), [0, 0, 1, 1]
    )
    np.testing.assert_array_equal(
        space_xy.projection_map(("Y",)), [0, 1, 0, 1]
    )


def test_interval_distribution_violations(space_xy):
    bad = IntervalDistribution(
        space_xy, [0.5, 0.0, 0.0, 0.0], [0.4, 1.0, 1.0, 1.0]
    )
    problems = bad.violations()
    assert any("x1" in v and "lower" in v for v in problems)

    # Bad cells apart from each other, one of them bad twice: messages follow
    # the cells in order, and each cell its checks in order.
    scattered = IntervalDistribution(
        space_xy, [-0.25, 0.25, 0.0, 1.5], [0.5, 0.5, 0.5, 1.25]
    )
    assert scattered.violations() == [
        "cell (x1 y1): lower -0.25 < 0",
        "cell (x2 y2): upper 1.25 > 1",
        "cell (x2 y2): lower 1.5 > upper 1.25",
        "sum of lower bounds 1.5 > 1",
    ]

    heavy = IntervalDistribution(
        space_xy, [0.6, 0.6, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]
    )
    assert any("lower" in v and "sum" in v.lower() for v in heavy.violations())

    light = IntervalDistribution(
        space_xy, [0.0, 0.0, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2]
    )
    assert any("upper" in v and "sum" in v.lower() for v in light.violations())

    ok = IntervalDistribution(
        space_xy, [0.1, 0.1, 0.1, 0.1], [0.5, 0.5, 0.5, 0.5]
    )
    assert ok.violations() == []


def test_violations_are_a_fresh_list_on_every_call(space_xy):
    bad = IntervalDistribution(space_xy, [0.3, 0.2, 0.2, 0.2], [0.2, 0.3, 0.3, 0.3])
    problems = bad.violations()
    assert problems == ["cell (x1 y1): lower 0.3 > upper 0.2"]
    problems.append("sum of lower bounds 2.0 > 1")
    problems[0] = "edited"
    assert bad.violations() == ["cell (x1 y1): lower 0.3 > upper 0.2"]
    ok = IntervalDistribution(space_xy, [0.25] * 4, [0.25] * 4)
    ok.violations().append("edited")
    assert ok.violations() == []


def test_interval_distribution_shape_and_finiteness(space_xy):
    with pytest.raises(ValueError):
        IntervalDistribution(space_xy, [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError):
        IntervalDistribution(
            space_xy, [0.0, 0.0, 0.0, np.nan], [1.0, 1.0, 1.0, 1.0]
        )
    with pytest.raises(ValueError, match="one entry per cell"):
        RealDistribution(space_xy, [0.5, 0.5])
    with pytest.raises(ValueError, match="one entry per cell"):
        RealDistribution(space_xy, [[0.25, 0.25], [0.25, 0.25]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            RealDistribution(space_xy, [0.5, 0.5, 0.0, bad])


def test_real_distribution_checks_mass(space_xy):
    with pytest.raises(ValueError):
        RealDistribution(space_xy, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        RealDistribution(space_xy, np.array([0.6, 0.5, 0.1, -0.2]))
    p = RealDistribution(space_xy, np.array([1.0, -1e-13, 0.0, 1e-13]))
    assert (p.p >= 0.0).all()


def test_real_distribution_accepts_the_sums_validation_accepts():
    sp = Space((Variable("V", ("v1", "v2")),))
    for edge, outward in ((1.0 + SUM_TOLERANCE, 2.0), (1.0 - SUM_TOLERANCE, 0.0)):
        beyond = np.nextafter(edge, outward)
        for total in (np.nextafter(edge, 1.0), edge, beyond):
            half = [total / 2.0] * 2  # sums to total exactly
            valid = not IntervalDistribution(sp, half, half).violations()
            assert valid == (total != beyond)
            try:
                RealDistribution(sp, half)
            except ValueError:
                assert not valid
            else:
                assert valid


def test_degenerate_interval_is_valid_and_converts(space_xy, ed_star):
    i = ed_star.as_interval()
    assert i.is_degenerate
    assert i.violations() == []
    assert i.to_real() == ed_star
    wide = IntervalDistribution(space_xy, [0.0] * 4, [1.0] * 4)
    assert not wide.is_degenerate
    with pytest.raises(ValueError):
        wide.to_real()


def test_validate_database(db_d, space_x):
    assert validate(db_d) == []

    heavy = Database(
        (IntervalDistribution(space_x, [0.6, 0.6], [0.7, 0.7]),)
    )
    assert any("sum" in v.lower() for v in validate(heavy))

    other_x = Space((Variable("X", ("x1", "x3")),))
    clash = Database(
        (
            IntervalDistribution(space_x, [0.5, 0.5], [0.5, 0.5]),
            IntervalDistribution(other_x, [0.5, 0.5], [0.5, 0.5]),
        )
    )
    assert any("domain" in v.lower() for v in validate(clash))


def test_database_kinds(db_d, db_i):
    assert db_d.is_real
    assert not db_i.is_real
    assert str(db_d.scheme) == "X|Y"
    assert str(db_i.scheme) == "X,Y|Y,Z"
    assert db_i.space.names == ("X", "Y", "Z")


def test_database_explicit_space_must_cover(space_x, space_xy):
    table = IntervalDistribution(space_xy, [0.0] * 4, [1.0] * 4)
    with pytest.raises(ValueError):
        Database((table,), space=space_x)


def test_database_coerces_real_tables(space_x, space_y, space_xy):
    db = Database(
        (
            RealDistribution(space_x, [0.7, 0.3]),
            RealDistribution(space_y, [0.6, 0.4]),
        ),
        space=space_xy,
    )
    assert all(isinstance(t, IntervalDistribution) for t in db.tables)
    assert db.is_real
    assert validate(db) == []
    np.testing.assert_allclose(db.tables[0].lower, [0.7, 0.3])
    np.testing.assert_allclose(db.tables[0].upper, [0.7, 0.3])


def test_scheme_normalizes_to_antichain():
    s = Scheme((("B", "A"), ("A",), ("C",)))
    assert s.subsets == (frozenset({"A", "B"}), frozenset({"C"}))
    assert str(s) == "A,B|C"
    assert Scheme.parse("A,B|B,C").subsets == (
        frozenset({"A", "B"}),
        frozenset({"B", "C"}),
    )
    with pytest.raises(ValueError):
        Scheme.parse("A,|B")
    with pytest.raises(ValueError):
        Scheme(())


def test_more_informative_examples(ed_star, i_d_expected, space_xy):
    assert is_more_informative(ed_star.as_interval(), i_d_expected)
    assert is_more_informative(i_d_expected, i_d_expected)
    binary = Space((Variable("X", ("x1", "x2")),))
    point = IntervalDistribution(binary, [0.5, 0.5], [0.5, 0.5])
    split = IntervalDistribution(binary, [0.0, 0.6], [0.4, 1.0])
    assert not is_more_informative(point, split)
    with pytest.raises(SpaceMismatchError):
        is_more_informative(point, i_d_expected)


def test_more_informative_is_a_partial_order():
    rng = np.random.default_rng(42)
    for _ in range(50):
        space = random_space(rng)
        a = random_interval(rng, space)
        b = widen(rng, a)
        c = widen(rng, b)
        assert is_more_informative(a, a)
        assert is_more_informative(a, b) and is_more_informative(b, c)
        assert is_more_informative(a, c)
        if is_more_informative(b, a):
            assert b == a
