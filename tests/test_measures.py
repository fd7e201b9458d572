"""Width measure, endpoint metric, scheme scoring, and scheme enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ivprob import (
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    SpaceMismatchError,
    Variable,
    distance_d0,
    enumerate_schemes,
    information_loss,
    is_more_informative,
    is_refinement,
    measure_u0,
    rank_schemes,
    reconstruct,
    tighten,
)
from ivprob import measures
from ivprob.docio import format_scalar
from ivprob.measures import SCHEME_VARIABLE_CAP

from oracles import (
    random_cover_scheme,
    random_interval,
    random_space,
    refine_scheme,
    widen,
)


# ---------------------------------------------------------------- measure ---


def test_u0_of_known_tables(abc_i, abc_recon_ab_bc):
    assert measure_u0(abc_i) == pytest.approx(0.02, abs=1e-12)
    assert measure_u0(abc_recon_ab_bc) == pytest.approx(0.14, abs=1e-12)


def test_u0_of_degenerate_table(ed_star):
    assert measure_u0(ed_star.as_interval()) == pytest.approx(0.0, abs=0.0)


def test_u0_monotone_under_widening():
    rng = np.random.default_rng(61)
    for _ in range(40):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp, width=0.4)
        wider = widen(rng, i)
        assert measure_u0(i) <= measure_u0(wider) + 1e-12


# ----------------------------------------------------------------- metric ---


def test_d0_of_known_pairs(abc_i, abc_recon_ab_bc, abc_recon_ac_bc):
    assert distance_d0(abc_i, abc_recon_ab_bc) == pytest.approx(0.12, abs=1e-9)
    assert distance_d0(abc_i, abc_recon_ac_bc) == pytest.approx(0.21, abs=1e-9)
    assert distance_d0(abc_i, abc_i) == pytest.approx(0.0, abs=0.0)


def test_d0_space_mismatch(abc_i, i_d_expected):
    with pytest.raises(SpaceMismatchError):
        distance_d0(abc_i, i_d_expected)


def test_d0_metric_axioms():
    rng = np.random.default_rng(71)
    for _ in range(200):
        sp = random_space(rng, max_cells=8, max_variables=3)
        a = random_interval(rng, sp)
        b = random_interval(rng, sp)
        c = random_interval(rng, sp)
        dab, dba = distance_d0(a, b), distance_d0(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-15)
        assert distance_d0(a, a) == 0.0
        if dab == 0.0:
            np.testing.assert_array_equal(a.lower, b.lower)
            np.testing.assert_array_equal(a.upper, b.upper)
        assert distance_d0(a, c) <= dab + distance_d0(b, c) + 1e-12


def test_d0_of_nested_tables_is_width_growth():
    rng = np.random.default_rng(73)
    for _ in range(40):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp, width=0.4)
        wider = widen(rng, i)
        assert is_more_informative(i, wider)
        assert distance_d0(i, wider) == pytest.approx(
            measure_u0(wider) - measure_u0(i), abs=1e-12
        )


# ------------------------------------------------------------ scheme loss ---


def test_information_loss_of_known_schemes(abc_i, abc_recon_ab_bc):
    report = information_loss(abc_i, Scheme.parse("A,B|B,C"))
    assert report.loss == pytest.approx(0.12, abs=1e-9)
    assert report.scheme == Scheme.parse("A,B|B,C")
    np.testing.assert_allclose(report.reconstruction.lower, abc_recon_ab_bc.lower, atol=1e-9)
    np.testing.assert_allclose(report.reconstruction.upper, abc_recon_ab_bc.upper, atol=1e-9)
    assert information_loss(abc_i, Scheme.parse("A,C|B,C")).loss == pytest.approx(
        0.21, abs=1e-9
    )


def test_information_loss_of_full_scheme_is_tightening_gap(abc_i):
    report = information_loss(abc_i, Scheme.parse("A,B,C"))
    assert report.loss == pytest.approx(0.0, abs=1e-9)  # abc_i is tight
    rng = np.random.default_rng(79)
    sp = random_space(rng, max_cells=8, max_variables=3)
    i = random_interval(rng, sp)
    full = Scheme((frozenset(sp.names),))
    got = information_loss(i, full)
    assert got.loss == pytest.approx(
        measure_u0(i) - measure_u0(tighten(i)), abs=1e-9
    )


def test_loss_equals_width_growth_for_tight_inputs():
    rng = np.random.default_rng(83)
    sp = Space(
        (
            Variable("X", ("x1", "x2")),
            Variable("Y", ("y1", "y2")),
            Variable("Z", ("z1", "z2")),
        )
    )
    for _ in range(10):
        i = tighten(random_interval(rng, sp))
        scheme = random_cover_scheme(rng, sp.names)
        report = information_loss(i, scheme)
        assert report.loss == pytest.approx(
            measure_u0(report.reconstruction) - measure_u0(i), abs=1e-9
        )


# -------------------------------------------------------------- refinement ---


def test_is_refinement_examples():
    fine = Scheme.parse("A|B,C")
    coarse = Scheme.parse("A,B|B,C|A,C")
    assert is_refinement(fine, coarse)
    assert is_refinement(fine, fine)
    assert not is_refinement(Scheme.parse("A,B"), Scheme.parse("A|B"))
    assert is_refinement(Scheme.parse("A|B"), Scheme.parse("A,B"))


def test_is_refinement_transitive():
    rng = np.random.default_rng(89)
    names = ("A", "B", "C", "D")
    for _ in range(60):
        z = random_cover_scheme(rng, names)
        y = refine_scheme(rng, z)
        x = refine_scheme(rng, y)
        assert is_refinement(y, z)
        assert is_refinement(x, y)
        assert is_refinement(x, z)


def test_refining_a_scheme_never_reduces_loss():
    rng = np.random.default_rng(97)
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
        assert is_refinement(fine, coarse)
        loss_coarse = information_loss(i, coarse).loss
        loss_fine = information_loss(i, fine).loss
        assert loss_coarse <= loss_fine + 1e-9


# ---------------------------------------------------------------- ranking ---


def test_rank_schemes_known_order(abc_i):
    reports = rank_schemes(
        abc_i, [Scheme.parse("A,C|B,C"), Scheme.parse("A,B|B,C")]
    )
    assert [str(r.scheme) for r in reports] == ["A,B|B,C", "A,C|B,C"]
    assert reports[0].loss == pytest.approx(0.12, abs=1e-9)
    assert reports[1].loss == pytest.approx(0.21, abs=1e-9)


def test_rank_schemes_single_and_empty(abc_i):
    only = rank_schemes(abc_i, [Scheme.parse("A|B|C")])
    assert len(only) == 1 and str(only[0].scheme) == "A|B|C"
    with pytest.raises(ValueError):
        rank_schemes(abc_i, [])


def test_rank_schemes_deterministic_tie_break(abc_i):
    # Equal-loss schemes must come out in a fixed order on every run.
    schemes = [
        Scheme.parse("B,C|A"),
        Scheme.parse("A,B,C"),
        Scheme.parse("A,C|B"),
    ]
    first = rank_schemes(abc_i, list(schemes))
    second = rank_schemes(abc_i, list(reversed(schemes)))
    assert [str(r.scheme) for r in first] == [str(r.scheme) for r in second]
    assert [r.loss for r in first] == [r.loss for r in second]


def test_rank_schemes_ties_at_printed_precision_go_by_sort_key():
    # Two schemes whose losses differ only in float noise print the same
    # 9-decimal loss; the tie must then go by Scheme.sort_key().
    sp = Space(tuple(Variable(f"V{k}", ("0", "1")) for k in (1, 2, 3)))
    i = random_interval(np.random.default_rng(4), sp)
    reports = rank_schemes(i, enumerate_schemes(sp, 2))
    keys = [(round(r.loss, 9), r.scheme.sort_key()) for r in reports]
    assert keys == sorted(keys)
    tied = [str(r.scheme) for r in reports if round(r.loss, 9) == 0.294967616]
    assert tied == ["V1,V2|V1,V3", "V1,V3|V2,V3"]


def test_loss_prints_and_sorts_the_same_under_last_bit_noise(monkeypatch):
    # The 8 cells' endpoint gaps add up to 1,204 units of 1e-9, so the loss is
    # 150.5 units: exactly halfway between two printed values.  A reconstruction
    # moved by up to 2 ulp (LP rounding noise) must not change the printed loss,
    # nor the order of two schemes tied at that loss.
    sp = Space(tuple(Variable(f"V{k}", ("0", "1")) for k in (1, 2, 3)))
    lower = np.array([0.05, 0.1, 0.02, 0.13, 0.07, 0.04, 0.11, 0.08])
    upper = lower + np.array([0.1, 0.05, 0.2, 0.07, 0.03, 0.09, 0.06, 0.12])
    i = IntervalDistribution(sp, lower, upper)
    gaps = np.array([301, 0, 501, 100, 1, 200, 1, 100]) * 1e-9

    def nudged(ulps):
        lo, hi = lower, upper + gaps
        for _ in range(abs(ulps)):
            lo, hi = (np.nextafter(v, np.copysign(np.inf, ulps)) for v in (lo, hi))
        return IntervalDistribution(sp, lo, hi)

    first, second = Scheme.parse("V1|V2,V3"), Scheme.parse("V1,V2|V3")
    assert first.sort_key() < second.sort_key()
    printed = set()
    for ulps_first, ulps_second in itertools.product(range(-2, 3), repeat=2):
        recon = {str(first): nudged(ulps_first), str(second): nudged(ulps_second)}
        monkeypatch.setattr(measures, "reconstruct", lambda i, scheme: recon[str(scheme)])
        reports = rank_schemes(i, [second, first])
        assert [str(r.scheme) for r in reports] == [str(first), str(second)]
        printed.update(format_scalar(r.loss) for r in reports)
    assert len(printed) == 1


def test_rank_respects_refinement_order():
    rng = np.random.default_rng(101)
    sp = Space(
        (
            Variable("X", ("x1", "x2")),
            Variable("Y", ("y1", "y2")),
            Variable("Z", ("z1", "z2")),
        )
    )
    for _ in range(6):
        i = tighten(random_interval(rng, sp))
        coarse = random_cover_scheme(rng, sp.names)
        fine = refine_scheme(rng, coarse)
        reports = rank_schemes(i, [fine, coarse])
        by_scheme = {str(r.scheme): r.loss for r in reports}
        assert by_scheme[str(coarse)] <= by_scheme[str(fine)] + 1e-9


# ------------------------------------------------------------- enumeration ---


def test_enumerate_schemes_two_variables():
    sp = Space((Variable("A", ("0", "1")), Variable("B", ("0", "1"))))
    got = enumerate_schemes(sp)
    assert [str(s) for s in got] == ["A,B", "A|B"]


def test_enumerate_schemes_one_variable():
    sp = Space((Variable("A", ("0", "1")),))
    got = enumerate_schemes(sp)
    assert [str(s) for s in got] == ["A"]


def test_enumerate_schemes_three_variables_capped(abc_space):
    got = enumerate_schemes(abc_space, max_subsets=2)
    names = {str(s) for s in got}
    assert "A,B|B,C" in names
    assert "A,C|B,C" in names
    assert all(len(s.subsets) <= 2 for s in got)


def test_enumerate_schemes_antichain_covers(abc_space):
    got = enumerate_schemes(abc_space)
    texts = [str(s) for s in got]
    assert len(texts) == len(set(texts))  # deduplicated
    for scheme in got:
        union = frozenset().union(*scheme.subsets)
        assert union == frozenset(abc_space.names)
        for s in scheme.subsets:
            for t in scheme.subsets:
                if s is not t:
                    assert not s <= t


def test_enumerate_schemes_refuses_large_spaces():
    from ivprob import EnumerationLimitError

    variables = tuple(
        Variable(f"V{k}", ("0", "1")) for k in range(SCHEME_VARIABLE_CAP + 1)
    )
    with pytest.raises(EnumerationLimitError):
        enumerate_schemes(Space(variables))
