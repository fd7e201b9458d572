"""Entropy, divergence, IPF fitting, and box-constrained entropy bounds."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from ivprob import (
    ConvergenceError,
    Database,
    EnumerationLimitError,
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    SpaceMismatchError,
    Variable,
    box_maxent,
    box_minent,
    conditional_entropy,
    constraints_from_database,
    entropy,
    extension_star,
    kl_divergence,
    maxent_ipf,
    measure_u0,
    measure_u1,
    measure_u2,
    mvd_strength,
    project_database,
    project_real,
    shannon_entropy,
    tighten,
)

import oracles
from conftest import last_witness, optimize_one
from oracles import (
    entropy_bits,
    ipf_certified,
    ipf_outcome,
    ipf_reference,
    min_entropy_by_vertices,
    random_consistent_database,
    random_interval,
    random_real,
    random_space,
    sample_box_simplex,
    widen,
)


# ---------------------------------------------------------------- entropy ---


def test_entropy_of_uniform_and_point_mass(space_xy, space_x):
    uniform = RealDistribution(space_xy, np.full(4, 0.25))
    assert shannon_entropy(uniform) == pytest.approx(2.0, abs=1e-12)
    point = RealDistribution(space_x, np.array([1.0, 0.0]))
    assert shannon_entropy(point) == pytest.approx(0.0, abs=1e-12)


def test_entropy_matches_direct_summation(ed_star):
    assert shannon_entropy(ed_star) == pytest.approx(
        entropy_bits([0.42, 0.28, 0.18, 0.12]), abs=1e-12
    )


def test_conditional_entropy_with_empty_given(ed_star):
    got = conditional_entropy(ed_star, ("Y",), ())
    assert got == pytest.approx(entropy_bits([0.6, 0.4]), abs=1e-12)


def test_conditional_entropy_functional_dependence(space_xy):
    correlated = RealDistribution(space_xy, np.array([0.5, 0.0, 0.0, 0.5]))
    assert conditional_entropy(correlated, ("Y",), ("X",)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_conditional_entropy_rejects_overlap_and_unknowns(ed_star):
    with pytest.raises(ValueError):
        conditional_entropy(ed_star, ("X",), ("X",))
    with pytest.raises(ValueError):
        conditional_entropy(ed_star, (), ("X",))
    with pytest.raises(Exception):
        conditional_entropy(ed_star, ("Q",), ())


def test_variable_sets_may_be_one_shot_iterables(abc_mid):
    # Each set is read once, so a generator means the same as its list.
    for target, given in ((["C"], ["B"]), (["C"], ["A", "B"]), (["A"], [])):
        want = conditional_entropy(abc_mid, target, given)
        assert conditional_entropy(abc_mid, iter(target), iter(given)) == want
    assert conditional_entropy(abc_mid, ["C"], iter(["B"])) > 0.5
    for u, w in ((["B"], ["C"]), (["C"], ["B"]), ([], ["A"])):
        want = mvd_strength(abc_mid, u, w)
        assert mvd_strength(abc_mid, iter(u), iter(w)) == want
    assert mvd_strength(abc_mid, iter(["C"]), ["B"]) > 0.01


def test_conditional_independence_of_abc_midpoint(abc_mid):
    loose = conditional_entropy(abc_mid, ("C",), ("B",))
    tight = conditional_entropy(abc_mid, ("C",), ("A", "B"))
    assert loose - tight == pytest.approx(0.0, abs=1e-9)


def test_chain_rule():
    rng = np.random.default_rng(3)
    for _ in range(25):
        sp = random_space(rng, max_cells=8, max_variables=3)
        if len(sp.variables) < 2:
            continue
        p = random_real(rng, sp, floor=1e-6)
        names = list(sp.names)
        k = int(rng.integers(1, len(names)))
        w = tuple(names[:k])
        u = tuple(names[k:])
        joint = shannon_entropy(p)
        split = shannon_entropy(project_real(p, u)) + conditional_entropy(p, w, u)
        assert joint == pytest.approx(split, abs=1e-9)


# ------------------------------------------------------------- divergence ---


def test_kl_identity_and_known_value(ed_star, space_x):
    assert kl_divergence(ed_star, ed_star) == pytest.approx(0.0, abs=1e-12)
    p = RealDistribution(space_x, np.array([1.0, 0.0]))
    q = RealDistribution(space_x, np.array([0.5, 0.5]))
    assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)


def test_kl_support_violation_names_cell(space_x):
    p = RealDistribution(space_x, np.array([0.5, 0.5]))
    q = RealDistribution(space_x, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="x2"):
        kl_divergence(p, q)


def test_kl_space_mismatch(ed_star, abc_mid):
    with pytest.raises(SpaceMismatchError):
        kl_divergence(ed_star, abc_mid)


def test_gibbs_inequality():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sp = random_space(rng, max_cells=8, max_variables=3)
        p = random_real(rng, sp, floor=1e-9)
        q = random_real(rng, sp, floor=1e-9)
        d = kl_divergence(p, q)
        assert d >= 0.0
        if np.max(np.abs(p.p - q.p)) > 1e-6:
            assert d > 0.0
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------------- IPF ---


def test_ipf_reproduces_known_fit(db_d, ed_star):
    got = maxent_ipf(db_d)
    np.testing.assert_allclose(got.p, ed_star.p, atol=1e-9)


def test_ipf_with_full_joint_table_returns_it(ed_star):
    db = Database((ed_star.as_interval(),))
    got = maxent_ipf(db)
    np.testing.assert_allclose(got.p, ed_star.p, atol=1e-9)


def test_ipf_recovers_conditionally_independent_joint(abc_mid):
    db = project_database(abc_mid.as_interval(), Scheme.parse("A,B|B,C"))
    got = maxent_ipf(db)
    np.testing.assert_allclose(got.p, abc_mid.p, atol=1e-9)
    assert kl_divergence(abc_mid, got) == pytest.approx(0.0, abs=1e-9)


def test_ipf_rejects_interval_tables(db_i):
    with pytest.raises(ValueError):
        maxent_ipf(db_i)


def test_ipf_flags_inconsistent_marginals(space_x):
    t1 = RealDistribution(space_x, np.array([0.7, 0.3])).as_interval()
    t2 = RealDistribution(space_x, np.array([0.2, 0.8])).as_interval()
    with pytest.raises(ConvergenceError):
        maxent_ipf(Database((t1, t2)))


def test_ipf_fit_matches_marginals():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sp = random_space(rng, max_cells=8, max_variables=3)
        if len(sp.variables) < 2:
            continue
        hidden = random_real(rng, sp, floor=1e-4)
        names = list(sp.names)
        tables = tuple(
            project_real(hidden, (name,)).as_interval() for name in names
        )
        fit = maxent_ipf(Database(tables, space=sp))
        for name in names:
            got = project_real(fit, (name,))
            want = project_real(hidden, (name,))
            np.testing.assert_allclose(got.p, want.p, atol=1e-8)


def _grid_space(shape) -> Space:
    return Space(
        tuple(
            Variable(f"V{k + 1}", tuple(f"v{k + 1}.{m + 1}" for m in range(size)))
            for k, size in enumerate(shape)
        )
    )


def _real_table(space, p, names) -> IntervalDistribution:
    """The marginal of joint ``p`` on ``names``, in the order given."""
    sub = space.subspace(names)
    m = np.bincount(space.projection_map(names), weights=p, minlength=sub.cell_count)
    return IntervalDistribution(sub, m, m)


def _binary_chain(ab, bc) -> Database:
    """The chain ``V1,V2|V2,V3`` of binary variables with real tables ab and bc."""
    sp = _grid_space((2, 2, 2))
    return Database(
        [
            IntervalDistribution(sp.subspace(names), np.array(m), np.array(m))
            for names, m in ((("V1", "V2"), ab), (("V2", "V3"), bc))
        ]
    )


# Tables that disagree on V2: IPF's iterate repeats bit for bit with period 1
# or 2 after a few sweeps, or drifts and never repeats before the cap.
_REPEATING = {
    "period-1": _binary_chain([0.3, 0.2, 0.1, 0.4], [0.2, 0.200000001, 0.3, 0.299999999]),
    "period-2": _binary_chain([0.4, 0.1, 0.2, 0.3], [0.3, 0.200000002, 0.1, 0.399999998]),
    "drifting": _binary_chain([0.1, 0.2, 0.3, 0.4], [0.15, 0.250000001, 0.2, 0.399999999]),
}


def _ipf_inputs():
    """(id, database, whether IPF converges) for the bit-for-bit comparison."""
    rng = np.random.default_rng(14)
    out = []
    for k in (2, 3, 4):  # chains: singletons for 2 variables, else consecutive pairs
        for rep in range(2):
            sp = _grid_space(rng.integers(2, 4, size=k))
            p = random_real(rng, sp).p
            names = sp.names
            links = [names[j : j + 2] for j in range(k - 1)] if k > 2 else [(n,) for n in names]
            db = Database([_real_table(sp, p, c) for c in links])
            out.append((f"chain{k}-{rep}", db, True))
    for shape in ((2, 3, 2), (3, 2, 2, 2)):  # the second table moves 1e-9 of V2's mass
        sp = _grid_space(shape)
        p = random_real(rng, sp).p
        tables = [_real_table(sp, p, sp.names[j : j + 2]) for j in range(len(shape) - 1)]
        m = tables[1].lower.reshape(shape[1], shape[2]).copy()
        m[0, 0] -= 1e-9
        m[1, 0] += 1e-9
        tables[1] = IntervalDistribution(tables[1].space, m.ravel(), m.ravel())
        out.append((f"skewed{len(shape)}", Database(tables), False))
    sp = _grid_space((2, 3, 2))
    p = random_real(rng, sp, floor=0.05).p
    triangle = [("V1", "V2"), ("V2", "V3"), ("V1", "V3")]
    out.append(("triangle", Database([_real_table(sp, p, t) for t in triangle]), True))
    zeros = random_real(rng, sp).p.reshape(2, 3, 2).copy()
    zeros[0, 1, :] = 0.0  # cell (v1.1, v2.2) of V1,V2
    zeros[:, 0, 0] = 0.0  # cell (v2.1, v3.1) of V2,V3
    zeros = zeros.ravel() / zeros.sum()
    chain = [_real_table(sp, zeros, ("V1", "V2")), _real_table(sp, zeros, ("V2", "V3"))]
    out.append(("zero-cells", Database(chain), True))
    signed = chain[0].lower.copy()
    signed[signed == 0.0] = -0.0
    negzero = [IntervalDistribution(chain[0].space, signed, signed), chain[1]]
    out.append(("negative-zero", Database(negzero), True))
    swapped = [_real_table(sp, p, ("V2", "V1")), _real_table(sp, p, ("V3", "V2"))]
    out.append(("out-of-order", Database(swapped, space=sp), True))
    free = [_real_table(sp, p, ("V1",)), _real_table(sp, p, ("V3",))]
    out.append(("unheld-variable", Database(free, space=sp), True))
    out.append(("full-joint", Database([_real_table(sp, p, sp.names)]), True))
    out.append(("empty", Database((), space=sp), True))
    out += [(name, db, False) for name, db in _REPEATING.items()]
    # A = B, B = C and A != C: every shared marginal is uniform, so no pair of
    # tables disagrees, yet no joint has all three tables as its marginals.
    sp = _grid_space((2, 2, 2))
    same, differ = np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.0, 0.5, 0.5, 0.0])
    tables = [(("V1", "V2"), same), (("V2", "V3"), same), (("V1", "V3"), differ)]
    tables = [IntervalDistribution(sp.subspace(names), m, m) for names, m in tables]
    out.append(("no-joint-triangle", Database(tables), False))
    return out


# Inputs whose tables disagree on a shared marginal: their fits skip the
# stopping test in every sweep.
_CERTIFIED = {"skewed3", "skewed4", *_REPEATING}


@pytest.mark.parametrize(
    "db, converges, certified",
    [pytest.param(db, ok, name in _CERTIFIED, id=name) for name, db, ok in _ipf_inputs()],
)
def test_ipf_matches_per_table_reference_bit_for_bit(db, converges, certified):
    assert ipf_certified(db) == certified
    got = ipf_outcome(maxent_ipf, db)
    assert isinstance(got[0], bytes) == converges
    assert got == ipf_outcome(ipf_reference, db)


def test_ipf_skips_periods_up_to_an_odd_cap(monkeypatch):
    # An odd cap ends the period-2 fit on the other joint of its cycle.
    monkeypatch.setattr(entropy, "IPF_MAX_SWEEPS", 10_001)
    monkeypatch.setattr(oracles, "IPF_MAX_SWEEPS", 10_001)
    db = _REPEATING["period-2"]
    assert ipf_outcome(maxent_ipf, db) == ipf_outcome(ipf_reference, db)


@pytest.mark.parametrize("name", ["period-1", "period-2"])
def test_ipf_stops_at_once_when_its_iterate_repeats(monkeypatch, name):
    db = _REPEATING[name]
    # 10**9 is even, like the default cap, so the fit ends in the same phase.
    message, p = ipf_outcome(ipf_reference, db)
    message = message.replace(f" {entropy.IPF_MAX_SWEEPS} sweeps", f" {10**9} sweeps")
    assert message.startswith(f"marginal fitting did not converge in {10**9} sweeps")
    monkeypatch.setattr(entropy, "IPF_MAX_SWEEPS", 10**9)
    start = time.perf_counter()
    got = ipf_outcome(maxent_ipf, db)
    assert time.perf_counter() - start < 1.0  # 10**9 sweeps would take hours
    assert got == (message, p)


# ------------------------------------------------------------- box maxent ---


def test_box_maxent_water_filling(i_d_expected):
    got = box_maxent(i_d_expected)
    np.testing.assert_allclose(
        got.p, [0.3, 7.0 / 30.0, 7.0 / 30.0, 7.0 / 30.0], atol=1e-9
    )


def test_box_maxent_unconstrained_box_is_uniform(space_xy):
    free = IntervalDistribution(space_xy, np.zeros(4), np.ones(4))
    np.testing.assert_allclose(box_maxent(free).p, np.full(4, 0.25), atol=1e-9)


def test_box_maxent_degenerate_box_returns_the_point(ed_star):
    got = box_maxent(ed_star.as_interval())
    np.testing.assert_allclose(got.p, ed_star.p, atol=1e-9)


def test_box_maxent_beats_random_feasible_points():
    rng = np.random.default_rng(13)
    for _ in range(12):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp)
        best = box_maxent(i)
        h_star = shannon_entropy(best)
        samples = sample_box_simplex(i.lower, i.upper, 2000, rng)
        h_samples = -np.sum(
            np.where(samples > 0, samples * np.log2(np.maximum(samples, 1e-300)), 0.0),
            axis=1,
        )
        assert np.all(h_samples <= h_star + 1e-9)


def _cells(n: int) -> Space:
    return Space((Variable("V", tuple(f"v{k}" for k in range(n))),))


def _cap_box(rng) -> IntervalDistribution:
    """A box over 16^3 = 4,096 cells, the space cap, with some cells at upper."""
    sp = Space(
        tuple(Variable(f"V{k}", tuple(f"v{m}" for m in range(16))) for k in range(3))
    )
    return random_interval(rng, sp, width=1e-3)


def test_box_maxent_kkt_structure():
    rng = np.random.default_rng(17)
    boxes = [
        random_interval(rng, random_space(rng, max_cells=8, max_variables=3))
        for _ in range(20)
    ]
    # The two ends: the bounds reach one only within SUM_TOLERANCE.
    base = np.array([0.1, 0.2, 0.3, 0.4])
    gaps = np.array([0.05, 0.1, 0.2, 0.3])
    lower_end = IntervalDistribution(_cells(4), base + 1.25e-10, base + gaps)
    upper_end = IntervalDistribution(_cells(4), base - gaps, base - 1.25e-10)
    boxes += [lower_end, upper_end, _cap_box(rng)]
    for i in boxes:
        p = box_maxent(i).p
        interior = (p > i.lower + 1e-7) & (p < i.upper - 1e-7)
        low = np.abs(p - i.lower) <= 1e-7
        high = np.abs(p - i.upper) <= 1e-7
        assert np.all(interior | low | high)
        if interior.any():
            c = float(p[interior].mean())
            assert np.all(np.abs(p[interior] - c) <= 1e-9)
            assert np.all(i.lower[low] >= c - 1e-6)
            assert np.all(i.upper[high] <= c + 1e-6)
    np.testing.assert_allclose(box_maxent(lower_end).p, base, atol=1e-15)
    np.testing.assert_allclose(box_maxent(upper_end).p, base, atol=1e-15)
    cap = boxes[-1]
    p = box_maxent(cap).p  # both kinds of cells, at the level and at upper
    assert np.any(np.abs(p - cap.upper) <= 1e-12) and np.any(p < cap.upper - 1e-7)


def test_box_maxent_memory_is_linear_in_cells():
    # A breakpoints x cells temporary would take 8,192 x 4,096 x 8 B = 268 MB.
    i = _cap_box(np.random.default_rng(18))
    tracemalloc.start()
    try:
        box_maxent(i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_measure_u1_examples(space_xy, i_d_expected):
    free = IntervalDistribution(space_xy, np.zeros(4), np.ones(4))
    assert measure_u1(free) == pytest.approx(2.0, abs=1e-9)
    point = RealDistribution(space_xy, np.array([1.0, 0.0, 0.0, 0.0]))
    assert measure_u1(point.as_interval()) == pytest.approx(0.0, abs=1e-12)
    assert measure_u1(i_d_expected) == pytest.approx(
        entropy_bits([0.3, 7 / 30, 7 / 30, 7 / 30]), abs=1e-9
    )


# ------------------------------------------------------------- box minent ---


def test_box_minent_unconstrained_box_is_point_mass(space_xy):
    free = IntervalDistribution(space_xy, np.zeros(4), np.ones(4))
    got = box_minent(free)
    assert shannon_entropy(got) == pytest.approx(0.0, abs=1e-12)
    assert np.max(got.p) == pytest.approx(1.0, abs=1e-12)


def test_box_minent_degenerate_box_returns_the_point(ed_star):
    got = box_minent(ed_star.as_interval())
    np.testing.assert_allclose(got.p, ed_star.p, atol=1e-9)


def test_box_minent_matches_vertex_oracle(i_d_expected):
    got = box_minent(i_d_expected)
    oracle = min_entropy_by_vertices(i_d_expected.lower, i_d_expected.upper)
    assert shannon_entropy(got) == pytest.approx(oracle, abs=1e-9)
    rng = np.random.default_rng(19)
    samples = sample_box_simplex(i_d_expected.lower, i_d_expected.upper, 5000, rng)
    h_samples = -np.sum(
        np.where(samples > 0, samples * np.log2(np.maximum(samples, 1e-300)), 0.0),
        axis=1,
    )
    assert np.all(h_samples >= shannon_entropy(got) - 1e-9)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        p = random_real(rng, _cells(n)).p
        fixed = rng.uniform(size=n) < 0.3  # zero-width cells
        lower = np.where(fixed, p, np.clip(p - rng.uniform(0.0, 0.5, n), 0.0, None))
        upper = np.where(fixed, p, np.clip(p + rng.uniform(0.0, 0.5, n), None, 1.0))
        got = box_minent(IntervalDistribution(_cells(n), lower, upper))
        want = min_entropy_by_vertices(lower, upper)
        assert shannon_entropy(got) == pytest.approx(want, abs=1e-9)


def test_box_minent_refuses_large_spaces():
    sp = Space((Variable("V", tuple(f"v{k}" for k in range(17))),))
    i = IntervalDistribution(sp, np.zeros(17), np.ones(17))
    with pytest.raises(EnumerationLimitError):
        box_minent(i)
    with pytest.raises(EnumerationLimitError):
        measure_u2(i)


def test_measure_u2_examples(space_xy):
    free = IntervalDistribution(space_xy, np.zeros(4), np.ones(4))
    assert measure_u2(free) == pytest.approx(0.0, abs=1e-12)
    uniform = RealDistribution(space_xy, np.full(4, 0.25))
    assert measure_u2(uniform.as_interval()) == pytest.approx(2.0, abs=1e-12)


def test_u2_never_exceeds_u1():
    rng = np.random.default_rng(29)
    for _ in range(25):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp)
        assert measure_u2(i) <= measure_u1(i) + 1e-9


def test_entropy_measures_respond_monotonically_to_widening():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sp = random_space(rng, max_cells=8, max_variables=3)
        i = random_interval(rng, sp, width=0.3)
        wider = widen(rng, i)
        # A wider box admits more distributions: the achievable entropy
        # ceiling can only rise, and the achievable floor can only fall.
        assert measure_u1(i) <= measure_u1(wider) + 1e-9
        assert measure_u2(i) >= measure_u2(wider) - 1e-9


# ----------------------------------------------------------- dependencies ---


def test_mvd_strength_examples(abc_mid, ed_star):
    assert mvd_strength(abc_mid, ("B",), ("C",)) == pytest.approx(0.0, abs=1e-9)
    assert mvd_strength(abc_mid, ("C",), ("B",)) > 0.01
    # No variables left over: both conditional entropies coincide.
    assert mvd_strength(ed_star, ("X",), ("Y",)) == pytest.approx(0.0, abs=1e-12)


def test_mvd_strength_rejects_overlap(abc_mid):
    with pytest.raises(ValueError):
        mvd_strength(abc_mid, ("B",), ("B",))


def test_reconstructability_identity():
    rng = np.random.default_rng(41)
    sp = Space(
        (
            Variable("X", ("x1", "x2")),
            Variable("Y", ("y1", "y2")),
            Variable("Z", ("z1", "z2")),
        )
    )
    for _ in range(30):
        p = random_real(rng, sp, floor=1e-4)
        u, w, z = ("X",), ("Y",), ("Z",)
        scheme = Scheme((frozenset(u + w), frozenset(u + z)))
        db = project_database(p.as_interval(), scheme)
        fitted = maxent_ipf(db)
        lhs = kl_divergence(p, fitted)
        rhs = mvd_strength(p, u, w)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_envelope_extremizes_all_three_measures(kernel_runs):
    rng = np.random.default_rng(43)
    for _ in range(4):
        sp = random_space(rng, max_cells=6, max_variables=2)
        db = random_consistent_database(rng, sp)
        env = extension_star(db)
        cs = constraints_from_database(db)
        n = sp.cell_count
        u0_env, u1_env, u2_env = measure_u0(env), measure_u1(env), measure_u2(env)
        for _ in range(25):
            optimize_one(cs, rng.normal(size=n), "max")
            witness = last_witness(kernel_runs, n)
            p = np.clip(witness, env.lower, env.upper)
            frac_lo = rng.uniform(0.0, 1.0, n)
            frac_hi = rng.uniform(0.0, 1.0, n)
            sample = IntervalDistribution(
                env.space,
                env.lower + frac_lo * (p - env.lower),
                p + frac_hi * (env.upper - p),
            )
            assert measure_u0(sample) <= u0_env + 1e-9
            assert measure_u1(sample) <= u1_env + 1e-9
            # The envelope admits every feasible point, so its entropy floor
            # is the lowest of any sub-box:
            assert measure_u2(sample) >= u2_env - 1e-9
