"""Finite-family chaining: w_r, deflation plans, covering numbers, gamma,
and the assembled uniform bound with certificate replay.

Grid oracles recompute the CGF functional norm and T_r from scratch on dense
lambda grids; combinatorial quantities are checked against exhaustive
enumeration wherever the set is small enough to enumerate.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
from tailbound.cgf import DiscreteDistribution, rate_bound_T
from tailbound.chaining import (
    ChainBoundReport,
    DeflationPlan,
    FunctionFamily,
    build_deflation,
    cgf_functional_norm,
    class_wr,
    deflate,
    epsilon_ell,
    extremal_difference,
    gamma_functional,
    optimize_deflation,
    replay_certificate,
    theorem_main_bound,
    validate_plan,
)
from tailbound.chaining import _farthest_first, _level_size
from tailbound.jsonio import load_family, load_json
from tailbound.orlicz import make_generator

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# grid oracles


def _lse_rows(logp, h, lams):
    m = logp[None, :] + lams[:, None] * h[None, :]
    peak = m.max(axis=1, keepdims=True)
    out = (peak + np.log(np.exp(m - peak).sum(axis=1, keepdims=True))).ravel()
    # cancellation-free branch where Lambda is quadratically small
    small = np.abs(lams) * np.max(np.abs(h)) <= 1e-3
    if np.any(small):
        probs = np.exp(logp)
        out[small] = np.log1p(np.expm1(lams[small, None] * h[None, :]) @ probs)
    return out


def oracle_norm(probs, h):
    """sup over a dense two-sided lambda grid of sqrt(2 Lambda)/|lambda|."""
    logp = np.log(probs)
    lams = np.geomspace(1e-6, 1e6, 400_000)
    lams = np.concatenate([-lams[::-1], lams])
    lse = np.maximum(_lse_rows(logp, h, lams), 0.0)
    grid_best = float(np.max(np.sqrt(2.0 * lse) / np.abs(lams)))
    var = float(probs @ h**2 - (probs @ h) ** 2)
    return max(grid_best, math.sqrt(max(var, 0.0)))


def oracle_T(probs, h, r):
    """inf over a dense lambda grid of (r + Lambda(lambda))/lambda."""
    logp = np.log(probs)
    lams = np.geomspace(1e-5, 1e5, 2_000_000)
    return float(np.min((r + _lse_rows(logp, h, lams)) / lams))


# ---------------------------------------------------------------------------
# shared fixtures

UNIFORM4 = DiscreteDistribution(
    support=[[0.0], [1.0], [2.0], [3.0]], probabilities=[0.25] * 4
)

THREE = FunctionFamily(
    UNIFORM4,
    {
        "zero": [0.0, 0.0, 0.0, 0.0],
        "g1": [1.0, -1.0, 1.0, -1.0],
        "g2": [2.0, 0.0, -1.0, -1.0],
    },
)


def random_family(rng, size, support_points=6, scale=1.0):
    probs = np.full(support_points, 1.0 / support_points)
    dist = DiscreteDistribution(
        support=np.arange(support_points, dtype=float).reshape(-1, 1), probabilities=probs
    )
    members = {"zero": np.zeros(support_points)}
    while len(members) < size:
        f = rng.normal(size=support_points) * scale
        f -= f.mean()
        members[f"m{len(members)}"] = f
    return FunctionFamily(dist, members)


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_centering_rule_scales_with_the_family(family12, scale):
    # an absolute 1e-10 rejected family12 times 1e6: member b1's mean
    # rounds to 2e-10 there
    scaled = FunctionFamily(family12.distribution, {n: scale * v for n, v in family12.members.items()})
    for r in (0.05, 0.5, 5.0):
        assert class_wr(scaled, r) == pytest.approx(class_wr(family12, r), rel=1e-12)
        for i in range(family12.size):
            want = scale * rate_bound_T(family12.distribution, family12.values[i], r)[0]
            assert rate_bound_T(scaled.distribution, scaled.values[i], r)[0] == pytest.approx(want, rel=1e-12)
    got, want = (optimize_deflation(f, 200, 0.05, (0, 1, 2, 3)) for f in (scaled, family12))
    assert got.plan.k == want.plan.k
    assert got.objective / scale == pytest.approx(want.objective, rel=1e-12)


# ---------------------------------------------------------------------------
# functional norm


def test_norm_zero_function():
    assert cgf_functional_norm(UNIFORM4, np.zeros(4)) == 0.0


def test_norm_requires_centering():
    with pytest.raises(ValueError):
        cgf_functional_norm(UNIFORM4, np.array([1.0, 1.0, 1.0, 1.0]))


def test_norm_matches_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(12):
        m = int(rng.integers(2, 7))
        w = rng.random(m) + 0.1
        probs = w / w.sum()
        dist = DiscreteDistribution(
            support=np.arange(m, dtype=float).reshape(-1, 1), probabilities=probs
        )
        h = rng.normal(size=m) * float(rng.choice([0.1, 1.0, 10.0]))
        h -= probs @ h
        got = cgf_functional_norm(dist, h)
        assert got == pytest.approx(oracle_norm(probs, h), rel=1e-6)


def test_norm_homogeneous():
    h = np.array([1.0, -1.0, 2.0, -2.0])
    base = cgf_functional_norm(UNIFORM4, h)
    assert cgf_functional_norm(UNIFORM4, 7.5 * h) == pytest.approx(7.5 * base, rel=1e-10)


# ---------------------------------------------------------------------------
# family construction


def test_family_basic_fields(family12):
    assert family12.size == 12
    assert family12.names[0] == "zero"
    assert family12.zero_index == 0
    assert family12.member_norms[0] == 0.0
    assert family12.distances == pytest.approx(family12.distances.T, abs=0.0)
    assert float(family12.distances[0, 1]) == pytest.approx(
        float(family12.member_norms[1]), abs=1e-14
    )
    with pytest.raises(ValueError):
        family12.values[0, 0] = 1.0


def test_family_requires_zero_member():
    with pytest.raises(ValueError):
        FunctionFamily(UNIFORM4, {"g1": [1.0, -1.0, 1.0, -1.0]})


def test_family_requires_centering():
    with pytest.raises(ValueError):
        FunctionFamily(UNIFORM4, {"zero": [0.0] * 4, "bad": [1.0, 0.0, 0.0, 0.0]})


@pytest.mark.parametrize(
    "member,message",
    [
        ([1.0, -1.0, 1.0, -1.0 + 1e-6], "member 'bad': function is not centered"),
        ([math.inf, -math.inf, 0.0, 0.0], "member 'bad': function values must be finite"),
        ([math.nan, 0.0, 0.0, 0.0], "member 'bad': function is not centered"),
        ([1e308, -1e308, 1e308, -1e308], "their differences overflow"),
    ],
)
def test_family_rejects_a_bad_member_with_one_message_and_no_warning(member, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            FunctionFamily(UNIFORM4, {"zero": [0.0] * 4, "good": [1.0, -1.0, 0.0, 0.0], "bad": member})


def test_family_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        FunctionFamily(UNIFORM4, {})
    with pytest.raises(ValueError):
        FunctionFamily(UNIFORM4, {"zero": [0.0] * 3})
    with pytest.raises(ValueError):
        FunctionFamily(UNIFORM4, {"zero": [0.0] * 4}, norm_context="euclid")


def test_family_orlicz_norm_context_is_metric():
    gen = make_generator("bernstein", L=1.0)
    fam = FunctionFamily(
        UNIFORM4,
        {
            "zero": [0.0] * 4,
            "a": [1.0, -1.0, 1.0, -1.0],
            "b": [2.0, 0.0, -1.0, -1.0],
            "c": [-1.0, 1.0, 1.0, -1.0],
        },
        norm_context=gen,
    )
    d = fam.distances
    for i, j, k in itertools.permutations(range(4), 3):
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-8


# ---------------------------------------------------------------------------
# class coefficient


def test_wr_singleton_family():
    fam = FunctionFamily(UNIFORM4, {"zero": [0.0] * 4})
    assert class_wr(fam, 0.7) == 0.0
    assert extremal_difference(fam, 0.7) is None


def test_wr_rejects_a_negative_rate(family12):
    with pytest.raises(ValueError, match="r must be nonnegative"):
        class_wr(family12, -0.1)


def test_wr_three_member_grid_oracle():
    probs = UNIFORM4.probabilities
    rows = THREE.values
    want = 0.0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            h = rows[i] - rows[j]
            nh = oracle_norm(probs, h)
            if nh == 0.0:
                continue
            want = max(want, oracle_T(probs, h / nh, 0.5))
    assert class_wr(THREE, 0.5) == pytest.approx(want, abs=1e-6)


def test_wr_monotone_and_subadditive():
    rng = np.random.default_rng(32)
    fam = random_family(rng, 5)
    rs = [0.02, 0.1, 0.5, 1.0, 3.0]
    vals = [class_wr(fam, r) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for r, s in [(0.02, 0.1), (0.5, 0.5), (1.0, 3.0)]:
        assert class_wr(fam, r + s) <= class_wr(fam, r) + class_wr(fam, s) + 1e-8


def test_member_T_below_wr_norm(family12):
    w = class_wr(family12, 0.05)
    for i in range(family12.size):
        if family12.member_norms[i] == 0.0:
            continue
        t = rate_bound_T(family12.distribution, family12.values[i], 0.05)[0]
        assert t <= w * family12.member_norms[i] + 1e-10


def synthetic_family(seed, members, support, scales=(1.0, 0.3, 3.0), step=0.05, noise=0.1):
    """The benchmark's seeded synthetic family (oracles.synthetic_family) as
    a FunctionFamily."""
    return FunctionFamily(*oracles.synthetic_family(np.random.default_rng(seed), members, support, scales, step, noise))


@pytest.fixture(scope="module")
def synthetic_families():
    return [synthetic_family(seed, m, s) for seed, m, s in ((1, 24, 16), (2, 24, 64), (3, 48, 32))]


@pytest.mark.parametrize("r", [1e-4, 1e-3, 0.05, 0.5, 5.0])
def test_wr_is_at_most_sqrt_2r_under_the_cgf_norm(family12, synthetic_families, r):
    # Lambda_h(lam) <= ||h||^2 lam^2 / 2 by the norm's definition, so
    # T_r(h) <= sqrt(2r) ||h||: a norm computed low by more than about 1e-9
    # shows as w_r above sqrt(2r)
    for fam in (family12, *synthetic_families):
        assert class_wr(fam, r) <= math.sqrt(2.0 * r) * (1.0 + 1e-9)


def test_wr_cache_hit(family12):
    # one cached pass per rate, shared by class_wr and extremal_difference
    before = family12._wr_pass.cache_info()
    first = class_wr(family12, 0.31)
    assert class_wr(family12, 0.31) == first
    assert extremal_difference(family12, 0.31)[2] == first
    after = family12._wr_pass.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + 2


def test_extremal_difference_attains_wr(family12):
    i, j, val = extremal_difference(family12, 0.05)
    assert val == pytest.approx(class_wr(family12, 0.05), abs=0.0)
    d = family12.distances[i, j]
    h = (family12.values[i] - family12.values[j]) / d
    assert rate_bound_T(family12.distribution, h, 0.05)[0] == pytest.approx(val, abs=1e-14)


# ---------------------------------------------------------------------------
# plans and deflation


def test_trivial_plan_roundtrip(family12):
    plan = build_deflation(family12, 0)
    assert plan.k == 0
    assert set(plan.assignment) == {0}
    deflated = deflate(family12, plan)
    assert deflated.size == family12.size
    assert deflated.labels[1] == "l1-zero"
    assert np.array_equal(deflated.values, family12.values)


def test_validate_plan_rejections(family12):
    with pytest.raises(ValueError):
        validate_plan(family12, DeflationPlan((0,) * 11, 1))
    with pytest.raises(ValueError):
        validate_plan(family12, DeflationPlan((0,) * 11 + (99,), 1))
    # norm constraint: a small-norm member may not map to a big-norm center
    bad = [0] * 12
    bad[1] = 6
    with pytest.raises(ValueError):
        validate_plan(family12, DeflationPlan(tuple(bad), 2))
    # zero member must stay fixed
    bad = [0] * 12
    bad[0] = 1
    with pytest.raises(ValueError):
        validate_plan(family12, DeflationPlan(tuple(bad), 2))
    # range size over the e^k budget: 3 distinct targets need k >= 2
    wide = [0] * 12
    wide[6], wide[7] = 6, 7
    with pytest.raises(ValueError):
        validate_plan(family12, DeflationPlan(tuple(wide), 1))
    validate_plan(family12, DeflationPlan(tuple(wide), 2))
    with pytest.raises(ValueError, match="k must be nonnegative"):
        DeflationPlan(tuple(wide), -1)
    # a second zero member meets the norm constraint as the zero member's image
    twin = FunctionFamily(UNIFORM4, {"zero": [0.0] * 4, "zero2": [0.0] * 4, "a": [1.0, -1.0, 0.0, 0.0]})
    with pytest.raises(ValueError, match="plan must map the zero member to itself"):
        validate_plan(twin, DeflationPlan((1, 1, 0), 1))


def test_plan_norm_constraint_has_no_slack(family12):
    # at scale 2^-45 every norm is below 1e-12, so an absolute slack of 1e-12
    # let the small member l1 map to the centre b1 of norm 5 * 2^-45
    s = 2.0**-45
    small = FunctionFamily(family12.distribution, {n: s * v for n, v in family12.members.items()})
    bad = list(range(12))
    bad[1] = 6
    assert small.member_norms[6] > small.member_norms[1]
    with pytest.raises(ValueError, match="plan violates the norm constraint at member 'l1'"):
        validate_plan(small, DeflationPlan(tuple(bad), 3))


def test_build_deflation_input_checks(family12):
    for bad in (-1, True, 1.5):
        with pytest.raises(ValueError):
            build_deflation(family12, bad)
    assert build_deflation(family12, 0) == DeflationPlan((family12.zero_index,) * family12.size, 0)


def test_build_deflation_at_k0_is_the_trivial_plan_under_an_orlicz_norm(fixtures_dir):
    # budget floor(e^0) = 1 keeps only the zero member, and every member
    # is sent to it
    fam = load_family(load_json(fixtures_dir / "family12.json"), make_generator("bernstein", L=1.0))
    assert build_deflation(fam, 0) == DeflationPlan((fam.zero_index,) * fam.size, 0)


def test_build_deflation_small_budget(family12):
    # floor(e) = 2 centers: zero plus one big member. The big members share a
    # value distribution, so the farthest-first pick among them is a tie
    # resolved at float noise; assert the structure rather than the index.
    plan = build_deflation(family12, 1)
    targets = sorted(set(plan.assignment))
    assert len(targets) == 2 and targets[0] == 0 and targets[1] in range(6, 12)
    center = targets[1]
    for i, a in enumerate(plan.assignment):
        # the other big members sit farther from the center than from zero
        assert a == (center if i == center else 0)


def test_build_deflation_two_cluster(family12):
    plan = build_deflation(family12, 2)
    assert plan.assignment == (0, 0, 0, 0, 0, 0, 6, 7, 8, 9, 10, 11)
    deflated = deflate(family12, plan)
    assert deflated.size == 6
    assert deflated.labels == (
        "zero-zero",
        "l1-zero",
        "l2-zero",
        "l3-zero",
        "l4-zero",
        "l5-zero",
    )
    assert deflated.member_map == (0, 1, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0)
    assert not deflated.values[0].any()  # row 0 is the zero function
    # the deflated norms, column 0, are those of l1..l5
    assert deflated.dist[:, 0] == pytest.approx(family12.member_norms[:6], abs=0.0)


def test_build_deflation_identity_when_budget_covers(family12):
    plan = build_deflation(family12, 3)  # floor(e^3) = 20 >= 12
    assert plan.assignment == tuple(range(12))
    deflated = deflate(family12, plan)
    assert deflated.size == 1
    assert not deflated.values[0].any()


def test_build_deflation_budget_past_float_range(family12):
    # e^1000 overflows a float; a budget that covers the family is the family
    plan = build_deflation(family12, 1000)
    assert plan.assignment == build_deflation(family12, 3).assignment
    validate_plan(family12, plan)


def test_greedy_centers_within_factor_two_of_exhaustive():
    rng = np.random.default_rng(33)
    fam = random_family(rng, 8)
    plan = build_deflation(fam, 1)  # 2 centers

    def radius(centers):
        worst = 0.0
        for i in range(fam.size):
            best = fam.distances[i, fam.zero_index]
            for c in centers:
                if fam.member_norms[c] > fam.member_norms[i]:
                    continue
                best = min(best, fam.distances[i, c])
            worst = max(worst, best)
        return worst

    got = max(fam.distances[i, a] for i, a in enumerate(plan.assignment))
    best = min(radius({fam.zero_index, c}) for c in range(fam.size))
    assert got <= 2.0 * best + 1e-12


# ---------------------------------------------------------------------------
# covering numbers


def test_epsilon_whole_set_is_free(family12):
    deflated = deflate(family12, build_deflation(family12, 2))
    val, subset = epsilon_ell(deflated, 2)  # budget 16 >= 6
    assert val == 0.0
    assert subset == tuple(range(6))


def test_epsilon_exact_enumeration_small(family12):
    deflated = deflate(family12, build_deflation(family12, 2))
    for ell, budget in ((0, 2), (1, 4)):
        got, subset = epsilon_ell(deflated, ell)
        assert len(subset) <= budget
        want = min(
            max(float(np.min(deflated.dist[i, list(s)])) for i in range(6))
            for s in itertools.combinations(range(6), budget)
        )
        assert got == want
        achieved = max(float(np.min(deflated.dist[i, list(subset)])) for i in range(6))
        assert achieved == got


def test_epsilon_greedy_large_set():
    rng = np.random.default_rng(34)
    fam = random_family(rng, 14, support_points=8)
    deflated = deflate(fam, build_deflation(fam, 0))
    got, subset = epsilon_ell(deflated, 0)
    assert len(subset) == 2
    exact = min(
        max(float(np.min(deflated.dist[i, list(s)])) for i in range(14))
        for s in itertools.combinations(range(14), 2)
    )
    assert exact <= got <= 2.0 * exact + 1e-12


def test_epsilon_nonincreasing_in_ell():
    rng = np.random.default_rng(35)
    fam = random_family(rng, 12, support_points=7)
    deflated = deflate(fam, build_deflation(fam, 0))
    vals = [epsilon_ell(deflated, ell)[0] for ell in range(3)]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[2] == 0.0


def test_epsilon_rejects_negative_ell(family12):
    deflated = deflate(family12, build_deflation(family12, 0))
    with pytest.raises(ValueError):
        epsilon_ell(deflated, -1)


def test_epsilon_at_a_huge_ell_is_the_whole_set(family12):
    # 2^{2^ell} is never formed once it covers the set: at ell = 10^6 it
    # would be an integer of 2^{10^6} bits
    deflated = deflate(family12, build_deflation(family12, 0))
    assert epsilon_ell(deflated, 10**6) == (0.0, tuple(range(deflated.size)))
    assert [_level_size(ell, 17) for ell in range(6)] == [2, 4, 16, 17, 17, 17]


def _farthest_first_by_hand(dist, seed, budget):
    """Farthest-first traversal with every distance to the chosen set
    recomputed at each step; ties go to the first index."""
    chosen = list(seed)
    while len(chosen) < budget:
        gaps = [min(dist[i][c] for c in chosen) for i in range(len(dist))]
        if max(gaps) <= 0.0:
            break
        chosen.append(gaps.index(max(gaps)))
    return chosen


@pytest.mark.parametrize("seed", range(4))
def test_farthest_first_matches_a_traversal_by_hand(seed):
    rng = np.random.default_rng(seed)
    q = 30
    # L1 distances of points on a 4 x 4 grid tie often, and repeated points
    # sit at distance 0; a symmetric matrix of 0, 1 and 2 has zero gaps off
    # the diagonal
    pts = rng.integers(0, 4, size=(q, 2)).astype(float)
    grid = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    m = rng.integers(0, 2, size=(q, q)).astype(float)
    loose = m + m.T
    np.fill_diagonal(loose, 0.0)
    for dist in (grid, loose):
        for start in ([0], [7], [5, 1], list(range(0, q, 7))):
            for budget in (1, 2, 5, 16, q, q + 3):
                assert _farthest_first(dist, start, budget) == _farthest_first_by_hand(dist, start, budget)


# ---------------------------------------------------------------------------
# gamma functional


def test_gamma_singleton_zero(family12):
    deflated = deflate(family12, build_deflation(family12, 3))
    val, cert = gamma_functional(deflated, family12, 200)
    assert val == 0.0
    assert cert["rates"] == ()


def test_gamma_two_point_closed_form():
    fam = FunctionFamily(
        UNIFORM4, {"zero": [0.0] * 4, "g1": [1.0, -1.0, 1.0, -1.0]}
    )
    deflated = deflate(fam, build_deflation(fam, 0))
    val, cert = gamma_functional(deflated, fam, 50)
    want = 2.0 * class_wr(fam, 10.0 * LOG2 / 50.0) * float(deflated.dist[1, 0])
    assert val == pytest.approx(want, rel=1e-12)
    assert cert["rates"] == pytest.approx((10.0 * LOG2 / 50.0,), rel=1e-15)


def test_gamma_matches_exhaustive_sequences():
    rng = np.random.default_rng(36)
    fam = random_family(rng, 5)
    deflated = deflate(fam, build_deflation(fam, 0))
    got, cert = gamma_functional(deflated, fam, 120)
    q = deflated.size
    z = 0  # the zero row
    rates = tuple((2.0 ** (ell + 3) + ell + 2) * LOG2 / 120 for ell in range(2))
    weights = tuple(class_wr(fam, rr) for rr in rates)

    def value(levels):
        worst = 0.0
        for a in range(q):
            s = sum(
                2.0 * w * min(float(deflated.dist[a, b]) for b in lvl)
                for lvl, w in zip(levels, weights)
            )
            worst = max(worst, s)
        return worst

    best = math.inf
    others = [i for i in range(q) if i != z]
    for size in range(0, 4):
        for combo in itertools.combinations(others, size):
            best = min(best, value(((z,), (z,) + combo)))
    assert got == pytest.approx(best, abs=1e-12)
    # certificate structure: nested levels under the doubly exponential caps
    levels = cert["levels"]
    assert levels[0] == (z,)
    for ell, lvl in enumerate(levels):
        assert len(lvl) <= 2 ** (2**ell)
        assert set(levels[max(ell - 1, 0)]) <= set(lvl)


# zero and five members on four equally likely points: two level-1 sets tie
# for the smallest gamma, below the greedy sequence's value
TIED = FunctionFamily(
    UNIFORM4,
    {
        "zero": [0.0] * 4,
        "m1": [-1.0, 0.0, 0.5, 0.5],
        "m2": [-1.0, 1.0, 0.5, -0.5],
        "m3": [-0.5, 0.5, -0.5, 0.5],
        "m4": [1.0, 0.5, -1.0, -0.5],
        "m5": [0.0, 1.0, -1.0, 0.0],
    },
)


def _first_minima(candidates, value):
    """The candidates, in their order, at which value is smallest."""
    values = [value(c) for c in candidates]
    return [c for c, v in zip(candidates, values) if v == min(values)], min(values)


@pytest.mark.parametrize("fam,k,ell", [("family12", 0, 1), ("family12", 2, 0), ("tied", 0, 0)])
def test_epsilon_returns_the_first_tied_minimum_in_combinations_order(family12, fam, k, ell):
    fam = family12 if fam == "family12" else TIED
    deflated = deflate(fam, build_deflation(fam, k))
    q = deflated.size
    ties, best = _first_minima(
        list(itertools.combinations(range(q), 2 ** (2**ell))),
        lambda s: max(min(float(deflated.dist[i, j]) for j in s) for i in range(q)),
    )
    assert len(ties) > 1
    assert epsilon_ell(deflated, ell) == (best, ties[0])


def test_gamma_returns_the_first_tied_minimum_in_combinations_order():
    deflated = deflate(TIED, build_deflation(TIED, 0))
    q, z = deflated.size, 0  # row 0 is the zero row
    got, cert = gamma_functional(deflated, TIED, 100)
    weights = cert["weights"]

    def value(levels):
        return max(
            sum(2.0 * w * min(float(deflated.dist[a, b]) for b in lvl) for lvl, w in zip(levels, weights))
            for a in range(q)
        )

    others = [i for i in range(q) if i != z]
    ties, best = _first_minima(
        [((z,), tuple(sorted((z, *c)))) for c in itertools.combinations(others, 3)], value
    )
    assert len(ties) > 1
    assert (got, cert["levels"]) == (best, ties[0])


def test_gamma_input_validation(family12):
    deflated = deflate(family12, build_deflation(family12, 0))
    with pytest.raises(ValueError):
        gamma_functional(deflated, family12, 0)
    with pytest.raises(ValueError):
        gamma_functional(deflated, family12, True)


# ---------------------------------------------------------------------------
# assembled bound


def test_theorem_bound_identity_and_consistency(family12):
    rep = theorem_main_bound(family12, build_deflation(family12, 2), 200, 0.05)
    assert rep.total_rhs == pytest.approx(
        rep.gamma_value + 2.0 * rep.w_r * rep.epsilon_sum, abs=1e-12
    )
    assert rep.epsilon_sum == pytest.approx(sum(rep.epsilon_values), abs=0.0)
    assert rep.deflated_size == 6
    assert rep.guarantee == pytest.approx(1.0 - 2.0 * math.exp(-10.0), rel=1e-15)
    assert list(rep.per_member) == list(family12.names)
    for i, name in enumerate(family12.names):
        want = rep.w_shift * float(family12.member_norms[i]) + rep.total_rhs
        assert rep.per_member[name] == pytest.approx(want, abs=1e-12)


def test_theorem_bound_trivial_plan_is_standard_chaining(family12):
    rep = theorem_main_bound(family12, build_deflation(family12, 0), 200, 0.05)
    assert rep.k == 0
    assert rep.w_shift == rep.w_r
    assert rep.deflated_size == family12.size


def test_theorem_bound_singleton_family():
    fam = FunctionFamily(UNIFORM4, {"zero": [0.0] * 4})
    rep = theorem_main_bound(fam, build_deflation(fam, 0), 10, 0.5)
    assert rep.total_rhs == 0.0
    assert rep.per_member == {"zero": 0.0}


def test_theorem_bound_validation(family12):
    plan = build_deflation(family12, 0)
    with pytest.raises(ValueError):
        theorem_main_bound(family12, plan, 0, 0.05)
    with pytest.raises(ValueError):
        theorem_main_bound(family12, plan, 200, 0.0)
    with pytest.raises(ValueError):
        theorem_main_bound(family12, DeflationPlan((0,) * 5, 0), 200, 0.05)


@pytest.mark.parametrize("k", [0, 2, 3])
def test_certificate_replays_to_report(family12, k):
    plan = build_deflation(family12, k)
    rep = theorem_main_bound(family12, plan, 200, 0.05)
    assert replay_certificate(family12, rep) == rep


def _fresh_loader(fixtures_dir, norm):
    """Loads family12 anew on each call, so that a replay shares no cache
    with the run that made the report."""
    def load():
        context = "cgf" if norm == "cgf" else make_generator("bernstein", L=1.0)
        return load_family(load_json(fixtures_dir / "family12.json"), context)
    return load


@pytest.mark.parametrize("norm", ["cgf", "bernstein"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_certificate_replays_bit_for_bit_on_a_fresh_family(fixtures_dir, norm, k):
    load = _fresh_loader(fixtures_dir, norm)
    fam = load()
    plan = build_deflation(fam, k)
    rep = theorem_main_bound(fam, plan, 200, 0.05)
    replay = replay_certificate(load(), rep)
    # every value and every certificate entry, bit for bit (== on floats)
    assert isinstance(replay, ChainBoundReport)
    assert replay == rep


@pytest.mark.parametrize("norm", ["cgf", "bernstein"])
def test_optimized_report_replays_bit_for_bit_on_a_fresh_family(fixtures_dir, norm):
    load = _fresh_loader(fixtures_dir, norm)
    rep = optimize_deflation(load(), 200, 0.05, (0, 1, 2, 3)).report
    assert replay_certificate(load(), rep) == rep


@pytest.mark.parametrize("norm", ["cgf", make_generator("bernstein", L=1.0)], ids=["cgf", "bernstein"])
def test_certificates_replay_on_a_family_past_the_exhaustive_limits(norm):
    # deflated sets of more than 12 rows: gamma's levels and epsilon's
    # subsets are prefixes of the farthest-first traversal
    dist, functions = oracles.synthetic_family(np.random.default_rng(64), 24, 64, (0.25, 1.0, 4.0), 0.15, 0.02)
    fam, fresh = FunctionFamily(dist, functions, norm), FunctionFamily(dist, functions, norm)
    reports = [theorem_main_bound(fam, build_deflation(fam, k), 200, 0.05) for k in range(4)]
    reports.append(optimize_deflation(fam, 200, 0.05, (0, 1, 2, 3)).report)
    assert max(rep.deflated_size for rep in reports) > 12
    for rep in reports:
        assert replay_certificate(fresh, rep) == rep


def _replace_certificate(rep, key, edit):
    return dataclasses.replace(rep, certificate={**rep.certificate, key: edit(rep.certificate[key])})


# one reported value or derived certificate entry changed: the replay differs
EDITS = {
    "per_member": lambda rep: dataclasses.replace(rep, per_member={**rep.per_member, "b5": rep.per_member["b5"] / 2}),
    "w_r": lambda rep: dataclasses.replace(rep, w_r=rep.w_r / 2),
    "w_shift": lambda rep: dataclasses.replace(rep, w_shift=rep.w_shift / 2),
    "guarantee": lambda rep: dataclasses.replace(rep, guarantee=rep.guarantee / 2),
    "deflated_size": lambda rep: dataclasses.replace(rep, deflated_size=rep.deflated_size + 1),
    "label": lambda rep: _replace_certificate(rep, "deflated_labels", lambda labels: (*labels[:-1], "tampered")),
    "gamma_weight": lambda rep: _replace_certificate(rep, "gamma_weights", lambda w: (w[0] / 2, *w[1:])),
    "gamma_rate": lambda rep: _replace_certificate(rep, "gamma_rates", lambda rates: (rates[0] / 2, *rates[1:])),
}


@pytest.mark.parametrize("field", sorted(EDITS))
def test_certificate_replay_detects_an_edited_value(family12, field):
    rep = theorem_main_bound(family12, build_deflation(family12, 2), 200, 0.05)
    edited = EDITS[field](rep)
    assert edited != rep
    replay = replay_certificate(family12, edited)
    assert replay != edited and replay == rep


# gamma levels or epsilon subsets that are not admissible for the deflated set of q rows
FORGERIES = {
    "level-1-every-row": lambda levels, subsets, q: ((levels[0], tuple(range(q))), subsets),
    "subsets-every-row": lambda levels, subsets, q: (levels, tuple((ell, tuple(range(q))) for ell, _ in subsets)),
    "level-0-not-zero": lambda levels, subsets, q: (((1,), *levels[1:]), subsets),
    "level-1-without-0": lambda levels, subsets, q: ((levels[0], (1, 2, 3, 4)), subsets),
    "negative-index": lambda levels, subsets, q: ((levels[0], (*levels[1][:-1], -1)), subsets),
    "index-past-q": lambda levels, subsets, q: (levels, ((0, (0, q)), *subsets[1:])),
    "float-index": lambda levels, subsets, q: (levels, ((0, (0, 1.0)), *subsets[1:])),
    "repeated-index": lambda levels, subsets, q: (levels, ((0, (0, 0)), *subsets[1:])),
    "missing-subset": lambda levels, subsets, q: (levels, subsets[:-1]),
    "extra-subset": lambda levels, subsets, q: (levels, (*subsets, (2, tuple(range(q))))),
    "missing-level": lambda levels, subsets, q: (levels[:1], subsets),
    "extra-level": lambda levels, subsets, q: ((*levels, tuple(range(q))), subsets),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_certificate_with_inadmissible_sets_is_rejected(family12, forgery):
    # every set of the first two forgeries replayed to total_rhs 2.63 in place of 12.49
    rep = theorem_main_bound(family12, build_deflation(family12, 0), 200, 0.05)
    cert, q = rep.certificate, rep.deflated_size
    assert q == 12 and len(cert["gamma_levels"]) == 2 and [ell for ell, _ in cert["epsilon_subsets"]] == [0, 1]
    levels, subsets = FORGERIES[forgery](cert["gamma_levels"], cert["epsilon_subsets"], q)
    forged = dataclasses.replace(rep, certificate={**cert, "gamma_levels": levels, "epsilon_subsets": subsets})
    with pytest.raises(ValueError, match="not admissible"):
        replay_certificate(family12, forged)


def test_certificate_tamper_detected(family12):
    rep = theorem_main_bound(family12, build_deflation(family12, 2), 200, 0.05)
    tampered = dict(rep.certificate)
    assignment = list(tampered["assignment"])
    assignment[7] = 0
    tampered["assignment"] = tuple(assignment)
    bad = dataclasses.replace(rep, certificate=tampered)
    with pytest.raises(ValueError):
        replay_certificate(family12, bad)


# ---------------------------------------------------------------------------
# optimization over k


def test_optimize_two_cluster_family(family12):
    out = optimize_deflation(family12, 200, 0.05, (0, 1, 2, 3))
    assert out.plan.k == 3
    assert [k for k, _ in out.evaluations] == [0, 1, 2, 3]
    trivial_obj = out.evaluations[0][1]
    assert out.objective < trivial_obj
    assert out.objective == pytest.approx(0.22139705225613043, rel=1e-9)
    # the objective is the reported quantity for the winning plan
    want = out.report.total_rhs + (out.report.w_shift - out.report.w_r) * np.max(family12.member_norms)
    assert out.objective == pytest.approx(want, abs=1e-14)


def test_optimize_single_candidate_trivial(family12):
    out = optimize_deflation(family12, 200, 0.05, [0])
    assert out.plan.k == 0
    assert out.report.k == 0


def test_optimize_singleton_family_tie_breaks_small():
    fam = FunctionFamily(UNIFORM4, {"zero": [0.0] * 4})
    out = optimize_deflation(fam, 10, 0.5, (2, 0, 5))
    assert out.plan.k == 0
    assert out.objective == 0.0


def test_optimize_rejects_bad_candidates(family12):
    with pytest.raises(ValueError):
        optimize_deflation(family12, 200, 0.05, [])
    with pytest.raises(ValueError):
        optimize_deflation(family12, 200, 0.05, [-1])
    with pytest.raises(ValueError):
        optimize_deflation(family12, 200, 0.05, [True])


@pytest.mark.parametrize("norm", ["cgf", make_generator("bernstein", L=1.0)], ids=["cgf", "bernstein"])
def test_chain_bounds_do_not_depend_on_member_order(norm):
    # the deflated set's row 0 is its zero row whatever the members' order,
    # so gamma and epsilon grow their traversal from the same point
    dist, members = oracles.synthetic_family(np.random.default_rng(64), 24, 64, (0.25, 1.0, 4.0), 0.15, 0.02)
    names = list(members)
    shuffled = {names[i]: members[names[i]] for i in np.random.default_rng(64).permutation(len(names))}
    assert next(iter(shuffled)) != "zero"
    fams = [FunctionFamily(dist, m, norm) for m in (members, shuffled)]
    first, second = (optimize_deflation(f, 200, 0.05, (0, 1, 2, 3)) for f in fams)
    assert first.evaluations == second.evaluations
    assert (first.objective, first.report.k) == (second.objective, second.report.k)
    reports = [(first.report, second.report), [theorem_main_bound(f, build_deflation(f, 2), 200, 0.05) for f in fams]]
    for a, b in reports:
        assert a.per_member == b.per_member  # by name
        for field in ("w_r", "w_shift", "gamma_value", "epsilon_values", "epsilon_sum", "total_rhs", "deflated_size"):
            assert getattr(a, field) == getattr(b, field), field
