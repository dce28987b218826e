"""The batched rate-function engine: the CGF kernel, dual-form T_r, the
batched CGF norm, the family's distances by index (one re-centering
difference helper, identity reuse in deflate, a per-plan cache) and the
shared w_r / extremal-pair pass.

References here are dense lambda grids with zoom refinement, long-double
sums and 50-digit decimal replays, computed apart from the library's
solvers; the random distributions are those of acceptance criterion 6.
"""

import collections
import math
from decimal import Decimal

import numpy as np
import pytest

import tailbound.cgf as cgf
import tailbound.chaining as chaining
import tailbound.numerics as numerics
from oracles import benchmark_families, cgf_reference, decimal_objective, norm_grid_by_repeat, synthetic_family
from tailbound.cgf import DiscreteDistribution, rate_bound_T
from tailbound.chaining import (
    FunctionFamily,
    build_deflation,
    cgf_functional_norm,
    class_wr,
    deflate,
    extremal_difference,
)
from tailbound.orlicz import make_generator, orlicz_norm

REL = 1e-10


def _cgf(logp, h, lams):
    """Lambda at each lambda of a 1-D grid; expm1 form where |lambda h| <= 1e-3."""
    a = logp[None, :] + lams[:, None] * h[None, :]
    peak = a.max(axis=1)
    out = peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))
    small = np.abs(lams) * np.abs(h).max() <= 1e-3
    out[small] = np.log1p(np.expm1(lams[small, None] * h[None, :]) @ np.exp(logp))
    return out


def _zoom(objective, grid):
    """Minimum of objective over a grid, zoomed 12 times into the best bracket."""
    vals = objective(grid)
    for _ in range(12):
        j = int(np.argmin(vals))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        grid = np.linspace(lo, hi, 101)
        vals = objective(grid)
    return float(vals.min())


def reference_T(probs, h, r):
    top = h.max()
    if r >= -math.log(probs[h == top].sum()):
        return float(top)
    logp = np.log(probs)
    grid = np.geomspace(1e-6, 1e9, 3001) / np.abs(h).max()
    return _zoom(lambda lam: (r + _cgf(logp, h, lam)) / lam, grid)


def reference_norm(probs, h):
    logp = np.log(probs)
    best = float(probs @ h**2 - (probs @ h) ** 2)
    for sign in (1.0, -1.0):
        grid = sign * np.geomspace(1e-6, 1e9, 3001) / np.abs(h).max()
        best = max(best, -_zoom(lambda lam: -2.0 * _cgf(logp, h, lam) / (lam * lam), grid))
    return math.sqrt(best)


def criterion6_draws():
    """The distributions, functions, rates and scales of acceptance criterion 6."""
    rng = np.random.default_rng(20250819)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        support = rng.normal(size=(m, 1))
        probs = rng.dirichlet(np.ones(m))
        vals = rng.normal(size=m) * 10.0 ** rng.uniform(-2.0, 2.0)
        vals -= probs @ vals
        vals -= probs @ vals
        r, s = (float(x) for x in 10.0 ** rng.uniform(-2.0, 1.0, size=2))
        alpha = float(10.0 ** rng.uniform(-2.5, 2.5))
        yield DiscreteDistribution(support=support, probabilities=probs), vals, r, s, alpha


def test_batched_T_matches_dense_grid():
    worst = 0.0
    for dist, vals, r, s, alpha in criterion6_draws():
        rows = np.stack([vals, -vals, alpha * vals])
        probs = dist.probabilities
        for rate in (r, s):
            got, _lam = rate_bound_T(dist, rows, rate)
            want = np.array([reference_T(probs, h, rate) for h in rows])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= REL


def test_batched_norm_matches_dense_grid():
    worst = 0.0
    for dist, vals, _r, _s, alpha in criterion6_draws():
        rows = np.stack([vals, alpha * vals])
        got = cgf_functional_norm(dist, rows)
        want = np.array([reference_norm(dist.probabilities, h) for h in rows])
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= REL


def _norm_draws(s: int, count: int = 24):
    """Seeded rows on s atoms: Gaussian rows under Dirichlet probabilities at
    scales 1e-2 to 1e2, and near-symmetric +-1 rows under equal
    probabilities, whose supremum sits close to the variance limit."""
    rng = np.random.default_rng(s)
    probs = rng.dirichlet(np.ones(s))
    rows = rng.normal(size=(count, s)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(count, 1))
    signs = np.where(rng.permuted(np.tile(np.arange(s) % 2, (count, 1)), axis=1) == 0, 1.0, -1.0)
    for p, h in ((probs, rows), (np.full(s, 1.0 / s), signs * (1.0 + 0.05 * rng.normal(size=(count, s))))):
        h -= (h @ p)[:, None]
        h -= (h @ p)[:, None]
        yield DiscreteDistribution(np.arange(float(s))[:, None], p), h


def _accurate_norm(probs, h):
    """reference_norm with Lambda in the expm1 form wherever |lambda| max|h| <= 1:
    the shifted log-sum-exp loses about eps |log p| / Lambda relative there,
    up to 1e-9 of the norm for near-symmetric rows on 128 atoms."""
    logp, top = np.log(probs), np.abs(h).max()

    def cgf(lams):
        out = _cgf(logp, h, lams)
        small = np.abs(lams) * top <= 1.0
        out[small] = np.log1p(np.expm1(lams[small, None] * h[None, :]) @ probs)
        return out

    best = float(probs @ h**2 - (probs @ h) ** 2)
    for sign in (1.0, -1.0):
        grid = sign * np.geomspace(1e-6, 1e9, 3001) / top
        best = max(best, -_zoom(lambda lam: -2.0 * cgf(lam) / (lam * lam), grid))
    return math.sqrt(best)


@pytest.mark.parametrize("s", [2, 8, 32, 64, 128])
def test_cgf_norm_matches_an_accurate_dense_grid(s):
    for dist, rows in _norm_draws(s):
        got = cgf_functional_norm(dist, rows)
        want = np.array([_accurate_norm(dist.probabilities, h) for h in rows])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-9


@pytest.mark.parametrize("s", [2, 8, 32, 64, 128])
def test_cgf_norm_is_never_below_its_best_grid_value_or_variance(s):
    grid = chaining.NORM_GRID
    for dist, rows in _norm_draws(s):
        probs, logp = dist.probabilities, np.log(dist.probabilities)
        got = cgf_functional_norm(dist, rows)
        for h, norm in zip(rows, got):
            top = np.abs(h).max()
            floor = 0.0
            for side in (h / top, -h / top):
                order = np.lexsort((probs, side))  # the norm sums each side's atoms in this order
                x, p = side[order], probs[order]
                values = 2.0 * cgf._moments(logp[order], x[None, :], grid)[0] / grid**2
                floor = max(floor, (x * x * p).sum() - (x * p).sum() ** 2, float(values.max()))
            assert norm >= top * math.sqrt(floor)


def test_cgf_norm_ties_rows_equal_up_to_sign_and_permutation():
    # rows that are permutations of one another on equally likely atoms, and
    # their negatives, have one norm bit for bit, so exact ties stay tied
    dist = DiscreteDistribution(np.arange(6.0)[:, None], np.full(6, 1.0 / 6.0))
    rng = np.random.default_rng(3)
    base = rng.normal(size=6)
    base -= base.mean()
    rows = np.array([sign * rng.permutation(base) for sign in (1.0, -1.0) for _ in range(8)])
    norms = cgf_functional_norm(dist, rows)
    assert np.all(norms == norms[0])


def test_cgf_norm_makes_no_golden_section_call(monkeypatch):
    # the library has no minimizer left: the norm solves its peak condition
    # with the dual solver chaining imports, once per row block at least,
    # and never calls the root finder
    calls = []
    solve = chaining._dual_root

    def counted(*args):
        calls.append(args[1].size)
        return solve(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("root finder called")

    assert not hasattr(numerics, "grid_min")
    monkeypatch.setattr(numerics, "false_position", forbidden)
    monkeypatch.setattr(chaining, "_dual_root", counted)
    dist, rows = next(_norm_draws(16))
    assert np.all(cgf_functional_norm(dist, rows) > 0.0)
    assert len(calls) == 1 and calls[0] == 2 * rows.shape[0]  # one block: both sides of every row
    calls.clear()
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 3 * rows.shape[1])  # blocks of three sides
    assert np.all(cgf_functional_norm(dist, rows) > 0.0)
    assert len(calls) == len(numerics.row_blocks(2 * rows.shape[0], rows.shape[1])) > 1
    calls.clear()
    assert _random_family(4).distances.max() > 0.0
    assert calls


# The benchmark's chain-cgf families and a 24-member family on 64 atoms;
# BLOCK_ELEMENTS at 3 rows of 64 atoms cuts the norm grid's rows into many
# blocks, so that the rows of one family straddle them.
GRID_FAMILIES = [
    *(lambda: benchmark_families(seed)[0] for seed in (1, 2, 3)),
    lambda: synthetic_family(np.random.default_rng(64), 24, 64, (0.25, 1.0, 4.0), 0.15, 0.02),
]


@pytest.mark.parametrize("block", [numerics.BLOCK_ELEMENTS, 3 * chaining.NORM_GRID.size * 64])
@pytest.mark.parametrize("family", range(len(GRID_FAMILIES)))
def test_norm_grid_is_the_repeated_row_construction_bit_for_bit(monkeypatch, family, block):
    # the broadcast grid tensor of the CGF norm gives the best grid value and
    # its index of the np.repeat construction over the kernel exactly,
    # at the caps the norm computes and at random caps, which test the mask
    calls = []
    grid_max = chaining._grid_max

    def recorded(logp, x, count):
        calls.append((logp, x, count, grid_max(logp, x, count)))
        return calls[-1][-1]

    monkeypatch.setattr(chaining, "_grid_max", recorded)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", block)
    FunctionFamily(*GRID_FAMILIES[family]())
    rng = np.random.default_rng(family)
    for logp, x, count, _ in list(calls):
        recorded(logp, x, rng.integers(1, chaining.NORM_GRID.size + 1, count.size))
    monkeypatch.undo()
    assert calls
    for logp, x, count, (best, j) in calls:
        want_best, want_j = norm_grid_by_repeat(logp, x, count, chaining.NORM_GRID)
        assert np.array_equal(best, want_best) and np.array_equal(j, want_j)


def test_T_closed_form_at_infinity_or_replayed_at_its_lambda():
    at_inf = interior = 0
    for dist, vals, r, s, _alpha in criterion6_draws():
        rows = np.stack([vals, -vals])
        for rate in (r, s):
            got, lams = rate_bound_T(dist, rows, rate)
            for h, t, lam in zip(rows, got, lams):
                top = h.max()
                if rate >= -math.log(dist.probabilities[h == top].sum()):
                    at_inf += 1
                    assert t == top and lam == math.inf
                else:
                    interior += 1
                    assert 0.0 < lam < math.inf
                    assert t == pytest.approx((rate + cgf_reference(dist, h, lam)) / lam, rel=1e-12)
    assert at_inf > 100 and interior > 100  # both branches are exercised


def test_T_rows_zero_rate_zero_row_and_centering():
    dist = DiscreteDistribution([[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    rows = np.array([[1.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
    vals, lams = rate_bound_T(dist, rows, 0.0)
    assert vals.tolist() == [0.0, 0.0] and lams.tolist() == [0.0, 0.0]
    vals, lams = rate_bound_T(dist, rows, 0.3)
    assert vals[1] == 0.0 and lams[1] == math.inf
    assert vals[0] == pytest.approx(rate_bound_T(dist, rows[0], 0.3)[0], abs=0.0)
    with pytest.raises(ValueError):
        rate_bound_T(dist, np.array([[1.0, 0.0, 0.0]]), 0.3)
    with pytest.raises(ValueError):
        rate_bound_T(dist, rows[:, :2], 0.3)


def _m96():
    """The m = 96, s = 64 synthetic family on which the norm's search and the
    dual solver were measured."""
    return synthetic_family(np.random.default_rng(1), 96, 64, (1, 0.3, 3), 0.05, 0.1)


def test_cgf_kernel_matches_long_double_sums_for_mu_up_to_1():
    # Lambda and g = mu Lambda' - Lambda within 1e-12 relative of np.longdouble
    # sums of p expm1(mu x) on rows scaled to max|x| = 1: the _norm_draws rows
    # and heavy-tailed rows, whose sum over atoms cancels most; the shifted
    # log-sum-exp that T_r and the norm read before was up to ~1e-7 off here
    mus = np.geomspace(1e-3, 1.0, 61)
    worst = 0.0
    for s in (2, 8, 32, 64, 128):
        (dist, gaussian), (dist_eq, signs) = _norm_draws(s)
        cauchy = np.random.default_rng(s).standard_cauchy(size=gaussian.shape)
        cauchy -= (cauchy @ dist.probabilities)[:, None]
        kinds = ((dist.probabilities, gaussian), (dist_eq.probabilities, signs), (dist.probabilities, cauchy))
        for probs, rows in kinds:
            x = rows / np.abs(rows).max(axis=1)[:, None]
            logp = np.log(probs)
            lam, g, _ = cgf._moments(logp, x[:, None, :], mus)
            p, xl, ml = np.exp(logp).astype(np.longdouble), x[:, None, :].astype(np.longdouble), mus[:, None]
            s0 = (p * np.expm1(ml * xl)).sum(axis=-1)
            want_lam = np.log1p(s0)
            want_g = mus * (p * xl * np.exp(ml * xl)).sum(axis=-1) / (1 + s0) - want_lam
            worst = max(worst, float(np.max(np.abs(lam / want_lam - 1))), float(np.max(np.abs(g / want_g - 1))))
    assert worst <= 1e-12


def test_norm_sides_end_their_search_within_7_steps(monkeypatch):
    # with a shifted log-sum-exp CGF, about 780 of the 9120 norm sides of
    # _m96 took ~20 bisection steps on a Newton function that was rounding
    # noise near mu = 1e-6. Through cgf._dual_root, which stops at a step or
    # bracket of 1e-12 in log mu, the most any side takes is 7 (5 under the
    # norm's former stop at 1e-13 relative gain). Sides are told apart by
    # their bytes; each kernel call with 2-D rows is one iteration of the
    # sides in it, or their final value
    calls = collections.Counter()
    kernel = chaining._moments

    def recorded(logp, x, mu):
        if x.ndim == 2:
            calls.update({(a.tobytes(), b.tobytes()) for a, b in zip(np.broadcast_to(logp, x.shape), x)})
        return kernel(logp, x, mu)

    monkeypatch.setattr(chaining, "_moments", recorded)
    FunctionFamily(*_m96())
    assert len(calls) > 9000
    assert max(calls.values()) - 1 <= 7


@pytest.mark.parametrize("r", [1e-4, 1e-3])
def test_T_rows_stop_before_the_dual_iteration_cap_at_small_rates(monkeypatch, family12, r):
    # rows whose computed g only rounding moves end at a bracket 1e-12 wide
    # in log lambda, where they ran all DUAL_MAX_ITER iterations before
    most = []
    solve = cgf._dual_root

    def counted(moments, t, lo, hi, rate):
        calls = np.zeros(t.size, dtype=int)

        def counting(rows, mu):
            calls[rows] += 1
            return moments(rows, mu)

        mu = solve(counting, t, lo, hi, rate)
        most.append(calls.max())
        return mu

    monkeypatch.setattr(cgf, "_dual_root", counted)
    families = [(family12.distribution, family12.members), _m96()]
    families += [fam for seed in (1, 2, 3) for fam in benchmark_families(seed)]
    for dist, members in families:
        class_wr(FunctionFamily(dist, members), r)  # a new family: w_r passes are cached per family
    assert len(most) >= len(families)
    assert max(most) < cgf.DUAL_MAX_ITER


def test_T_is_its_objective_at_its_lambda_in_decimal():
    # every interior T_r equals (r + Lambda(lam)) / lam at its own lam,
    # replayed in 50 digits, within an a-priori bound on its float rounding:
    # Lambda's in the kernel's forms, of h / max|h| and of p = e^{log p}, and
    # three operations after it. No value falls below its replay by more than
    # 2.4e-13 relative, the largest shortfall of the log-sum-exp kernel on
    # rates of 1e-3 and up (it reached 2.4e-12 at r = 1e-4)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261019)
    worst, checked = 0.0, 0
    for _ in range(150):
        s = int(rng.integers(2, 41))
        probs = rng.dirichlet(np.ones(s))
        h = rng.normal(size=s) * 10.0 ** rng.uniform(-3.0, 3.0)
        h -= probs @ h
        h -= probs @ h
        dist = DiscreteDistribution(np.arange(float(s))[:, None], probs)
        rows = np.stack([h, -h])
        for r in (1e-4, 1e-3, 0.05, 0.5):
            values, lams = rate_bound_T(dist, rows, r)
            for row, t, lam in zip(rows, values, lams):
                if lam == math.inf:
                    assert t == row.max()
                    continue
                want = decimal_objective(dist, row, r, lam)
                mu = lam * np.abs(row).max()
                slack = (s + 8) * eps * (1.0 - math.log(probs.min())) * (2.0 * mu if mu <= 1.0 else mu + 1.0)
                rel = float((Decimal(t) - want) / want)
                assert abs(rel) <= slack / float(want * Decimal(lam)) + 4.0 * eps  # want * lam = r + Lambda
                worst = max(worst, -rel)
                checked += 1
    assert checked > 1000
    assert worst <= 2.4e-13


UNIFORM4 = DiscreteDistribution(np.arange(4.0)[:, None], np.full(4, 0.25))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norms_reject_non_finite_rows(bad):
    row = np.array([1.0, -1.0, bad, 0.0])
    with pytest.raises(ValueError):
        cgf_functional_norm(UNIFORM4, row)
    with pytest.raises(ValueError):
        orlicz_norm(UNIFORM4, row, make_generator("sub-gaussian"))


def test_cgf_norm_centering_rule_is_the_T_r_rule():
    row = [1.0 + 4e-9, -1.0, 0.5, -0.5]  # mean 1e-9: inside 1e-8, outside 1e-10
    with pytest.raises(ValueError, match="function is not centered") as norm_err:
        cgf_functional_norm(UNIFORM4, row)
    with pytest.raises(ValueError, match="function is not centered") as rate_err:
        rate_bound_T(UNIFORM4, row, 0.3)
    assert str(norm_err.value) == str(rate_err.value)


def test_row_blocks_bound_the_tensor():
    blocks = numerics.row_blocks(10_000, 202 * 12)
    assert sum(b.stop - b.start for b in blocks) == 10_000
    assert all((b.stop - b.start) * 202 * 12 <= numerics.BLOCK_ELEMENTS for b in blocks)
    assert numerics.row_blocks(3, 10 * numerics.BLOCK_ELEMENTS) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert numerics.row_blocks(0, 5) == []


# ---------------------------------------------------------------------------
# family layer


def _random_family(seed, size=9, support=6, norm_context="cgf"):
    """The zero member and two clusters, each a random base with growing
    multiples and jitter, so deflation has anchors to subtract."""
    rng = np.random.default_rng(seed)
    dist = DiscreteDistribution(np.arange(support, dtype=float)[:, None], np.full(support, 1.0 / support))
    bases = rng.normal(size=(2, support)) * np.array([[0.3], [3.0]])
    members = {"zero": np.zeros(support)}
    for i in range(1, size):
        f = bases[i % 2] * (1.0 + 0.2 * i) + 0.05 * rng.normal(size=support)
        members[f"m{i}"] = f - f.mean()
    return FunctionFamily(dist, members, norm_context)


def _recentered(h, p):
    """The row h minus its p-weighted mean, as the family's difference helper
    forms it: a (1, support) array."""
    h = h[None, :]
    return h - (h * p).sum(axis=1)[:, None]


@pytest.mark.parametrize("norm_context", ["cgf", make_generator("bernstein", L=1.0)])
def test_deflate_at_k0_reuses_every_family_norm(monkeypatch, norm_context):
    fam = _random_family(3, size=14, norm_context=norm_context)  # k = 2 gives anchors besides 0
    p = fam.distribution.probabilities
    name = "cgf_functional_norm" if norm_context == "cgf" else "orlicz_norm"
    original = getattr(chaining, name)
    normed = []
    monkeypatch.setattr(chaining, name, lambda *a: normed.extend(row.tobytes() for row in a[1]) or original(*a))
    deflated = deflate(fam, build_deflation(fam, 0))
    assert normed == []  # every deflated distance is a family distance
    assert np.array_equal(deflated.dist, fam.distances)

    def fresh(h):
        args = () if norm_context == "cgf" else (norm_context,)
        return float(original(fam.distribution, _recentered(h, p), *args)[0])

    for k in (1, 2):
        plan = build_deflation(fam, k)
        before = len(normed)
        deflated = deflate(fam, plan)
        anchor = [plan.assignment[deflated.member_map.index(a)] for a in range(deflated.size)]
        want = []
        for a in range(deflated.size):
            for b in range(a + 1, deflated.size):
                h = deflated.values[a] - deflated.values[b]
                if anchor[a] != anchor[b] and a != 0:  # row 0 is the zero row
                    want.append(_recentered(h, p).tobytes())
                assert deflated.dist[a, b] == pytest.approx(fresh(h), rel=1e-12, abs=0.0)
        # only pairs with different anchors and no zero row reach the norm
        assert normed[before:] == want
        seen = len(normed)
        assert deflate(fam, build_deflation(fam, k)) is deflated  # a repeated plan is a cache hit...
        assert len(normed) == seen  # ...with no norm call
    assert len(normed) > 0


def test_member_distance_is_the_norm_of_the_recentered_difference():
    a = np.array([1.0, -1.0, 0.5, -0.5])
    b = a + 1e-8 * np.array([1.0, 0.0, 0.0, -1.0])
    fam = FunctionFamily(UNIFORM4, {"zero": np.zeros(4), "a": a, "b": b})
    assert fam.distances[1, 2] == float(cgf_functional_norm(UNIFORM4, _recentered(a - b, UNIFORM4.probabilities))[0])
    assert fam.distances[1, 2] == pytest.approx(math.sqrt(5e-17), rel=1e-9)  # the variance limit


def test_extremal_pair_matches_class_wr_and_per_pair_loop():
    fam = _random_family(6)
    for r in (0.05, 0.5, 5.0):
        i, j, val = extremal_difference(fam, r)
        assert val == class_wr(fam, r)
        best, pair = -1.0, None
        for a in range(fam.size):
            for b in range(fam.size):
                d = fam.distances[a, b]
                if a == b or d == 0.0:
                    continue
                h = ((fam.values[a] - fam.values[b]) / d)[None, :]
                h = h - (h * fam.distribution.probabilities).sum(axis=1)[:, None]
                t = rate_bound_T(fam.distribution, h[0], r)[0]
                if t > best:
                    best, pair = t, (a, b)
        assert (i, j) == pair
        assert val == best


def test_extremal_ties_break_to_the_first_pair(monkeypatch):
    fam = _random_family(7)
    monkeypatch.setattr(chaining, "rate_bound_T", lambda dist, rows, r: (np.ones(len(rows)), np.ones(len(rows))))
    assert extremal_difference(fam, 0.2) == (0, 1, 1.0)
    assert class_wr(fam, 0.2) == 1.0
