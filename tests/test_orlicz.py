"""Orlicz norms, generator registry, and the two w_r bounds.

Derived values are checked against test-local oracles that share no code
with the implementation: trapezoid quadrature on dense grids for integrals
and a doubling-plus-zoom maximizer for convex conjugates.
"""

import decimal
import math
import warnings

import numpy as np
import pytest

import tailbound.orlicz as orlicz
from tailbound.cgf import DiscreteDistribution
from oracles import benchmark_families, first_power_of_two_loop, grid_min, maximize_on_interval
from tailbound.numerics import LAMBDA_GRID, NumericError, false_position
from tailbound.orlicz import (
    BENNETT_T_CAP,
    DECAY_T_CAP,
    EXP_TRUNCATION,
    MOMENT_T_CAP,
    OrliczGenerator,
    UnsupportedGeneratorError,
    _bennett_phi,
    _first_power_of_two,
    _quadrature_moments,
    bernstein_phi_star,
    conversion_factor_M,
    exp_moment_integral,
    make_generator,
    orlicz_norm,
    wr_exponential_type,
    wr_quadrature_bound,
)


# ---------------------------------------------------------------------------
# oracles


def conjugate_oracle(phi, lam: float) -> float:
    """sup_{t >= 0} lam*t - phi(t), by doubling past the peak then grid_min."""
    h = lambda t: lam * t - float(phi(t))
    t_hi = 1.0
    while h(t_hi) >= h(t_hi / 2.0):
        t_hi *= 2.0
        if t_hi > 1e14:
            raise AssertionError("conjugate oracle found no peak")
    _, val = maximize_on_interval(h, 0.0, t_hi)
    return max(val, 0.0)


def trapezoid_moment_oracle(gen: OrliczGenerator, points: int = 1_000_001) -> float:
    """int_0^inf t e^{-phi(t)/2} dt on a dense uniform grid."""
    t_hi = 1.0
    while float(gen.phi(t_hi)) / 2.0 - math.log(t_hi) < 60.0:
        t_hi *= 2.0
    ts = np.linspace(0.0, t_hi, points)
    return float(np.trapezoid(ts * np.exp(-np.asarray(gen.phi(ts)) / 2.0), ts))


def _trapezoid_objective(gen: OrliczGenerator, r: float, lam: float, points: int) -> float:
    g = lambda t: float(gen.phi(t)) - lam * t
    t_hi = 1.0
    while g(t_hi) < 45.0:
        t_hi *= 2.0
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 45.0:
            lo = mid
        else:
            hi = mid
    ts = np.linspace(0.0, hi, points)
    phis = np.asarray(gen.phi(ts), dtype=float)
    expo = lam * ts - phis
    shift = max(0.0, float(expo.max()))
    integrand = 2.0 * lam * (np.exp(expo - shift) - np.exp(-phis - shift))
    log_integral = shift + math.log(float(np.trapezoid(integrand, ts)))
    return (r + float(np.logaddexp(0.0, log_integral))) / lam


def trapezoid_wr_oracle(gen: OrliczGenerator, r: float) -> float:
    """Grid minimization of the quadrature objective, trapezoid inner integral.

    Three zoom stages end at a relative lambda spacing around 1e-5; the final
    value is re-evaluated with 10^6 + 1 trapezoid points.
    """
    lam_hi = gen.lambda_sup * (1.0 - 1e-6) if math.isfinite(gen.lambda_sup) else 64.0
    lams = np.geomspace(1e-3, lam_hi, 160)
    for stage in range(3):
        vals = [_trapezoid_objective(gen, r, lam, 300_001) for lam in lams]
        i = int(np.argmin(vals))
        lo = lams[max(i - 1, 0)]
        hi = lams[min(i + 1, len(lams) - 1)]
        lams = np.linspace(lo, hi, 160)
    return _trapezoid_objective(gen, r, lams[int(np.argmin(vals))], 1_000_001)


CUSTOM_T = [0.5, 1.0, 2.0, 4.0, 8.0]
CUSTOM_PHI = [0.25, 1.0, 4.0, 16.0, 64.0]


def subgaussian_inner_integral(lam: float) -> float:
    """I(lam) = lam sqrt(pi) (e^{lam^2/4} (1 + erf(lam/2)) - 1) for phi = t^2."""
    return lam * math.sqrt(math.pi) * (math.expm1(lam * lam / 4.0) + math.exp(lam * lam / 4.0) * math.erf(lam / 2.0))


def subexponential_inner_integral(lam: float) -> float:
    """I(lam) = 2 lam^2 / (1 - lam) for phi = t, lam < 1."""
    return 2.0 * lam * lam / (1.0 - lam)


def custom_pieces():
    """(t0, t1, c, s) per linear piece phi = c + s t of the CUSTOM table on
    [t0, t1], the last piece extending to infinity."""
    tk = [0.0] + CUSTOM_T
    pk = [0.0] + CUSTOM_PHI
    slopes = [(pk[i + 1] - pk[i]) / (tk[i + 1] - tk[i]) for i in range(len(CUSTOM_T))]
    return [(tk[i], (tk + [math.inf])[i + 1], pk[i] - s * tk[i], s) for i, s in enumerate(slopes + slopes[-1:])]


def custom_inner_integral(lam: float) -> float:
    """I(lam) for the CUSTOM table, summed piece by piece in closed form:
    int e^{k t - c - s t} dt = e^{(k - s) t - c} / (k - s), for k = lam and 0."""
    def prim(t, k, c, s):
        return 0.0 if t == math.inf else math.exp((k - s) * t - c) / (k - s)

    total = sum(prim(b, lam, c, s) - prim(a, lam, c, s) - prim(b, 0.0, c, s) + prim(a, 0.0, c, s)
                for a, b, c, s in custom_pieces())
    return 2.0 * lam * total


def grid_wr_reference(inner, r: float, lam_hi: float) -> float:
    """Minimum of (r + log(1 + I(lam)))/lam on a dense grid zoomed in four
    stages, from I in closed form."""
    objective = np.vectorize(lambda lam: (r + math.log1p(inner(lam))) / lam)
    lams = np.geomspace(1e-5, lam_hi, 2001)
    for _ in range(4):
        i = int(np.argmin(objective(lams)))
        lams = np.linspace(lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)], 2001)
    return float(objective(lams).min())


CLOSED_FORMS = [
    (make_generator("sub-gaussian"), subgaussian_inner_integral, 20.0),
    (make_generator("sub-exponential"), subexponential_inner_integral, 1.0 - 1e-9),
    (make_generator("custom", t=CUSTOM_T, phi=CUSTOM_PHI), custom_inner_integral, 12.0 - 1e-9),
]


def bernstein_m_floor(L: float) -> float:
    """Closed-form Bernstein conversion factor (1/4)/I(L), where
    I(L) = L^2 + (3/2) sqrt(pi/2) L + 1 is the moment integral."""
    return 1.0 / (4.0 * L * L + 3.0 * math.sqrt(2.0 * math.pi) * L + 4.0)


# ---------------------------------------------------------------------------
# generator registry

ALL_KINDS = [
    make_generator("sub-gaussian"),
    make_generator("sub-exponential"),
    make_generator("bernstein", L=0.7),
    make_generator("bennett", L=1.3),
    make_generator("power", p=2.5),
    make_generator("custom", t=[0.5, 1.0, 2.0, 4.0, 8.0], phi=[0.25, 1.0, 4.0, 16.0, 64.0]),
]


# the nine generators tools/compare_outputs.py runs wr-quad and wr-exp on
COMPARED_GENERATORS = [
    make_generator("sub-gaussian"),
    make_generator("sub-exponential"),
    *(make_generator("bernstein", L=L) for L in (0.1, 1.0, 10.0)),
    *(make_generator("bennett", L=L) for L in (0.1, 1.0, 10.0)),
    make_generator("custom", t=[0.5, 1.0, 2.0, 4.0], phi=[0.25, 0.75, 2.0, 5.0]),
]


@pytest.mark.parametrize("gen", ALL_KINDS, ids=lambda g: g.kind)
def test_generator_shape(gen):
    ts = np.concatenate(([0.0], np.logspace(-3, 1.5, 41)))
    phis = np.asarray(gen.phi(ts), dtype=float)
    assert phis[0] == 0.0
    assert np.all(np.diff(phis) > 0.0)
    # phi convex for exponential-type kinds; psi convex always
    if gen.exponential_type:
        mid = np.asarray(gen.phi((ts[:-2] + ts[2:]) / 2.0))
        assert np.all(mid <= (phis[:-2] + phis[2:]) / 2.0 + 1e-9)
    # smaller top for psi = e^phi - 1, which overflows where phi > 700
    us = np.concatenate(([0.0], np.logspace(-3, 1.2, 41)))
    psis = np.asarray(gen.psi(us), dtype=float)
    assert psis[0] == 0.0
    assert np.all(np.diff(psis) > 0.0)
    mid_psi = np.asarray(gen.psi((us[:-2] + us[2:]) / 2.0))
    assert np.all(mid_psi <= (psis[:-2] + psis[2:]) / 2.0 + 1e-9)


@pytest.mark.parametrize("gen", ALL_KINDS, ids=lambda g: g.kind)
def test_generator_inverse_roundtrip(gen):
    ts = np.logspace(-3, 1.5, 41)
    back = np.asarray(gen.phi_inverse(np.asarray(gen.phi(ts))), dtype=float)
    assert back == pytest.approx(ts, rel=1e-8)


def test_bennett_inverse_batch_matches_scalar():
    # the batched root finder gives each value the root it gets alone
    gen = make_generator("bennett", L=1.3)
    ys = np.array([0.0, 1e-9, 0.3, 7.0, 450.0, -1.0])
    got = gen.phi_inverse(ys)
    assert list(got) == [gen.phi_inverse(float(y)) for y in ys]
    assert got[0] == got[-1] == 0.0
    assert np.asarray(gen.phi(got[1:-1])) == pytest.approx(ys[1:-1], rel=1e-10)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_bennett_inverse_is_not_below_the_true_inverse(L):
    # the root finder keeps the upper end of its bracket, so phi(phi^-1(y)) >= y
    # and the closed-form bound wr-exp stays an upper bound for Bennett
    gen = make_generator("bennett", L=L)
    ys = np.geomspace(1e-6, 1e6, 2001)
    assert np.all(np.asarray(gen.phi(gen.phi_inverse(ys))) >= ys)


def test_make_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_generator("bernstein")
    with pytest.raises(ValueError):
        make_generator("bernstein", L=-1.0)
    with pytest.raises(ValueError):
        make_generator("bennett", L=0.0)
    with pytest.raises(ValueError):
        make_generator("power", p=0.5)
    with pytest.raises(ValueError):
        make_generator("gumbel")
    with pytest.raises(ValueError):
        make_generator("custom", t=[1.0, 2.0], phi=[1.0])
    with pytest.raises(ValueError):
        make_generator("custom", t=[0.0, 1.0], phi=[0.5, 1.0])
    with pytest.raises(ValueError):
        make_generator("custom", t=[1.0, 2.0], phi=[1.0, 0.5])
    with pytest.raises(ValueError):
        # slopes 2 then 0.5: concave table
        make_generator("custom", t=[1.0, 2.0, 4.0], phi=[2.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="requires tabulated t and phi"):
        make_generator("custom")
    # slopes past the float range: about 1e310 then 1e8 (concave), and 1e600
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t, phi in (([1e-320, 1.0], [1e-10, 1e8]), ([1e-300, 1.0], [1e300, 1e301])):
            with pytest.raises(ValueError, match="slopes must be finite"):
                make_generator("custom", t=t, phi=phi)


def test_custom_generator_linear_table():
    gen = make_generator("custom", t=[1.0, 2.0], phi=[1.0, 2.0])
    assert gen.lambda_sup == 1.0
    assert float(gen.phi(5.0)) == pytest.approx(5.0, rel=1e-12)
    # phi* is 0 below the first slope, so the conversion factor is 0
    assert conversion_factor_M(gen) == 0.0


# ---------------------------------------------------------------------------
# orlicz_norm

TWO_POINT = DiscreteDistribution(support=[[0.0], [1.0]], probabilities=[0.5, 0.5])


def test_norm_constant_unit_subgaussian():
    got = orlicz_norm(TWO_POINT, [1.0, 1.0], make_generator("sub-gaussian"))
    assert got == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-9)


def test_norm_rademacher_equals_constant_case():
    # |Y| is constant 1 either way
    gen = make_generator("sub-gaussian")
    sym = orlicz_norm(TWO_POINT, [-1.0, 1.0], gen)
    const = orlicz_norm(TWO_POINT, [1.0, 1.0], gen)
    assert sym == pytest.approx(const, rel=1e-12)


def test_norm_zero_function():
    got = orlicz_norm(TWO_POINT, [0.0, 0.0], make_generator("bernstein", L=2.0))
    assert got == 0.0


def test_norm_ignores_zero_probability_atoms():
    dist = DiscreteDistribution(support=[[0.0], [1.0], [2.0]], probabilities=[0.5, 0.5, 0.0])
    got = orlicz_norm(dist, [0.0, 0.0, 1e6], make_generator("sub-gaussian"))
    assert got == 0.0


def test_norm_length_mismatch():
    with pytest.raises(ValueError):
        orlicz_norm(TWO_POINT, [1.0], make_generator("sub-gaussian"))


def _random_case(rng, m):
    support = np.arange(m, dtype=float).reshape(-1, 1)
    w = rng.random(m) + 0.1
    dist = DiscreteDistribution(support=support, probabilities=w / w.sum())
    f = rng.normal(size=m) * float(rng.choice([0.2, 1.0, 7.0]))
    return dist, f


@pytest.mark.parametrize(
    "gen",
    [make_generator("sub-gaussian"), make_generator("bernstein", L=1.0), make_generator("power", p=3.0)],
    ids=lambda g: g.kind,
)
def test_norm_definition_postconditions(gen):
    rng = np.random.default_rng(11)
    for _ in range(20):
        dist, f = _random_case(rng, int(rng.integers(2, 7)))
        value = orlicz_norm(dist, f, gen)
        probs = dist.probabilities
        absf = np.abs(f)
        assert float(probs @ gen.psi(absf / value)) <= 1.0 + 1e-9
        assert float(probs @ gen.psi(absf / (value * (1.0 - 1e-8)))) > 1.0


def test_norm_homogeneity():
    rng = np.random.default_rng(12)
    gen = make_generator("bernstein", L=0.5)
    for _ in range(20):
        dist, f = _random_case(rng, 5)
        c = float(rng.choice([0.03, 0.9, 2.7, 41.0]))
        base = orlicz_norm(dist, f, gen)
        scaled = orlicz_norm(dist, c * f, gen)
        assert scaled == pytest.approx(c * base, rel=1e-8)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(13)
    for gen in (make_generator("sub-gaussian"), make_generator("power", p=2.0)):
        for _ in range(20):
            dist, f = _random_case(rng, 6)
            g = rng.normal(size=6)
            nf = orlicz_norm(dist, f, gen)
            ng = orlicz_norm(dist, g, gen)
            nfg = orlicz_norm(dist, f + g, gen)
            assert nfg <= nf + ng + 1e-8


@pytest.mark.parametrize(
    "gen",
    [make_generator("sub-gaussian"), make_generator("sub-exponential"), make_generator("bernstein", L=1.0),
     make_generator("bennett", L=10.0), make_generator("power", p=2.0)],
    ids=lambda g: g.kind,
)
def test_norm_rows_match_one_row_at_a_time(gen):
    rng = np.random.default_rng(14)
    dist, _ = _random_case(rng, 6)
    base = rng.normal(size=(4, 6))
    signs = np.where(rng.random((2, 6)) < 0.5, -1.0, 1.0)
    rows = np.vstack([base * 1e-300, base, base * 1e6, signs * 1e308, np.zeros((1, 6))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norms = orlicz_norm(dist, rows, gen)
        assert norms.tolist() == [orlicz_norm(dist, row, gen) for row in rows]  # bit for bit
    assert np.all(np.isfinite(norms)) and norms[-1] == 0.0 and np.all(norms[:-1] > 0.0)
    assert orlicz_norm(dist, rows[:1], gen).shape == (1,)


def test_bernstein_phi_is_finite_where_2Lt_overflows():
    # phi(t) = (sqrt(1 + 2Lt) - 1)^2 / L^2 ~ 2t/L once Lt is large
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert float(orlicz._bernstein_phi(8e299, 1e300)) == pytest.approx(1.6, rel=1e-12)


# ---------------------------------------------------------------------------
# conjugates


def test_bernstein_conjugate_piecewise_values():
    assert bernstein_phi_star(0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="L must be positive"):
        bernstein_phi_star(1.0, 0.0)
    assert bernstein_phi_star(-0.5, 1.0) == 0.0
    assert bernstein_phi_star(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert bernstein_phi_star(3.0, 1.0) == math.inf
    assert bernstein_phi_star(2.0, 1.0) == math.inf
    assert bernstein_phi_star(19.9, 0.1) == pytest.approx(
        19.9**2 / (4.0 * (1.0 - 0.1 * 19.9 / 2.0)), rel=1e-12
    )


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_bernstein_conjugate_matches_numerical_sup(L):
    gen = make_generator("bernstein", L=L)
    for lam in np.linspace(0.0, 2.0 / L - 0.01, 25):
        want = conjugate_oracle(gen.phi, float(lam))
        assert bernstein_phi_star(float(lam), L) == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# quadrature bound on w_r


def test_wr_quadrature_zero_rate():
    assert wr_quadrature_bound(make_generator("sub-gaussian"), 0.0) == 0.0


def test_wr_quadrature_vanishes_with_rate():
    gen = make_generator("sub-gaussian")
    assert wr_quadrature_bound(gen, 1e-6) <= 3.0 * math.sqrt(12e-6)


def test_wr_quadrature_subgaussian_below_closed_form():
    assert wr_quadrature_bound(make_generator("sub-gaussian"), 1.0) <= math.sqrt(12.0) + 1e-9


def test_wr_quadrature_monotone_in_r():
    gen = make_generator("bernstein", L=1.0)
    vals = [wr_quadrature_bound(gen, r) for r in (0.05, 0.3, 1.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_wr_quadrature_rejects_bad_inputs():
    with pytest.raises(UnsupportedGeneratorError):
        wr_quadrature_bound(make_generator("power", p=2.0), 1.0)
    with pytest.raises(ValueError):
        wr_quadrature_bound(make_generator("sub-gaussian"), -0.5)


def test_wr_quadrature_bernstein_against_trapezoid_oracle():
    gen = make_generator("bernstein", L=1.0)
    got = wr_quadrature_bound(gen, 1.0)
    want = trapezoid_wr_oracle(gen, 1.0)
    assert got == pytest.approx(want, abs=1e-6)
    assert got <= wr_exponential_type(gen, bernstein_m_floor(1.0), 1.0) + 1e-6


@pytest.mark.parametrize("gen,inner,lam_hi", CLOSED_FORMS, ids=[g.kind for g, _, _ in CLOSED_FORMS])
def test_inner_integral_matches_closed_form(gen, inner, lam_hi):
    lams = np.geomspace(1e-3, 0.99 * lam_hi if lam_hi < 2.0 else 8.0, 40)
    want = np.log1p([inner(lam) for lam in lams])
    assert _quadrature_moments(gen, lams)[0] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("gen,inner,lam_hi", CLOSED_FORMS, ids=[g.kind for g, _, _ in CLOSED_FORMS])
@pytest.mark.parametrize("r", [1e-6, 0.05, 1.0, 10.0])
def test_wr_quadrature_matches_closed_form_minimum(gen, inner, lam_hi, r):
    assert wr_quadrature_bound(gen, r) == pytest.approx(grid_wr_reference(inner, r, lam_hi), rel=1e-10)


# ---------------------------------------------------------------------------
# solver budgets: each test counts calls and times nothing

BENCH_GENERATORS = [
    make_generator("sub-gaussian"),
    make_generator("sub-exponential"),
    *(make_generator("bernstein", L=L) for L in (0.1, 1.0, 10.0)),
    make_generator("bennett", L=1.0),
]


@pytest.mark.parametrize("gen", BENCH_GENERATORS, ids=[f"{g.kind}{i}" for i, g in enumerate(BENCH_GENERATORS)])
@pytest.mark.parametrize("r", [0.05, 1.0, 10.0])
def test_wr_quadrature_budget_and_grid_zoom_agreement(monkeypatch, gen, r):
    # one call of the kernel on the whole lambda grid, then at most 10 at one
    # lambda each (Newton steps and the final value); the value is within
    # 1e-12 of grid-and-zoom over the same objective, the search it replaced
    kernel, sizes = _quadrature_moments, []

    def counted(g, lam):
        sizes.append(lam.size)
        return kernel(g, lam)

    monkeypatch.setattr(orlicz, "_quadrature_moments", counted)
    got = wr_quadrature_bound(gen, r)
    assert sizes[0] == LAMBDA_GRID.size and 1 <= len(sizes) - 1 <= 10 and set(sizes[1:]) == {1}
    _, want = grid_min(lambda lam: (r + kernel(gen, lam)[0]) / lam, LAMBDA_GRID)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gen", [make_generator("bennett", L=1e-3), make_generator("sub-exponential"),
                                 make_generator("bernstein", L=0.1)], ids=lambda g: g.kind)
def test_wr_quadrature_past_the_decay_cap(gen):
    # at r = 1e300 the root lies past the lambda where the integrand stops
    # decaying by DECAY_T_CAP, so g jumps to +inf inside the Newton bracket;
    # the value is still no worse than grid-and-zoom over the same objective
    # (for Bennett at L = 1e-3 it was the grid value, 63% above, while the
    # last probe could land past the jump)
    with np.errstate(over="ignore"):  # 1e300 / lambda overflows at the grid's smallest lambda
        want = grid_min(lambda lam: (1e300 + _quadrature_moments(gen, lam)[0]) / lam, LAMBDA_GRID)[1]
    assert wr_quadrature_bound(gen, 1e300) <= want * (1.0 + 1e-12)


def _solves(monkeypatch):
    """Record (rel_tol, calls of g) for each false_position call of orlicz."""
    solves = []

    def counted(g, lo, hi, target, rel_tol=1e-12):
        calls = [0]

        def g_counted(x):
            calls[0] += 1
            return g(x)

        out = false_position(g_counted, lo, hi, target, rel_tol)
        solves.append((rel_tol, calls[0]))
        return out

    monkeypatch.setattr(orlicz, "false_position", counted)
    return solves


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("gen", [make_generator("bernstein", L=1.0), make_generator("bennett", L=1.0),
                                 make_generator("sub-gaussian")], ids=lambda g: g.kind)
def test_orlicz_norm_budget(monkeypatch, seed, gen):
    # every member and member difference of the benchmark's orlicz family:
    # the norm's own solve (at rel_tol 1e-10; Bennett's psi inverse makes
    # others) takes at most 20 calls of g, the two bracket checks included
    solves = _solves(monkeypatch)
    dist, functions = benchmark_families(seed)[1]
    values = np.array(list(functions.values()))
    rows = [*values[1:], *(values[i] - values[j] for i in range(len(values)) for j in range(i))]
    for h in rows:
        solves.clear()
        orlicz_norm(dist, h, gen)
        assert [n for tol, n in solves if tol == 1e-10] and all(n <= 20 for tol, n in solves if tol == 1e-10)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_bennett_inverse_budget(monkeypatch, L):
    # 50 values in one lockstep solve: at most 25 calls of phi, and phi at
    # each returned t is at least its y
    solves = _solves(monkeypatch)
    ys = np.geomspace(1e-6, 1e6, 50)
    t = orlicz._bennett_phi_inverse(ys, L)
    assert len(solves) == 1 and solves[0][1] <= 25
    assert np.all(_bennett_phi(t, L) >= ys)


def _one_pass(g_row, level, cap):
    """_first_power_of_two with every numpy warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _first_power_of_two(g_row, level, cap)


TRUNCATION_GENERATORS = [
    make_generator("sub-gaussian"),
    make_generator("sub-exponential"),
    *(make_generator("bernstein", L=L) for L in (0.1, 1.0, 10.0)),
    *(make_generator("bennett", L=L) for L in (0.1, 1.0, 10.0)),
    make_generator("custom", t=[0.5, 1.0, 2.0, 4.0], phi=[0.25, 0.75, 2.0, 5.0]),
]


@pytest.mark.parametrize("gen", TRUNCATION_GENERATORS, ids=[f"{g.kind}{i}" for i, g in enumerate(TRUNCATION_GENERATORS)])
def test_truncation_search_is_the_doubling_loop_bit_for_bit(gen):
    # t_max of the quadrature at random lambdas up to the edge of the decay
    # range, where the integrand decays too slowly and the result is +inf,
    # and at random levels besides the truncation level
    rng = np.random.default_rng(13)
    top = min(gen.lambda_sup, 64.0)
    lam = np.concatenate([rng.uniform(0.0, top, 300), top * (1.0 - np.geomspace(1e-16, 1e-3, 20))])
    for level in (np.full(lam.size, EXP_TRUNCATION), rng.uniform(-5.0, 200.0, lam.size)):
        got = _one_pass(lambda t: gen.phi(t) - lam[:, None] * t, level, DECAY_T_CAP)
        want = first_power_of_two_loop(lambda t: gen.phi(t) - lam * t, level, DECAY_T_CAP)
        assert np.array_equal(got, want)
    level = np.array([EXP_TRUNCATION + 5.0, 0.0, 1e3, math.inf])
    got = _one_pass(lambda t: gen.phi(t) / 2.0 - np.log(t), level, MOMENT_T_CAP)
    assert np.array_equal(got, first_power_of_two_loop(lambda t: gen.phi(t) / 2.0 - np.log(t), level, MOMENT_T_CAP))
    assert got[-1] == math.inf


@pytest.mark.parametrize("L", [1e-3, 1.0, 1e3, 1e10])
def test_bennett_bracket_is_the_doubling_loop_up_to_its_cap(L):
    # levels from 1e-300 to 1e308 and +inf, which no power reaches; at
    # L = 1e10, L t overflows well before the cap
    level = np.concatenate([np.geomspace(1e-300, 1e300, 601), [1e308, math.inf]])
    got = _one_pass(lambda t: _bennett_phi(t, L), level, BENNETT_T_CAP)
    with np.errstate(over="ignore", invalid="ignore"):
        want = first_power_of_two_loop(lambda t: _bennett_phi(t, L), level, BENNETT_T_CAP)
    assert np.array_equal(got, want)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = lambda t: _bennett_phi(t, L)
        found = np.isfinite(got)
        assert np.all(phi(got[found]) >= level[found]) and np.all(got[found] <= BENNETT_T_CAP)
        assert np.all((got[found] == 1.0) | (phi(got[found] / 2.0) < level[found]))  # the first power that passes
        assert np.all(level[~found] > phi(BENNETT_T_CAP))  # +inf only past the cap's value
    # phi is finite at the cap, also at L = 1e10 where L t overflows, so no power reaches +inf
    assert np.isfinite(phi(BENNETT_T_CAP)) and not found[-1]


# ---------------------------------------------------------------------------
# moment integral and conversion factor


def test_moment_integral_subgaussian_exact():
    # int_0^inf t e^{-t^2/2} dt = 1
    assert exp_moment_integral(make_generator("sub-gaussian")) == pytest.approx(1.0, rel=1e-7)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_moment_integral_bernstein_closed_form(L):
    # I(L) = L^2 + (3/2) sqrt(pi/2) L + 1 (README, "Bernstein closed forms"),
    # rounded up by the rule's 1e-12 margin and never below it
    want = L * L + 1.5 * math.sqrt(math.pi / 2.0) * L + 1.0
    got = exp_moment_integral(make_generator("bernstein", L=L))
    assert want <= got == pytest.approx(want, rel=1e-11)


def test_moment_integral_custom_table_kinks():
    # int t e^{-(c + s t)/2} dt = -e^{-c/2} (2t/s + 4/s^2) e^{-s t/2}, piece by piece
    def prim(t, c, s):
        return 0.0 if t == math.inf else -math.exp(-c / 2.0) * (2.0 * t / s + 4.0 / (s * s)) * math.exp(-s * t / 2.0)

    want = sum(prim(b, c, s) - prim(a, c, s) for a, b, c, s in custom_pieces())
    got = exp_moment_integral(make_generator("custom", t=CUSTOM_T, phi=CUSTOM_PHI))
    assert want <= got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("L", [0.25, 1.0, 10.0])
def test_moment_integral_bernstein_against_trapezoid(L):
    gen = make_generator("bernstein", L=L)
    assert exp_moment_integral(gen) == pytest.approx(trapezoid_moment_oracle(gen), rel=1e-6)


def test_moment_integral_rejects_power():
    with pytest.raises(UnsupportedGeneratorError):
        exp_moment_integral(make_generator("power", p=2.0))


def test_moment_integral_numeric_failures():
    # a valid generator whose integrand has not decayed by MOMENT_T_CAP, and
    # one whose integral is NaN, are numeric failures, not invalid input
    with pytest.raises(NumericError, match="truncation point not found"):
        exp_moment_integral(make_generator("bennett", L=1e30))
    gen = OrliczGenerator("nan", phi=lambda t: np.full(np.shape(t), math.nan), phi_inverse=np.sqrt, lambda_sup=1.0)
    with pytest.raises(NumericError, match="not finite and positive"):
        exp_moment_integral(gen)


def test_conversion_factor_subgaussian():
    assert conversion_factor_M(make_generator("sub-gaussian")) == pytest.approx(0.25, rel=1e-9)


def test_conversion_factor_subexponential_degenerate():
    # conjugate vanishes on (0, 1], so the infimum ratio is 0
    assert conversion_factor_M(make_generator("sub-exponential")) == 0.0


@pytest.mark.parametrize("L", [0.25, 1.0, 10.0])
def test_conversion_factor_bernstein_is_quarter_over_moment(L):
    # the ratio (e^{phi*} - 1)/lambda^2 increases from 1/4 at lambda -> 0
    gen = make_generator("bernstein", L=L)
    want = 0.25 / trapezoid_moment_oracle(gen)
    assert conversion_factor_M(gen) == pytest.approx(want, rel=1e-6)


def test_conversion_factor_bernstein_unit_pin():
    # the closed form 1/(4 L^2 + 3 sqrt(2 pi) L + 4) at L = 1 (README,
    # "Bernstein closed forms"); the ratio's lambda -> 0 limit, not its value
    # at lambda = 1e-8, which sat 5e-9 above it
    assert conversion_factor_M(make_generator("bernstein", L=1.0)) == pytest.approx(
        0.06443346786056628, rel=1e-9
    )


def test_conversion_factor_bernstein_large_L_not_above_closed_form():
    L = 10.0
    assert conversion_factor_M(make_generator("bernstein", L=L)) <= 1.0 / (
        4.0 * L * L + 3.0 * math.sqrt(2.0 * math.pi) * L + 4.0
    )


@pytest.mark.parametrize("kind,L", [("sub-gaussian", None), ("bernstein", 0.1), ("bennett", 1.0)])
def test_conversion_factor_uses_the_exact_small_lambda_limit(kind, L):
    # the ratio increases in lambda, so the infimum is the limit 1/4 exactly
    gen = make_generator(kind, L=L)
    assert conversion_factor_M(gen) == 0.25 / exp_moment_integral(gen)


@pytest.mark.parametrize("t,phi", [([1.0, 2.0], [1e-13, 1.0]), ([1e6, 2e6], [1e-9, 1.0])])
def test_conversion_factor_of_a_table_flat_below_the_lambda_grid_is_zero(t, phi):
    # first slopes 1e-13 and 1e-15 lie below LAMBDA_GRID[0] = 2^-40; phi* is
    # 0 on (0, s_1] all the same, so the infimum ratio is 0
    assert conversion_factor_M(make_generator("custom", t=t, phi=phi)) == 0.0


def _bennett_phi_star_exact(lam: float, L: float) -> float:
    """The Bennett conjugate 2 expm1(lam L/2)/L^2 - lam/L, in 60-digit decimal
    arithmetic: in floats its two terms cancel to ~4 eps/(lam L) relative."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam_d, L_d = decimal.Decimal(lam), decimal.Decimal(L)
        return float(2 * ((lam_d * L_d / 2).exp() - 1) / (L_d * L_d) - lam_d / L_d)


LEMMA_L = (1e-3, 0.1, 1.0, 10.0, 1e3)
LEMMA_CONJUGATES = [
    pytest.param(make_generator("sub-gaussian"), lambda lam: lam * lam / 4.0, id="sub-gaussian"),
    *(pytest.param(make_generator("bernstein", L=L), lambda lam, L=L: bernstein_phi_star(lam, L), id=f"bernstein-{L}")
      for L in LEMMA_L),
    *(pytest.param(make_generator("bennett", L=L), lambda lam, L=L: _bennett_phi_star_exact(lam, L), id=f"bennett-{L}")
      for L in LEMMA_L),
]


@pytest.mark.parametrize("gen,phi_star", LEMMA_CONJUGATES)
def test_conversion_ratio_rises_from_its_small_lambda_limit(gen, phi_star):
    # the lemma behind conversion_factor_M: (e^{phi*} - 1)/lambda^2 is 1/4
    # plus a power series in lambda with nonnegative coefficients, so it
    # never falls below phi_star_limit and does not decrease
    top = gen.lambda_sup * (1.0 - 1e-9) if math.isfinite(gen.lambda_sup) else 1e3
    lams = np.geomspace(1e-6, top, 400)
    with np.errstate(over="ignore"):
        ratio = np.array([np.expm1(phi_star(float(lam))) for lam in lams]) / lams**2
    assert gen.phi_star_limit == 0.25
    assert np.all(ratio >= gen.phi_star_limit)
    assert np.all(ratio[1:] >= ratio[:-1] * (1.0 - 1e-12))


@pytest.mark.parametrize(
    "gen,s1",
    [
        (make_generator("sub-exponential"), 1.0),
        (make_generator("custom", t=[0.5, 1.0, 2.0, 4.0], phi=[0.25, 0.75, 2.0, 5.0]), 0.5),
        (make_generator("custom", t=[1.0, 2.0], phi=[1e-13, 1.0]), 1e-13),
    ],
    ids=["sub-exponential", "custom", "custom-flat"],
)
def test_conjugate_vanishes_below_the_first_slope(gen, s1):
    # the other half of the lemma: phi* = 0 on (0, s_1], s_1 being phi's
    # first slope, where the ratio is 0 = phi_star_limit. Sub-exponential
    # stops short of s_1 = 1, where lam t - phi(t) is 0 for every t and the
    # oracle finds no peak
    lams = s1 * np.geomspace(1e-6, 1.0, 25)
    if gen.kind == "sub-exponential":
        lams = lams[:-1]
    assert gen.phi_star_limit == 0.0
    assert [conjugate_oracle(gen.phi, float(lam)) for lam in lams] == [0.0] * lams.size


@pytest.mark.parametrize("gen", COMPARED_GENERATORS, ids=lambda g: g.kind)
def test_conversion_factor_is_the_limit_over_the_moment_integral(gen):
    assert conversion_factor_M(gen) == gen.phi_star_limit / exp_moment_integral(gen)


def test_conversion_factor_bennett_positive():
    m = conversion_factor_M(make_generator("bennett", L=1.0))
    assert 0.0 < m < 1.0


def test_conversion_factor_rejects_power():
    with pytest.raises(UnsupportedGeneratorError):
        conversion_factor_M(make_generator("power", p=2.0))


# ---------------------------------------------------------------------------
# closed-form exponential-type bound


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_wr_exponential_subgaussian_closed_form(r):
    got = wr_exponential_type(make_generator("sub-gaussian"), 0.25, r)
    assert got == pytest.approx(math.sqrt(12.0 * r), rel=1e-12)


def test_wr_exponential_zero_rate():
    assert wr_exponential_type(make_generator("bernstein", L=3.0), 0.2, 0.0) == 0.0


def test_wr_exponential_bernstein_closed_form():
    m = 1.0 / (math.sqrt(2.0 * math.pi) + 4.0)
    got = wr_exponential_type(make_generator("bernstein", L=1.0), m, 1.0)
    want = math.sqrt(math.sqrt(math.pi / 2.0) + 2.0) * (1.0 + math.sqrt(6.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_wr_exponential_rejects_nonpositive_M():
    gen = make_generator("sub-gaussian")
    with pytest.raises(ValueError):
        wr_exponential_type(gen, 0.0, 1.0)
    with pytest.raises(ValueError):
        wr_exponential_type(gen, -0.1, 1.0)
    with pytest.raises(ValueError):
        wr_exponential_type(gen, math.nan, 1.0)


@pytest.mark.parametrize(
    "gen",
    [
        pytest.param(make_generator("sub-gaussian"), id="sub-gaussian-None"),
        pytest.param(make_generator("bernstein", L=0.5), id="bernstein-0.5"),
        pytest.param(make_generator("bernstein", L=2.0), id="bernstein-2.0"),
        pytest.param(make_generator("bernstein", L=10.0), id="bernstein-10.0"),
        pytest.param(make_generator("bennett", L=1.0), id="bennett-1.0"),
    ],
)
@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_quadrature_never_exceeds_exponential_type(gen, r):
    m = conversion_factor_M(gen)
    assert wr_quadrature_bound(gen, r) <= wr_exponential_type(gen, m, r) + 1e-6


def test_bernstein_recovers_subgaussian_as_L_vanishes():
    gen = make_generator("bernstein", L=1e-4)
    ts = np.logspace(-2, 1, 30)
    assert np.asarray(gen.phi(ts)) == pytest.approx(ts**2, rel=1e-3)
    got = wr_exponential_type(gen, bernstein_m_floor(1e-4), 1.0)
    assert abs(got - math.sqrt(12.0)) / math.sqrt(12.0) < 0.02
