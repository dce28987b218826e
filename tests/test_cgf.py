import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracles import cgf_reference, check_T_properties, decimal_objective
from tailbound import DiscreteDistribution, make_generator, orlicz_norm, rate_bound_T
from tailbound.cgf import _moments

RADEMACHER = DiscreteDistribution([[-1.0], [1.0]], [0.5, 0.5])
RADEMACHER_F = np.array([-1.0, 1.0])


def grid_T(cgf_values, lams, r):
    """Brute-force oracle: min over a lambda grid of (r + CGF) / lambda."""
    return float(np.min((r + cgf_values) / lams))


def random_centered(rng, size):
    probs = rng.uniform(0.2, 1.0, size=size)
    probs /= probs.sum()
    vals = rng.normal(size=size)
    vals -= probs @ vals
    support = np.arange(size, dtype=float)[:, None]
    dist = DiscreteDistribution(support, probs)
    return dist, vals


# CGF checks


def test_cgf_matches_log_cosh():
    # the test-side reference and the library's CGF kernel, on each of its
    # three forms; Lambda(-lam) of f is Lambda(lam) of -f
    logp = np.log(RADEMACHER.probabilities)
    lams = np.array([0.01, 0.25, 1.0, -3.0, 17.5])
    rows = np.sign(lams)[:, None] * RADEMACHER_F
    batched = _moments(logp, rows, np.abs(lams))[0]
    for lam, got in zip(lams, batched):
        want = math.log(math.cosh(lam))
        assert cgf_reference(RADEMACHER, RADEMACHER_F, lam) == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(want, rel=1e-13)
    assert cgf_reference(RADEMACHER, RADEMACHER_F, 0.0) == 0.0


def test_rate_bound_matches_dense_grid_rademacher():
    lams = np.linspace(50.0 / 1e6, 50.0, 10**6)
    cgf_vals = np.log(np.cosh(lams))
    want = grid_T(cgf_vals, lams, 0.1)
    got = rate_bound_T(RADEMACHER, RADEMACHER_F, 0.1)[0]
    assert got == pytest.approx(want, abs=1e-6)
    assert got <= want + 1e-12  # the grid can only overestimate the infimum


def test_rate_bound_zero_cases():
    assert rate_bound_T(RADEMACHER, RADEMACHER_F, 0.0)[0] == 0.0
    assert rate_bound_T(RADEMACHER, [0.0, 0.0], 3.0)[0] == 0.0


def test_subnormal_function_gets_a_positive_bound():
    # f = +-5e-324 reaches the solver as f / max|f| = +-1, so the objective it
    # certifies is 5e-324 times the unit one at the unit lambda; that product
    # rounds to 0 unless it is stepped up past its rounding
    unit_lam = rate_bound_T(RADEMACHER, RADEMACHER_F, 0.1)[1]
    value, lam = rate_bound_T(RADEMACHER, 5e-324 * RADEMACHER_F, 0.1)
    assert value > 0.0 and lam == math.inf
    with localcontext() as ctx:
        ctx.prec = 60
        assert Decimal(value) >= Decimal(5e-324) * decimal_objective(RADEMACHER, RADEMACHER_F, 0.1, unit_lam)


def test_rate_bound_monotone_in_r():
    values = [rate_bound_T(RADEMACHER, RADEMACHER_F, r)[0] for r in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# structural properties of the rate function


def test_homogeneity_example():
    report = check_T_properties(RADEMACHER, RADEMACHER_F, r=0.2, s=0.1, alpha=3.0)
    assert report.homogeneity
    assert report.zero_at_zero
    assert report.t_r_scaled == pytest.approx(3.0 * report.t_r, rel=1e-8)


def test_subadditivity_at_zero_rates():
    report = check_T_properties(RADEMACHER, RADEMACHER_F, r=0.0, s=0.0, alpha=1.0)
    assert report.subadditive
    assert report.t_r_plus_s == 0.0


def test_three_point_example_all_pass():
    dist = DiscreteDistribution([[-2.0], [1.0], [2.0]], [1.0 / 3.0] * 3)
    report = check_T_properties(dist, [-2.0, 1.0, 1.0], r=0.3, s=0.7, alpha=2.0)
    assert report.homogeneity and report.zero_at_zero and report.subadditive


def test_randomized_property_suite_small():
    rng = np.random.default_rng(7)
    for _ in range(60):
        dist, f = random_centered(rng, int(rng.integers(2, 8)))
        r, s = rng.uniform(0.01, 2.0, size=2)
        alpha = rng.uniform(0.1, 10.0)
        report = check_T_properties(dist, f, r, s, alpha)
        assert report.homogeneity and report.zero_at_zero and report.subadditive
        # concavity in r, midpoint test
        mid = rate_bound_T(dist, f, 0.5 * (r + s))[0]
        assert 2.0 * mid >= report.t_r + report.t_s - 1e-8


# validation


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([[0.0], [1.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution([[0.0], [0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([[0.0], [1.0]], [1.5, -0.5])
    with pytest.raises(ValueError, match="support must be a nonempty list of points"):
        DiscreteDistribution(np.zeros((0, 1)), [])
    with pytest.raises(ValueError, match="support must be a nonempty list of points"):
        DiscreteDistribution([], [1.0])  # atleast_2d makes it one point of dimension 0
    with pytest.raises(ValueError, match="probabilities and support must have equal length"):
        DiscreteDistribution([[0.0], [1.0]], [1.0])


def test_rate_bound_rejects_bad_inputs():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        rate_bound_T(RADEMACHER, RADEMACHER_F, -0.1)
    with pytest.raises(ValueError, match="function is not centered"):
        rate_bound_T(RADEMACHER, [0.0, 1.0], 0.1)
    with pytest.raises(ValueError, match="function is not centered"):
        rate_bound_T(RADEMACHER, [math.nan, 0.0], 0.1)


def test_function_length_mismatch():
    with pytest.raises(ValueError, match="function length does not match support size"):
        rate_bound_T(RADEMACHER, [1.0, -0.5, -0.5], 0.1)
    with pytest.raises(ValueError, match="function length does not match support size"):
        rate_bound_T(RADEMACHER, [[1.0, -0.5, -0.5]], 0.1)
    with pytest.raises(ValueError, match="function length does not match support size"):
        rate_bound_T(RADEMACHER, [[[-1.0, 1.0]]], 0.1)


def test_tabulated_function_validation():
    gen = make_generator("sub-gaussian")
    with pytest.raises(ValueError, match="function length does not match support size"):
        orlicz_norm(RADEMACHER, [], gen)
    with pytest.raises(ValueError, match="function values must be finite"):
        orlicz_norm(RADEMACHER, [0.0, math.inf], gen)


def test_check_properties_rejects_bad_parameters():
    with pytest.raises(ValueError):
        check_T_properties(RADEMACHER, RADEMACHER_F, -1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        check_T_properties(RADEMACHER, RADEMACHER_F, 0.1, 0.1, 0.0)
