import math

import numpy as np
import pytest

import tailbound.numerics as numerics
from oracles import grid_min, maximize_on_interval
from tailbound.numerics import LAMBDA_GRID, NumericError, false_position, gauss_legendre
from tailbound.orlicz import make_generator


# The golden_section_* tests check grid_min, which replaced golden section,
# on the same functions over grids spanning the same intervals; they keep
# their names so that their pass/fail record stays continuous. grid_min is
# now the test-side oracle of the quadrature bound on w_r (oracles.py).


def test_golden_section_quadratic():
    # near a flat quadratic minimum the abscissa is only sqrt(eps)-accurate;
    # the value itself is quadratically better
    x, fx = grid_min(lambda t: (t - 2.3) ** 2 + 1.0, np.linspace(0.0, 10.0, 3))
    assert x == pytest.approx(2.3, abs=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_section_moves_left_of_two_infinite_probes():
    # the grid's inner points (0.51, 0.69), golden section's first probes,
    # lie where f is +inf; the finite part of the domain, and the
    # minimizer, lie to their left
    f = np.vectorize(lambda t: math.inf if t >= 0.3 else (t - 0.25) ** 2, otypes=[float])
    x, fx = grid_min(f, [0.2, 0.51, 0.69, 1.0])
    assert x == pytest.approx(0.25, abs=1e-6)
    assert fx < 1e-12


def test_golden_section_minimizer_at_zero_stops_early():
    # the bracket's own width sets the stop scale, so narrowing toward a
    # minimizer at 0 ends after a dozen calls of f instead of ~130
    calls = []

    def f(t):
        calls.append(t)
        return t

    x, fx = grid_min(f, np.linspace(0.0, 2.0, 3))
    assert len(calls) <= 15
    assert 0.0 <= x <= 1e-9 and fx == x


def test_maximize_on_interval():
    x, fx = maximize_on_interval(lambda t: -((t - 0.7) ** 2), 0.0, 2.0)
    assert x == pytest.approx(0.7, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-12)


# The minimize_positive_* and adaptive_simpson_* tests check grid_min and
# gauss_legendre, which replaced those routines, on the same inputs and
# tolerances; they keep their names so that their pass/fail record stays
# continuous. The bisect_increasing_* tests check false_position, which
# replaced bisection, on the same contract.


def _grid_min(f):
    """grid_min of a scalar f over LAMBDA_GRID: (x, fx)."""
    return grid_min(np.vectorize(f, otypes=[float]), LAMBDA_GRID)


def test_minimize_positive_interior():
    x, fx = _grid_min(lambda x: x + 4.0 / x)
    assert LAMBDA_GRID[0] < x < LAMBDA_GRID[-1]
    assert x == pytest.approx(2.0, rel=1e-8)
    assert fx == pytest.approx(4.0, rel=1e-10)


def test_minimize_positive_walks_into_domain():
    # objective infinite on most of the grid, finite near 0
    def f(x):
        return math.inf if x >= 0.5 else (x - 0.1) ** 2

    x, _ = _grid_min(f)
    assert x == pytest.approx(0.1, abs=1e-8)


def test_minimize_positive_boundary_reported():
    # the infimum lies beyond the grid: the search ends at its last point
    x, fx = _grid_min(lambda x: 1.0 / x)
    assert x == LAMBDA_GRID[-1] >= 1e8
    assert fx == 1.0 / x


def test_minimize_positive_everything_infinite_raises():
    with pytest.raises(NumericError):
        _grid_min(lambda x: math.inf)


def _integrate(f, t_max, knots=()):
    t, w = gauss_legendre([t_max], knots)
    return float((w * f(t)).sum())


def test_adaptive_simpson_polynomial():
    assert _integrate(lambda x: x * x, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_adaptive_simpson_concentrated_integrand():
    # mass near t = 1 inside a long interval
    val = _integrate(lambda t: t * np.exp(-t * t / 2.0), 16.0)
    assert val == pytest.approx(1.0, rel=1e-7)


def test_adaptive_simpson_mass_near_left_end_of_long_interval():
    # on [0, 1024] the mass sits near t = 10, two decades below t_max
    val = _integrate(lambda t: t * np.exp(-t / 10.0), 1024.0)
    want = 100.0 * (1.0 - math.exp(-102.4) * 103.4)
    assert val == pytest.approx(want, rel=1e-7)


def test_adaptive_simpson_empty_interval():
    assert _integrate(lambda x: np.ones_like(x), 0.0) == 0.0


def test_gauss_legendre_knots_are_panel_edges():
    # |t - 1/3| has a kink that only a panel edge resolves; a knot above
    # t_max adds an empty panel
    f = lambda t: np.abs(t - 1.0 / 3.0)
    assert _integrate(f, 1.0, knots=(1.0 / 3.0, 5.0)) == pytest.approx(5.0 / 18.0, rel=1e-14)
    assert abs(_integrate(f, 1.0) / (5.0 / 18.0) - 1.0) > 1e-10


def test_gauss_legendre_rows_and_knot_panels():
    # each t's rule is the one it gets alone, bit for bit, batched or one t
    # at a time, with knots or without
    t_max = np.concatenate([np.ldexp(1.0, np.arange(-10, 51)), [3.0, 1.0 + 2.0**-52, 0.7]])
    for knots in ((), (1.0, 5.0)):
        batched = gauss_legendre(t_max, knots)
        one_at_a_time = [np.vstack(part) for part in zip(*(gauss_legendre([t], knots) for t in t_max))]
        assert all(np.array_equal(a, b) for a, b in zip(batched, one_at_a_time))
    # each knot adds a panel; one above t is empty: its nodes sit at t with
    # zero weights
    nodes, weights = gauss_legendre([4.0], (1.0, 5.0))
    assert nodes.shape == (1, (numerics.QUAD_PANELS + 2) * numerics.QUAD_NODES)
    assert np.all((nodes > 0.0) & (nodes <= 4.0)) and np.count_nonzero(weights == 0.0) == numerics.QUAD_NODES
    assert np.all(nodes[weights == 0.0] == 4.0) and weights.sum() == pytest.approx(4.0, rel=1e-14)


def test_bisect_increasing():
    root = false_position(lambda x: x**3, 0.0, 10.0, target=8.0)
    assert root == pytest.approx(2.0, rel=1e-10)
    with pytest.raises(ValueError):
        false_position(lambda x: x, 0.0, 1.0, target=5.0)


@pytest.mark.parametrize("y", [1e-300, 1e-30, 1e-12, 1.0])
def test_bisect_increasing_keeps_relative_accuracy_near_zero(y):
    # the stop width has no absolute floor: the Bennett inverse, a root
    # search on [0, hi], keeps phi(t) within 1e-11 y of y down to y = 1e-300
    gen = make_generator("bennett", L=1.0)
    assert abs(float(gen.phi(gen.phi_inverse(y))) - y) <= 1e-11 * y


def test_bisect_increasing_arrays_in_lockstep():
    # each bracket gives the root it gives alone
    lo, hi, target = np.array([0.0, 1.0, 0.0]), np.array([10.0, 3.0, 1.0]), np.array([8.0, 2.0, 1e-6])
    roots = false_position(lambda x: x**3, lo, hi, target)
    for i in range(3):
        assert roots[i] == false_position(lambda x: x**3, lo[i], hi[i], target[i])
    assert roots == pytest.approx(np.cbrt(target), rel=1e-10)
    with pytest.raises(ValueError):
        false_position(lambda x: x, np.zeros(2), np.ones(2), np.array([0.5, 5.0]))


def test_bisect_increasing_returns_the_certified_end():
    # the upper end of each final bracket, where g >= target
    g = lambda x: np.expm1(x) + x**3
    target = np.geomspace(1e-6, 1e6, 401)
    roots = false_position(g, np.zeros(target.size), np.full(target.size, 20.0), target)
    assert np.all(g(roots) >= target)


def _probes(g, lo, hi, target, rel_tol):
    """false_position's result and every point it evaluates g at, in order."""
    seen = []

    def logged(x):
        seen.append(np.array(x, dtype=float, copy=True))
        return g(x)

    return false_position(logged, lo, hi, target, rel_tol), seen


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-10, 1e-6])
def test_false_position_contract(rel_tol):
    # on increasing functions that false position finds hard (steep, flat,
    # kinked), each result is the upper end of a final bracket: g >= target
    # there, and the last probe below the target lies within rel_tol of it
    cases = [
        (lambda x: np.expm1(30.0 * x), 0.0, 1.0),
        (lambda x: x**9, 0.0, 4.0),
        (lambda x: np.where(x < 1.0, 1e-3 * x, 1e-3 + 1e3 * (x - 1.0)), 0.0, 3.0),
        (lambda x: np.cbrt(x - 0.3), 0.0, 2.0),
    ]
    for g, lo, hi in cases:
        targets = np.linspace(float(g(np.float64(lo))), float(g(np.float64(hi))), 9)[1:-1]
        root, seen = _probes(g, np.full(targets.size, lo), np.full(targets.size, hi), targets, rel_tol)
        assert np.all(g(root) >= targets)
        probes = np.array(seen[2:])  # after the two bracket checks
        below = np.where(g(probes) - targets <= 0.0, probes, lo).max(axis=0)
        assert np.all(root - below <= rel_tol * np.maximum(np.abs(root), np.abs(below)))
        assert len(seen) <= 30  # bisection takes about 40 calls to 1e-12
        # every probe lies strictly inside the bracket it was taken from
        assert np.all((probes > lo) & (probes < hi))
