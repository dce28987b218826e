import math

import numpy as np
import pytest

from oracles import maximize_on_interval
from tailbound.numerics import (
    LAMBDA_GRID,
    NumericError,
    bisect_increasing,
    gauss_legendre,
    golden_section_min,
    grid_golden_min,
)
from tailbound.orlicz import make_generator


def test_golden_section_quadratic():
    # near a flat quadratic minimum the abscissa is only sqrt(eps)-accurate;
    # the value itself is quadratically better
    x, fx = golden_section_min(lambda t: (t - 2.3) ** 2 + 1.0, 0.0, 10.0)
    assert x == pytest.approx(2.3, abs=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_section_moves_left_of_two_infinite_probes():
    # both first probes (0.51, 0.69) lie where f is +inf; the finite part
    # of the domain, and the minimizer, lie to their left
    x, fx = golden_section_min(lambda t: math.inf if t >= 0.3 else (t - 0.25) ** 2, 0.2, 1.0)
    assert x == pytest.approx(0.25, abs=1e-6)
    assert fx < 1e-12


def test_golden_section_minimizer_at_zero_stops_early():
    # the bracket's own width sets the stop scale, so narrowing toward a
    # minimizer at 0 ends after ~50 evaluations instead of ~1500
    calls = []

    def f(t):
        calls.append(t)
        return t

    x, fx = golden_section_min(f, 0.0, 2.0)
    assert len(calls) <= 100
    assert 0.0 <= x <= 1e-9 and fx == x


def test_maximize_on_interval():
    x, fx = maximize_on_interval(lambda t: -((t - 0.7) ** 2), 0.0, 2.0)
    assert x == pytest.approx(0.7, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-12)


# The minimize_positive_* and adaptive_simpson_* tests check grid_golden_min
# and gauss_legendre, which replaced those routines, on the same inputs and
# tolerances; they keep their names so that their pass/fail record stays
# continuous.


def _grid_min(f):
    """grid_golden_min of a scalar f over LAMBDA_GRID, one row: (x, fx, j)."""
    x, fx, j = grid_golden_min(lambda _blk, t: np.vectorize(f, otypes=[float])(t), LAMBDA_GRID)
    return float(x[0]), float(fx[0]), int(j[0])


def test_minimize_positive_interior():
    x, fx, j = _grid_min(lambda x: x + 4.0 / x)
    assert 0 < j < LAMBDA_GRID.size - 1
    assert x == pytest.approx(2.0, rel=1e-8)
    assert fx == pytest.approx(4.0, rel=1e-10)


def test_minimize_positive_walks_into_domain():
    # objective infinite on most of the grid, finite near 0
    def f(x):
        return math.inf if x >= 0.5 else (x - 0.1) ** 2

    x, _, _ = _grid_min(f)
    assert x == pytest.approx(0.1, abs=1e-8)


def test_minimize_positive_boundary_reported():
    x, fx, j = _grid_min(lambda x: 1.0 / x)
    assert j == LAMBDA_GRID.size - 1
    assert x == LAMBDA_GRID[-1] >= 1e8
    assert fx == 1.0 / x


def test_minimize_positive_everything_infinite_raises():
    with pytest.raises(NumericError):
        _grid_min(lambda x: math.inf)


def test_grid_golden_min_rows_are_independent():
    # rows searched in one batch get the values each gets alone
    centers = np.array([0.3, 2.0, 5e3])
    f = lambda blk, t: (np.log(t) - np.log(centers[blk, None])) ** 2 + t * 1e-12
    x, fx, j = grid_golden_min(f, LAMBDA_GRID, rows=3)
    for i, c in enumerate(centers):
        xi, fi, ji = grid_golden_min(lambda _blk, t: f(slice(i, i + 1), t), LAMBDA_GRID)
        assert (x[i], fx[i], j[i]) == (xi[0], fi[0], ji[0])
        assert x[i] == pytest.approx(c, rel=1e-4)


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


def test_bisect_increasing():
    root = bisect_increasing(lambda x: x**3, 0.0, 10.0, target=8.0)
    assert root == pytest.approx(2.0, rel=1e-10)
    with pytest.raises(ValueError):
        bisect_increasing(lambda x: x, 0.0, 1.0, target=5.0)


@pytest.mark.parametrize("y", [1e-300, 1e-30, 1e-12, 1.0])
def test_bisect_increasing_keeps_relative_accuracy_near_zero(y):
    # the stop width has no absolute floor: the Bennett inverse, a bisection
    # on [0, hi], keeps phi(t) within 1e-11 y of y down to y = 1e-300
    gen = make_generator("bennett", L=1.0)
    assert abs(float(gen.phi(gen.phi_inverse(y))) - y) <= 1e-11 * y


def test_bisect_increasing_arrays_in_lockstep():
    # each bracket gives the root it gives alone
    lo, hi, target = np.array([0.0, 1.0, 0.0]), np.array([10.0, 3.0, 1.0]), np.array([8.0, 2.0, 1e-6])
    roots = bisect_increasing(lambda x: x**3, lo, hi, target)
    for i in range(3):
        assert roots[i] == bisect_increasing(lambda x: x**3, lo[i], hi[i], target[i])
    assert roots == pytest.approx(np.cbrt(target), rel=1e-10)
    with pytest.raises(ValueError):
        bisect_increasing(lambda x: x, np.zeros(2), np.ones(2), np.array([0.5, 5.0]))


def test_bisect_increasing_returns_the_certified_end():
    # the upper end of each final bracket, where g >= target
    g = lambda x: np.expm1(x) + x**3
    target = np.geomspace(1e-6, 1e6, 401)
    roots = bisect_increasing(g, np.zeros(target.size), np.full(target.size, 20.0), target)
    assert np.all(g(roots) >= target)
