"""Test-side references: a plain log-sum-exp CGF, T_r's objective in
50-digit decimal arithmetic, the T_r property check,
the grid-then-zoom minimizer that the Orlicz quadrature bound on w_r used
before its dual Newton (and a maximizer on it for conjugate oracles), the
CGF-norm grid built from repeated rows, the doubling search that the
one-pass truncation search replaced, and the benchmark's seeded synthetic
families.

Imported by the test modules as `oracles` (pytest puts tests/ on sys.path).
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from tailbound.cgf import DiscreteDistribution, _moments, rate_bound_T
from tailbound.numerics import NumericError, row_blocks

ZOOM_POINTS = 17  # evenly spaced points per zoom pass of grid_min
ZOOM_REL_TOL = 1e-10  # grid_min stops at this bracket width relative to the bracket's scale


def cgf_reference(dist, values, lam: float) -> float:
    """Lambda(lam) = log E e^{lam f(X)} by a shifted log-sum-exp over the
    support points of positive probability; 0 exactly at lam = 0."""
    if lam == 0.0:
        return 0.0
    mask = dist.probabilities > 0.0
    a = np.log(dist.probabilities[mask]) + lam * np.asarray(values, dtype=float)[mask]
    peak = a.max()
    return float(peak + np.log(np.exp(a - peak).sum()))


def decimal_objective(dist, values, r: float, lam: float) -> Decimal:
    """(r + Lambda(lam)) / lam of a tabulated function, for a finite lam > 0,
    in 50-digit decimal arithmetic from the exact values of the float inputs.
    Lambda is the CGF of the law that dist's probabilities define, divided by
    their exact sum (DiscreteDistribution checks the float sum to 1e-12)."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam_d = Decimal(lam)
        values = np.asarray(values, dtype=float).tolist()
        pairs = [(Decimal(p), Decimal(v)) for p, v in zip(dist.probabilities.tolist(), values) if p > 0.0]
        total = sum(p * (lam_d * v).exp() for p, v in pairs)
        return (Decimal(r) + (total / sum(p for p, _ in pairs)).ln()) / lam_d


def grid_min(f, grid):
    """Minimize f over the span of an increasing grid, f mapping an array of
    points to values, +inf allowed. f is evaluated on the whole grid in one
    call; then each pass evaluates ZOOM_POINTS evenly spaced points across
    the bracket between the neighbours of the last call's best point, in one
    call, until the bracket is ZOOM_REL_TOL wide relative to max(|a|, |b|, a
    quarter of the first bracket); the floor stops a minimizer at 0 from
    narrowing toward underflow. The bracket holds the minimizer of a
    quasiconvex f inside the grid's span. Returns (x, f(x)), the best point
    seen, so never worse than the best grid value. Raises NumericError when
    no grid value is finite.
    """
    points = np.asarray(grid, dtype=float)
    values = f(points)
    j = int(np.argmin(values))
    x, fx = float(points[j]), float(values[j])
    if not np.isfinite(fx):
        raise NumericError("no finite objective value on the search grid")
    a, b = points[max(j - 1, 0)], points[min(j + 1, points.size - 1)]
    floor = 0.25 * (b - a)
    while b - a > ZOOM_REL_TOL * max(abs(a), abs(b), floor):
        points = np.linspace(a, b, ZOOM_POINTS)
        values = f(points)
        j = int(np.argmin(values))
        if values[j] < fx:
            x, fx = float(points[j]), float(values[j])
        a, b = points[max(j - 1, 0)], points[min(j + 1, ZOOM_POINTS - 1)]
    return x, fx


def maximize_on_interval(f, a: float, b: float):
    """Maximize a unimodal scalar f on [a, b] by grid_min over the
    grid (a, (a + b)/2, b); returns (x, f(x))."""
    x, neg = grid_min(np.vectorize(lambda t: -f(t), otypes=[float]), np.linspace(a, b, 3))
    return x, -neg


def first_power_of_two_loop(g, level, cap):
    """Per element of level, the first t in 1, 2, 4, ... up to cap with
    g(t) >= level, doubling every element still below its level until it
    passes or reaches cap; +inf where none passes. g maps an array of level's
    shape elementwise."""
    t = np.ones(level.shape)
    while np.any(grow := (low := g(t) < level) & (t < cap)):
        t = np.where(grow, 2.0 * t, t)
    return np.where(low, math.inf, t)


def norm_grid_by_repeat(logp, x, count, grid):
    """(best, index) of F(mu) = 2 Lambda(mu) / mu^2 over the first count[i]
    points of grid per row of x, as the CGF norm built it before its
    broadcast tensor: each (row, point) pair's row repeated (np.repeat) and
    evaluated by the CGF kernel cgf._moments at its one point, one block of
    rows at a time."""
    best, j = np.empty(x.shape[0]), np.empty(x.shape[0], dtype=int)
    for blk in row_blocks(x.shape[0], grid.size * x.shape[1]):
        cb, n = count[blk], blk.stop - blk.start
        rows = np.repeat(np.arange(n), cb)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(cb) - cb, cb)
        values = np.full((n, cb.max()), -math.inf)
        mu = grid[cols]
        values[rows, cols] = 2.0 * _moments(logp[blk][rows], x[blk][rows], mu)[0] / (mu * mu)
        j[blk] = values.argmax(axis=1)
        best[blk] = values[np.arange(n), j[blk]]
    return best, j


def synthetic_family(rng, members, support, scales, step, noise):
    """The benchmark's seeded synthetic family (bench/workloads.py), drawn
    from rng, as (distribution, {name: values}): the zero member and, per
    scale, a random balanced +-1 pattern times the scale, member j scaled by
    1 + step j with Gaussian jitter of noise * scale, re-centered, on equally
    likely atoms."""
    pattern = np.array([1.0] * (support // 2) + [-1.0] * (support - support // 2))
    functions = {"zero": np.zeros(support)}
    rest = members - 1
    for c, scale in enumerate(scales):
        base = rng.permutation(pattern) * scale
        for j in range(rest // len(scales) + (c < rest % len(scales))):
            v = base * (1.0 + step * j) + noise * scale * rng.standard_normal(support)
            functions[f"c{c}m{j}"] = v - v.mean()
    dist = DiscreteDistribution(np.arange(float(support))[:, None], np.full(support, 1.0 / support))
    return dist, functions


def benchmark_families(seed):
    """The families of the benchmark's chain-orlicz workload at a seed: its
    chain-cgf family (14 members, 12 atoms), then its orlicz family (10
    members, 8 atoms), drawn in that order from one generator."""
    rng = np.random.default_rng(seed)
    return synthetic_family(rng, 14, 12, (0.25, 1.0, 4.0), 0.15, 0.02), synthetic_family(rng, 10, 8, (0.5, 2.0), 0.15, 0.02)


@dataclass(frozen=True)
class TPropertyReport:
    """Booleans for the homogeneity, root-at-zero, and subadditivity checks."""

    homogeneity: bool
    zero_at_zero: bool
    subadditive: bool
    t_r: float
    t_s: float
    t_r_plus_s: float
    t_r_scaled: float


def check_T_properties(dist, values, r: float, s: float, alpha: float) -> TPropertyReport:
    """Check positive homogeneity (T_r(alpha f) = alpha T_r(f) at relative
    1e-8), T_0 = 0, and subadditivity in r (additive slack 1e-8) for the
    centered function `values` on dist's support; alpha > 0, r, s >= 0."""
    if r < 0.0 or s < 0.0:
        raise ValueError("r and s must be nonnegative")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    values = np.asarray(values, dtype=float)
    t_r = rate_bound_T(dist, values, r)[0]
    t_s = rate_bound_T(dist, values, s)[0]
    t_rs = rate_bound_T(dist, values, r + s)[0]
    t_scaled = rate_bound_T(dist, alpha * values, r)[0]
    homog = abs(t_scaled - alpha * t_r) <= 1e-8 * max(1.0, abs(alpha * t_r))
    zero = rate_bound_T(dist, values, 0.0)[0] == 0.0
    subadd = t_rs <= t_r + t_s + 1e-8
    return TPropertyReport(homog, zero, subadd, t_r, t_s, t_rs, t_scaled)
