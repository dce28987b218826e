"""Test-side references for the rate function: a plain log-sum-exp CGF, the
T_r property check, a grid-then-zoom maximizer for conjugate oracles, and
the doubling search that the one-pass truncation search replaced.

Imported by the test modules as `oracles` (pytest puts tests/ on sys.path).
"""

import math
from dataclasses import dataclass

import numpy as np

from tailbound.cgf import rate_bound_T
from tailbound.numerics import grid_min


def cgf_reference(dist, values, lam: float) -> float:
    """Lambda(lam) = log E e^{lam f(X)} by a shifted log-sum-exp over the
    support points of positive probability; 0 exactly at lam = 0."""
    if lam == 0.0:
        return 0.0
    mask = dist.probabilities > 0.0
    a = np.log(dist.probabilities[mask]) + lam * np.asarray(values, dtype=float)[mask]
    peak = a.max()
    return float(peak + np.log(np.exp(a - peak).sum()))


def maximize_on_interval(f, a: float, b: float):
    """Maximize a unimodal scalar f on [a, b] by numerics.grid_min over the
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
    t_r = rate_bound_T(dist, values, r)
    t_s = rate_bound_T(dist, values, s)
    t_rs = rate_bound_T(dist, values, r + s)
    t_scaled = rate_bound_T(dist, alpha * values, r)
    homog = abs(t_scaled - alpha * t_r) <= 1e-8 * max(1.0, abs(alpha * t_r))
    zero = rate_bound_T(dist, values, 0.0) == 0.0
    subadd = t_rs <= t_r + t_s + 1e-8
    return TPropertyReport(homog, zero, subadd, t_r, t_s, t_rs, t_scaled)
