"""Exact cumulant generating functions on finite discrete support and the
confidence radius T_r(f) = inf_{lambda >= 0} (r + log E e^{lambda f(X)}) / lambda.

All distributions here have finite support, so every CGF is an exact finite
sum evaluated through log-sum-exp; there is no quadrature error in this
module. T_r is computed in the Legendre dual form, many functions at once
(rate_bound_T_rows); rate_bound_T is its one-function entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import cgf_rows, readonly, row_blocks

CENTERING_TOL = 1e-10  # |mean| allowed per unit of max(1, max|f|)
PROB_SUM_TOL = 1e-12

NEWTON_STEP_CAP = 4.0  # largest dual-solver step in log(lambda), a factor e^4
DUAL_LOG_TOL = 1e-12  # relative change in lambda at which the dual root is accepted
DUAL_G_TOL = 1e-14  # relative residual |g - r| / r at which it is accepted too
DUAL_MAX_ITER = 200
LOG_MU_MAX = 690.0  # keeps the dual solver's lambda finite in units of 1/max|h|


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support law of X.

    support has shape (m, d); probabilities has shape (m,), is nonnegative,
    and sums to 1 within 1e-12. Support points must be pairwise distinct.
    """

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=float))
        if support.ndim != 2 or support.shape[0] < 1:
            raise ValueError("support must be a nonempty list of points")
        probs = np.asarray(self.probabilities, dtype=float).reshape(-1)
        if probs.shape[0] != support.shape[0]:
            raise ValueError("probabilities and support must have equal length")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        seen = {tuple(row) for row in support}
        if len(seen) != support.shape[0]:
            raise ValueError("support points must be pairwise distinct")
        object.__setattr__(self, "support", readonly(support))
        object.__setattr__(self, "probabilities", readonly(probs))

    @property
    def size(self) -> int:
        return self.support.shape[0]


@dataclass(frozen=True)
class TabulatedFunction:
    """Real-valued function tabulated on the support of a distribution."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size < 1 or not np.all(np.isfinite(values)):
            raise ValueError("function values must be a nonempty finite vector")
        object.__setattr__(self, "values", readonly(values))


def check_rows(dist: DiscreteDistribution, rows, centered: bool = True) -> np.ndarray:
    """rows as a float (count, support) array, checked to have one column per
    support point, only finite values and, when `centered`, each row's
    p-weighted mean within CENTERING_TOL * max(1, max|row|) of 0. A failed
    check raises ValueError; a NaN row fails the centering check."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != dist.size:
        raise ValueError("function length does not match support size")
    if np.isinf(rows).any():  # before the rule below, whose mean it would make NaN or infinite
        raise ValueError("function values must be finite")
    if centered:
        means = np.abs((rows * dist.probabilities).sum(axis=1))
        tols = CENTERING_TOL * np.maximum(1.0, np.abs(rows).max(axis=1))
        if not np.all(means <= tols):  # NaN fails too
            bad = int(np.argmin(means <= tols))
            raise ValueError(f"function is not centered: mean {float(means[bad])!r} exceeds {float(tols[bad])!r}")
    if np.isnan(rows).any():  # reached only unchecked for centering
        raise ValueError("function values must be finite")
    return rows


def rate_bound_T(dist: DiscreteDistribution, values, r: float) -> float:
    """T_r(f) = inf_{lambda >= 0} (r + Lambda(lambda)) / lambda of one centered
    function tabulated on dist's support: rate_bound_T_rows of a single row."""
    return float(rate_bound_T_rows(dist, np.asarray(values, dtype=float)[None, :], r)[0][0])


def rate_bound_T_rows(dist: DiscreteDistribution, rows: np.ndarray, r: float):
    """T_r of every row of a (count, support) array of centered tabulated
    functions, with the lambda each value was evaluated at: (values, lambdas).

    Dual form (Dembo and Zeitouni, Large Deviations Techniques and
    Applications, section 2.2): g(lambda) = lambda Lambda'(lambda) - Lambda(lambda)
    increases from 0 to -log P(h = max h), and T_r(h) = Lambda'(lambda*) at
    g(lambda*) = r. When r >= -log P(h = max h) there is no root and
    T_r(h) = max h exactly, the closed form at infinity, with lambda = inf.
    Otherwise the root is found by safeguarded Newton for all rows in
    lockstep, and the value is (r + Lambda(lambda)) / lambda at the final
    lambda: an upper bound on the infimum whatever the solver's accuracy.
    At r = 0 all values and lambdas are 0. Rows are solved in blocks of
    bounded size, and each row's result depends on that row alone.
    """
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    rows = check_rows(dist, rows)
    values, lambdas = np.zeros((2, rows.shape[0]))
    if r == 0.0:
        return values, lambdas
    mask = dist.probabilities > 0.0
    probs = dist.probabilities[mask]
    h = rows[:, mask]
    scale = np.abs(h).max(axis=1)
    x = h / np.where(scale > 0.0, scale, 1.0)[:, None]
    # tested on the scaled rows the solver sees, so a root exists otherwise
    at_inf = r >= -np.log((probs * (x == x.max(axis=1)[:, None])).sum(axis=1))
    values[at_inf] = h[at_inf].max(axis=1)
    lambdas[at_inf] = math.inf
    inner = np.nonzero(~at_inf)[0]
    logp = np.log(probs)
    for blk in row_blocks(inner.size, probs.size):
        idx = inner[blk]
        mu = _dual_root(logp, x[idx], r)
        cgf = cgf_rows(logp, x[idx], mu[:, None])[:, 0]
        values[idx] = scale[idx] * ((r + cgf) / mu)
        lambdas[idx] = mu / scale[idx]
    return values, lambdas


def _moments(logp: np.ndarray, z: np.ndarray, mu: np.ndarray):
    """(Lambda(mu) - mu max x, Lambda'(mu) - max x, Lambda''(mu)) per row of
    z = x - max x at that row's mu > 0, from one shifted exponential; relative
    to max x they stay accurate as mu grows. The kernel of the dual root and
    of the CGF norm's Newton steps."""
    b = logp + mu[:, None] * z
    peak = b.max(axis=1)
    e = np.exp(b - peak[:, None])
    total = e.sum(axis=1)
    m1 = (e * z).sum(axis=1) / total
    return peak + np.log(total), m1, (e * np.square(z - m1[:, None])).sum(axis=1) / total


def _dual_root(logp: np.ndarray, x: np.ndarray, r: float) -> np.ndarray:
    """mu with g(mu) = r per row of x (max|x| = 1, r < -log P(x = max x)): Newton
    in t = log mu from g ~ Var mu^2 / 2, inside a bracket lo < t < hi that a bad
    step bisects (or leaves by NEWTON_STEP_CAP while a side is open). g and g'
    are taken relative to max x, which keeps them accurate as mu grows."""
    t = 0.5 * np.log(2.0 * r / (np.exp(logp) * x * x).sum(axis=1))
    lo, hi = np.full(t.size, -math.inf), np.full(t.size, math.inf)
    z = x - x.max(axis=1)[:, None]
    active = np.arange(t.size)
    for _ in range(DUAL_MAX_ITER):
        ta = t[active]
        mu = np.exp(ta)
        lam, m1, var = _moments(logp, z[active], mu)
        g = mu * m1 - lam
        below = g < r
        lo[active] = np.where(below, ta, lo[active])
        hi[active] = np.where(below, hi[active], ta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.clip((np.log(r) - np.log(g)) * g / (mu * mu * var), -NEWTON_STEP_CAP, NEWTON_STEP_CAP)
            mid = 0.5 * (lo[active] + hi[active])  # not finite while a side is open
        nxt = ta + step
        inside = (nxt > lo[active]) & (nxt < hi[active])
        mid = np.where(np.isfinite(mid), mid, ta + np.where(below, NEWTON_STEP_CAP, -NEWTON_STEP_CAP))
        done = (np.abs(step) <= DUAL_LOG_TOL) | (np.abs(g - r) <= DUAL_G_TOL * r)
        t[active] = np.minimum(np.where(done, ta, np.where(inside, nxt, mid)), LOG_MU_MAX)
        active = active[~done]
        if not active.size:
            break
    return np.exp(t)
