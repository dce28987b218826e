"""Exact cumulant generating functions on finite discrete support and the
confidence radius T_r(f) = inf_{lambda >= 0} (r + log E e^{lambda f(X)}) / lambda.

Every CGF here is an exact finite sum over a finite support, evaluated by
_moments, the one CGF kernel. T_r is computed in the Legendre dual form, one
function or many at once (rate_bound_T), by _dual_root, the safeguarded
Newton that wr-quad and the norm share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import readonly, row_blocks

CENTERING_TOL = 1e-10  # |mean| allowed per unit of max|f|
PROB_SUM_TOL = 1e-12

NEWTON_STEP_CAP = 4.0  # largest dual-solver step in log(lambda), a factor e^4
DUAL_LOG_TOL = 1e-12  # step, or bracket width, in log(lambda) at which the dual root is accepted
DUAL_G_TOL = 1e-14  # relative residual |g - r| / r at which it is accepted too
DUAL_MAX_ITER = 200
LOG_MU_MAX = 690.0  # keeps the dual solver's lambda finite in units of 1/max|h|
SERIES_MU = 1.0 / 16.0  # up to this mu the CGF kernel sums its moment series,
SERIES_TERMS = 10  # of this many powers: the remainder is below 1e-16 relative there
_INV_FACTORIAL = 1.0 / np.cumprod(np.arange(1.0, SERIES_TERMS + 1.0))  # 1 / k!, k = 1..SERIES_TERMS


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
        if support.ndim != 2 or support.size == 0:  # no points, or points of no coordinates
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


def check_rows(dist: DiscreteDistribution, rows, centered: bool = True) -> np.ndarray:
    """rows as a float (count, support) array, checked to have one column per
    support point, only finite values and, when `centered`, each row's
    p-weighted mean within CENTERING_TOL * max|row| of 0. A failed
    check raises ValueError; a NaN row fails the centering check."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != dist.size:
        raise ValueError("function length does not match support size")
    if np.isinf(rows).any():  # before the rule below, whose mean it would make NaN or infinite
        raise ValueError("function values must be finite")
    if centered:
        means = np.abs((rows * dist.probabilities).sum(axis=1))
        tols = CENTERING_TOL * np.abs(rows).max(axis=1)
        if not np.all(means <= tols):  # NaN fails too
            bad = int(np.argmin(means <= tols))
            raise ValueError(f"function is not centered: mean {float(means[bad])!r} exceeds {float(tols[bad])!r}")
    if np.isnan(rows).any():  # reached only unchecked for centering
        raise ValueError("function values must be finite")
    return rows


def rate_bound_T(dist: DiscreteDistribution, values, r: float):
    """T_r(h) = inf_{lambda >= 0} (r + Lambda(lambda)) / lambda of centered
    functions tabulated on dist's support, with the lambda each value was
    evaluated at: (values, lambdas), floats for one function and one entry
    per row for a (count, support) array.

    Dual form (Dembo and Zeitouni, Large Deviations Techniques and
    Applications, section 2.2): g(lambda) = lambda Lambda'(lambda) - Lambda(lambda)
    increases from 0 to -log P(h = max h), and T_r(h) = Lambda'(lambda*) at
    g(lambda*) = r. When r >= -log P(h = max h) there is no root and
    T_r(h) = max h exactly, the closed form at infinity, with lambda = inf.
    Otherwise the root is found by safeguarded Newton for all rows in
    lockstep, and the value is (r + Lambda(lambda)) / lambda at the final
    lambda: an upper bound on the infimum whatever the solver's accuracy.
    At r = 0 all values and lambdas are 0. A lambda beyond the float range,
    as on a row of subnormal values, is reported as +inf, its rounded value,
    and a value below the normal range one subnormal step up, past rounding.
    Rows are solved in blocks of bounded size, and each row's result depends
    on that row alone.
    """
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    one = np.ndim(values) == 1
    rows = check_rows(dist, np.atleast_2d(values))
    values, lambdas = np.zeros((2, rows.shape[0]))
    if r == 0.0:
        return (0.0, 0.0) if one else (values, lambdas)
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
        idx, xb = inner[blk], x[inner[blk]]

        def moments(rows, mu):  # g = mu Lambda' - Lambda and dg/dt
            _, g, var = _moments(logp, xb[rows], mu)
            return g, mu * mu * var

        t = 0.5 * np.log(2.0 * r / (np.exp(logp) * xb * xb).sum(axis=1))  # from g ~ Var mu^2 / 2
        mu = _dual_root(moments, t, np.full(t.size, -math.inf), np.full(t.size, math.inf), r)
        value = scale[idx] * ((r + _moments(logp, xb, mu)[0]) / mu)
        # below the normal range the product can round off half a subnormal step: step up past it
        values[idx] = np.where(value < np.finfo(float).tiny, np.nextafter(value, math.inf), value)
        with np.errstate(over="ignore"):  # lambda past the float range on a subnormal row: +inf
            lambdas[idx] = mu / scale[idx]
    return (float(values[0]), float(lambdas[0])) if one else (values, lambdas)


def _moments(logp: np.ndarray, x: np.ndarray, mu: np.ndarray):
    """(Lambda(mu), g(mu) = mu Lambda'(mu) - Lambda(mu), Lambda''(mu)) of rows x
    scaled to max|x| = 1, atoms on the last axis (logp, their log-probabilities,
    broadcasts against x), at the points mu > 0 of a 1-D array: one per row,
    or a grid axis along which x's row axis is 1. By mu, E e^{mu x} - 1 is the
    series sum_k mu^k E x^k / k! (_series, mu <= SERIES_MU), or the sum of
    p expm1(mu x) (_expm1, mu <= 1), so that Lambda = log1p of it and g keep
    their relative precision as mu -> 0; beyond, exponentials of
    mu (x - max x) <= 0 keep g accurate as mu grows (_shifted). Each value
    depends on its own row and mu only: the one CGF kernel, of T_r's dual root
    and value and of the CGF norm's grid, Newton steps and value."""
    kind = np.searchsorted(_FORM_EDGES, mu)  # index into _FORMS
    counts = np.bincount(kind, minlength=3)
    if counts.max() == mu.size:
        return _FORMS[int(np.argmax(counts))](logp, x, mu)
    out = np.empty((3, *np.broadcast_shapes(logp.shape[:-1], x.shape[:-1], mu.shape)))
    for k in np.nonzero(counts)[0]:
        where = kind == k  # rows of x (and logp) are cut to these points, a grid axis is not
        rows = [a[where] if a.ndim > 1 and a.shape[-2] > 1 else a for a in (logp, x)]
        out[:, ..., where] = _FORMS[k](*rows, mu[where])
    return out[0], out[1], out[2]


def _series(logp, x, mu):
    """_moments from E e^{mu x} - 1 = mu R(mu), R = sum_k E x^{k+1} mu^k / (k+1)!
    for k < SERIES_TERMS; R, R' and R''/2 by Horner's rule. E x, a sum that
    cancels on a centered row, is taken in extended precision: its float
    rounding, times mu, would swamp Lambda as mu -> 0."""
    p = np.exp(logp)
    coef, px = [(p.astype(np.longdouble) * x).sum(axis=-1).astype(float)], p * x
    for k in range(1, SERIES_TERMS):
        px = px * x
        coef.append(px.sum(axis=-1) * _INV_FACTORIAL[k])
    f, f1, f2 = coef.pop(), 0.0, 0.0
    for c in reversed(coef):
        f, f1, f2 = f * mu + c, f1 * mu + f, f2 * mu + f1
    total = 1.0 + mu * f  # E e^{mu x}
    m1, lam = (f + mu * f1) / total, np.log1p(mu * f)  # Lambda', Lambda
    return lam, mu * m1 - lam, 2.0 * (f1 + mu * f2) / total - m1 * m1


def _expm1(logp, x, mu):
    """_moments from p expm1(mu x), atom by atom."""
    p = np.exp(logp)
    e1 = p * np.expm1(mu[..., None] * x)
    wx = (p + e1) * x  # p x e^{mu x}
    s0 = e1.sum(axis=-1)  # E e^{mu x} - 1
    m1, lam = wx.sum(axis=-1) / (1.0 + s0), np.log1p(s0)
    return lam, mu * m1 - lam, (wx * x).sum(axis=-1) / (1.0 + s0) - m1 * m1


def _shifted(logp, x, mu):
    """_moments from exponentials shifted by max x."""
    top = x.max(axis=-1)
    z = x - top[..., None]
    b = logp + mu[..., None] * z
    peak = b.max(axis=-1)
    e = np.exp(b - peak[..., None])
    total, ez = e.sum(axis=-1), e * z
    m1, lam = ez.sum(axis=-1) / total, peak + np.log(total)  # Lambda' - max x, Lambda - mu max x
    return lam + mu * top, mu * m1 - lam, (ez * z).sum(axis=-1) / total - m1 * m1


_FORM_EDGES, _FORMS = np.array([SERIES_MU, 1.0]), (_series, _expm1, _shifted)


def _dual_root(moments, t: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: float) -> np.ndarray:
    """mu = e^t with g(mu) = r per row, g increasing, by safeguarded Newton in
    t = log mu from each row's start t inside lo < t < hi (updated in place; a
    side may be infinite). moments(rows, mu) returns (g, dg/dt) for an index
    array of rows. A probe moves the bracket end on its side of r (a g that is
    not finite counts as above); a step that leaves the bracket bisects it, or
    moves NEWTON_STEP_CAP while a side is open. A row stops at a step below
    DUAL_LOG_TOL, a residual below DUAL_G_TOL r or a bracket at most
    DUAL_LOG_TOL wide, where a computed g that only rounding moves meets
    neither of the other tests. The one Newton solver: T_r's, wr-quad's and
    the CGF norm's, whose G = Lambda / g meets r = 1 at the norm's peak."""
    active = np.arange(t.size)
    for _ in range(DUAL_MAX_ITER):
        ta = t[active]
        mu = np.exp(ta)
        g, dg = moments(active, mu)
        below = g < r
        lo[active] = np.where(below, ta, lo[active])
        hi[active] = np.where(below, hi[active], ta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.clip((np.log(r) - np.log(g)) * g / dg, -NEWTON_STEP_CAP, NEWTON_STEP_CAP)
            mid = 0.5 * (lo[active] + hi[active])  # not finite while a side is open
        nxt = ta + step
        inside = (nxt > lo[active]) & (nxt < hi[active])
        mid = np.where(np.isfinite(mid), mid, ta + np.where(below, NEWTON_STEP_CAP, -NEWTON_STEP_CAP))
        done = np.abs(step) <= DUAL_LOG_TOL
        done |= (np.abs(g - r) <= DUAL_G_TOL * r) | (hi[active] - lo[active] <= DUAL_LOG_TOL)
        t[active] = np.minimum(np.where(done, ta, np.where(inside, nxt, mid)), LOG_MU_MAX)
        active = active[~done]
        if not active.size:
            break
    return np.exp(t)
