"""Shared numerics: golden-section search, the grid-then-golden minimizer,
a composite Gauss-Legendre quadrature rule, the one bisection of the library
(which returns the end of each bracket where g >= target), and the batched
cumulant generating function that the rate-function engine and the norms
evaluate.

Everything here is deterministic: identical inputs produce bit-identical
outputs, which the certificate-replay machinery relies on.
"""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
GOLDEN_REL_TOL = 1e-10  # golden section stops at this width relative to its bracket's scale

BLOCK_ELEMENTS = 1 << 18  # elements of one batched tensor; bounds memory for any row count
SMALL_MU = 1e-3  # below this |mu| the CGF takes its expm1 form

LAMBDA_GRID = np.power(2.0, np.arange(-40, 28))  # searches over lambda > 0: 2^-40 < 1e-12 to 2^27 > 1e8

QUAD_NODES = 16  # Gauss-Legendre nodes per panel
QUAD_PANELS = 32  # panels on [0, t_max], graded geometrically toward 0
QUAD_FIRST_EDGE = 1e-12  # first panel [0, QUAD_FIRST_EDGE t_max]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(QUAD_NODES)
_QUAD_EDGES = np.concatenate(([0.0], np.geomspace(QUAD_FIRST_EDGE, 1.0, QUAD_PANELS)))  # units of t_max


class NumericError(RuntimeError):
    """Internal numeric failure: no finite objective value on a search grid,
    a bracket that cannot be found, or a failed runtime consistency check."""


def check_int(name: str, value, low: int) -> int:
    """value as an int when it is an integer, not a bool, of at least low (0 or
    1); otherwise ValueError "<name> must be a nonnegative (positive) integer"."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be a {('nonnegative', 'positive')[low]} integer")
    return int(value)


def row_blocks(rows: int, per_row: int):
    """Slices cutting `rows` rows into blocks whose tensors, of `per_row`
    elements per row, hold at most BLOCK_ELEMENTS elements (one row at least)."""
    step = max(1, BLOCK_ELEMENTS // max(per_row, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def cgf_rows(logp: np.ndarray, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Lambda(mu[i, j]) = log sum_k p_k e^{mu[i, j] x[i, k]} for rows x (n, k)
    with max|x| <= 1 and points mu (n, g); returns (n, g). A shifted
    log-sum-exp, or where |mu| <= SMALL_MU log1p(sum p expm1(mu x)), which
    keeps its precision as Lambda -> 0. Each entry depends on its own row
    and point only, so results do not depend on how rows are batched.
    """
    a = logp + mu[:, :, None] * x[:, None, :]
    peak = a.max(axis=2)
    out = peak + np.log(np.exp(a - peak[:, :, None]).sum(axis=2))
    i, j = np.nonzero(np.abs(mu) <= SMALL_MU)
    out[i, j] = np.log1p((np.exp(logp) * np.expm1(mu[i, j, None] * x[i])).sum(axis=1))
    return out


def golden_section_min(f, a, b):
    """Minimize a unimodal f on each interval [a, b] of the arrays a and b,
    all intervals in lockstep, until each is GOLDEN_REL_TOL wide relative
    to max(|a|, |b|, a quarter of its initial width); the floor stops a
    minimizer at 0 from narrowing toward underflow.

    f maps an array of points elementwise. Each interval stops narrowing
    once it has converged, so its result does not depend on the others.
    Returns arrays (x, f(x)) at each interval's best interior probe.
    """
    a, b = np.minimum(a, b), np.maximum(a, b)
    h = b - a
    floor = 0.25 * h
    c, d = a + INV_PHI_SQ * h, a + INV_PHI * h
    yc, yd = f(c), f(d)
    active = h > GOLDEN_REL_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    while np.any(active):
        # the minimizer lies in [a, d]; it does too when both probes are +inf,
        # for objectives finite on a down-closed interval, as searched here
        left = active & ((yc < yd) | (yd == math.inf))
        right = active & ~left
        b, a = np.where(left, d, b), np.where(right, c, a)
        h = b - a
        # left: d <- c and a new c; right: c <- d and a new d; others stay
        c, d = (np.where(left, a + INV_PHI_SQ * h, np.where(right, d, c)),
                np.where(right, a + INV_PHI * h, np.where(left, c, d)))
        y = f(np.where(left, c, d))
        yc, yd = np.where(left, y, np.where(right, yd, yc)), np.where(right, y, np.where(left, yc, yd))
        active &= h > GOLDEN_REL_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.where(yc < yd, c, d), np.minimum(yc, yd)


def grid_golden_min(f, grid, rows: int = 1, width: int = 1):
    """Minimize f over the span of an increasing grid, for each of `rows` rows.

    f(blk, x) gives f at the points x, an array (rows of slice blk, k), and
    may be +inf. Each block of rows (at most BLOCK_ELEMENTS elements where f
    holds `width` elements per row and point) is evaluated on the whole grid
    as one array op; golden section then refines, rows in lockstep, the
    bracket between the grid neighbours of each row's best grid point, which
    holds the minimizer of a quasiconvex f inside the grid's span.
    Returns arrays (x, fx, j) per row: the best point found, its value (no
    worse than the best grid value), and the index j of the best grid point;
    j = 0 or j = grid.size - 1 says the infimum may lie beyond the grid.
    Raises NumericError when a row has no finite grid value.
    """
    grid = np.asarray(grid, dtype=float)
    x, fx = np.empty((2, rows))
    j = np.empty(rows, dtype=int)
    for blk in row_blocks(rows, grid.size * width):
        n = blk.stop - blk.start
        values = f(blk, np.broadcast_to(grid, (n, grid.size)))
        jb = values.argmin(axis=1)
        best = values[np.arange(n), jb]
        if not np.all(np.isfinite(best)):
            raise NumericError("no finite objective value on the search grid")
        lo, hi = grid[np.maximum(jb - 1, 0)], grid[np.minimum(jb + 1, grid.size - 1)]
        xg, yg = golden_section_min(lambda t: f(blk, t[:, None])[:, 0], lo, hi)
        better = yg < best
        x[blk], fx[blk], j[blk] = np.where(better, xg, grid[jb]), np.where(better, yg, best), jb
    return x, fx, j


def gauss_legendre(t_max, knots=()):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, t] for
    each t of the array t_max: two arrays (len(t_max), nodes), so that
    sum(weights * f(nodes), axis=1) integrates f on each interval.

    The QUAD_PANELS panels are graded geometrically toward 0, so an
    integrand whose mass sits near t = 1 is resolved on [0, 1e3] as well as
    on [0, 16]. Each knot below t, a point where the integrand has a kink,
    is a panel edge too; knots above t give empty panels.
    """
    t_max = np.asarray(t_max, dtype=float).reshape(-1, 1)
    edges = t_max * _QUAD_EDGES
    if knots:
        edges = np.sort(np.concatenate([edges, np.minimum(knots, t_max)], axis=1), axis=1)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
    shape = (t_max.shape[0], half.shape[1] * QUAD_NODES)
    return (mid + half * _GL_X).reshape(shape), (half * _GL_W).reshape(shape)


def bisect_increasing(g, lo, hi, target, rel_tol: float = 1e-12):
    """Solve g(x) = target for increasing g on each bracket [lo, hi] of the
    arrays lo, hi and target, in lockstep; g maps arrays elementwise. A
    bracket stops halving at rel_tol times max(|lo|, |hi|), so its root does
    not depend on the others and keeps its relative accuracy near 0. Returns
    the upper end of each final bracket, where g >= target: the certified
    side for a caller that needs g(x) >= target (an Orlicz norm, an
    over-estimated inverse). A root exactly at lo = 0 halves toward
    underflow (1040 evaluations), so callers keep roots off it: the Bennett
    inverse maps y = 0 to 0 before bisecting.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(g(lo) - target > 0.0) or np.any(g(hi) - target < 0.0):
        raise ValueError("bisection bracket does not straddle the target")
    active = hi - lo > rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    while np.any(active):
        mid = 0.5 * (lo + hi)
        below = g(mid) - target <= 0.0
        lo, hi = np.where(active & below, mid, lo), np.where(active & ~below, mid, hi)
        active &= hi - lo > rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    return hi
