"""Reference values computed apart from tailbound.

Nothing here imports tailbound. Each quantity the benchmark checks is
computed by a different route from the library's: dense lambda grids with
zoom refinement instead of bracketing and golden-section search, plain
bisection for Orlicz norms, exact binomial sums, and closed forms where the
mathematics gives one.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)
ZOOM_POINTS = 101
ZOOM_ROUNDS = 12


def cgf(values, probs, lams) -> np.ndarray:
    """Lambda(lam) = log sum_i p_i e^{lam v_i} for each lam in a 1-D array.

    Where |lam v| <= 1 the sum is taken as log1p(sum p expm1(lam v)), which
    keeps its relative precision as lam -> 0; elsewhere as a shifted
    log-sum-exp, which cannot overflow.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    x = np.multiply.outer(lams, values)
    small = np.abs(x).max(axis=1) <= 1.0
    out = np.empty(lams.shape)
    out[small] = np.log1p(np.expm1(x[small]) @ probs)
    a = x[~small] + np.log(probs)
    top = a.max(axis=1)
    out[~small] = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
    return out


def _zoom_min(objective, grid: np.ndarray):
    """(lam, value) minimizing objective over a 1-D grid, refined by zooming
    into the bracket around the best grid point ZOOM_ROUNDS times."""
    vals = objective(grid)
    for _ in range(ZOOM_ROUNDS):
        j = int(np.argmin(vals))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        if hi <= lo:
            break
        grid = np.linspace(lo, hi, ZOOM_POINTS)
        vals = objective(grid)
    j = int(np.argmin(vals))
    return float(grid[j]), float(vals[j])


def cgf_norm(values, probs) -> float:
    """sup over real lam != 0 of sqrt(2 Lambda(lam)) / |lam|, with the
    lam -> 0 limit sqrt(Var) as a candidate."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    vmax = float(np.abs(values).max())
    if vmax == 0.0:
        return 0.0
    variance = float(probs @ (values - probs @ values) ** 2)
    best = variance
    for sign in (1.0, -1.0):
        grid = sign * np.logspace(-4.0, 6.0, 2001) / vmax
        if sign < 0:
            grid = grid[::-1]
        _, neg = _zoom_min(lambda lam: -2.0 * cgf(values, probs, lam) / (lam * lam), grid)
        best = max(best, -neg)
    return math.sqrt(best)


def rate_T(values, probs, r: float) -> float:
    """T_r(h) = inf_{lam > 0} (r + Lambda(lam)) / lam for a centered h.

    When r >= -log P(h = max h) the infimum is the limit max h as lam -> inf,
    returned exactly. Otherwise it is attained; the value returned is the
    objective at the refined grid minimizer, itself an upper bound.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if r == 0.0 or not np.any(values):
        return 0.0
    top = float(values.max())
    p_top = float(probs[values == top].sum())
    if r >= -math.log(p_top):
        return top
    scale = float(np.abs(values).max())
    grid = np.logspace(-6.0, 9.0, 3001) / scale
    _, val = _zoom_min(lambda lam: (r + cgf(values, probs, lam)) / lam, grid)
    return val


def rademacher_T(r: float) -> float:
    """T_r of a Rademacher sign: the t in (0, 1) with KL((1+t)/2 || 1/2) = r,
    or 1 when r >= log 2."""
    if r >= LOG2:
        return 1.0

    def kl(t):
        q = (1.0 + t) / 2.0
        return q * math.log(2.0 * q) + (1.0 - q) * math.log(2.0 * (1.0 - q))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl(mid) < r:
            lo = mid
        else:
            hi = mid
    return hi


def binomial_upper_tail(n: int, c: float) -> float:
    """P(Bin(n, 1/2) > c), summed exactly in integers."""
    k0 = math.floor(c) + 1
    return sum(math.comb(n, k) for k in range(max(k0, 0), n + 1)) / 2**n


# --- Orlicz generators, written from their definitions --------------------


def phi(kind: str, t, L: float | None = None):
    t = np.asarray(t, dtype=float)
    if kind == "sub-gaussian":
        return t * t
    if kind == "bernstein":
        return ((np.sqrt(1.0 + 2.0 * L * t) - 1.0) / L) ** 2
    if kind == "bennett":
        x = L * t
        series = x * x / 2.0 - x**3 / 6.0 + x**4 / 12.0 - x**5 / 20.0
        with np.errstate(invalid="ignore", divide="ignore"):
            direct = (1.0 + x) * np.log1p(x) - x
        return 2.0 * np.where(x < 1e-3, series, direct) / (L * L)
    raise ValueError(f"no reference generator {kind!r}")


def orlicz_norm(values, probs, kind: str, L: float | None = None) -> float:
    """inf{u > 0 : E exp(phi(|h|/u)) - 1 <= 1}, by bisection on u."""
    absv = np.abs(np.asarray(values, dtype=float))
    probs = np.asarray(probs, dtype=float)
    vmax = float(absv.max())
    if vmax == 0.0:
        return 0.0

    def excess(u):
        with np.errstate(over="ignore"):
            return float(probs @ np.expm1(phi(kind, absv / u, L))) - 1.0

    lo, hi = vmax * 1e-3, vmax * 1e3
    while excess(lo) <= 0.0:
        lo /= 2.0
    while excess(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def rademacher_orlicz_norm(kind: str, L: float | None = None) -> float:
    """Closed form: phi(1/u) = log 2 solved for u."""
    if kind == "sub-gaussian":
        return 1.0 / math.sqrt(LOG2)
    if kind == "bernstein":
        return 1.0 / (math.sqrt(LOG2) + L * LOG2 / 2.0)
    raise ValueError(f"no closed form for {kind!r}")


def bernstein_moment_integral(L: float) -> float:
    """I(L) = int_0^inf t e^{-phi_L(t)/2} dt = L^2 + (3/2) sqrt(pi/2) L + 1."""
    return L * L + 1.5 * math.sqrt(math.pi / 2.0) * L + 1.0


def bernstein_conversion_factor(L: float) -> float:
    """M(L) = (1/4) / I(L) = 1 / (4 L^2 + 3 sqrt(2 pi) L + 4)."""
    return 1.0 / (4.0 * L * L + 3.0 * math.sqrt(2.0 * math.pi) * L + 4.0)


# --- Gaussian rank-k bound -------------------------------------------------


def gaussian_terms(spectrum, basis, u, k: int, n: int, r: float) -> dict:
    """The four terms of the rank-k bound from a known eigendecomposition.

    spectrum is descending and basis holds the matching eigenvectors in
    columns.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    coords = np.asarray(basis, dtype=float).T @ np.asarray(u, dtype=float)
    weighted = spectrum * coords * coords
    tail_op = spectrum[k] if k < spectrum.size else 0.0
    return {
        "tail_trace": math.sqrt(float(spectrum[k:].sum()) / n),
        "tail_op": math.sqrt(2.0 * r * tail_op),
        "projected": math.sqrt(k / n) * math.sqrt(float(weighted[:k].sum())),
        "base": math.sqrt(2.0 * r) * math.sqrt(float(weighted.sum())),
    }
