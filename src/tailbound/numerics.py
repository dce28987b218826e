"""Shared numerics: bracketed golden-section search, adaptive Simpson
quadrature, bisection, a stable log-sum-exp, and the batched cumulant
generating function that the rate-function engine and the norms evaluate.

Everything here is deterministic: identical inputs produce bit-identical
outputs, which the certificate-replay machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

BLOCK_ELEMENTS = 1 << 18  # elements of one batched tensor; bounds memory for any row count
SMALL_MU = 1e-3  # below this |mu| the CGF takes its expm1 form


class NumericError(RuntimeError):
    """Internal numeric failure: bracketing exhaustion, quadrature
    non-convergence, or a failed runtime consistency check."""


@dataclass(frozen=True)
class ScalarMinResult:
    x: float
    fun: float
    interior: bool  # False when the infimum was approached at a search cap


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) computed without overflow.

    Accepts -inf entries (zero weight); returns -inf for an all--inf input.
    """
    x = np.asarray(x, dtype=float)
    m = np.max(x)
    if not np.isfinite(m):
        return float(m)  # all -inf (or a stray +inf propagates)
    return float(m + np.log(np.sum(np.exp(x - m))))


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


def golden_section_min(f, a, b, rel_tol: float = 1e-10):
    """Minimize a unimodal f on [a, b] to relative interval width rel_tol.

    a and b may also be arrays of intervals, searched in lockstep; f then
    maps arrays elementwise, and each interval stops narrowing once it has
    converged, so its result does not depend on the others.
    Returns (x, f(x)) at the best interior probe.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    ev = (lambda x: f(float(x))) if scalar else f  # scalar callers get floats
    a, b = np.minimum(a, b), np.maximum(a, b)
    h = b - a
    c, d = a + INV_PHI_SQ * h, a + INV_PHI * h
    yc, yd = ev(c), ev(d)
    active = h > rel_tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    while np.any(active):
        left = active & (yc < yd)  # the minimizer lies in [a, d]
        right = active & ~(yc < yd)
        b, a = np.where(left, d, b), np.where(right, c, a)
        h = b - a
        # left: d <- c and a new c; right: c <- d and a new d; others stay
        c, d = (np.where(left, a + INV_PHI_SQ * h, np.where(right, d, c)),
                np.where(right, a + INV_PHI * h, np.where(left, c, d)))
        y = ev(np.where(left, c, d))
        yc, yd = np.where(left, y, np.where(right, yd, yc)), np.where(right, y, np.where(left, yc, yd))
        active &= h > rel_tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    x, y = np.where(yc < yd, c, d), np.minimum(yc, yd)
    return (float(x), float(y)) if scalar else (x, y)


def minimize_positive(
    f,
    x_init: float = 1.0,
    lo_cap: float = 1e-12,
    hi_cap: float = 1e8,
    rel_tol: float = 1e-10,
) -> ScalarMinResult:
    """Minimize f over (0, inf) for f that is quasiconvex there.

    Brackets the minimizer by doubling (or halving) from x_init until the
    objective rises on both flanks, then refines by golden section. If f is
    still decreasing when a cap is reached, the boundary value at the cap is
    reported with interior=False; the true infimum is then a limit beyond the
    cap and the returned value is a valid upper evaluation of it.

    f may return +inf outside its effective domain; x_init must be interior.
    """
    if not (lo_cap < x_init < hi_cap):
        raise ValueError("x_init must lie strictly between the search caps")
    x = x_init
    fx = f(x)
    # walk into the effective domain toward 0 (domains here are down-closed
    # intervals containing small positive values)
    while not math.isfinite(fx):
        x /= 2.0
        if x < lo_cap:
            raise NumericError("bracketing exhaustion: no finite objective value found")
        fx = f(x)

    flank = {}
    for step, cap, clamp in ((2.0, hi_cap, min), (0.5, lo_cap, max)):
        nxt = flank[step] = clamp(x * step, cap)
        f_nxt = f(nxt)
        if not f_nxt < fx:
            continue
        # walk on while the objective decreases
        prev_x, x, fx = x, nxt, f_nxt
        while x != cap:
            nxt = clamp(x * step, cap)
            f_nxt = f(nxt)
            if not f_nxt < fx:
                xm, fm = golden_section_min(f, prev_x, nxt, rel_tol)
                return ScalarMinResult(*((xm, fm) if fm < fx else (x, fx)), True)
            prev_x, x, fx = x, nxt, f_nxt
        return ScalarMinResult(x, fx, False)

    # x_init already sits between two larger values
    xm, fm = golden_section_min(f, flank[0.5], flank[2.0], rel_tol)
    return ScalarMinResult(*((xm, fm) if fm < fx else (x, fx)), True)


def maximize_on_interval(f, a: float, b: float, rel_tol: float = 1e-10):
    """Maximize a unimodal f on [a, b]; returns (x, f(x))."""
    x, neg = golden_section_min(lambda t: -f(t), a, b, rel_tol)
    return x, -neg


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-9, max_depth: int = 60) -> float:
    """Integrate f on [a, b] by adaptive Simpson quadrature.

    f is first sampled on a dense 257-point grid. The tolerance is relative
    to the trapezoid estimate of int |f| on that grid, and the recursion
    starts from its 128 Simpson panels, each with an equal share of the
    tolerance. Starting from the single whole interval would miss
    concentrated integrands: when all the mass lies between the first few
    samples, the first error estimate is tiny and is accepted at once.
    Recursion beyond max_depth or past the node budget raises NumericError
    (quadrature non-convergence).
    """
    if b <= a:
        return 0.0
    grid = np.linspace(a, b, 257)
    vals = [f(x) for x in grid]
    coarse = float(np.trapezoid(np.abs(vals), grid))
    panels = (len(grid) - 1) // 2
    eps = rel_tol * max(coarse, 1e-300) / panels
    budget = [500_000]

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        budget[0] -= 2
        if budget[0] < 0:
            raise NumericError("quadrature non-convergence: node budget exhausted")
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth >= max_depth:
            raise NumericError("quadrature non-convergence: adaptive Simpson depth exhausted")
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth + 1
        )

    total = 0.0
    for i in range(0, len(grid) - 1, 2):
        pa, pm, pb = float(grid[i]), float(grid[i + 1]), float(grid[i + 2])
        fa, fm, fb = vals[i], vals[i + 1], vals[i + 2]
        total += recurse(pa, fa, pb, fb, pm, fm, _simpson(fa, fm, fb, pb - pa), eps, 0)
    return total


def bisect_increasing(g, lo: float, hi: float, target: float, rel_tol: float = 1e-12) -> float:
    """Solve g(x) = target for increasing g on [lo, hi] by bisection."""
    glo = g(lo) - target
    ghi = g(hi) - target
    if glo > 0.0 or ghi < 0.0:
        raise ValueError("bisection bracket does not straddle the target")
    while hi - lo > rel_tol * max(abs(lo), abs(hi), 1e-300):
        mid = 0.5 * (lo + hi)
        if g(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
