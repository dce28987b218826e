"""Orlicz norms and deviation-coefficient bounds for exponential-type
generators psi(t) = e^{phi(t)} - 1.

Registered generator kinds: sub-gaussian (phi = t^2), sub-exponential
(phi = t), bernstein(L), bennett(L), power(p) (psi = t^p, accepted by the
norm but not of exponential type), and custom (tabulated phi, piecewise
linear on log-spaced abscissae). Conjugates phi* are closed-form where
calculus gives them and numeric only for custom tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cgf import DiscreteDistribution, TabulatedFunction
from .numerics import (
    NumericError,
    adaptive_simpson,
    bisect_increasing,
    golden_section_min,
    minimize_positive,
    row_blocks,
)

EXP_TRUNCATION = 40.0  # integrands truncated where they fall to e^-40 of peak
RATIO_LO_CAP = 1e-8  # smallest lambda the conversion-factor search evaluates


class UnsupportedGeneratorError(ValueError):
    """The requested bound diverges for this generator (not exponential type)."""


@dataclass(frozen=True)
class OrliczGenerator:
    """Exponential-type Orlicz generator: phi, its inverse, and its conjugate.

    phi and phi_inverse accept floats or numpy arrays. phi_star is a scalar
    map returning +inf outside the conjugate's effective domain; it is None
    only for generators with no useful conjugate (power kind). lambda_sup is
    the supremum of {lambda > 0 : lambda t - phi(t) -> -inf}, i.e. the open
    decay range used by the quadrature bound. phi_star_limit is the exact
    lambda -> 0 limit of phi*(lambda)/lambda^2, which is also the limit of the
    conversion-factor ratio (e^{phi*} - 1)/lambda^2: 1/4 where phi(t) ~ t^2
    near 0, and 0 where phi* vanishes near 0.
    """

    kind: str
    phi: Callable
    phi_inverse: Callable
    phi_star: Callable | None
    exponential_type: bool
    lambda_sup: float
    L: float | None = None
    p: float | None = None
    phi_star_limit: float = 0.0  # lim phi*(lambda) / lambda^2 as lambda -> 0+

    def psi(self, t):
        """psi(t) = e^{phi(t)} - 1."""
        return np.expm1(self.phi(t))

    def psi_inverse(self, y):
        return self.phi_inverse(np.log1p(y))


def _bernstein_phi(t, L: float):
    # (sqrt(1+2Lt)-1)^2/L^2 written without cancellation for small t
    t = np.asarray(t, dtype=float)
    return np.square(2.0 * t / (np.sqrt(1.0 + 2.0 * L * t) + 1.0))


def _bennett_phi(t, L: float):
    t = np.asarray(t, dtype=float)
    x = L * t
    small = x < 1e-4
    # series of (1+x)log(1+x)-x = x^2/2 - x^3/6 + x^4/12 - ... for tiny x
    series = t * t * (1.0 - x / 3.0 + x * x / 6.0)
    with np.errstate(invalid="ignore"):
        direct = 2.0 * ((1.0 + x) * np.log1p(x) - x) / (L * L)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _bennett_phi_inverse(y, L: float):
    y_arr = np.asarray(y, dtype=float)

    def solve_one(yy: float) -> float:
        if yy <= 0.0:
            return 0.0
        hi = 1.0
        while _bennett_phi(hi, L) < yy:
            hi *= 2.0
            if hi > 1e300:
                raise NumericError("bennett inverse bracketing exhaustion")
        return bisect_increasing(lambda t: float(_bennett_phi(t, L)), 0.0, hi, yy)

    if y_arr.ndim == 0:
        return solve_one(float(y_arr))
    return np.array([solve_one(float(v)) for v in y_arr.ravel()]).reshape(y_arr.shape)


def _bennett_phi_star(lam: float, L: float) -> float:
    # sup_t lam*t - phi(t) with phi'(t) = 2 log(1+Lt)/L gives
    # t* = (e^{lam L/2}-1)/L and value 2(e^{lam L/2}-1)/L^2 - lam/L
    if lam < 0.0:
        return 0.0
    x = lam * L / 2.0
    if x > 700.0:
        return math.inf
    if x < 1e-4:
        return lam * lam / 4.0 + lam**3 * L / 24.0 + lam**4 * L * L / 192.0
    return 2.0 * math.expm1(x) / (L * L) - lam / L


def bernstein_phi_star(lam: float, L: float) -> float:
    """Convex conjugate of the Bernstein generator, piecewise.

    0 for lam < 0; lam^2/(4(1 - L lam/2)) on [0, 2/L); +inf from lam = 2/L on
    (the conjugate diverges as lam approaches 2/L from the left, and +inf at
    the boundary keeps minimizers strictly inside the open interval).
    """
    if L <= 0.0:
        raise ValueError("L must be positive")
    if lam < 0.0:
        return 0.0
    if lam >= 2.0 / L:
        return math.inf
    return lam * lam / (4.0 * (1.0 - L * lam / 2.0))


def _conjugate_numeric(phi: Callable, lam: float, lambda_sup: float) -> float:
    """sup_{t >= 0} lam*t - phi(t) for convex phi; golden section on the
    bracketed unimodal objective. Used only for custom tabulated generators."""
    if lam < 0.0:
        return 0.0
    if lam >= lambda_sup:
        return math.inf
    obj = lambda t: lam * t - float(phi(t))
    t_hi = 1.0
    prev = obj(t_hi)
    while True:
        nxt = obj(2.0 * t_hi)
        if nxt <= prev:
            break
        t_hi *= 2.0
        prev = nxt
        if t_hi > 1e15:
            return math.inf
    x, neg = golden_section_min(lambda t: -obj(t), 0.0, 2.0 * t_hi, 1e-12)
    return max(0.0, -neg)


def make_generator(
    kind: str,
    L: float | None = None,
    p: float | None = None,
    t: list | None = None,
    phi: list | None = None,
) -> OrliczGenerator:
    """Build a registered generator from its kind tag and parameters."""
    if kind == "sub-gaussian":
        return OrliczGenerator(
            kind,
            phi=lambda x: np.square(np.asarray(x, dtype=float)),
            phi_inverse=lambda y: np.sqrt(np.asarray(y, dtype=float)),
            phi_star=lambda lam: (lam * lam / 4.0) if lam >= 0.0 else 0.0,
            exponential_type=True,
            lambda_sup=math.inf,
            phi_star_limit=0.25,
        )
    if kind == "sub-exponential":
        return OrliczGenerator(
            kind,
            phi=lambda x: np.asarray(x, dtype=float) + 0.0,
            phi_inverse=lambda y: np.asarray(y, dtype=float) + 0.0,
            phi_star=lambda lam: 0.0 if lam <= 1.0 else math.inf,
            exponential_type=True,
            lambda_sup=1.0,
        )
    if kind == "bernstein":
        if L is None or L <= 0.0:
            raise ValueError("bernstein generator requires L > 0")
        return OrliczGenerator(
            kind,
            phi=lambda x, _L=L: _bernstein_phi(x, _L),
            phi_inverse=lambda y, _L=L: np.sqrt(np.asarray(y, dtype=float))
            + _L * np.asarray(y, dtype=float) / 2.0,
            phi_star=lambda lam, _L=L: bernstein_phi_star(lam, _L),
            exponential_type=True,
            lambda_sup=2.0 / L,
            L=L,
            phi_star_limit=0.25,
        )
    if kind == "bennett":
        if L is None or L <= 0.0:
            raise ValueError("bennett generator requires L > 0")
        return OrliczGenerator(
            kind,
            phi=lambda x, _L=L: _bennett_phi(x, _L),
            phi_inverse=lambda y, _L=L: _bennett_phi_inverse(y, _L),
            phi_star=lambda lam, _L=L: _bennett_phi_star(lam, _L),
            exponential_type=True,
            lambda_sup=math.inf,
            L=L,
            phi_star_limit=0.25,
        )
    if kind == "power":
        if p is None or p < 1.0:
            raise ValueError("power generator requires p >= 1")
        # psi(t) = t^p exactly; phi = log(1+t^p) is not convex, so this kind
        # is accepted by orlicz_norm and rejected by the w_r machinery
        return OrliczGenerator(
            kind,
            phi=lambda x, _p=p: np.log1p(np.power(np.asarray(x, dtype=float), _p)),
            phi_inverse=lambda y, _p=p: np.power(np.expm1(np.asarray(y, dtype=float)), 1.0 / _p),
            phi_star=None,
            exponential_type=False,
            lambda_sup=0.0,
            p=p,
        )
    if kind == "custom":
        if t is None or phi is None:
            raise ValueError("custom generator requires tabulated t and phi")
        tk = np.asarray(t, dtype=float).reshape(-1)
        pk = np.asarray(phi, dtype=float).reshape(-1)
        if tk.shape != pk.shape or tk.size < 2:
            raise ValueError("custom table needs matching t/phi arrays of length >= 2")
        if np.any(tk <= 0.0) or np.any(np.diff(tk) <= 0.0):
            raise ValueError("custom abscissae must be positive and strictly increasing")
        if np.any(pk < 0.0) or np.any(np.diff(pk) <= 0.0):
            raise ValueError("custom phi values must be nonnegative and strictly increasing")
        tk = np.concatenate(([0.0], tk))
        pk = np.concatenate(([0.0], pk))
        slopes = np.diff(pk) / np.diff(tk)
        if np.any(np.diff(slopes) < -1e-12 * slopes.max()):
            raise ValueError("custom phi table is not convex (slopes must be nondecreasing)")
        s_last = float(slopes[-1])

        def phi_pl(x, _t=tk, _p=pk, _s=s_last):
            x = np.asarray(x, dtype=float)
            inside = np.interp(x, _t, _p)
            out = np.where(x > _t[-1], _p[-1] + _s * (x - _t[-1]), inside)
            return out if out.ndim else float(out)

        def phi_pl_inv(y, _t=tk, _p=pk, _s=s_last):
            y = np.asarray(y, dtype=float)
            inside = np.interp(y, _p, _t)
            out = np.where(y > _p[-1], _t[-1] + (y - _p[-1]) / _s, inside)
            return out if out.ndim else float(out)

        return OrliczGenerator(
            kind,
            phi=phi_pl,
            phi_inverse=phi_pl_inv,
            phi_star=lambda lam, _phi=phi_pl, _s=s_last: _conjugate_numeric(_phi, lam, _s),
            exponential_type=True,
            lambda_sup=s_last,
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def orlicz_norm_rows(dist: DiscreteDistribution, rows: np.ndarray, gen: OrliczGenerator) -> np.ndarray:
    """||Y||_psi = inf{u > 0 : E psi(|Y|/u) <= 1} for Y = h(X), for every row h
    of a (count, support) array, by bisection of all rows in lockstep.

    Each bracket [max|h|/psi^{-1}(large), max|h|/psi^{-1}(1/2)] straddles the
    root; bisection runs to relative width 1e-10, and each value satisfies
    E psi(|Y|/value) <= 1 + 1e-9 while value (1 - 1e-8) gives more than 1.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != dist.size:
        raise ValueError("function length does not match support size")
    mask = dist.probabilities > 0.0
    probs = dist.probabilities[mask]
    absv = np.abs(rows[:, mask])
    vmax = absv.max(axis=1)
    norms = np.zeros(rows.shape[0])
    live = np.nonzero(vmax > 0.0)[0]
    for blk in row_blocks(live.size, probs.size):
        idx = live[blk]
        v, top = absv[idx], vmax[idx]
        def expectation(u):
            return (probs * gen.psi(v / u[:, None])).sum(axis=1)
        # mass sitting at (essentially) the largest |value| of each row
        pm = (probs * (v >= (top * (1.0 - 1e-12))[:, None])).sum(axis=1)
        big, where = np.unique(np.maximum(2.0 / pm, 2.0), return_inverse=True)
        lo = top / np.asarray(gen.psi_inverse(big), dtype=float).reshape(-1)[where.reshape(-1)]
        hi = top / float(gen.psi_inverse(0.5))
        if not np.all((expectation(lo) > 1.0) & (expectation(hi) <= 1.0)):
            raise NumericError("orlicz norm bracket failed to straddle the root")
        active = hi - lo > 1e-10 * hi
        while active.any():
            mid = 0.5 * (lo + hi)
            below = expectation(mid) <= 1.0
            hi, lo = np.where(active & below, mid, hi), np.where(active & ~below, mid, lo)
            active = hi - lo > 1e-10 * hi
        if np.any(expectation(hi) > 1.0 + 1e-9) or np.any(expectation(hi * (1.0 - 1e-8)) <= 1.0):
            raise NumericError("orlicz norm post-condition violated")
        norms[idx] = hi
    return norms


def orlicz_norm(dist: DiscreteDistribution, f: TabulatedFunction, gen: OrliczGenerator) -> float:
    """||Y||_psi for Y = f(X); one row of orlicz_norm_rows."""
    return float(orlicz_norm_rows(dist, f.values[None, :], gen)[0])


def _decay_t_max(gen: OrliczGenerator, lam: float) -> float:
    """Upper crossing of phi(t) - lam*t = 40, past which the quadrature
    integrand is below e^-40 of its peak."""
    g = lambda t: float(gen.phi(t)) - lam * t
    t_hi = 1.0
    while g(t_hi) < EXP_TRUNCATION:
        t_hi *= 2.0
        if t_hi > 1e15:
            raise NumericError("quadrature truncation point not found (integrand decays too slowly)")
    t_lo = t_hi / 2.0
    if g(t_lo) >= EXP_TRUNCATION:
        # g is convex with g(0) = 0 < 40, so bisection from 0 stays on the
        # upper crossing
        t_lo = 0.0
    return bisect_increasing(g, t_lo, t_hi, EXP_TRUNCATION, rel_tol=1e-9)


def _log_quadrature_integral(gen: OrliczGenerator, lam: float) -> float:
    """log of I(lam) = int_0^inf 2 lam (e^{lam t} - 1)/(psi(t)+1) dt.

    Computed on [0, t_max] after factoring out the integrand's peak so the
    adaptive Simpson rule only ever sees well-scaled values.
    """
    t_max = _decay_t_max(gen, lam)
    ts = np.linspace(0.0, t_max, 513)
    shift = max(0.0, float(np.max(lam * ts - gen.phi(ts))))

    def integrand(t: float) -> float:
        ph = float(gen.phi(t))
        return 2.0 * lam * (math.exp(lam * t - ph - shift) - math.exp(-ph - shift))

    val = adaptive_simpson(integrand, 0.0, t_max, rel_tol=1e-9)
    if val <= 0.0:
        return -math.inf
    return shift + math.log(val)


def wr_quadrature_bound(gen: OrliczGenerator, r: float) -> float:
    """Integral bound on w_r: inf_{lambda} (r + log(1 + I(lambda)))/lambda
    with I(lambda) = int_0^inf 2 lambda (e^{lambda t}-1)/(psi(t)+1) dt.

    The outer minimization is restricted to lambda with a decaying integrand
    (lambda < lambda_sup); non-exponential-type generators are rejected. At
    r = 0 the infimum is 0, approached as lambda -> 0.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r} has a divergent integrand for every lambda > 0"
        )
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 0.0

    def objective(lam: float) -> float:
        if lam >= gen.lambda_sup:
            return math.inf
        try:
            log_i = _log_quadrature_integral(gen, lam)
        except NumericError:
            return math.inf
        return (r + float(np.logaddexp(0.0, log_i))) / lam

    res = minimize_positive(objective, x_init=1.0, lo_cap=1e-12, hi_cap=1e8, rel_tol=1e-10)
    return max(res.fun, 0.0)


def exp_moment_integral(gen: OrliczGenerator) -> float:
    """int_0^inf t e^{-phi(t)/2} dt, the integral on the right side of the
    conversion-factor inequality."""
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r}: the moment integral diverges"
        )
    t_hi = 1.0
    while float(gen.phi(t_hi)) / 2.0 - math.log(t_hi) < EXP_TRUNCATION + 5.0:
        t_hi *= 2.0
        if t_hi > 1e12:
            raise UnsupportedGeneratorError("moment integral truncation point not found")

    def integrand(t: float) -> float:
        return t * math.exp(-float(gen.phi(t)) / 2.0)

    return adaptive_simpson(integrand, 0.0, t_hi, rel_tol=1e-9)


def conversion_factor_M(gen: OrliczGenerator) -> float:
    """Largest M with inf_{lambda>0} (e^{phi*(lambda)}-1)/lambda^2 >= M * D,
    where D = int_0^inf t e^{-phi(t)/2} dt.

    The infimum is found by the bracketing and golden-section scheme. When
    that walk ends at its lower cap lambda = 1e-8, the ratio is increasing
    (as it is for the registered closed-form conjugates) and the infimum is
    its lambda -> 0 limit, so the exact limit phi_star_limit is used: the
    ratio at the cap lies above it. D comes from adaptive Simpson
    quadrature.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r} is not of exponential type"
        )
    if gen.phi_star is None:
        raise UnsupportedGeneratorError("generator has no usable convex conjugate")
    denom = exp_moment_integral(gen)

    def ratio(lam: float) -> float:
        star = gen.phi_star(lam)
        if not math.isfinite(star):
            return math.inf
        if star > 700.0:
            return math.inf
        return math.expm1(star) / (lam * lam)

    res = minimize_positive(ratio, x_init=1.0, lo_cap=RATIO_LO_CAP, hi_cap=1e8, rel_tol=1e-10)
    infimum = res.fun
    if not res.interior and res.x <= RATIO_LO_CAP:
        infimum = min(infimum, gen.phi_star_limit)
    return max(infimum, 0.0) / denom


def wr_exponential_type(gen: OrliczGenerator, M: float, r: float) -> float:
    """Closed-form exponential-type bound max{3, 3/sqrt(2M)} * phi^{-1}(2r/3)."""
    if M <= 0.0:
        raise ValueError("M must be positive")
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    return max(3.0, 3.0 / math.sqrt(2.0 * M)) * float(gen.phi_inverse(2.0 * r / 3.0))
