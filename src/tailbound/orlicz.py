"""Orlicz norms and deviation-coefficient bounds for exponential-type
generators psi(t) = e^{phi(t)} - 1.

Registered generator kinds: sub-gaussian (phi = t^2), sub-exponential
(phi = t), bernstein(L), bennett(L), power(p) (psi = t^p, accepted by the
norm but not of exponential type), and custom (tabulated phi, piecewise
linear on log-spaced abscissae). Conjugates phi* are closed-form where
calculus gives them, and the maximum over the table points for custom
tables.

The quadrature bound on w_r and the conversion factor M, the library's only
users of golden section, search numerics.LAMBDA_GRID and refine by golden
section (numerics.grid_golden_min). They and the moment integral D share
the composite Gauss-Legendre rule numerics.gauss_legendre, whose panels
also end at the kinks of a custom table. Both integrals are truncated at the
first power of two where the integrand has decayed (_first_power_of_two, one
pass over all powers, which also brackets the Bennett inverse); the Orlicz
norm and the Bennett inverse bisect with numerics.bisect_increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cgf import DiscreteDistribution, TabulatedFunction, check_rows
from .numerics import (
    LAMBDA_GRID,
    QUAD_NODES,
    QUAD_PANELS,
    NumericError,
    bisect_increasing,
    gauss_legendre,
    grid_golden_min,
    row_blocks,
)

EXP_TRUNCATION = 40.0  # integrands truncated where they fall to e^-40 of peak
DECAY_T_CAP = 2.0**50  # last t_max tried: an integrand not below e^-40 by it decays too slowly
MOMENT_T_CAP = 2.0**39  # last truncation point tried for the moment integral D
BENNETT_T_CAP = 2.0**996  # last upper bracket end tried for the Bennett inverse
# share by which D is rounded up, far above its error (below 4e-14 for
# Bernstein and Bennett at L from 1e-3 to 1e3 against 30-digit references),
# so that the conversion factor M = inf/D is never overstated
MOMENT_ROUND_UP = 1e-12


class UnsupportedGeneratorError(ValueError):
    """The requested bound diverges for this generator (not exponential type)."""


@dataclass(frozen=True)
class OrliczGenerator:
    """Orlicz generator psi = e^phi - 1: phi, its inverse, and its conjugate.

    phi and phi_inverse accept floats or numpy arrays; the kind's parameters
    (L, p, a custom table) are bound into them. phi_star is a scalar map
    returning +inf outside the conjugate's effective domain, or None for a
    generator that is not of exponential type (power kind), which is how
    exponential_type is read. lambda_sup is the supremum of
    {lambda > 0 : lambda t - phi(t) -> -inf}, i.e. the open decay range used
    by the quadrature bound. phi_star_limit is the exact
    lambda -> 0 limit of phi*(lambda)/lambda^2, which is also the limit of the
    conversion-factor ratio (e^{phi*} - 1)/lambda^2: 1/4 where phi(t) ~ t^2
    near 0, and 0 where phi* vanishes near 0. knots, derived from the kind,
    are the points where phi has a kink (a custom table's abscissae; empty
    for the closed-form kinds); quadrature panels end there.
    """

    kind: str
    phi: Callable
    phi_inverse: Callable
    phi_star: Callable | None
    lambda_sup: float
    phi_star_limit: float = 0.0  # lim phi*(lambda) / lambda^2 as lambda -> 0+
    knots: tuple = ()

    @property
    def exponential_type(self) -> bool:
        return self.phi_star is not None

    def psi(self, t):
        """psi(t) = e^{phi(t)} - 1."""
        return np.expm1(self.phi(t))

    def psi_inverse(self, y):
        return self.phi_inverse(np.log1p(y))


def _first_power_of_two(g, level: np.ndarray, cap: float) -> np.ndarray:
    """Per element of level, the first t in 1, 2, 4, ... up to cap (a power of
    two) with g(t) >= level, +inf where none is. g maps the row of powers
    (1, k) to values (1, k) or (elements, k); all are tested in one pass, in
    blocks of elements, with overflow in g past the first pass ignored."""
    powers = np.ldexp(1.0, np.arange(int(math.log2(cap)) + 1))[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.broadcast_to(g(powers), (level.size, powers.size))
    out = np.full(level.shape, math.inf)
    for blk in row_blocks(level.size, powers.size):
        passes = ~(values[blk] < level[blk, None])
        first = passes.argmax(axis=1)
        out[blk] = np.where(passes[np.arange(first.size), first], powers[0, first], math.inf)
    return out


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
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    pos = y > 0.0
    hi = _first_power_of_two(lambda t: _bennett_phi(t, L), y[pos], BENNETT_T_CAP)
    if not np.all(np.isfinite(hi)):
        raise NumericError("bennett inverse bracketing exhaustion")
    out[pos] = bisect_increasing(lambda t: _bennett_phi(t, L), np.zeros(hi.size), hi, y[pos])
    return out if out.ndim else float(out)


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


def _table_phi_star(lam: float, tk: np.ndarray, pk: np.ndarray, lambda_sup: float) -> float:
    """sup_{t >= 0} lam*t - phi(t) for phi piecewise linear through (tk, pk),
    tk[0] = pk[0] = 0, and of slope lambda_sup past the table: exact, as the
    concave objective peaks at a table point when lam < lambda_sup."""
    if lam < 0.0:
        return 0.0
    if lam >= lambda_sup:
        return math.inf
    return max(0.0, float(np.max(lam * tk - pk)))


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
            lambda_sup=math.inf,
            phi_star_limit=0.25,
        )
    if kind == "sub-exponential":
        return OrliczGenerator(
            kind,
            phi=lambda x: np.asarray(x, dtype=float) + 0.0,
            phi_inverse=lambda y: np.asarray(y, dtype=float) + 0.0,
            phi_star=lambda lam: 0.0 if lam <= 1.0 else math.inf,
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
            lambda_sup=2.0 / L,
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
            lambda_sup=math.inf,
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
            lambda_sup=0.0,
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
            phi_star=lambda lam, _t=tk, _p=pk, _s=s_last: _table_phi_star(lam, _t, _p, _s),
            lambda_sup=s_last,
            knots=tuple(tk[1:].tolist()),
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def orlicz_norm_rows(dist: DiscreteDistribution, rows: np.ndarray, gen: OrliczGenerator) -> np.ndarray:
    """||Y||_psi = inf{u > 0 : E psi(|Y|/u) <= 1} for Y = h(X), for every row h
    of a (count, support) array, by bisect_increasing on all rows in lockstep.

    Each bracket [max|h|/psi^{-1}(large), max|h|/psi^{-1}(1/2)] straddles the
    root; bisection runs to relative width 1e-10, and each value satisfies
    E psi(|Y|/value) <= 1 + 1e-9, and value (1 - 1e-8) gives more than 1.
    """
    rows = check_rows(dist, rows, centered=False)
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
        hi = bisect_increasing(lambda u: -expectation(u), lo, hi, -1.0, rel_tol=1e-10)
        if np.any(expectation(hi) > 1.0 + 1e-9) or np.any(expectation(hi * (1.0 - 1e-8)) <= 1.0):
            raise NumericError("orlicz norm post-condition violated")
        norms[idx] = hi
    return norms


def orlicz_norm(dist: DiscreteDistribution, f: TabulatedFunction, gen: OrliczGenerator) -> float:
    """||Y||_psi for Y = f(X); one row of orlicz_norm_rows."""
    return float(orlicz_norm_rows(dist, f.values[None, :], gen)[0])


def _log_quadrature_integral(gen: OrliczGenerator, lam: np.ndarray) -> np.ndarray:
    """log of I(lam) = int_0^inf 2 lam (e^{lam t} - 1)/(psi(t)+1) dt for each
    lam of an array; +inf where lam >= lambda_sup or the integrand decays
    too slowly.

    Computed on [0, t_max] by the Gauss-Legendre rule, one (lam, node)
    tensor per block, after factoring out each integrand's peak over the
    nodes so that exp never overflows; t_max is the first power of two with
    phi(t) - lam t >= EXP_TRUNCATION, +inf past DECAY_T_CAP.
    """
    out = np.full(lam.shape, math.inf)
    decays = np.nonzero(lam < gen.lambda_sup)[0]
    for blk in row_blocks(decays.size, QUAD_NODES * (QUAD_PANELS + len(gen.knots))):
        idx, lam_b = decays[blk], lam[decays[blk]]
        level = np.full(lam_b.shape, EXP_TRUNCATION)
        t_max = _first_power_of_two(lambda t: gen.phi(t) - lam_b[:, None] * t, level, DECAY_T_CAP)
        idx = idx[np.isfinite(t_max)]
        t, w = gauss_legendre(t_max[np.isfinite(t_max)], gen.knots)
        # w (e^{lam t - phi - shift} - e^{-phi - shift}) built in place, as
        # these (lam, node) tensors are the bound's largest allocations
        low = gen.phi(t)
        high = np.multiply(lam[idx, None], t, out=t)
        high -= low
        shift = np.maximum(0.0, high.max(axis=1))[:, None]
        np.exp(np.subtract(high, shift, out=high), out=high)
        np.exp(np.subtract(-shift, low, out=low), out=low)
        high -= low
        high *= w
        val = 2.0 * lam[idx] * high.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[idx] = np.where(val > 0.0, shift[:, 0] + np.log(val), -math.inf)
    return out


def wr_quadrature_bound(gen: OrliczGenerator, r: float) -> float:
    """Integral bound on w_r: inf_{lambda} (r + log(1 + I(lambda)))/lambda
    with I(lambda) = int_0^inf 2 lambda (e^{lambda t}-1)/(psi(t)+1) dt.

    The minimization over lambda runs on LAMBDA_GRID and golden section,
    restricted to lambda with a decaying integrand (lambda < lambda_sup);
    non-exponential-type generators are rejected. At r = 0 the infimum is
    0, approached as lambda -> 0.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r} has a divergent integrand for every lambda > 0"
        )
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 0.0

    def objective(lam):
        return (r + np.logaddexp(0.0, _log_quadrature_integral(gen, lam))) / lam

    return max(grid_golden_min(objective, LAMBDA_GRID)[1], 0.0)


def exp_moment_integral(gen: OrliczGenerator) -> float:
    """int_0^inf t e^{-phi(t)/2} dt, the integral on the right side of the
    conversion-factor inequality, by the Gauss-Legendre rule and rounded up
    by MOMENT_ROUND_UP."""
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r}: the moment integral diverges"
        )
    level = np.array([EXP_TRUNCATION + 5.0])
    t_hi = _first_power_of_two(lambda t: gen.phi(t) / 2.0 - np.log(t), level, MOMENT_T_CAP)
    if not np.isfinite(t_hi[0]):
        raise UnsupportedGeneratorError("moment integral truncation point not found")
    t, w = gauss_legendre(t_hi, gen.knots)
    return float((w * t * np.exp(-gen.phi(t) / 2.0)).sum()) * (1.0 + MOMENT_ROUND_UP)


def conversion_factor_M(gen: OrliczGenerator) -> float:
    """Largest M with inf_{lambda>0} (e^{phi*(lambda)}-1)/lambda^2 >= M * D,
    where D = int_0^inf t e^{-phi(t)/2} dt.

    The infimum is found on LAMBDA_GRID and refined by golden section. When
    the best grid point is the lowest, the ratio is increasing there (as it
    is for the registered closed-form conjugates) and the infimum is its
    lambda -> 0 limit, so the exact limit phi_star_limit is used: the ratio
    at any lambda > 0 lies above it. D comes from the Gauss-Legendre rule.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r} is not of exponential type"
        )
    denom = exp_moment_integral(gen)

    def ratio(lam: float) -> float:  # +inf off phi*'s domain and past exp's range
        star = gen.phi_star(lam)
        return math.expm1(star) / (lam * lam) if star <= 700.0 else math.inf

    _, value, j = grid_golden_min(np.vectorize(ratio, otypes=[float]), LAMBDA_GRID)
    return max(min(value, gen.phi_star_limit) if j == 0 else value, 0.0) / denom


def wr_exponential_type(gen: OrliczGenerator, M: float, r: float) -> float:
    """Closed-form exponential-type bound max{3, 3/sqrt(2M)} * phi^{-1}(2r/3)."""
    if not (M > 0.0):
        raise ValueError("M must be positive")
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    return max(3.0, 3.0 / math.sqrt(2.0 * M)) * float(gen.phi_inverse(2.0 * r / 3.0))
