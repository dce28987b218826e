"""Orlicz norms and deviation-coefficient bounds for exponential-type
generators psi(t) = e^{phi(t)} - 1.

Registered generator kinds: sub-gaussian (phi = t^2), sub-exponential
(phi = t), bernstein(L), bennett(L), power(p) (psi = t^p, accepted by the
norm but not of exponential type), and custom (tabulated phi, piecewise
linear on log-spaced abscissae).

The conversion factor M is the exact lambda -> 0 limit phi_star_limit of
(e^{phi*(lambda)} - 1)/lambda^2 over the moment integral D: for every
registered exponential-type kind that limit is the ratio's infimum, so no
conjugate is evaluated. The quadrature bound on w_r scans
numerics.LAMBDA_GRID, then solves its dual condition by T_r's Newton
(cgf._dual_root). It and D share the composite Gauss-Legendre rule
numerics.gauss_legendre, whose panels also end at the kinks of a custom
table, truncated at the first power of two where the integrand has decayed
(_first_power_of_two, which also brackets the Bennett inverse). Orlicz norms
and the Bennett inverse are roots found by numerics.false_position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cgf import DiscreteDistribution, _dual_root, check_rows
from .numerics import (
    LAMBDA_GRID,
    QUAD_NODES,
    QUAD_PANELS,
    NumericError,
    false_position,
    gauss_legendre,
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
    """Orlicz generator psi = e^phi - 1: phi, its inverse, and the constants
    the coefficient bounds read.

    phi and phi_inverse accept floats or numpy arrays; the kind's parameters
    (L, p, a custom table) are bound into them. lambda_sup is the supremum of
    {lambda > 0 : lambda t - phi(t) -> -inf}, i.e. the open decay range used
    by the quadrature bound; it is 0 only for the power kind, the one kind
    not of exponential type. phi_star_limit is the exact lambda -> 0 limit of
    phi*(lambda)/lambda^2 for the conjugate phi*, which is also the limit,
    and the infimum, of the conversion-factor ratio (e^{phi*} - 1)/lambda^2:
    1/4 where phi(t) ~ t^2 near 0, and 0 where phi* vanishes near 0. knots,
    derived from the kind, are the points where phi has a kink (a custom
    table's abscissae; empty for the closed-form kinds); quadrature panels
    end there.
    """

    kind: str
    phi: Callable
    phi_inverse: Callable
    lambda_sup: float
    phi_star_limit: float = 0.0  # lim phi*(lambda) / lambda^2 as lambda -> 0+
    knots: tuple = ()

    @property
    def exponential_type(self) -> bool:
        return self.lambda_sup > 0.0

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
    """phi(t) = (sqrt(1+2Lt)-1)^2/L^2, written without cancellation for small
    t; where 2Lt overflows, sqrt(1+2Lt) is sqrt(2) sqrt(L) sqrt(t) to within
    rounding, so phi stays finite there."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        root = np.sqrt(1.0 + 2.0 * L * t)
    if np.isinf(root).any():
        root = np.where(np.isinf(root), math.sqrt(2.0) * math.sqrt(L) * np.sqrt(t), root)
    return np.square(2.0 * t / (root + 1.0))


def _bennett_phi(t, L: float):
    """phi(t) = 2((1+x)log(1+x) - x)/L^2 at x = Lt, each form evaluated only
    where it is used; +inf where phi overflows."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = L * t
        small = x < 1e-4
        if small.any():  # series of (1+x)log(1+x)-x = x^2/2 - x^3/6 + x^4/12 - ... for tiny x
            ts, xs = t[small], x[small]
            out[small] = ts * ts * (1.0 - xs / 3.0 + xs * xs / 6.0)
        big = ~small
        t, x = t[big], x[big]
        direct = 2.0 * ((1.0 + x) * np.log1p(x) - x) / (L * L)
        # where L * L is not a normal float or the form above overflows, the same phi
        # as 2t((1 + 1/x)log(1+x) - 1)/L, with log(1+x) = log L + log t once x overflows
        redo = ~np.isfinite(direct) if 2.0**-1022 <= L * L < math.inf else np.ones(x.shape, bool)
        if redo.any():
            t, x = t[redo], x[redo]
            log1p = np.where(np.isinf(x), np.log(L) + np.log(t), np.log1p(x))
            direct[redo] = t * (2.0 * ((1.0 + 1.0 / x) * log1p - 1.0) / L)
        out[big] = direct
    return out if out.ndim else float(out)


def _bennett_phi_inverse(y, L: float):
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    pos = y > 0.0
    hi = _first_power_of_two(lambda t: _bennett_phi(t, L), y[pos], BENNETT_T_CAP)
    if not np.all(np.isfinite(hi)):
        raise NumericError("bennett inverse bracketing exhaustion")
    out[pos] = false_position(lambda t: _bennett_phi(t, L), np.zeros(hi.size), hi, y[pos])
    return out if out.ndim else float(out)


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
            lambda_sup=math.inf,
            phi_star_limit=0.25,
        )
    if kind == "sub-exponential":
        return OrliczGenerator(
            kind,
            phi=lambda x: np.asarray(x, dtype=float) + 0.0,
            phi_inverse=lambda y: np.asarray(y, dtype=float) + 0.0,
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
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(pk) / np.diff(tk)
        if not np.all(np.isfinite(slopes)):
            raise ValueError("custom phi table slopes must be finite")
        if np.any(np.diff(slopes) < -1e-12 * slopes.max()):
            raise ValueError("custom phi table is not convex (slopes must be nondecreasing)")
        s_last = float(slopes[-1])

        def phi_pl(x, _t=tk, _p=pk, _s=s_last):
            x = np.asarray(x, dtype=float)
            inside = np.interp(x, _t, _p)
            with np.errstate(over="ignore"):  # +inf where the extrapolation overflows
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
            lambda_sup=s_last,
            knots=tuple(tk[1:].tolist()),
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def orlicz_norm(dist: DiscreteDistribution, values, gen: OrliczGenerator):
    """||Y||_psi = inf{u > 0 : E psi(|Y|/u) <= 1} for Y = h(X), h given by its
    finite values on dist's support: one function gives a float, a (count,
    support) array one norm per row.

    Each row is solved as x = |h| / max|h|, by false_position on all rows in
    lockstep, and its norm is max|h| times the root u. Each bracket
    [1/psi^{-1}(large), 1/psi^{-1}(1/2)] straddles the root; the search runs
    to relative width 1e-10, and each u satisfies E psi(x/u) <= 1 + 1e-9,
    while u (1 - 1e-8) gives more than 1.
    """
    values = np.asarray(values, dtype=float)
    rows = check_rows(dist, np.atleast_2d(values), centered=False)
    mask = dist.probabilities > 0.0
    probs = dist.probabilities[mask]
    absv = np.abs(rows[:, mask])
    vmax = absv.max(axis=1)
    norms = np.zeros(rows.shape[0])
    live = np.nonzero(vmax > 0.0)[0]
    for blk in row_blocks(live.size, probs.size):
        idx = live[blk]
        x = absv[idx] / vmax[idx, None]
        def expectation(u):
            return (probs * gen.psi(x / u[:, None])).sum(axis=1)
        # mass sitting at (essentially) the largest |value| of each row
        pm = (probs * (x >= 1.0 - 1e-12)).sum(axis=1)
        big, where = np.unique(np.maximum(2.0 / pm, 2.0), return_inverse=True)
        lo = 1.0 / np.asarray(gen.psi_inverse(big), dtype=float).reshape(-1)[where.reshape(-1)]
        hi = np.full(idx.size, 1.0 / float(gen.psi_inverse(0.5)))
        if not np.all((expectation(lo) > 1.0) & (expectation(hi) <= 1.0)):
            raise NumericError("orlicz norm bracket failed to straddle the root")
        hi = false_position(lambda u: -expectation(u), lo, hi, -1.0, rel_tol=1e-10)
        if np.any(expectation(hi) > 1.0 + 1e-9) or np.any(expectation(hi * (1.0 - 1e-8)) <= 1.0):
            raise NumericError("orlicz norm post-condition violated")
        norms[idx] = vmax[idx] * hi
    return float(norms[0]) if values.ndim == 1 else norms


def _quadrature_moments(gen: OrliczGenerator, lam: np.ndarray):
    """(K, lambda K' - K, lambda^2 K'') at each lambda of an array, for K =
    log(1 + I) and I(lambda) = int_0^inf 2 lambda (e^{lambda t} - 1)/(psi(t)
    + 1) dt; +inf where lambda >= lambda_sup or the integrand decays too
    slowly. One (lambda, node) tensor per block on [0, t_max], t_max the
    first power of two with phi(t) - lambda t >= EXP_TRUNCATION (+inf past
    DECAY_T_CAP). With each row's peak exponent s >= 0 factored out and E =
    w e^{lambda t - phi(t) - s}, three sums of E give e^{-s} I = 2 lambda sum
    E (1 - e^{-lambda t}), e^{-s} I' = 2 sum E (1 - e^{-lambda t} + lambda t)
    and e^{-s} I'' = 2 sum E t (2 + lambda t).
    """
    out = np.full((3, lam.size), math.inf)
    decays = np.nonzero(lam < gen.lambda_sup)[0]
    for blk in row_blocks(decays.size, QUAD_NODES * (QUAD_PANELS + len(gen.knots))):
        lam_b = lam[decays[blk]]
        t_max = _first_power_of_two(lambda t: gen.phi(t) - lam_b[:, None] * t, np.full(lam_b.shape, EXP_TRUNCATION),
                                    DECAY_T_CAP)
        idx, lam_b = decays[blk][np.isfinite(t_max)], lam_b[np.isfinite(t_max)]
        t, w = gauss_legendre(t_max[np.isfinite(t_max)], gen.knots)
        lt = lam_b[:, None] * t
        e = lt - gen.phi(t)
        shift = np.maximum(0.0, e.max(axis=1))
        e = w * np.exp(e - shift[:, None])
        s0, s1, s2 = (e * -np.expm1(-lt)).sum(axis=1), (e * t).sum(axis=1), (e * t * t).sum(axis=1)
        one = np.expm1(-shift) + 2.0 * lam_b * s0  # e^{-s} (1 + I) - 1, exact as I -> 0
        k, k1 = shift + np.log1p(one), 2.0 * (s0 + lam_b * s1) / (one + 1.0)
        out[:, idx] = k, lam_b * k1 - k, lam_b * lam_b * (2.0 * (2.0 * s1 + lam_b * s2) / (one + 1.0) - k1 * k1)
    return out


def wr_quadrature_bound(gen: OrliczGenerator, r: float) -> float:
    """Integral bound on w_r: inf_{lambda} (r + K(lambda))/lambda with
    K = log(1 + I), I(lambda) = int_0^inf 2 lambda (e^{lambda t}-1)/(psi(t)+1) dt.

    The objective is evaluated on LAMBDA_GRID (+inf where the integrand does
    not decay); then lambda K' - K = r is solved by cgf._dual_root, T_r's
    Newton, in the best grid point's neighbour bracket. The value is the
    smaller of the best grid value and the objective at the final lambda (at
    the bracket's lower end where that is not finite): an upper bound
    whatever the solver's accuracy. Non-exponential-type generators are
    rejected. At r = 0 the infimum is 0, approached as lambda -> 0.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(f"generator kind {gen.kind!r} has a divergent integrand for every lambda > 0")
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 0.0

    def objective(lam):
        with np.errstate(over="ignore"):  # +inf where r / lambda overflows
            return (r + _quadrature_moments(gen, lam)[0]) / lam

    values = objective(LAMBDA_GRID)
    j = int(np.argmin(values))
    best = float(values[j])
    if not np.isfinite(best):
        raise NumericError("no finite objective value on the search grid")
    if 0 < j < LAMBDA_GRID.size - 1:  # else the infimum lies at or past the grid's end
        lo, t, hi = np.log(LAMBDA_GRID[j - 1 : j + 2, None])
        # the bracket stop ends the search where a truncation step makes g jump across r
        lam = _dual_root(lambda _rows, lam: _quadrature_moments(gen, lam)[1:], t, lo, hi, r)
        value = float(objective(lam)[0])
        # a last probe past a jump of g to +inf has no finite value; the bracket's lower end has
        best = min(best, value if np.isfinite(value) else float(objective(np.exp(lo))[0]))
    return max(best, 0.0)


def exp_moment_integral(gen: OrliczGenerator) -> float:
    """int_0^inf t e^{-phi(t)/2} dt, the integral on the right side of the
    conversion-factor inequality, by the Gauss-Legendre rule and rounded up
    by MOMENT_ROUND_UP. NumericError when the integrand has not decayed by
    MOMENT_T_CAP or the integral is not finite and positive."""
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r}: the moment integral diverges"
        )
    level = np.array([EXP_TRUNCATION + 5.0])
    t_hi = _first_power_of_two(lambda t: gen.phi(t) / 2.0 - np.log(t), level, MOMENT_T_CAP)
    if not np.isfinite(t_hi[0]):
        raise NumericError("moment integral truncation point not found")
    t, w = gauss_legendre(t_hi, gen.knots)
    D = float((w * t * np.exp(-gen.phi(t) / 2.0)).sum())
    if not (0.0 < D < math.inf):
        raise NumericError(f"moment integral {D!r} is not finite and positive")
    return D * (1.0 + MOMENT_ROUND_UP)


def conversion_factor_M(gen: OrliczGenerator) -> float:
    """Largest M with inf_{lambda>0} (e^{phi*(lambda)}-1)/lambda^2 >= M * D,
    where D = int_0^inf t e^{-phi(t)/2} dt (exp_moment_integral).

    The infimum is the ratio's lambda -> 0 limit phi_star_limit, exactly, for
    every registered exponential-type kind: for sub-Gaussian, Bernstein and
    Bennett the ratio is 1/4 plus a power series in lambda with nonnegative
    coefficients, and for sub-exponential and every custom table phi*
    vanishes on (0, s_1], s_1 being phi's first slope, so the ratio is 0
    there and M = 0, however small s_1 is.
    """
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(
            f"generator kind {gen.kind!r} is not of exponential type"
        )
    return gen.phi_star_limit / exp_moment_integral(gen)


def wr_exponential_type(gen: OrliczGenerator, M: float, r: float) -> float:
    """Closed-form exponential-type bound max{3, 3/sqrt(2M)} * phi^{-1}(2r/3);
    generators not of exponential type are rejected, whatever M is given."""
    if not gen.exponential_type:
        raise UnsupportedGeneratorError(f"generator kind {gen.kind!r} is not of exponential type")
    if not (M > 0.0):
        raise ValueError("M must be positive")
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    return max(3.0, 3.0 / math.sqrt(2.0 * M)) * float(gen.phi_inverse(2.0 * r / 3.0))
