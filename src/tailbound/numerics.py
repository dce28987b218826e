"""Shared numerics: a composite Gauss-Legendre quadrature rule, Illinois
false position for the Orlicz roots (it returns the end of each bracket
where g >= target), and the row blocks that bound every batched tensor.
The library minimizes nothing numerically: T_r, the CGF norm and the
quadrature bound on w_r solve their stationarity conditions with one
safeguarded Newton, cgf._dual_root, and the CGF they read is cgf._moments.

Everything here is deterministic: identical inputs produce bit-identical
outputs, which the certificate-replay machinery relies on.
"""

from __future__ import annotations

import numpy as np

BLOCK_ELEMENTS = 1 << 18  # elements of one batched tensor; bounds memory for any row count

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


def readonly(a) -> np.ndarray:
    """A float copy of a that cannot be written to."""
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


def row_blocks(rows: int, per_row: int):
    """Slices cutting `rows` rows into blocks whose tensors, of `per_row`
    elements per row, hold at most BLOCK_ELEMENTS elements (one row at least)."""
    step = max(1, BLOCK_ELEMENTS // max(per_row, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def gauss_legendre(t_max, knots=()):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, t] for
    each t of the array t_max: two arrays (len(t_max), nodes), so that
    sum(weights * f(nodes), axis=1) integrates f on each interval.

    The QUAD_PANELS panels are graded geometrically toward 0, so an
    integrand whose mass sits near t = 1 is resolved on [0, 1e3] as well as
    on [0, 16]. Each knot below t, a point where the integrand has a kink,
    is a panel edge too; knots above t give empty panels. Each t's rule
    depends on that t and the knots alone.
    """
    t_max = np.asarray(t_max, dtype=float).reshape(-1, 1)
    edges = t_max * _QUAD_EDGES
    if knots:
        edges = np.sort(np.concatenate([edges, np.minimum(knots, t_max)], axis=1), axis=1)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
    shape = (t_max.shape[0], half.shape[1] * QUAD_NODES)
    return (mid + half * _GL_X).reshape(shape), (half * _GL_W).reshape(shape)


def false_position(g, lo, hi, target, rel_tol: float = 1e-12):
    """Solve g(x) = target for increasing g on each bracket [lo, hi] of the
    arrays lo, hi and target, in lockstep, by Illinois false position; g maps
    arrays elementwise. Each probe is the secant root of its bracket's ends
    (the midpoint while a residual is not finite), kept at least half a
    tolerance inside the bracket; an end kept for a second probe running
    has its residual halved. A bracket stops at width rel_tol times
    max(|lo|, |hi|), so its root does not depend on the others and keeps its
    relative accuracy near 0. Returns the upper end of each final bracket,
    where g >= target: the certified side for a caller that needs g(x) >=
    target (an Orlicz norm, an over-estimated inverse).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    flo, fhi = g(lo) - target, g(hi) - target
    if np.any(flo > 0.0) or np.any(fhi < 0.0):
        raise ValueError("root bracket does not straddle the target")
    kept = np.zeros(lo.shape)  # +1 where the last probe moved lo, -1 where it moved hi
    while np.any(active := hi - lo > (tol := rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300))):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = lo - flo * ((hi - lo) / (fhi - flo))
        x = np.where(np.isfinite(flo) & np.isfinite(fhi) & np.isfinite(x), x, 0.5 * (lo + hi))
        fx = g(x := np.clip(x, lo + 0.5 * tol, hi - 0.5 * tol)) - target
        down = active & (fx <= 0.0)
        up = active & ~down
        flo, fhi = np.where(up & (kept < 0.0), 0.5 * flo, flo), np.where(down & (kept > 0.0), 0.5 * fhi, fhi)
        lo, flo, hi, fhi = np.where(down, x, lo), np.where(down, fx, flo), np.where(up, x, hi), np.where(up, fx, fhi)
        kept = np.where(down, 1.0, np.where(up, -1.0, kept))
    return hi
