"""Rank-k spectral tail bounds for linear functionals under Normal(0, Sigma).

For f(x) = <u, x> with X ~ Normal(0, Sigma) the CGF norm has the explicit
form ||f|| = (u' Sigma u)^{1/2}, the class coefficient is w_r = sqrt(2r), and
the empirical mean over n samples is distributed as <Sigma^{1/2} u, G>/sqrt(n)
with G standard normal. Splitting Sigma at rank k gives the four-term
instance-dependent bound implemented here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericError, check_int, readonly

MAX_DIM = 2000
SYMMETRY_TOL = 1e-12  # the tolerances are relative to s = max|Sigma|
EIG_CLAMP = -1e-10
RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class GaussianModel:
    """Covariance matrix with its spectral decomposition, fixed at construction.

    The decomposition is LAPACK's symmetric eigensolver (numpy.linalg.eigh),
    eigenvalues stored descending. Tolerances are relative to s = max|Sigma|:
    symmetry to 1e-12 s; eigenvalues in [-1e-10 s, 0) are clamped to zero,
    lower or infinite ones reject Sigma; V diag(lambda) V' matches it to 1e-8 s.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
            raise ValueError("covariance must be a square matrix")
        if cov.shape[0] > MAX_DIM:
            raise ValueError(f"dimension cap is {MAX_DIM}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be finite")
        s = float(np.abs(cov).max())
        with np.errstate(over="ignore"):
            if float(np.max(np.abs(cov - cov.T))) > SYMMETRY_TOL * s:
                raise ValueError("covariance must be symmetric within 1e-12 max|covariance|")
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(-vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
        if not (np.isfinite(vals[0]) and vals[-1] >= EIG_CLAMP * s):  # an eigenvalue past the float range is inf
            raise ValueError("covariance must be positive semidefinite, with finite eigenvalues")
        vals = np.maximum(vals, 0.0)
        recon_err = float(np.max(np.abs((vecs * vals) @ vecs.T - cov)))
        if recon_err > RECONSTRUCTION_TOL * s:
            raise NumericError(f"eigendecomposition reconstruction error {recon_err:.3e}")
        object.__setattr__(self, "covariance", readonly(cov))
        object.__setattr__(self, "eigenvalues", readonly(vals))
        object.__setattr__(self, "eigenvectors", readonly(vecs))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def sqrt_matrix(self) -> np.ndarray:
        """Symmetric square root V diag(sqrt(lambda)) V'."""
        vecs = self.eigenvectors
        return (vecs * np.sqrt(self.eigenvalues)) @ vecs.T

    def residual_trace(self, k: int) -> float:
        """tr(Sigma - Sigma_k), the eigenvalue mass beyond rank k."""
        return float(np.sum(self.eigenvalues[k:]))

    def residual_op(self, k: int) -> float:
        """||Sigma - Sigma_k||_op, the (k+1)-th eigenvalue."""
        return float(self.eigenvalues[k]) if k < self.dim else 0.0

    @staticmethod
    def from_spectrum(kind: str, exponent: float, d: int) -> "GaussianModel":
        if kind != "poly":
            raise ValueError(f"unknown spectrum shorthand {kind!r}")
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"d must lie in 1..{MAX_DIM}")
        with np.errstate(over="ignore"):  # an overflowing eigenvalue is rejected as infinite
            lam = np.arange(1, d + 1, dtype=float) ** (-float(exponent))
        return GaussianModel(np.diag(lam))


def cgf_norm(model: GaussianModel, u):
    """CGF norm (u' Sigma u)^{1/2} of the linear functional x -> <u, x>, for a
    finite direction u with the model's dimension: a float for one direction,
    one norm per row for a (count, d) array. Each row is formed in units of
    max|u| by its own vector-matrix product, so its norm depends on that row
    alone and scales with it exactly by powers of two."""
    u = np.asarray(u, dtype=float)
    rows = np.atleast_2d(u)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValueError("direction dimension does not match the model")
    if not np.all(np.isfinite(rows)):
        raise ValueError("direction must be a finite vector")
    scale = np.abs(rows).max(axis=1)
    x = rows / np.where(scale > 0.0, scale, 1.0)[:, None]
    quad = ((x[:, None, :] @ model.covariance) @ x[:, :, None])[:, 0, 0]
    norms = scale * np.sqrt(np.maximum(quad, 0.0))
    return float(norms[0]) if u.ndim == 1 else norms


@dataclass(frozen=True)
class GaussianBoundReport:
    """Four-term decomposition of the rank-k tail bound on E_n f.

    total = tail_trace + tail_op + projected + base bounds E_n f with
    probability at least `guarantee` = 1 - 2 e^{-nr}, uniformly over the unit
    ball of directions. For a batch of directions, projected, base and
    total are arrays with one entry per direction.
    """

    k: int
    n: int
    r: float
    tail_trace: float
    tail_op: float
    projected: float
    base: float
    total: float
    guarantee: float
    loose_projected: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def gaussian_instance_bound(model: GaussianModel, u, k: int, n: int, r: float,
                            loose_projected: bool = False) -> GaussianBoundReport:
    """Rank-k instance-dependent bound for E_n <u, X>, for a finite direction
    u with the model's dimension and Euclidean norm at most 1. For a (count,
    d) array of such directions the one report's projected, base and total
    are arrays with one entry per row, each depending on that row alone.

    Terms: sqrt(tr(Sigma - Sigma_k)/n), sqrt(2r ||Sigma - Sigma_k||_op),
    sqrt(k/n) (u' Sigma_k u)^{1/2}, and the base deviation sqrt(2r) ||f||.
    The projected term uses the truncated quadratic form, the tight
    mid-derivation quantity; loose_projected=True substitutes the full norm
    (u' Sigma u)^{1/2}, the looser displayed variant.
    """
    if check_int("k", k, 0) > model.dim:
        raise ValueError("k must lie in 0..d")
    check_int("n", n, 1)
    if not (r > 0.0):
        raise ValueError("r must be positive")
    u = np.asarray(u, dtype=float)
    rows = np.atleast_2d(u)
    norms = cgf_norm(model, rows)
    with np.errstate(over="ignore"):  # a norm past the float range is inf, and rejected
        if not np.all(np.linalg.norm(rows, axis=1) <= 1.0 + 1e-12):
            raise ValueError("direction must have Euclidean norm at most 1")
    coords = (rows[:, None, :] @ model.eigenvectors)[:, 0, :]  # each direction's eigen-coordinates, row by row
    trunc_quad = np.sum(model.eigenvalues[:k] * coords[:, :k] ** 2, axis=1)
    tail_trace = math.sqrt(model.residual_trace(k) / n)
    tail_op = math.sqrt(2.0 * r * model.residual_op(k))
    projected = math.sqrt(k / n) * (norms if loose_projected else np.sqrt(np.maximum(trunc_quad, 0.0)))
    base = math.sqrt(2.0 * r) * norms
    if u.ndim == 1:
        projected, base = float(projected[0]), float(base[0])
    return GaussianBoundReport(
        k=int(k), n=int(n), r=float(r), tail_trace=tail_trace, tail_op=tail_op, projected=projected, base=base,
        total=tail_trace + tail_op + projected + base, guarantee=1.0 - 2.0 * math.exp(-n * r),
        loose_projected=loose_projected,
    )


def optimal_rank(model: GaussianModel, n: int, r: float) -> int:
    """Rank minimizing the direction-independent part of the bound.

    Minimizes sqrt(tr(Sigma - Sigma_k)/n) + sqrt(2r ||Sigma - Sigma_k||_op)
    + sqrt(k/n) lambda_1^{1/2} over k in 0..d by exhaustive scan, the worst
    case over ||u||_2 <= 1 of the k-dependent terms. Ties break to smaller k.
    """
    check_int("n", n, 1)
    if not (r > 0.0):
        raise ValueError("r must be positive")
    top = math.sqrt(float(model.eigenvalues[0]))
    best_k = 0
    best = math.inf
    for k in range(model.dim + 1):
        val = (
            math.sqrt(model.residual_trace(k) / n)
            + math.sqrt(2.0 * r * model.residual_op(k))
            + math.sqrt(k / n) * top
        )
        if val < best:
            best = val
            best_k = k
    return best_k
