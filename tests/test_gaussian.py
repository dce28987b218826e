"""Gaussian linear-class bounds: spectra, truncation, and the rank-k report."""

import math
import warnings

import numpy as np
import pytest

from tailbound.gaussian import (
    GaussianModel,
    cgf_norm,
    gaussian_instance_bound,
    optimal_rank,
)


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d


# ---------------------------------------------------------------------------
# eigendecomposition


# The model's eigenpath (numpy.linalg.eigh behind GaussianModel's checks),
# at the tolerances the removed pure-Python Jacobi solver was held to.


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_jacobi_matches_lapack(d):
    rng = np.random.default_rng(100 + d)
    sym = random_spd(rng, d)
    model = GaussianModel(sym)
    vals, vecs = model.eigenvalues, model.eigenvectors
    ref = np.linalg.eigvalsh(sym)
    assert np.sort(vals) == pytest.approx(ref, abs=1e-10)
    assert vecs.T @ vecs == pytest.approx(np.eye(d), abs=1e-10)
    assert (vecs * vals) @ vecs.T == pytest.approx(sym, abs=1e-10)


def test_jacobi_diagonal_input():
    # exactly diagonal input decomposes exactly: its values, unit vectors
    model = GaussianModel(np.diag([3.0, 1.0, 0.5]))
    vals, vecs = model.eigenvalues, model.eigenvectors
    assert np.sort(vals) == pytest.approx([0.5, 1.0, 3.0], abs=0.0)
    assert np.abs(np.abs(vecs) - np.eye(3)) == pytest.approx(np.zeros((3, 3)), abs=0.0)


# ---------------------------------------------------------------------------
# model construction


def test_model_spectrum_fields():
    rng = np.random.default_rng(7)
    sym = random_spd(rng, 12)
    model = GaussianModel(sym)
    assert np.all(np.diff(model.eigenvalues) <= 0.0)
    assert model.eigenvalues == pytest.approx(np.linalg.eigvalsh(sym)[::-1], abs=1e-10)
    root = model.sqrt_matrix()
    assert root @ root == pytest.approx(sym, abs=1e-9)
    # residual pieces against direct eigenvalue sums
    for k in range(model.dim + 1):
        assert model.residual_trace(k) == pytest.approx(float(model.eigenvalues[k:].sum()), abs=1e-10)
        want_op = float(model.eigenvalues[k]) if k < model.dim else 0.0
        assert model.residual_op(k) == want_op


def test_model_rejects_bad_matrices():
    with pytest.raises(ValueError):
        GaussianModel(np.ones((2, 3)))
    with pytest.raises(ValueError):
        GaussianModel(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        GaussianModel(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianModel(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        GaussianModel(np.eye(2001))


def test_model_from_spectrum():
    model = GaussianModel.from_spectrum("poly", 2.0, 5)
    assert model.eigenvalues == pytest.approx([1.0, 0.25, 1.0 / 9.0, 0.0625, 0.04], rel=1e-15)
    with pytest.raises(ValueError):
        GaussianModel.from_spectrum("geo", 2.0, 5)
    with pytest.raises(ValueError):
        GaussianModel.from_spectrum("poly", 2.0, 0)


def test_functional_ball_constraint():
    model = GaussianModel(np.eye(2))
    assert gaussian_instance_bound(model, np.zeros(2), 1, 10, 0.1).base == 0.0
    assert gaussian_instance_bound(model, [0.6, 0.8], 1, 10, 0.1).base == pytest.approx(math.sqrt(0.2), rel=1e-15)
    with pytest.raises(ValueError, match="Euclidean norm at most 1"):
        gaussian_instance_bound(model, [1.1, 0.0], 1, 10, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_direction_must_be_finite(bad):
    model = GaussianModel(np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction must be a finite vector"):
            cgf_norm(model, [bad, 0.0])
        with pytest.raises(ValueError, match="direction must be a finite vector"):
            gaussian_instance_bound(model, [0.0, bad], 1, 10, 0.1)


# ---------------------------------------------------------------------------
# norms and the w coefficient


def test_cgf_norm_closed_cases():
    eye = GaussianModel(np.eye(3))
    assert cgf_norm(eye, [1.0, 0.0, 0.0]) == 1.0
    diag = GaussianModel(np.diag([4.0, 1.0]))
    assert cgf_norm(diag, [1.0, 0.0]) == 2.0
    assert cgf_norm(diag, [0.0, 0.0]) == 0.0


def dense_T(cgf, r: float) -> float:
    """inf over lambda > 0 of (r + cgf(lambda)) / lambda on a geometric grid,
    zoomed four times around its best point."""
    lams = np.geomspace(1e-6, 1e6, 100_001)
    for _ in range(4):
        vals = (r + cgf(lams)) / lams
        j = int(np.argmin(vals))
        best = float(vals[j])
        lams = np.linspace(lams[max(j - 1, 0)], lams[min(j + 1, lams.size - 1)], 1001)
    return best


@pytest.mark.parametrize("r", [0.01, 0.5, 3.0])
def test_rate_bound_matches_sqrt_two_r(r):
    # the base term is sqrt(2r) ||f||, the closed form of T_r for the CGF
    # sigma^2 lambda^2 / 2 of <u, X>, which a dense lambda search confirms
    model = GaussianModel(np.diag([2.25, 1.0, 0.16]))
    u = np.array([0.5, 0.5, 0.5])
    sigma = cgf_norm(model, u)
    assert gaussian_instance_bound(model, u, 1, 100, r).base == math.sqrt(2.0 * r) * sigma
    assert dense_T(lambda lam: 0.5 * sigma * sigma * lam * lam, r) == pytest.approx(sigma * math.sqrt(2.0 * r), rel=1e-9)


# ---------------------------------------------------------------------------
# instance bound


def test_bound_oracle_d20():
    # every term recomputed here from the eigenvalue list alone
    lam = np.array([1.0 / j**2 for j in range(1, 21)])
    model = GaussianModel(np.diag(lam))
    u = np.zeros(20)
    u[0] = 1.0
    rep = gaussian_instance_bound(model, u, k=3, n=100, r=0.02)
    assert rep.tail_trace == pytest.approx(math.sqrt(lam[3:].sum() / 100.0), abs=1e-12)
    assert rep.tail_op == pytest.approx(math.sqrt(2.0 * 0.02 * lam[3]), abs=1e-12)
    assert rep.projected == pytest.approx(math.sqrt(3.0 / 100.0) * math.sqrt(lam[0]), abs=1e-12)
    assert rep.base == pytest.approx(math.sqrt(2.0 * 0.02) * math.sqrt(lam[0]), abs=1e-12)
    assert rep.total == pytest.approx(
        rep.tail_trace + rep.tail_op + rep.projected + rep.base, abs=1e-12
    )
    assert rep.guarantee == pytest.approx(1.0 - 2.0 * math.exp(-2.0), rel=1e-15)


def test_bound_full_rank_drops_tail_terms():
    model = GaussianModel(np.diag([2.0, 1.0, 0.5]))
    u = np.array([0.6, 0.0, 0.8])
    rep = gaussian_instance_bound(model, u, k=3, n=50, r=0.1)
    assert rep.tail_trace == 0.0
    assert rep.tail_op == 0.0
    norm = cgf_norm(model, u)
    # at k = d the truncated and full quadratic forms coincide
    assert rep.total == pytest.approx((math.sqrt(0.2) + math.sqrt(3.0 / 50.0)) * norm, rel=1e-12)


def test_bound_rank_zero_drops_projection():
    model = GaussianModel(np.diag([2.0, 1.0, 0.5]))
    u = np.array([0.6, 0.0, 0.8])
    rep = gaussian_instance_bound(model, u, k=0, n=50, r=0.1)
    assert rep.projected == 0.0
    want = math.sqrt(3.5 / 50.0) + math.sqrt(2.0 * 0.1 * 2.0) + math.sqrt(0.2) * cgf_norm(model, u)
    assert rep.total == pytest.approx(want, rel=1e-12)


def test_bound_term_monotonicity_in_k():
    rng = np.random.default_rng(21)
    model = GaussianModel(random_spd(rng, 8))
    u = rng.normal(size=8)
    u /= np.linalg.norm(u) * 1.25
    reports = [gaussian_instance_bound(model, u, k, 40, 0.3) for k in range(9)]
    for lo, hi in zip(reports, reports[1:]):
        assert hi.tail_trace <= lo.tail_trace + 1e-12
        assert hi.tail_op <= lo.tail_op + 1e-12
        assert hi.projected >= lo.projected - 1e-12


def test_bound_loose_projected_dominates():
    model = GaussianModel(np.diag([4.0, 1.0, 0.25]))
    u = np.array([0.5, 0.5, 0.5])
    tight = gaussian_instance_bound(model, u, k=1, n=30, r=0.2)
    loose = gaussian_instance_bound(model, u, k=1, n=30, r=0.2, loose_projected=True)
    assert loose.loose_projected and not tight.loose_projected
    assert loose.projected > tight.projected
    assert loose.projected == pytest.approx(
        math.sqrt(1.0 / 30.0) * cgf_norm(model, u), rel=1e-12
    )
    # only the projected term moves
    assert loose.total - loose.projected == pytest.approx(tight.total - tight.projected, rel=1e-12)


def test_bound_input_validation():
    model = GaussianModel(np.eye(2))
    u = [1.0, 0.0]
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, u, k=-1, n=10, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, u, k=3, n=10, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, u, k=True, n=10, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, u, k=1, n=0, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, u, k=1, n=10, r=0.0)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, [1.0, 0.0, 0.0], k=1, n=10, r=0.1)


def _unit_rows(rng, count, d):
    u = rng.normal(size=(count, d))
    return u / np.linalg.norm(u, axis=1)[:, None]


def test_single_direction_bound_follows_its_formula():
    rng = np.random.default_rng(12)
    d = 20
    model = GaussianModel(random_spd(rng, d))
    for u in _unit_rows(rng, 25, d):
        full = math.sqrt(float(u @ model.covariance @ u))
        assert cgf_norm(model, u) == pytest.approx(full, rel=1e-15, abs=0)
        for k in (0, 3, d):
            rep = gaussian_instance_bound(model, u, k, 40, 0.3)
            coords = model.eigenvectors.T @ u
            trunc = math.sqrt(max(float(np.sum(model.eigenvalues[:k] * coords[:k] ** 2)), 0.0))
            assert rep.projected == pytest.approx(math.sqrt(k / 40) * trunc, rel=1e-15, abs=1e-15 * full)
            assert rep.base == pytest.approx(math.sqrt(0.6) * full, rel=1e-15, abs=0)
            assert rep.total == rep.tail_trace + rep.tail_op + rep.projected + rep.base
            assert all(isinstance(x, float) for x in (rep.projected, rep.base, rep.total))


def test_bound_rows_input_validation():
    model = GaussianModel(np.eye(2))
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, np.ones((3, 3)) / 2, k=1, n=10, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, np.array([[1.0, 0.0], [1.0, 1.0]]), k=1, n=10, r=0.1)
    with pytest.raises(ValueError):
        gaussian_instance_bound(model, np.array([[np.nan, 0.0]]), k=1, n=10, r=0.1)


# ---------------------------------------------------------------------------
# rank selection


def _rank_objective(model, n, r, k):
    return (
        math.sqrt(model.residual_trace(k) / n)
        + math.sqrt(2.0 * r * model.residual_op(k))
        + math.sqrt(k / n) * math.sqrt(float(model.eigenvalues[0]))
    )


def test_optimal_rank_flat_spectrum():
    # on a flat spectrum full truncation wins: the trace and projection terms
    # tie at sqrt(d/n) while the operator-norm tail vanishes only at k = d
    model = GaussianModel(np.eye(6))
    k = optimal_rank(model, n=40, r=0.1)
    vals = [_rank_objective(model, 40, 0.1, kk) for kk in range(7)]
    assert k == int(np.argmin(vals)) == 6


def test_optimal_rank_single_dimension():
    model = GaussianModel(np.array([[2.0]]))
    k = optimal_rank(model, n=25, r=0.3)
    vals = [_rank_objective(model, 25, 0.3, kk) for kk in (0, 1)]
    assert k == int(np.argmin(vals))


def test_optimal_rank_matches_exhaustive_scan():
    model = GaussianModel.from_spectrum("poly", 4.0, 50)
    k = optimal_rank(model, n=200, r=0.05)
    vals = [_rank_objective(model, 200, 0.05, kk) for kk in range(51)]
    assert k == int(np.argmin(vals))
    assert _rank_objective(model, 200, 0.05, k) == pytest.approx(min(vals), rel=1e-15)


def test_optimal_rank_tie_breaks_small():
    # zero matrix: every k scores sqrt(k/n) * 0 = 0, tie resolved at k = 0
    model = GaussianModel(np.zeros((4, 4)))
    assert optimal_rank(model, n=10, r=0.5) == 0


def test_optimal_rank_validation():
    model = GaussianModel(np.eye(2))
    with pytest.raises(ValueError):
        optimal_rank(model, n=0, r=0.5)
    with pytest.raises(ValueError):
        optimal_rank(model, n=10, r=-1.0)
