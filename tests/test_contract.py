"""The engine contract that every batched engine keeps: one entry takes one
row or many, and each row's result depends on that row alone, bit for bit,
and on no absolute scale.

Each case is an engine with its rows. The rows of a case include the
extremes its engine takes: zero rows, rows of +-1e308 and of 1e-300, rows at
the closed form at infinity. Every case runs with RuntimeWarning as an
error, its rows alone, in a shuffled batch and with numerics.BLOCK_ELEMENTS
cut down to a few rows and to one; a 1-homogeneous engine also runs on its
rows times 2^e, where every output must be the unscaled one times a power
of 2^e exactly. The family layer is held to the same scale contract:
distances, plans, w_r and thresholds of fixtures/family12.json times 2^e.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import tailbound.numerics as numerics
from tailbound import (
    DiscreteDistribution,
    FunctionFamily,
    GaussianModel,
    build_deflation,
    cgf_functional_norm,
    cgf_norm,
    class_wr,
    gaussian_instance_bound,
    make_generator,
    optimize_deflation,
    orlicz_norm,
    rate_bound_T,
    validate_plan,
)
from tailbound.numerics import false_position
from tailbound.orlicz import _quadrature_moments

SCALES = (-1000, -45, 40, 1000)  # exponents e of the exact 2^e rescales

KINDS = [  # one generator of every registered kind
    make_generator("sub-gaussian"),
    make_generator("sub-exponential"),
    make_generator("bernstein", L=1.0),
    make_generator("bennett", L=10.0),
    make_generator("power", p=2.0),
    make_generator("custom", t=[0.5, 1.0, 2.0, 4.0, 8.0], phi=[0.25, 1.0, 4.0, 16.0, 64.0]),
]


@dataclass(frozen=True)
class Case:
    """engine(rows) returns a tuple of arrays with one entry per row of rows
    (its first axis). width is the elements per row of the engine's blocked
    tensors. For a 1-homogeneous engine, powers holds the power of 2^e by
    which each output scales when the rows scale by 2^e, and scalable the
    rows that stay in the normal float range under every such rescale.
    floats: a 1-D row is the engine's one-row form and gives floats."""

    engine: object
    rows: np.ndarray
    width: int
    powers: tuple = ()
    scalable: tuple = ()
    floats: bool = True


def _centered(rng, probs, count):
    rows = rng.normal(size=(count, probs.size))
    rows -= (rows @ probs)[:, None]
    rows -= (rows @ probs)[:, None]
    return rows


def _discrete_rows(seed, s):
    """A Dirichlet distribution on s atoms and centered rows on it: Gaussian
    rows, their negatives and multiples from 1e-300 to 1e308 in magnitude,
    a zero row and +-1 rows, with the indices of those of moderate scale."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(s))
    base = _centered(rng, probs, 40)
    signs = np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
    signs -= probs @ signs
    rows = np.vstack([base, -base[:4], base[:4] * 1e-300, base[:4] * 1e6, signs * 1e308 / np.abs(signs).max(),
                      signs, np.zeros((1, s))])
    scalable = (*range(44), *range(48, 52), 53, 54)  # not the rows of 1e-300 or 1e308
    return DiscreteDistribution(np.arange(float(s))[:, None], probs), rows, scalable


def _T_case(r):
    dist, rows, scalable = _discrete_rows(5, 7)
    return Case(lambda x: rate_bound_T(dist, x, r), rows, 7, (1, -1), scalable)


def _cgf_norm_case():
    dist, rows, scalable = _discrete_rows(5, 7)
    return Case(lambda x: (cgf_functional_norm(dist, x),), rows, 7, (1,), scalable)


def _orlicz_case(gen):
    # the rows of tests/test_orlicz.py::test_norm_rows_match_one_row_at_a_time,
    # which a norm takes uncentered, with the centered rows above
    rng = np.random.default_rng(14)
    w = rng.random(6) + 0.1
    dist = DiscreteDistribution(np.arange(6.0)[:, None], w / w.sum())
    base = rng.normal(size=(4, 6))
    signs = np.where(rng.random((2, 6)) < 0.5, -1.0, 1.0)
    rows = np.vstack([base * 1e-300, base, base * 1e6, signs * 1e308, np.zeros((1, 6)), _centered(rng, dist.probabilities, 8)])
    return Case(lambda x: (orlicz_norm(dist, x, gen),), rows, 6, (1,), (*range(4, 12), *range(14, rows.shape[0])))


def _gaussian_model(d=30):
    """The covariance and unit directions of the former row-versus-one test of
    tests/test_gaussian.py, with a zero direction and one of 1e-300."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(d, d))
    model = GaussianModel(a @ a.T / d)
    dirs = rng.normal(size=(40, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return model, np.vstack([dirs, np.zeros((1, d)), dirs[:1] * 1e-300])


def _gaussian_norm_case():
    model, dirs = _gaussian_model()
    return Case(lambda u: (cgf_norm(model, u),), dirs, dirs.shape[1], (1,), tuple(range(41)))


def _gaussian_bound_case(k, loose):
    model, dirs = _gaussian_model()

    def engine(u):
        rep = gaussian_instance_bound(model, u, k, 50, 0.2, loose_projected=loose)
        return rep.projected, rep.base, rep.total

    return Case(engine, dirs, dirs.shape[1])


def _quadrature_case(gen):
    # lambdas on the wr-quad grid, at and past each kind's decay range, where
    # the moments are +inf
    lam = np.concatenate([numerics.LAMBDA_GRID, [0.5, 0.999999, 1.0, 3.0, math.inf]])
    nodes = numerics.QUAD_NODES * (numerics.QUAD_PANELS + len(gen.knots))
    return Case(lambda x: tuple(_quadrature_moments(gen, x)), lam, nodes, floats=False)


def _false_position_case():
    # brackets (lo, hi) of an increasing g and the root of g = g(root): roots
    # near 0, at an end, past an overflow of g and far apart in scale
    lo = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1e-300, 0.0, 2.0])
    hi = np.array([10.0, 1.0, 3.0, 800.0, 1e300, 1e-299, 1.0, 2.5])
    root = np.array([2.0, 1e-6, 1.5, 5.0, 50.0, 5e-300, 1.0, 2.25])

    def g(x):
        with np.errstate(over="ignore"):
            return np.expm1(x) + x**3

    def engine(rows):
        return (false_position(g, rows[:, 0], rows[:, 1], g(rows[:, 2])),)

    return Case(engine, np.stack([lo, hi, root], axis=1), 3, floats=False)


CASES = {
    **{f"rate_bound_T-r{r}": _T_case(r) for r in (0.0, 0.05, 0.4, 5.0)},
    "cgf_functional_norm": _cgf_norm_case(),
    **{f"orlicz_norm-{gen.kind}": _orlicz_case(gen) for gen in KINDS},
    "gaussian-cgf_norm": _gaussian_norm_case(),
    **{f"gaussian_instance_bound-k{k}-{'loose' if loose else 'tight'}": _gaussian_bound_case(k, loose)
       for k in (0, 1, 7, 30) for loose in (False, True)},
    **{f"_quadrature_moments-{gen.kind}": _quadrature_case(gen) for gen in KINDS if gen.exponential_type},
    "false_position": _false_position_case(),
}


def _bits(outputs):
    return [np.asarray(out, dtype=float).tobytes() for out in outputs]


@pytest.mark.parametrize("name", CASES)
def test_each_row_depends_on_that_row_alone(monkeypatch, name):
    case = CASES[name]
    rows, count = case.rows, len(case.rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = case.engine(rows)
        assert all(np.shape(out) == (count,) for out in batch)
        for i in range(count):
            alone = case.engine(rows[i : i + 1])
            assert all(np.shape(out) == (1,) for out in alone)
            assert _bits(alone) == _bits(out[i : i + 1] for out in batch), i
            if case.floats:
                one = case.engine(rows[i])
                assert all(type(x) is float for x in one)
                assert _bits(one) == _bits(out[i] for out in batch), i
        order = np.random.default_rng(count).permutation(count)
        assert _bits(case.engine(rows[order])) == _bits(out[order] for out in batch)
        for block in (3 * case.width, 1):  # blocks of a few rows, then of one
            monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", block)
            assert _bits(case.engine(rows)) == _bits(batch)
        monkeypatch.undo()
        keep = list(case.scalable)
        for e in SCALES if case.powers else ():
            scaled = case.engine(rows[keep] * 2.0**e)
            want = [out[keep] * 2.0 ** (p * e) for out, p in zip(batch, case.powers)]
            assert _bits(scaled) == _bits(want), e


@pytest.mark.parametrize("norm", ["cgf", make_generator("bernstein", L=1.0)], ids=["cgf", "bernstein"])
@pytest.mark.parametrize("e", SCALES)
def test_family_scales_exactly_by_powers_of_two(family12, norm, e):
    # below 2^-38 the absolute tolerances the chain once held set every
    # threshold of family12 to 0, or failed its norm check
    base = family12 if norm == "cgf" else FunctionFamily(family12.distribution, family12.members, norm)
    s = 2.0**e
    fam = FunctionFamily(base.distribution, {name: s * v for name, v in base.members.items()}, norm)
    assert np.array_equal(fam.distances, s * base.distances)
    for r in (0.05, 0.5, 5.0):
        assert class_wr(fam, r) == class_wr(base, r)
    for k in range(4):
        plan = build_deflation(fam, k)
        validate_plan(fam, plan)
        assert plan == build_deflation(base, k)
    got, want = (optimize_deflation(f, 200, 0.05, (0, 1, 2, 3)) for f in (fam, base))
    assert got.plan == want.plan and got.objective == s * want.objective
    assert np.array_equal(got.report.thresholds(), s * want.report.thresholds())


def _dense_covariance(d):
    """Q diag(i^-2) Q' for a seeded orthogonal Q, made exactly symmetric."""
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(d, d)))
    cov = (q * np.arange(1.0, d + 1) ** -2) @ q.T
    return (cov + cov.T) / 2


@pytest.mark.parametrize("d", (2, 50))
@pytest.mark.parametrize("e", (-60, -40, 30, 40, 200))
def test_gaussian_model_scales_exactly_by_powers_of_two(d, e):
    # the model's tolerances are relative to max|Sigma|: at 2^30 an absolute
    # reconstruction tolerance of 1e-8 rejected this d = 50 matrix
    cov = _dense_covariance(d)
    base, model = GaussianModel(cov), GaussianModel(cov * 2.0**e)
    assert np.array_equal(model.eigenvalues, base.eigenvalues * 2.0**e)
    assert np.array_equal(model.eigenvectors, base.eigenvectors)
    dirs = np.random.default_rng(d).normal(size=(8, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for k in sorted({0, 1, d // 2, d}):
        for loose in (False, True):
            got, want = (gaussian_instance_bound(m, dirs, k, 200, 0.05, loose) for m in (model, base))
            for term in ("tail_trace", "tail_op", "projected", "base", "total"):
                assert np.array_equal(getattr(got, term), getattr(want, term) * 2.0 ** (e // 2)), (k, term)


@pytest.mark.parametrize("cov", [
    [[1e-12, 0.0], [0.0, -1e-15]],  # an eigenvalue of -1e-3 max|Sigma|
    [[1e308, 1e308], [1e308, 1e308]],  # its eigenvalue 2e308 overflows
    [[1e-20, 2e-32], [0.0, 1e-20]],  # asymmetric by 2e-12 max|Sigma|
])
def test_gaussian_model_rejects_by_relative_tolerances(cov):
    with pytest.raises(ValueError):
        GaussianModel(np.array(cov))
