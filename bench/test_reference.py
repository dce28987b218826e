"""Tests of the benchmark's own references, inputs and tracer.

    python3 -m pytest bench -q

The references are checked against closed forms and against a third route
(the dual form of T_r), never against tailbound's output.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

RADEMACHER = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def dual_T(values, probs, r):
    """T_r = Lambda'(lam*) where lam Lambda'(lam) - Lambda(lam) = r, by bisection."""

    def parts(lam):
        w = probs * np.exp(lam * values - np.max(lam * values))
        w /= w.sum()
        return float(ref.cgf(values, probs, [lam])[0]), float(w @ values)

    lo, hi = 0.0, 1.0
    while hi * parts(hi)[1] - parts(hi)[0] < r:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cgf, slope = parts(mid)
        if mid * slope - cgf < r:
            lo = mid
        else:
            hi = mid
    return parts(hi)[1]


def test_rademacher_T_at_r_005():
    assert ref.rademacher_T(0.05) == pytest.approx(0.3135632, abs=5e-8)


@pytest.mark.parametrize("r", [0.05, 0.3, 0.6])
def test_rate_T_matches_the_rademacher_kl_root(r):
    assert ref.rate_T(*RADEMACHER, r) == pytest.approx(ref.rademacher_T(r), rel=1e-10)


def test_rate_T_at_infinity_is_the_maximum():
    # r >= -log P(h = max h) = log 2: the infimum is the limit max h = 1
    assert ref.rate_T(*RADEMACHER, 1.0) == 1.0
    values, probs = np.array([-0.5, -0.5, 2.0]) - 1.0 / 3.0, np.full(3, 1.0 / 3.0)
    assert ref.rate_T(values, probs, math.log(3.0) + 1e-9) == values.max()


@pytest.mark.parametrize("r", [0.02, 0.3, 1.0])
def test_rate_T_matches_the_dual_form(r):
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(7))
    values = rng.standard_normal(7)
    values -= probs @ values
    assert -math.log(probs[np.argmax(values)]) > r  # interior branch
    assert ref.rate_T(values, probs, r) == pytest.approx(dual_T(values, probs, r), rel=1e-9)


def test_rate_T_is_positively_homogeneous():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(6)
    values -= values.mean()
    probs = np.full(6, 1.0 / 6.0)
    assert ref.rate_T(3.5 * values, probs, 0.2) == pytest.approx(3.5 * ref.rate_T(values, probs, 0.2), rel=1e-10)


def test_cgf_norm_of_rademacher_is_one():
    assert ref.cgf_norm(*RADEMACHER) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_cgf_norm_of_a_centered_bernoulli_is_the_kearns_saul_constant(p):
    # optimal sub-Gaussian variance proxy of Bernoulli(p) - p (Kearns & Saul 1998)
    values, probs = np.array([1.0 - p, -p]), np.array([p, 1.0 - p])
    want = math.sqrt((1.0 - 2.0 * p) / (2.0 * math.log((1.0 - p) / p)))
    assert ref.cgf_norm(values, probs) == pytest.approx(want, rel=1e-9)
    assert ref.cgf_norm(-values, probs) == pytest.approx(want, rel=1e-9)


def test_binomial_upper_tail():
    assert ref.binomial_upper_tail(4, 2.5) == 5 / 16
    assert ref.binomial_upper_tail(4, 3.0) == 1 / 16
    assert ref.binomial_upper_tail(4, -1.0) == 1.0


@pytest.mark.parametrize("kind,L", [("sub-gaussian", None), ("bernstein", 0.1), ("bernstein", 1.0), ("bernstein", 10.0)])
def test_orlicz_norm_bisection_matches_the_rademacher_closed_form(kind, L):
    assert ref.orlicz_norm(*RADEMACHER, kind, L) == pytest.approx(ref.rademacher_orlicz_norm(kind, L), rel=1e-13)


def test_bennett_phi_is_continuous_across_its_series_switch():
    L = 2.0
    below, above = ref.phi("bennett", 0.9999e-3 / L, L), ref.phi("bennett", 1.0001e-3 / L, L)
    assert above > below
    assert above - below == pytest.approx(2.0 * 1e-3 * 0.0002e-3 / L**2, rel=1e-2)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_bernstein_closed_forms_match_a_trapezoid_integral(L):
    t = np.linspace(0.0, 60.0 * (1.0 + L) ** 2, 2_000_001)
    integral = np.trapezoid(t * np.exp(-ref.phi("bernstein", t, L) / 2.0), t)
    assert ref.bernstein_moment_integral(L) == pytest.approx(integral, rel=1e-8)
    assert ref.bernstein_conversion_factor(L) == pytest.approx(0.25 / integral, rel=1e-8)


def test_gaussian_terms_are_basis_invariant():
    rng = np.random.default_rng(6)
    spectrum = np.arange(1, 9, dtype=float) ** -2.0
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    e2 = np.eye(8)[:, 2]
    plain = ref.gaussian_terms(spectrum, np.eye(8), e2, 3, 50, 0.1)
    rotated = ref.gaussian_terms(spectrum, q, q @ e2, 3, 50, 0.1)
    for name in plain:
        assert rotated[name] == pytest.approx(plain[name], rel=1e-12, abs=1e-15)
    assert plain["projected"] == pytest.approx(math.sqrt(3 / 50) * math.sqrt(spectrum[2]))
    assert plain["tail_op"] == pytest.approx(math.sqrt(0.2 * spectrum[3]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    a, b, c = workloads.generate(name, 3), workloads.generate(name, 3), workloads.generate(name, 4)
    assert a.files == b.files
    assert a.files != c.files


@pytest.mark.parametrize("name,part", [("chain-orlicz", "chain-cgf"), ("chain-orlicz", "orlicz"),
                                       ("mc-gaussian", "mc-verify")])
def test_families_are_centered_and_hold_zero(name, part):
    fam = workloads.generate(name, 7).files[f"{part}-family.json"]
    probs = np.array(fam["probabilities"])
    rows = np.array(list(fam["functions"].values()))
    assert np.all(np.abs(rows @ probs) <= 1e-12)
    assert not np.any(rows[0])
    assert len({tuple(r) for r in rows}) == len(rows)


def test_gaussian_model_has_the_stated_spectrum():
    inputs = workloads.generate("mc-gaussian", 8)
    cov = np.array(inputs.files["gaussian-model.json"]["covariance"])
    assert np.array_equal(cov, cov.T)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(eig, inputs.meta["spectrum"], rtol=0.0, atol=1e-14)


def test_tracer_spans_nest_and_uninstall_restores(tmp_path):
    import tailbound.cli
    import tailbound.chaining
    import tracing

    workloads.write_inputs(workloads.generate("mc-gaussian", 9), str(tmp_path))
    original = tailbound.chaining.rate_bound_T
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tailbound.chaining.rate_bound_T is not original
        rc = tailbound.cli.main(["class-wr", "--family", str(tmp_path / "mc-verify-family.json"), "--r", "0.5",
                                 "--output", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tailbound.chaining.rate_bound_T is original
    calls = tracer.span_counts()
    assert calls["cli.main"] == 1
    assert calls["cgf.rate_bound_T"] == 12 * 11
    assert tracer.counts["numerics.minimize_positive.calls"] == 12 * 11
    top = [s for s in tracer.spans if s[3] == -1]
    assert len(top) == 1
    selfs = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(top[0][2] - top[0][1], rel=1e-9)
