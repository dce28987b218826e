"""Acceptance gate: twelve end-to-end criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (shown under pytest -s or on
failure) and enforces its runtime budget. The Bernstein closed forms behind
criteria 2 and 3 are derived in the README under "Bernstein closed forms".
"""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np
import pytest

from oracles import check_T_properties, maximize_on_interval
from tailbound.cgf import DiscreteDistribution, rate_bound_T
from tailbound.chaining import (
    FunctionFamily,
    build_deflation,
    class_wr,
    deflate,
    epsilon_ell,
    gamma_functional,
    optimize_deflation,
    replay_certificate,
    theorem_main_bound,
)
from tailbound.cli import main
from tailbound.gaussian import gaussian_instance_bound, optimal_rank
from tailbound.orlicz import (
    bernstein_phi_star,
    conversion_factor_M,
    exp_moment_integral,
    make_generator,
    wr_exponential_type,
    wr_quadrature_bound,
)
from tailbound.verify import TrialPlan, run_trials

LOG2 = math.log(2.0)


@contextlib.contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    ok = True
    try:
        yield
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            ok = False
            raise AssertionError(
                f"criterion {num} runtime {elapsed:.2f}s exceeds its {budget_s:.0f}s budget"
            )
    except BaseException:
        ok = False
        raise
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} {status} {label} ({time.perf_counter() - t0:.2f}s)")


def run_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def run_to_file(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()


def test_criterion_01_sub_gaussian_closed_form():
    with criterion(1, "wr-exp at M=1/4 equals sqrt(12 r)", 1.0):
        for r in (0.1, 1.0, 10.0):
            payload = run_json(
                ["wr-exp", "--gen", '{"kind": "sub-gaussian"}', "--r", r, "--M", 0.25]
            )
            assert abs(payload["value"] - math.sqrt(12.0 * r)) <= 1e-9


def test_criterion_02_conversion_factor_floors():
    with criterion(2, "conversion factor floors", 5.0):
        got = conversion_factor_M(make_generator("sub-gaussian"))
        assert got >= 0.25 - 1e-6
        for L in (0.1, 1.0, 10.0):
            # M = (1/4)/I(L): the infimum 1/4 is the lambda -> 0 limit
            floor = 1.0 / (4.0 * L * L + 3.0 * math.sqrt(2.0 * math.pi) * L + 4.0)
            got = conversion_factor_M(make_generator("bernstein", L=L))
            assert got >= floor - 1e-6, (
                f"M(L={L}) = {got!r} sits below the floor "
                f"1/(4 L^2 + 3 sqrt(2 pi) L + 4) = {floor!r}"
            )


def test_criterion_03_bernstein_moment_integral():
    with criterion(3, "moment integral closed form", 2.0):
        for L in (0.1, 1.0, 10.0):
            # y = sqrt(phi(t)) gives t = y + L y^2/2 and dt = (1 + L y) dy
            target = L * L + 1.5 * math.sqrt(math.pi / 2.0) * L + 1.0
            got = exp_moment_integral(make_generator("bernstein", L=L))
            assert abs(got - target) <= 1e-6, (
                f"integral at L={L} is {got!r}, closed form "
                f"L^2 + (3/2) sqrt(pi/2) L + 1 = {target!r}"
            )


def test_criterion_04_conjugate_formula():
    def numeric_conjugate(phi, lam):
        h = lambda t: lam * t - float(phi(t))
        t_hi = 1.0
        while h(t_hi) >= h(t_hi / 2.0):
            t_hi *= 2.0
            assert t_hi < 1e14
        _, val = maximize_on_interval(h, 0.0, t_hi)
        return max(val, 0.0)

    with criterion(4, "closed conjugate matches numeric conjugate", 2.0):
        for L in (0.5, 1.0, 2.0):
            gen = make_generator("bernstein", L=L)
            for lam in np.linspace(0.0, 2.0 / L - 0.01, 100):
                got = bernstein_phi_star(float(lam), L)
                assert abs(got - numeric_conjugate(gen.phi, float(lam))) <= 1e-6


def test_criterion_05_lemma_ordering():
    with criterion(5, "quadrature coefficient below closed-form coefficient", 10.0):
        for kind, kwargs in (("sub-gaussian", {}), ("bernstein", {"L": 1.0})):
            gen = make_generator(kind, **kwargs)
            M = conversion_factor_M(gen)
            for r in (0.1, 1.0, 10.0):
                quad = wr_quadrature_bound(gen, r)
                closed = wr_exponential_type(gen, M, r)
                assert quad <= closed + 1e-6


def test_criterion_06_rate_function_property_suite():
    with criterion(6, "T_r properties, 1000 random distributions", 30.0):
        rng = np.random.default_rng(20250819)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            support = rng.normal(size=(m, 1))
            probs = rng.dirichlet(np.ones(m))
            vals = rng.normal(size=m) * 10.0 ** rng.uniform(-2.0, 2.0)
            vals -= probs @ vals
            vals -= probs @ vals  # second pass clears the rounding residual
            dist = DiscreteDistribution(support=support, probabilities=probs)
            r, s = (float(x) for x in 10.0 ** rng.uniform(-2.0, 1.0, size=2))
            alpha = float(10.0 ** rng.uniform(-2.5, 2.5))
            rep = check_T_properties(dist, vals, r, s, alpha)
            assert rep.homogeneity, (vals, r, alpha)
            assert rep.zero_at_zero
            assert rep.subadditive, (vals, r, s)
            # concavity in r, midpoint form
            mid = rate_bound_T(dist, vals, 0.5 * (r + s))[0]
            assert 2.0 * mid >= rep.t_r + rep.t_s - 1e-8


def _chernoff_plan(rademacher, trials=100_000):
    dist = DiscreteDistribution(
        support=np.asarray(rademacher["support"], dtype=float),
        probabilities=np.asarray(rademacher["probabilities"], dtype=float),
    )
    return TrialPlan(
        target="chernoff", n=50, r=0.05, trials=trials, root_seed=20250819,
        distribution=dist,
        function_values=np.asarray(rademacher["functions"]["f"], dtype=float),
    )


def test_criterion_07_chernoff_coverage(rademacher):
    with criterion(7, "chernoff violation rate within ceiling", 10.0):
        rep = run_trials(_chernoff_plan(rademacher))
        assert rep.rate <= math.exp(-2.5) + 3.0 * rep.stderr
        assert rep.passed


def test_criterion_08_gaussian_rank_k_validity(poly2_model):
    with criterion(8, "gaussian rank-k coverage and strict improvement", 120.0):
        k = optimal_rank(poly2_model, 100, 0.02)
        plan = TrialPlan(
            target="gaussian", n=100, r=0.02, trials=5000, root_seed=42, k=k,
            model=poly2_model, mesh=1000,
        )
        rep = run_trials(plan)
        assert rep.rate <= 2.0 * math.exp(-2.0) + 3.0 * rep.stderr
        assert rep.passed
        # strict payoff of truncation at the top eigen-direction
        top = np.zeros(poly2_model.dim)
        top[0] = 1.0
        total_k = gaussian_instance_bound(poly2_model, top, k, 100, 0.02).total
        total_0 = gaussian_instance_bound(poly2_model, top, 0, 100, 0.02).total
        assert total_k < total_0


def test_criterion_09_uniform_bound_validity(family12):
    with criterion(9, "deflated uniform bound coverage", 120.0):
        plan = TrialPlan(
            target="theorem-main", n=200, r=0.05, trials=20_000, root_seed=7, k=2,
            family=family12,
        )
        rep = run_trials(plan)
        assert rep.rate <= 2.0 * math.exp(-10.0) + 3.0 * rep.stderr
        assert rep.violations == 0


def _random_family(rng, size, support_points=6):
    probs = np.full(support_points, 1.0 / support_points)
    dist = DiscreteDistribution(
        support=np.arange(support_points, dtype=float).reshape(-1, 1),
        probabilities=probs,
    )
    members = {"zero": np.zeros(support_points)}
    while len(members) < size:
        f = rng.normal(size=support_points)
        f -= f.mean()
        members[f"m{len(members)}"] = f
    return FunctionFamily(dist, members)


def _exhaustive_gamma(deflated, family, n):
    """Exact optimum over admissible two-level sequences (valid for q <= 16)."""
    q = deflated.size
    z = 0  # the zero row
    rates = tuple((2.0 ** (ell + 3) + ell + 2) * LOG2 / n for ell in range(2))
    weights = tuple(class_wr(family, rr) for rr in rates)

    def value(levels):
        worst = 0.0
        for a in range(q):
            s = sum(
                2.0 * w * min(float(deflated.dist[a, b]) for b in lvl)
                for lvl, w in zip(levels, weights)
            )
            worst = max(worst, s)
        return worst

    if q <= 4:
        return value([(z,)])
    best = math.inf
    others = [i for i in range(q) if i != z]
    for size in range(0, 4):
        for combo in itertools.combinations(others, size):
            best = min(best, value([(z,), (z,) + combo]))
    return best


def _coverage(dist, subset):
    return float(np.max(np.min(dist[:, list(subset)], axis=1)))


def test_criterion_10_oracle_equivalence(family12):
    with criterion(10, "exhaustive oracles and certificate replay", 60.0):
        rng = np.random.default_rng(101)
        for size in (3, 4, 5, 6, 7, 8):
            fam = _random_family(rng, size)
            deflated = deflate(fam, build_deflation(fam, 0))
            got, _cert = gamma_functional(deflated, fam, 120)
            exact = _exhaustive_gamma(deflated, fam, 120)
            assert got >= exact - 1e-12
            assert got == pytest.approx(exact, abs=1e-12)
            rep = theorem_main_bound(fam, build_deflation(fam, 0), 120, 0.05)
            assert replay_certificate(fam, rep) == rep

        # covering radii: exact enumeration on sets of at most 12 elements
        for size in (5, 9, 12):
            fam = _random_family(rng, size, support_points=8)
            deflated = deflate(fam, build_deflation(fam, 0))
            q = deflated.size
            for ell in (0, 1, 2):
                budget = 2 ** (2**ell)
                val, subset = epsilon_ell(deflated, ell)
                if budget >= q:
                    assert val == 0.0
                    continue
                best = min(
                    _coverage(deflated.dist, c)
                    for c in itertools.combinations(range(q), budget)
                )
                assert val == best
                assert len(subset) <= budget
                assert _coverage(deflated.dist, subset) == val

        # certificate replay across deflation sizes on the two-cluster fixture
        for k in (0, 2, 3):
            plan = build_deflation(family12, k)
            rep = theorem_main_bound(family12, plan, 200, 0.05)
            assert replay_certificate(family12, rep) == rep


def test_criterion_11_deflation_payoff(family12):
    with criterion(11, "optimized deflation beats the zero-map baseline", 30.0):
        result = optimize_deflation(family12, 200, 0.05, [0, 1, 2, 3])
        baseline = dict(result.evaluations)[0]
        assert result.objective < baseline


def test_criterion_12_byte_identical_reruns(fixtures_dir, poly2_model, tmp_path):
    with criterion(12, "criteria 7-9 reruns are byte-identical CSV", 600.0):
        k8 = optimal_rank(poly2_model, 100, 0.02)
        commands = {
            "chernoff": [
                "verify", "--target", "chernoff",
                "--dist", fixtures_dir / "rademacher.json", "--f", "f",
                "--n", 50, "--r", 0.05, "--trials", 100_000, "--seed", 20250819,
            ],
            "gaussian": [
                "verify", "--target", "gaussian",
                "--model", fixtures_dir / "gaussian-poly2.json",
                "--n", 100, "--r", 0.02, "--k", k8, "--mesh", 1000,
                "--trials", 5000, "--seed", 42,
            ],
            "theorem-main": [
                "verify", "--target", "theorem-main",
                "--family", fixtures_dir / "family12.json",
                "--n", 200, "--r", 0.05, "--k", 2, "--trials", 20_000, "--seed", 7,
            ],
        }
        for name, argv in commands.items():
            first = tmp_path / f"{name}-1.csv"
            second = tmp_path / f"{name}-2.csv"
            run_to_file(argv + ["--format", "csv", "--output", first])
            run_to_file(argv + ["--format", "csv", "--output", second])
            a, b = first.read_bytes(), second.read_bytes()
            assert a == b
            # the rerun also certifies the guarantee
            assert a.decode().strip().split("\n")[1].split(",")[-1] == "true"
