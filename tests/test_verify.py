"""Monte Carlo harness tests: RNG correctness, plan validation, determinism.

The RNG tests compare the numpy uint64 implementation against a pure-python
big-integer reimplementation of the same avalanche, so a wraparound or cast
bug in either path cannot hide. Counting tests pin exact violation counts:
every draw is a pure function of (root seed, stream, counter), so the counts
are reproducible constants, not statistical quantities.
"""

import collections
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tailbound.cgf import DiscreteDistribution, rate_bound_T
from tailbound.chaining import FunctionFamily, extremal_difference
from tailbound.gaussian import GaussianModel
from tailbound.rng import finalize, normals, substream_seed, uniforms
from tailbound import numerics, rng, verify
from tailbound.verify import LEVEL_PASSES_MAX, TrialPlan, VerificationReport, run_trials, sweep

_MASK = (1 << 64) - 1
_PY_GOLDEN = 0x9E3779B97F4A7C15


def _finalize_py(z: int) -> int:
    # reference SplitMix64 avalanche in unbounded python ints
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _substream_py(root: int, index: int) -> int:
    return _finalize_py((root + (index + 1) * _PY_GOLDEN) & _MASK)


def _uniform_py(base: int, counter: int) -> float:
    bits = _finalize_py((base + (counter + 1) * _PY_GOLDEN) & _MASK)
    return ((bits >> 11) + 0.5) * 2.0**-53


def _rademacher_plan(**overrides):
    dist = DiscreteDistribution(
        support=np.array([[-1.0], [1.0]]), probabilities=np.array([0.5, 0.5])
    )
    kwargs = dict(
        target="chernoff",
        n=50,
        r=0.05,
        trials=100_000,
        root_seed=20250819,
        distribution=dist,
        function_values=np.array([-1.0, 1.0]),
    )
    kwargs.update(overrides)
    return TrialPlan(**kwargs)


def _override_thresholds(monkeypatch, value):
    """Make run_trials compare every discrete target's tracked rows with the
    constant `value` in place of the thresholds it derives."""
    setup = verify._discrete_setup

    def constant(plan):
        tracked, thresholds, cdf, ceiling = setup(plan)
        return tracked, np.full(thresholds.shape, float(value)), cdf, ceiling

    monkeypatch.setattr(verify, "_discrete_setup", constant)


def _scale_thresholds(monkeypatch, factor):
    """Scale every threshold and gaussian total run_trials derives by
    `factor`, so that the violation counts the tests compare are not 0."""
    discrete, gaussian = verify._discrete_setup, verify._gaussian_setup

    def scaled_discrete(plan):
        tracked, thresholds, cdf, ceiling = discrete(plan)
        return tracked, factor * thresholds, cdf, ceiling

    def scaled_gaussian(plan, dirs):
        totals, ceiling = gaussian(plan, dirs)
        return factor * totals, ceiling

    monkeypatch.setattr(verify, "_discrete_setup", scaled_discrete)
    monkeypatch.setattr(verify, "_gaussian_setup", scaled_gaussian)


def _target_plan(target, family12, poly2_model, **overrides):
    if target == "chernoff":
        kwargs = dict(target=target, n=50, r=0.05, trials=2_000, root_seed=20250819,
                      distribution=_rademacher_plan().distribution, function_values=np.array([-1.0, 1.0]))
    elif target == "theorem-main":
        kwargs = dict(target=target, n=60, r=0.05, trials=600, root_seed=11, k=2, family=family12)
    else:
        kwargs = dict(target=target, n=60, r=0.05, trials=600, root_seed=5, k=3, model=poly2_model, mesh=64)
    kwargs.update(overrides)
    return TrialPlan(**kwargs)


def _record_uniforms(monkeypatch):
    """Record (seed array ndim, seed count, uniforms per seed) of every draw,
    by rng.uniforms and by rng.normals (two uniforms per normal)."""
    calls = []
    real = rng._draw

    def recording(seeds, count, pairs):
        calls.append((np.ndim(seeds), np.size(seeds), count))
        return real(seeds, count, pairs)

    monkeypatch.setattr(rng, "_draw", recording)
    return calls


class TestRng:
    def test_finalize_matches_pure_python(self):
        for z in (0, 1, 2**63, 0xDEADBEEF, _MASK, 0x123456789ABCDEF0):
            assert int(finalize(np.uint64(z))) == _finalize_py(z)

    def test_substream_seed_matches_pure_python(self):
        seeds = substream_seed(20250819, np.arange(6))
        for i in range(6):
            assert int(seeds[i]) == _substream_py(20250819, i)
        # scalar index agrees with the vectorized path
        assert int(substream_seed(20250819, 3)) == int(seeds[3])

    def test_uniform_values_match_pure_python(self):
        base = substream_seed(7, 3)
        u = uniforms(base, 5)
        for j in range(5):
            assert u[j] == _uniform_py(int(base), j)

    def test_uniforms_shape_and_open_interval(self):
        seeds = substream_seed(11, np.arange(6).reshape(3, 2))
        u = uniforms(seeds, 5)
        assert u.shape == (3, 2, 5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_substreams_distinct(self):
        seeds = substream_seed(0, np.arange(4096))
        assert np.unique(seeds).size == 4096

    def test_normals_prefix_stable(self):
        # extending count must not disturb earlier draws
        base = substream_seed(5, 0)
        assert np.array_equal(normals(base, 8)[:4], normals(base, 4))

    @pytest.mark.parametrize("shape", [(), (5,), (3, 2)])
    def test_uniforms_match_pure_python_across_tile_edges(self, monkeypatch, shape):
        tile = 8
        monkeypatch.setattr(rng, "TILE", tile)
        seeds = substream_seed(31, np.arange(1, 1 + math.prod(shape)).reshape(shape))
        for count in (0, 1, tile - 1, tile, tile + 1, 3 * tile + 5):
            u = uniforms(seeds, count)
            assert u.shape == shape + (count,)
            expected = [[_uniform_py(int(base), j) for j in range(count)] for base in np.ravel(seeds)]
            assert np.array_equal(u.reshape(np.size(seeds), count), np.array(expected).reshape(np.size(seeds), count))

    @pytest.mark.parametrize("shape", [(), (3, 2)])
    def test_normals_are_box_muller_across_tile_edges(self, monkeypatch, shape):
        seeds = substream_seed(5, np.arange(1, 1 + math.prod(shape)).reshape(shape))
        u = uniforms(seeds, 14)
        box_muller = np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])
        monkeypatch.setattr(rng, "TILE", 8)  # four normals per tile
        for count in (3, 4, 5, 7):  # prefixes ending inside, at and past a tile edge
            assert np.array_equal(normals(seeds, count), box_muller[..., :count])

    @pytest.mark.parametrize("draw", ["uniforms", "mesh normals"])
    def test_memory_is_output_plus_a_few_tiles(self, draw):
        if draw == "uniforms":
            seeds, count, f = substream_seed(3, np.arange(1, 1025)), 256, uniforms  # 2^18 draws
        else:
            seeds, count, f = substream_seed(3, 0), 100_000, normals
        tracemalloc.start()
        try:
            out = f(seeds, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * rng.TILE * 8

    def test_uniform_mean(self):
        seeds = substream_seed(17, np.arange(1000))
        u = uniforms(seeds, 1000)
        # se = (1/sqrt(12)) / 1000
        assert abs(u.mean() - 0.5) < 4.0 * (1.0 / math.sqrt(12.0)) / 1000.0

    def test_normal_moments(self):
        seeds = substream_seed(23, np.arange(1000))
        x = normals(seeds, 1000)
        n = x.size
        assert abs(x.mean()) < 4.0 / math.sqrt(n)
        # var(s^2) ~ 2/n for gaussians
        assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)


class TestTrialPlanValidation:
    def test_unknown_target(self):
        with pytest.raises(ValueError):
            _rademacher_plan(target="bernstein")

    @pytest.mark.parametrize("field,value", [("n", 0), ("n", True), ("n", 2.0), ("trials", 0), ("trials", True)])
    def test_bad_counts(self, field, value):
        with pytest.raises(ValueError):
            _rademacher_plan(**{field: value})

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_bad_rate(self, r):
        with pytest.raises(ValueError):
            _rademacher_plan(r=r)

    @pytest.mark.parametrize("k", [-1, True, 1.5])
    def test_bad_k(self, k):
        with pytest.raises(ValueError):
            _rademacher_plan(k=k)

    def test_chernoff_requires_distribution_and_function(self):
        with pytest.raises(ValueError):
            _rademacher_plan(distribution=None)
        with pytest.raises(ValueError):
            _rademacher_plan(function_values=None)

    def test_chernoff_function_length_mismatch(self):
        with pytest.raises(ValueError):
            _rademacher_plan(function_values=np.array([-1.0, 0.0, 1.0]))

    def test_family_targets_require_family(self):
        for target in ("corollary", "theorem-main"):
            with pytest.raises(ValueError):
                TrialPlan(target=target, n=10, r=0.1, trials=10, root_seed=1)

    def test_gaussian_requirements(self, poly2_model):
        with pytest.raises(ValueError):
            TrialPlan(target="gaussian", n=10, r=0.1, trials=10, root_seed=1, mesh=8)
        with pytest.raises(ValueError):
            TrialPlan(
                target="gaussian", n=10, r=0.1, trials=10, root_seed=1,
                model=poly2_model, mesh=0,
            )
        with pytest.raises(ValueError):
            TrialPlan(
                target="gaussian", n=10, r=0.1, trials=10, root_seed=1,
                model=poly2_model, mesh=8, k=poly2_model.dim + 1,
            )


class TestReportValidation:
    def _kwargs(self):
        rate = 0.03
        return dict(
            target="chernoff", n=10, r=1.0, k=0, trials=100, violations=3,
            rate=rate, guarantee=0.05,
            stderr=math.sqrt(rate * (1.0 - rate) / 100), passed=True,
        )

    def test_valid_report(self):
        rep = VerificationReport(**self._kwargs())
        d = rep.as_dict()
        assert d["pass"] is True
        assert d["violations"] == 3

    @pytest.mark.parametrize("rate", [-0.1, 1.2])
    def test_rate_range(self, rate):
        kw = self._kwargs()
        kw.update(rate=rate, passed=rate <= kw["guarantee"] + 3 * kw["stderr"])
        with pytest.raises(ValueError):
            VerificationReport(**kw)

    def test_inconsistent_pass_flag(self):
        kw = self._kwargs()
        kw["passed"] = False
        with pytest.raises(ValueError):
            VerificationReport(**kw)


class TestRunTrials:
    def test_chernoff_reference_run(self):
        plan = _rademacher_plan()
        rep = run_trials(plan)
        # deterministic count: pure function of (seed, plan)
        assert rep.violations == 1547
        assert rep.rate == pytest.approx(0.01547, abs=0)
        assert rep.guarantee == pytest.approx(math.exp(-2.5), rel=1e-15)
        assert rep.stderr == pytest.approx(math.sqrt(rep.rate * (1 - rep.rate) / plan.trials))
        assert rep.passed
        assert rep.as_dict()["pass"] is True

    def test_chernoff_rate_near_chernoff_ceiling(self):
        # the bound is not vacuous here: observed rate within [c/50, c]
        plan = _rademacher_plan()
        rep = run_trials(plan)
        assert rep.guarantee / 50 < rep.rate <= rep.guarantee

    def test_threshold_override_impossible(self, monkeypatch):
        plan = _rademacher_plan(trials=500)
        _override_thresholds(monkeypatch, -1.0)
        rep = run_trials(plan)
        assert rep.violations == 500
        assert rep.rate == 1.0
        assert rep.stderr == 0.0
        assert not rep.passed

    def test_threshold_override_unreachable(self, monkeypatch):
        plan = _rademacher_plan(trials=500)
        _override_thresholds(monkeypatch, 2.0)
        rep = run_trials(plan)
        # |empirical mean| <= 1 for a sign function
        assert rep.violations == 0
        assert rep.passed

    def test_corollary_family12(self, family12):
        plan = TrialPlan(
            target="corollary", n=200, r=0.05, trials=20_000, root_seed=7,
            family=family12,
        )
        rep = run_trials(plan)
        assert rep.violations == 0
        assert rep.passed
        # threshold the harness tests against is the extremal pair's T_r
        assert extremal_difference(family12, 0.05) is not None

    def test_theorem_main_family12(self, family12):
        plan = TrialPlan(
            target="theorem-main", n=200, r=0.05, trials=20_000, root_seed=7, k=2,
            family=family12,
        )
        rep = run_trials(plan)
        assert rep.violations == 0
        assert rep.guarantee == pytest.approx(2.0 * math.exp(-10.0), rel=1e-12)
        assert rep.passed

    def test_singleton_zero_family(self):
        dist = DiscreteDistribution(
            support=np.array([[-1.0], [1.0]]), probabilities=np.array([0.5, 0.5])
        )
        fam = FunctionFamily(dist, {"zero": np.zeros(2)})
        for target in ("corollary", "theorem-main"):
            plan = TrialPlan(
                target=target, n=20, r=0.1, trials=2_000, root_seed=3, family=fam
            )
            rep = run_trials(plan)
            assert rep.violations == 0
            assert rep.rate == 0.0
            assert rep.passed

    def test_gaussian_poly2(self, poly2_model):
        plan = TrialPlan(
            target="gaussian", n=100, r=0.02, trials=1_500, root_seed=42, k=2,
            model=poly2_model, mesh=128,
        )
        rep = run_trials(plan)
        assert rep.guarantee == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert rep.violations == 0
        assert rep.passed


class TestParallelism:
    def test_thread_count_determinism(self, monkeypatch, family12):
        plans = [
            _rademacher_plan(trials=20_000),
            TrialPlan(
                target="theorem-main", n=100, r=0.03, trials=4_000, root_seed=11,
                k=2, family=family12,
            ),
        ]
        for plan in plans:
            reports = []
            for threads in ("1", "3", "8", "0"):
                monkeypatch.setenv("TAILBOUND_THREADS", threads)
                reports.append(run_trials(plan).as_dict())
            assert all(rep == reports[0] for rep in reports[1:])

    def test_gaussian_thread_determinism(self, monkeypatch, poly2_model):
        plan = TrialPlan(
            target="gaussian", n=60, r=0.05, trials=1_200, root_seed=5, k=3,
            model=poly2_model, mesh=64,
        )
        reports = []
        for threads in ("1", "4"):
            monkeypatch.setenv("TAILBOUND_THREADS", threads)
            reports.append(run_trials(plan).as_dict())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("raw,cpus,want", [("1000000", 4, 4), ("3", 4, 3), ("0", 4, 1), ("-5", 2, 1), ("8", None, 1)])
    def test_thread_count_capped_at_cpu_count(self, monkeypatch, raw, cpus, want):
        # the cap is checked on the block plan alone; no thread is started
        monkeypatch.setenv("TAILBOUND_THREADS", raw)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert verify._thread_count() == want
        ranges = verify._block_ranges(1_000_000, verify._thread_count())
        assert len(ranges) == want
        assert ranges[0][0] == 0 and ranges[-1][1] == 1_000_000
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_invalid_thread_env(self, monkeypatch):
        monkeypatch.setenv("TAILBOUND_THREADS", "many")
        with pytest.raises(ValueError):
            run_trials(_rademacher_plan(trials=100))


class TestSweep:
    def test_single_point_equals_run_trials(self):
        plan = _rademacher_plan(trials=2_000)
        reports = sweep(plan)
        assert len(reports) == 1
        assert reports[0].as_dict() == run_trials(plan).as_dict()

    def test_grid_order_and_values(self):
        plan = _rademacher_plan(trials=500)
        reports = sweep(plan, n_values=[20, 40], r_values=[0.05, 0.1])
        assert [(rep.n, rep.r) for rep in reports] == [
            (20, 0.05), (20, 0.1), (40, 0.05), (40, 0.1),
        ]
        for rep in reports:
            direct = run_trials(dataclasses.replace(plan, n=rep.n, r=rep.r))
            assert rep.as_dict() == direct.as_dict()

    def test_k_axis(self, family12):
        plan = TrialPlan(
            target="theorem-main", n=50, r=0.05, trials=400, root_seed=2,
            family=family12,
        )
        reports = sweep(plan, k_values=[0, 2, 3])
        assert [rep.k for rep in reports] == [0, 2, 3]

    def test_empty_axis_rejected(self):
        plan = _rademacher_plan(trials=100)
        with pytest.raises(ValueError):
            sweep(plan, r_values=[])

    def test_invalid_grid_point_propagates(self):
        plan = _rademacher_plan(trials=100)
        with pytest.raises(ValueError):
            sweep(plan, n_values=[10, 0])


class TestAtomCounts:
    @staticmethod
    def _reference(u, cdf):
        return np.stack([np.bincount(np.searchsorted(cdf, row, side="left"), minlength=cdf.size) for row in u])

    # both sides of the cut-off between level passes and searchsorted, and
    # of 48 and 64
    @pytest.mark.parametrize("s", [1, 2, 6, 48, 49, 64, 65, LEVEL_PASSES_MAX, LEVEL_PASSES_MAX + 1, 128, 2048])
    def test_matches_searchsorted_bincount(self, s):
        gen = np.random.default_rng(s)
        probs = gen.dirichlet(np.ones(s))
        if s > 2:
            probs[1::3] = 0.0  # zero-probability atoms repeat a cdf level
            probs /= probs.sum()
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        u = uniforms(substream_seed(s, np.arange(1, 201)), 150)
        levels = cdf[:-1][: u.shape[1]]
        u[:, : levels.size] = levels  # uniforms exactly at cdf levels
        counts = verify._atom_counts(u, cdf)
        assert counts.dtype.kind == "i"
        assert np.array_equal(counts, self._reference(u, cdf))
        assert np.all(counts.sum(axis=1) == u.shape[1])

    def test_level_hits_and_zero_probability_atoms(self):
        cdf = np.cumsum([0.25, 0.0, 0.0, 0.5, 0.0, 0.25])
        u = np.array([[0.25, 0.25, 0.75, 0.1, 0.9, 0.5]])
        assert verify._atom_counts(u, cdf).tolist() == [[3, 0, 0, 2, 0, 1]]
        assert np.array_equal(verify._atom_counts(u, cdf), self._reference(u, cdf))

    def test_searchsorted_path_on_level_hits(self, monkeypatch):
        # the same small support counted by searchsorted + bincount, two rows
        monkeypatch.setattr(verify, "LEVEL_PASSES_MAX", 2)
        cdf = np.cumsum([0.25, 0.0, 0.0, 0.5, 0.0, 0.25])
        u = np.array([[0.25, 0.25, 0.75, 0.1, 0.9, 0.5], [0.9, 0.9, 0.25, 1.0, 0.0, 0.75]])
        assert verify._atom_counts(u, cdf).tolist() == [[3, 0, 0, 2, 0, 1], [2, 0, 0, 1, 0, 3]]


class TestExactDecisions:
    def test_discrete_near_tie_decided_in_real_arithmetic(self, monkeypatch):
        # Counts (3, 3) of the values (a, b) sum to 3a + 3b = -3 * 2^-51 in real
        # arithmetic, while every float evaluation of that dot product (either
        # order, with or without a fused multiply-add) gives -2 * 2^-51 or
        # -2.5 * 2^-51, so n thr = -2.76 * 2^-51 separates them.
        a, b = 1.0 + 2.0**-52, -(1.0 + 3 * 2.0**-52)
        n, thr = 6, -0.46 * 2.0**-51
        real = 3 * Fraction(a) + 3 * Fraction(b)
        assert real < n * Fraction(thr) < Fraction(float(np.array([3.0, 3.0]) @ np.array([a, b])))

        cdf = np.array([0.5, 1.0])
        monkeypatch.setattr(
            verify, "_discrete_setup", lambda plan: (np.array([[a, b]]), np.array([thr]), cdf, 1.0)
        )
        calls = []
        exact_dot = verify._exact_dot
        monkeypatch.setattr(verify, "_exact_dot", lambda x, w: calls.append(1) or exact_dot(x, w))
        plan = _rademacher_plan(n=n, trials=400)
        rep = run_trials(plan)

        atoms = np.searchsorted(cdf, uniforms(substream_seed(plan.root_seed, np.arange(1, 401)), n))
        counts = np.stack([n - atoms.sum(axis=1), atoms.sum(axis=1)], axis=1)
        exact = sum(int(c0) * Fraction(a) + int(c1) * Fraction(b) > n * Fraction(thr) for c0, c1 in counts)
        ties = int(np.count_nonzero(counts[:, 0] == 3))
        floated = int(np.count_nonzero(counts.astype(float) @ np.array([a, b]) > n * thr))
        assert ties > 0 and floated == exact + ties
        assert rep.violations == exact
        assert len(calls) >= ties

    def test_gaussian_near_tie_decided_in_real_arithmetic(self, monkeypatch):
        # d = 1 and n = 2: a trial g violates total t when g p > sqrt(2) t.
        # Search the draws for a trial and a total that the float comparisons
        # g p > sqrt(2) t and (g p) / sqrt(2) > t both decide wrongly.
        n, p, trials, seed = 2, 0.1, 2_000, 8
        g = normals(substream_seed(seed, np.arange(1, trials + 1)), 1)[:, 0]
        real = [Fraction(v) * Fraction(p) for v in g.tolist()]
        floated = (g * p).tolist()

        def above(x, total):
            return x > 0 and x * x > n * Fraction(total) ** 2

        def float_rules(xf, total):
            return {xf > math.sqrt(n) * total, xf * (1.0 / math.sqrt(n)) > total}

        def separating_total():
            for x, xf in zip(real, floated):
                cand = float(x) / math.sqrt(n)
                for step in range(-4, 5):
                    total = cand + step * math.ulp(cand)
                    if x > 0 and float_rules(xf, total) == {not above(x, total)}:
                        return total
            return None

        total = separating_total()
        assert total is not None
        monkeypatch.setattr(verify, "_gaussian_mesh", lambda plan: (np.ones((1, 1)), np.array([[p]])))
        monkeypatch.setattr(verify, "_gaussian_setup", lambda plan, dirs: (np.array([total]), 2.0 * math.exp(-0.1)))
        plan = TrialPlan(target="gaussian", n=n, r=0.05, trials=trials, root_seed=seed,
                         model=GaussianModel(np.eye(1)), mesh=1)
        rep = run_trials(plan)
        assert rep.violations == sum(above(x, total) for x in real)
        assert rep.violations != sum(xf > math.sqrt(n) * total for xf in floated)

    def test_zero_row_at_zero_threshold_never_enters_exact_path(self, monkeypatch):
        calls = []
        exact_dot = verify._exact_dot
        monkeypatch.setattr(verify, "_exact_dot", lambda x, w: calls.append(1) or exact_dot(x, w))
        dist = DiscreteDistribution(support=np.array([[-1.0], [1.0]]), probabilities=np.array([0.5, 0.5]))
        fam = FunctionFamily(dist, {"zero": np.zeros(2)})
        for target in ("corollary", "theorem-main"):
            plan = TrialPlan(target=target, n=20, r=0.1, trials=2_000, root_seed=3, family=fam)
            tracked, thresholds, _, _ = verify._discrete_setup(plan)
            assert not tracked.any() and np.all(thresholds == 0.0)
            assert run_trials(plan).violations == 0
        assert calls == []

    @pytest.mark.parametrize("target", ["chernoff", "theorem-main", "gaussian"])
    def test_reports_bit_identical_for_one_and_two_threads(self, monkeypatch, family12, poly2_model, target):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        _scale_thresholds(monkeypatch, 0.3)
        plan = _target_plan(target, family12, poly2_model)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("TAILBOUND_THREADS", threads)
            reports.append([rep.as_dict() for rep in sweep(plan, n_values=[30, 60])])
        assert reports[0] == reports[1]
        assert all(rep["violations"] > 0 for rep in reports[0])


class TestChunks:
    @pytest.mark.parametrize("target", ["chernoff", "theorem-main", "gaussian"])
    def test_reports_identical_with_tiny_blocks(self, monkeypatch, family12, poly2_model, target):
        _scale_thresholds(monkeypatch, 0.3)
        plan = _target_plan(target, family12, poly2_model, trials=300)
        before = run_trials(plan).as_dict()
        monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 64)
        assert run_trials(plan).as_dict() == before
        assert before["violations"] > 0

    def test_no_draw_exceeds_block_elements(self, monkeypatch, family12, poly2_model):
        calls = _record_uniforms(monkeypatch)
        plans = [
            _target_plan("chernoff", family12, poly2_model, trials=20_000),
            _target_plan("theorem-main", family12, poly2_model, trials=6_000),
            _target_plan("gaussian", family12, poly2_model, trials=6_000),
        ]
        for plan in plans:
            run_trials(plan)
        assert max(size * count for _, size, count in calls) <= numerics.BLOCK_ELEMENTS
        trial_draws = sum(size * count for ndim, size, count in calls if ndim == 1)
        assert trial_draws == 20_000 * 50 + 6_000 * 60 + 6_000 * 2 * poly2_model.dim
        assert trial_draws > 3 * numerics.BLOCK_ELEMENTS


class TestSweepSharing:
    GRID = dict(n_values=[30, 60], r_values=[0.05, 0.2], k_values=[0, 2])

    @pytest.mark.parametrize("target", ["chernoff", "theorem-main", "gaussian"])
    def test_every_point_equals_its_run_trials(self, monkeypatch, family12, poly2_model, target):
        _scale_thresholds(monkeypatch, 0.3)
        plan = _target_plan(target, family12, poly2_model, trials=500)
        reports = sweep(plan, **self.GRID)
        points = list(itertools.product(*self.GRID.values()))
        assert [(rep.n, rep.r, rep.k) for rep in reports] == points
        for rep, (n, r, k) in zip(reports, points):
            assert rep.as_dict() == run_trials(dataclasses.replace(plan, n=n, r=r, k=k)).as_dict()
        assert len({rep.violations for rep in reports}) > 1

    @pytest.mark.parametrize("target", ["chernoff", "theorem-main"])
    def test_one_draw_pass_per_n(self, monkeypatch, family12, poly2_model, target):
        calls = _record_uniforms(monkeypatch)
        plan = _target_plan(target, family12, poly2_model, trials=500)
        sweep(plan, **self.GRID)
        drawn = collections.Counter()
        for _, size, count in calls:
            drawn[count] += size
        assert drawn == {30: 500, 60: 500}

    def test_one_draw_pass_for_a_gaussian_sweep(self, monkeypatch, family12, poly2_model):
        calls = _record_uniforms(monkeypatch)
        plan = _target_plan("gaussian", family12, poly2_model, trials=500)
        sweep(plan, **self.GRID)
        d = poly2_model.dim
        assert [c for c in calls if c[0] == 0] == [(0, 1, 2 * plan.mesh * d)]  # the mesh, once
        drawn = collections.Counter()
        for ndim, size, count in calls:
            if ndim == 1:
                drawn[count] += size
        assert drawn == {2 * d: 500}

def test_chernoff_threshold_is_rate_bound(rademacher, monkeypatch):
    # the harness thresholds chernoff runs at T_r of the tracked function
    dist = DiscreteDistribution(
        support=np.asarray(rademacher["support"], dtype=float),
        probabilities=np.asarray(rademacher["probabilities"], dtype=float),
    )
    t_direct = rate_bound_T(dist, rademacher["functions"]["f"], 0.05)
    plan = _rademacher_plan(trials=4_000)
    plain = run_trials(plan)
    _override_thresholds(monkeypatch, t_direct)
    boosted = run_trials(plan)
    assert boosted.as_dict() == plain.as_dict()
