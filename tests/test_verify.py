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
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from tailbound.cgf import DiscreteDistribution, rate_bound_T
from tailbound.chaining import FunctionFamily, extremal_difference
from tailbound.gaussian import GaussianModel
from tailbound.rng import GOLDEN, finalize, key_levels, normals, substream_seed, uniforms
from tailbound import numerics, rng, verify
from tailbound.verify import CEILING_FACTOR, LEVEL_PASSES_MAX, TARGETS, TrialPlan, VerificationReport, run_trials, sweep

_MASK = (1 << 64) - 1
_PY_GOLDEN = 0x9E3779B97F4A7C15


def _finalize_py(z: int) -> int:
    # reference SplitMix64 avalanche in unbounded python ints
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _unfinalize_py(x: int) -> int:
    # the z whose _finalize_py(z) is x: each step of the avalanche inverted
    def unshift(v, s):
        out = v
        for _ in range(64 // s + 1):
            out = v ^ (out >> s)
        return out

    x = (unshift(x, 31) * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    x = (unshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    return unshift(x, 30)


def _substream_py(root: int, index: int) -> int:
    return _finalize_py((root + (index + 1) * _PY_GOLDEN) & _MASK)


def _uniform_py(base: int, counter: int) -> float:
    bits = _finalize_py((base + (counter + 1) * _PY_GOLDEN) & _MASK)
    return ((bits >> 11) + 0.5) * 2.0**-53


def keys(seeds, count):
    """The int64 keys m = x >> 11 of values 0..count-1 of each substream base
    in seeds, from finalize directly: uniforms(seeds, count) maps them."""
    x = finalize(np.asarray(seeds, dtype=np.uint64)[..., None] + (np.arange(count, dtype=np.uint64) + 1) * GOLDEN)
    return (x >> np.uint64(11)).astype(np.int64)


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
        tracked, thresholds, cdf = setup(plan)
        return tracked, np.full(thresholds.shape, float(value)), cdf

    monkeypatch.setattr(verify, "_discrete_setup", constant)


def _scale_thresholds(monkeypatch, factor):
    """Scale every threshold and gaussian total run_trials derives by
    `factor`, so that the violation counts the tests compare are not 0."""
    discrete, gaussian = verify._discrete_setup, verify.gaussian_instance_bound

    def scaled_discrete(plan):
        tracked, thresholds, cdf = discrete(plan)
        return tracked, factor * thresholds, cdf

    def scaled_gaussian(*args):
        report = gaussian(*args)
        return dataclasses.replace(report, total=factor * report.total)

    monkeypatch.setattr(verify, "_discrete_setup", scaled_discrete)
    monkeypatch.setattr(verify, "gaussian_instance_bound", scaled_gaussian)


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


def _record_draws(monkeypatch):
    """Record (seed array ndim, seed count, uniforms per seed, form) of every
    tile loop: form is rng._draw's ("uniforms", "normals" or "sketch"), or
    "counts" for the discrete counter (verify._draw_counts)."""
    calls, forms = [], []
    real_tiles, real_draw = rng.tiles, rng._draw

    def recording(seeds, count, **kwargs):
        calls.append((np.ndim(seeds), np.size(seeds), count, forms[-1] if forms else "counts"))
        return real_tiles(seeds, count, **kwargs)

    def drawing(seeds, count, form, *args):
        forms.append(form)
        try:
            return real_draw(seeds, count, form, *args)
        finally:
            forms.pop()

    monkeypatch.setattr(rng, "tiles", recording)
    monkeypatch.setattr(verify, "tiles", recording)
    monkeypatch.setattr(rng, "_draw", drawing)
    return calls


def _record_kept(monkeypatch):
    """Record the number of trials the gaussian screen keeps in each chunk."""
    kept, kept_normals = [], verify._Group._kept_normals

    def recording(group, seeds):
        x = kept_normals(group, seeds)
        kept.append(len(x))
        return x

    monkeypatch.setattr(verify._Group, "_kept_normals", recording)
    return kept


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

    def test_uniforms_shape_and_half_open_interval(self):
        seeds = substream_seed(11, np.arange(6).reshape(3, 2))
        u = uniforms(seeds, 5)
        assert u.shape == (3, 2, 5)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_uniforms_are_the_keys_mapped(self):
        seeds = substream_seed(13, np.arange(1, 7).reshape(3, 2))
        m = keys(seeds, 9)
        assert m.dtype == np.int64 and m.shape == (3, 2, 9)
        assert np.all((m >= 0) & (m < 2**53))
        assert np.array_equal((m + 0.5) * 2.0**-53, uniforms(seeds, 9))

    def test_key_map_at_its_edges(self):
        # fl(m + 0.5) 2^-53: exact below 2^52, ties to even from 2^52 on, so
        # the largest key maps to 1.0, and it is the key level of c = 1.0
        m = np.array([0, 2**52, 2**52 + 1, 2**53 - 1], dtype=np.int64)
        assert ((m + 0.5) * 2.0**-53).tolist() == [2.0**-54, 0.5, (2**52 + 2) * 2.0**-53, 1.0]
        assert key_levels(np.array([1.0])).tolist() == [2**53 - 1]

    @pytest.mark.parametrize("c", [0.0, 2.0**-60, 0.5, (2**52 + 2) * 2.0**-53, 1.0])
    def test_key_levels_exhaustively_near_each_level(self, c):
        level = int(key_levels(np.array([c]))[0])
        for m in range(max(level - 2, 0), min(level + 3, 2**53)):
            assert ((float(m) + 0.5) * 2.0**-53 <= c) == (m <= level)
        assert level == -1 or (float(level) + 0.5) * 2.0**-53 <= c

    def test_sketch_is_within_cos_error_of_normals(self):
        # 2^20 seeded angles, and the angles of keys m = j 2^51 + i (|i| <= 300),
        # next to 0, pi/2, pi, 3 pi/2 and 2 pi: substream bases chosen so that
        # value 1, normal 0's angle uniform, finalizes to m 2^11 + 0x5A5
        near = [m for j in range(5) for m in range(j * 2**51 - 300, j * 2**51 + 301) if 0 <= m < 2**53]
        assert _unfinalize_py(_finalize_py(0x123456789ABCDEF0)) == 0x123456789ABCDEF0
        bases = np.array([(_unfinalize_py((m << 11) | 0x5A5) - 2 * _PY_GOLDEN) & _MASK for m in near], np.uint64)
        assert np.array_equal(uniforms(bases, 2)[:, 1], (np.array(near) + 0.5) * 2.0**-53)
        for seeds, count in ((substream_seed(41, np.arange(1, 1025)), 1024), (bases, 1)):
            rho, angles, cosines = rng.sketch_normals(seeds, count)
            assert rho.shape == angles.shape == cosines.shape == seeds.shape + (count,)
            assert cosines.dtype == np.float32
            assert np.array_equal(rho, np.sqrt(-2.0 * np.log(uniforms(seeds, 2 * count)[..., 0::2])))
            x = normals(seeds, count)
            rows = np.random.default_rng(count).random(len(seeds)) < 0.3  # the trials a screen keeps
            assert np.array_equal(rho * np.cos(angles), x)
            assert np.array_equal(rho[rows] * np.cos(angles[rows]), x[rows])
            assert np.all(np.abs(x - rho * cosines) <= rho * rng.COS_ERROR / 1000)

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

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_normals_from_an_offset_are_that_slice_of_one_draw(self, shape):
        # a tile holds TILE / 2 normals: offsets even and odd, inside the first
        # tile and past its edges, and counts up to and above a tile's worth
        half = rng.TILE // 2
        seeds = substream_seed(7, np.arange(1, 1 + math.prod(shape)).reshape(shape))
        whole = normals(seeds, 4 * half)
        for start in (0, 1, 2, 7, half - 1, half, half + 1, 2 * half + 3):
            for count in (1, 6, half - start % half, half + 1, half + 3):
                got = normals(seeds, count, start=start)
                assert got.shape == shape + (count,)
                assert np.array_equal(got, whole[..., start : start + count])

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
        return dict(target="chernoff", n=10, r=1.0, k=0, trials=100, violations=3, guarantee=0.05)

    def test_valid_report(self):
        rep = VerificationReport(**self._kwargs())
        d = rep.as_dict()
        assert d["pass"] is True
        assert d["violations"] == 3
        assert list(d) == ["target", "n", "r", "k", "trials", "violations", "rate", "guarantee", "stderr", "pass"]

    @pytest.mark.parametrize("violations,trials", [(3, 100), (0, 7), (7, 7), (40, 1000)])
    def test_rate_stderr_and_pass_derive_from_the_counts(self, violations, trials):
        rep = VerificationReport(**{**self._kwargs(), "violations": violations, "trials": trials})
        rate = violations / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        assert (rep.rate, rep.stderr, rep.passed) == (rate, stderr, rate <= 0.05 + 3.0 * stderr)
        assert type(rep.passed) is bool

    def test_pass_rule_at_its_edge(self):
        # ceiling 0.05 in 100 trials: 15 violations lie within 3 stderr of it, 16 do not
        assert VerificationReport(**{**self._kwargs(), "violations": 15}).passed
        assert not VerificationReport(**{**self._kwargs(), "violations": 16}).passed

    @pytest.mark.parametrize("rate", [-0.1, 1.2])
    def test_rate_range(self, rate):
        kw = self._kwargs()
        kw.update(violations=round(rate * kw["trials"]))
        with pytest.raises(ValueError, match="violations must lie in 0..trials"):
            VerificationReport(**kw)

    @pytest.mark.parametrize("violations,trials", [(-1, 100), (101, 100), (0, 0)])
    def test_violations_just_outside_0_to_trials(self, violations, trials):
        with pytest.raises(ValueError, match="violations must lie in 0..trials"):
            VerificationReport(**{**self._kwargs(), "violations": violations, "trials": trials})

    @pytest.mark.parametrize("field", ["rate", "stderr", "passed"])
    def test_derived_fields_cannot_be_passed(self, field):
        with pytest.raises(TypeError):
            VerificationReport(**self._kwargs(), **{field: 0})


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


@pytest.mark.parametrize("target", TARGETS)
def test_guarantee_is_the_ceiling_factor_times_e_to_the_minus_nr(family12, poly2_model, target):
    # theorem-main once reported 1 - (1 - 2 e^{-nr}), which is 0.0 at nr = 40
    if target == "corollary":
        plan = TrialPlan(target=target, n=60, r=0.05, trials=50, root_seed=1, family=family12)
    else:
        plan = _target_plan(target, family12, poly2_model, trials=50)
    grid = dict(n_values=[50, 200, 800], r_values=[0.05, 0.3])
    reports = sweep(plan, **grid)
    factor = 1.0 if target in ("chernoff", "corollary") else 2.0
    assert CEILING_FACTOR[target] == factor
    points = itertools.product(*grid.values())
    assert [rep.guarantee for rep in reports] == [factor * math.exp(-n * r) for n, r in points]
    assert reports[4].guarantee == factor * 4.248354255291589e-18 > 0.0  # n = 800, r = 0.05


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
    # of 48, 64 and 96
    @pytest.mark.parametrize("s", sorted({1, 2, 6, 48, 49, 64, 65, 96, 97, 128, 2048,
                                          LEVEL_PASSES_MAX, LEVEL_PASSES_MAX + 1}))
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

    @pytest.mark.parametrize("s", [2, 6, 97, 512])
    def test_keys_count_as_their_uniforms(self, s):
        gen = np.random.default_rng(s)
        probs = gen.dirichlet(np.ones(s))
        probs[1::3] = 0.0
        probs /= probs.sum()
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        levels = key_levels(cdf)
        m = keys(substream_seed(s, np.arange(1, 201)), 150)
        hits = np.clip(np.concatenate([levels[:-1], levels[:-1] + 1]), 0, 2**53 - 1)[: m.shape[1]]
        m[:, : hits.size] = hits  # keys at and just above each level
        u = (m + 0.5) * 2.0**-53
        assert np.array_equal(verify._atom_counts(m, levels), verify._atom_counts(u, cdf))
        assert np.array_equal(verify._atom_counts(m, levels), self._reference(u, cdf))

    @pytest.mark.parametrize("s", [2, 6, 97])
    def test_draw_counts_are_the_uniforms_counted(self, monkeypatch, s):
        # atoms below the least uniform first (key level -1), then atoms of
        # zero probability, counted from raw values across tile edges
        monkeypatch.setattr(rng, "TILE", 64)
        probs = np.random.default_rng(s).dirichlet(np.ones(s))
        probs[1::3] = 0.0
        probs[:2] = 0.0, 2.0**-60
        cdf = np.cumsum(probs / probs.sum())
        cdf[-1] = 1.0
        levels = key_levels(cdf)
        assert levels[0] == -1 and (s == 2 or levels[1] == -1)
        seeds = substream_seed(s, np.arange(1, 41))
        for n in (1, 7, 64, 65, 200):
            counts = verify._draw_counts(seeds, n, levels)
            assert counts.shape == (40, s) and np.array_equal(counts, self._reference(uniforms(seeds, n), cdf))

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
            verify, "_discrete_setup", lambda plan: (np.array([[a, b]]), np.array([thr]), cdf)
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
        model = GaussianModel(np.array([[p * p]]))  # Sigma^{1/2} = p, so the projector of direction 1 is p
        assert model.sqrt_matrix().tolist() == [[p]]
        monkeypatch.setattr(verify, "_gaussian_mesh", lambda *args: np.ones((1, 1)))
        monkeypatch.setattr(verify, "gaussian_instance_bound", lambda *args: SimpleNamespace(total=np.array([total])))
        plan = TrialPlan(target="gaussian", n=n, r=0.05, trials=trials, root_seed=seed, model=model, mesh=1)
        rep = run_trials(plan)
        assert rep.violations == sum(above(x, total) for x in real)
        assert rep.violations != sum(xf > math.sqrt(n) * total for xf in floated)

    @pytest.mark.parametrize("r", [0.02, 0.1])
    def test_overflowing_products_and_levels_decided_exactly(self, r):
        # f = +-1e308 is f = +-1 scaled, so it violates in the same trials; its
        # products and levels overflow (r = 0.1) or its products overflow
        # below a finite level (r = 0.02), and those cells go to the exact test
        dist = DiscreteDistribution(support=np.array([[-1.0], [1.0]]), probabilities=np.array([0.5, 0.5]))
        plans = [TrialPlan(target="chernoff", n=5, r=r, trials=4000, root_seed=1, distribution=dist,
                           function_values=np.array([-s, s])) for s in (1.0, 1e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            unit, big = (run_trials(plan).violations for plan in plans)
        assert big == unit > 0

    def test_infinite_threshold_is_never_exceeded(self):
        assert not verify._above(Fraction(10**400), 25, math.inf)
        assert verify._above(Fraction(-(10**400)), 25, -math.inf)
        s = 4e307  # every member's theorem-main threshold overflows to +inf
        dist = DiscreteDistribution(support=np.arange(3.0)[:, None], probabilities=np.array([0.25, 0.5, 0.25]))
        fam = FunctionFamily(dist, {"z": np.zeros(3), "a": np.array([-s, 0.0, s]), "b": np.array([s, -s, s]),
                                    "c": np.array([s / 2, 0.0, -s / 2])})
        plan = TrialPlan(target="theorem-main", n=5, r=1.0, k=0, trials=500, root_seed=1, family=fam)
        assert np.all(verify._discrete_setup(plan)[1] == math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_trials(plan).violations == 0

    def test_infinite_thresholds_are_decided_without_exact_dots(self, monkeypatch):
        # the family of test_infinite_threshold_is_never_exceeded: every cell
        # of every trial was an exact dot product, 2000 in 500 trials
        calls = []
        exact_dot = verify._exact_dot
        monkeypatch.setattr(verify, "_exact_dot", lambda x, w: calls.append(1) or exact_dot(x, w))
        s = 4e307
        dist = DiscreteDistribution(support=np.arange(3.0)[:, None], probabilities=np.array([0.25, 0.5, 0.25]))
        fam = FunctionFamily(dist, {"z": np.zeros(3), "a": np.array([-s, 0.0, s]), "b": np.array([s, -s, s]),
                                    "c": np.array([s / 2, 0.0, -s / 2])})
        plan = TrialPlan(target="theorem-main", n=5, r=1.0, k=0, trials=500, root_seed=1, family=fam)
        assert run_trials(plan).violations == 0 and calls == []
        _override_thresholds(monkeypatch, -math.inf)  # exceeded by every trial
        assert run_trials(_rademacher_plan(trials=500)).violations == 500 and calls == []

    def test_zero_row_at_zero_threshold_never_enters_exact_path(self, monkeypatch):
        calls = []
        exact_dot = verify._exact_dot
        monkeypatch.setattr(verify, "_exact_dot", lambda x, w: calls.append(1) or exact_dot(x, w))
        dist = DiscreteDistribution(support=np.array([[-1.0], [1.0]]), probabilities=np.array([0.5, 0.5]))
        fam = FunctionFamily(dist, {"zero": np.zeros(2)})
        for target in ("corollary", "theorem-main"):
            plan = TrialPlan(target=target, n=20, r=0.1, trials=2_000, root_seed=3, family=fam)
            tracked, thresholds, _ = verify._discrete_setup(plan)
            assert not tracked.any() and np.all(thresholds == 0.0)
            assert run_trials(plan).violations == 0
        assert calls == []


def _dense50_model(e: int) -> GaussianModel:
    """A dense d = 50 covariance Q diag(i^-2) Q', exactly symmetric, times 2^e."""
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(50, 50)))
    cov = (q * np.arange(1.0, 51.0) ** -2) @ q.T
    return GaussianModel(np.ldexp((cov + cov.T) / 2, e))


class TestGaussianScreen:
    """The rank-K screen only drops trials that have no violation in real
    arithmetic, so a group counts the same with it and without it."""

    @staticmethod
    def _with_and_without_screen(monkeypatch, plans):
        """(counts or exception with the screen, the same from every trial's
        normals (rng.normals), trials the screen dropped)."""
        dropped = []
        kept_by_screen = verify._Group._kept_normals

        def counting(group, seeds):
            kept = kept_by_screen(group, seeds)
            dropped.append(len(seeds) - len(kept))
            return kept

        monkeypatch.setattr(verify._Group, "_kept_normals", counting)
        group = verify._gaussian_group(plans)
        outcomes = []
        for draw in (group.draw, lambda _, seeds: normals(seeds, plans[0].model.dim)):
            group.draw = draw
            try:
                outcomes.append(group.count(plans[0].root_seed, plans[0].trials).tolist())
            except ValueError as exc:  # a NaN total reaches Fraction
                outcomes.append(repr(exc))
        return outcomes[0], outcomes[1], sum(dropped)

    @pytest.mark.parametrize("k", [0, 3, 10, 20, 50])
    def test_equal_counts_across_threshold_scales(self, monkeypatch, poly2_model, k):
        runs = []  # (violations, trials dropped) per scale
        for factor in (0.15, 0.25, 0.35, 0.4, 0.5, 1.0, 3.0):
            monkeypatch.undo()
            _scale_thresholds(monkeypatch, factor)
            plan = TrialPlan(target="gaussian", n=60, r=0.05, trials=800, root_seed=5 + k, k=k, model=poly2_model,
                             mesh=64)
            screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
            assert screened == full
            runs.append((full[0], dropped))
        assert verify._gaussian_group([plan]).draw is verify._Group._kept_normals  # a screen at every k, k = d too
        assert max(runs)[0] > 0 and max(d for _, d in runs) > 0
        if k in (10, 20):  # some scale both drops trials and counts violations among the rest
            assert any(v > 0 and d > 0 for v, d in runs)

    def test_equal_counts_for_a_sweep_group(self, monkeypatch, poly2_model):
        # lev is the least level over plans whose levels differ; at this scale
        # the screen drops trials and the full test still finds violations
        _scale_thresholds(monkeypatch, 0.5)
        plans = [TrialPlan(target="gaussian", n=n, r=r, trials=800, root_seed=9, k=k, model=poly2_model, mesh=64)
                 for n, r, k in itertools.product([30, 60], [0.05, 0.2], [0, 2, 5])]
        screened, full, dropped = self._with_and_without_screen(monkeypatch, plans)
        assert screened == full and sum(full) > 0 and dropped > 0

    @staticmethod
    def _with_total_7(monkeypatch, bad, factor):
        """Make run_trials' gaussian totals `factor` times the bound's, with
        total 7 of each mesh block set to `bad`."""
        bound = verify.gaussian_instance_bound

        def with_bad_total(*args):
            report = bound(*args)
            return dataclasses.replace(report, total=np.where(np.arange(report.total.size) == 7, bad,
                                                              factor * report.total))

        monkeypatch.setattr(verify, "gaussian_instance_bound", with_bad_total)

    @pytest.mark.parametrize("k", [0, 3, 50])  # 50 = d
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_equal_outcome_with_a_non_finite_total(self, monkeypatch, poly2_model, bad, k):
        # a NaN level makes h NaN, which keeps every trial; a +inf level is
        # never exceeded and leaves the screen on for the other directions
        self._with_total_7(monkeypatch, bad, 0.3)
        plan = TrialPlan(target="gaussian", n=60, r=0.05, trials=300, root_seed=3, k=k, model=poly2_model, mesh=64)
        screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
        assert screened == full
        if math.isnan(bad):
            assert dropped == 0

    def test_an_infinite_total_keeps_the_screen_on(self, monkeypatch, poly2_model):
        # at the bound's own totals the screen drops trials; one +inf total
        # must not make it keep every trial
        self._with_total_7(monkeypatch, math.inf, 1.0)
        plan = TrialPlan(target="gaussian", n=60, r=0.05, trials=300, root_seed=3, k=3, model=poly2_model, mesh=64)
        screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
        assert screened == full and dropped > 0

    def test_equal_counts_on_a_scaled_dense_model(self, monkeypatch):
        # totals and weights scale by 2^(e/2) exactly, so every scale counts alike
        _scale_thresholds(monkeypatch, 0.35)
        outcomes = set()
        for e in (-30, 0, 30):
            plan = TrialPlan(target="gaussian", n=200, r=0.05, trials=1000, root_seed=2, k=10,
                             model=_dense50_model(e), mesh=200)
            screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
            assert screened == full and full[0] > 0 and dropped > 0
            outcomes.add((full[0], dropped))
        assert len(outcomes) == 1


    @pytest.mark.parametrize("e", [-240, -120, 120, 240])
    def test_equal_counts_on_a_dense_model_at_the_float32_range_edges(self, monkeypatch, e):
        # Sigma 2^e puts L and lev near 2^(e/2), past float32's range at
        # |e| = 240; counts and drops match the unscaled model's
        _scale_thresholds(monkeypatch, 0.35)
        outcomes = []
        for scale in (0, e):
            plan = TrialPlan(target="gaussian", n=200, r=0.05, trials=1000, root_seed=2, k=10,
                             model=_dense50_model(scale), mesh=200)
            screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
            assert screened == full and full[0] > 0 and dropped > 0
            outcomes.append((full[0], dropped))
        assert outcomes[0] == outcomes[1]

    def test_kept_trials_get_their_exact_normals(self, monkeypatch, poly2_model):
        _scale_thresholds(monkeypatch, 0.7)  # the screen keeps some trials, not all
        plan = TrialPlan(target="gaussian", n=60, r=0.05, trials=500, root_seed=5, k=3, model=poly2_model, mesh=64)
        seeds = substream_seed(plan.root_seed, np.arange(1, plan.trials + 1))
        row = {x.tobytes(): i for i, x in enumerate(normals(seeds, poly2_model.dim))}
        kept = [row.get(x.tobytes()) for x in verify._gaussian_group([plan])._kept_normals(seeds)]
        assert 0 < len(kept) < plan.trials and None not in kept and kept == sorted(kept)

    def test_equal_counts_with_every_sketch_cosine_moved_half_its_error_bound(self, monkeypatch):
        # Sigma has rank K = 2, so tau's tail and rounding terms are about
        # 1e-6 of a level, and one mesh direction with a total just below the
        # top-th largest trial puts that trial's violation margin at 1e-6 of
        # its level. Each sketch cosine moves COS_ERROR / 2 the way that
        # lowers h, about 1e-4 of a level: only tau's sketch term keeps them.
        d, n, trials, seed = 6, 60, 2000, 4
        model = GaussianModel(np.diag([4.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        direction = np.full((1, d), d**-0.5)
        projector = model.sqrt_matrix() @ direction.T
        y = np.sort((normals(substream_seed(seed, np.arange(1, trials + 1)), d) @ projector)[:, 0])
        sketch = verify.sketch_normals
        lower = np.float32(rng.COS_ERROR / 2) * np.sign(projector[:, 0]).astype(np.float32)

        def moved(seeds, count):
            rho, angles, cosines = sketch(seeds, count)
            return rho, angles, cosines - lower

        monkeypatch.setattr(verify, "sketch_normals", moved)
        monkeypatch.setattr(verify, "_gaussian_mesh", lambda *args: direction)
        for top in (1, 2, 3):
            total = y[-top] * (1.0 - 1e-6) / math.sqrt(n)
            monkeypatch.setattr(verify, "gaussian_instance_bound",
                                lambda *args, t=total: SimpleNamespace(total=np.array([t])))
            plan = TrialPlan(target="gaussian", n=n, r=0.05, trials=trials, root_seed=seed, k=2, model=model, mesh=1)
            screened, full, dropped = self._with_and_without_screen(monkeypatch, [plan])
            assert screened == full == [top] and dropped > 0


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
        # chunk draws: discrete counts and gaussian sketches; the gaussian
        # trials the screen keeps take their normals from their sketch
        _scale_thresholds(monkeypatch, 0.7)  # the screen keeps some trials, not all
        calls, kept = _record_draws(monkeypatch), _record_kept(monkeypatch)
        plans = [
            _target_plan("chernoff", family12, poly2_model, trials=20_000),
            _target_plan("theorem-main", family12, poly2_model, trials=6_000),
            _target_plan("gaussian", family12, poly2_model, trials=6_000),
        ]
        for plan in plans:
            run_trials(plan)
        assert max(size * count for _, size, count, _ in calls) <= numerics.BLOCK_ELEMENTS
        trials = [(size, count, form) for ndim, size, count, form in calls if ndim == 1]
        assert {form for _, _, form in trials} == {"counts", "sketch"}  # no trial is drawn twice
        trial_draws = sum(size * count for size, count, _ in trials)
        assert trial_draws == 20_000 * 50 + 6_000 * 60 + 6_000 * 2 * poly2_model.dim
        assert trial_draws > 3 * numerics.BLOCK_ELEMENTS
        assert len(kept) > 1 and 0 < sum(kept) < 6_000


    def test_gaussian_memory_is_the_projector_and_a_few_blocks(self, poly2_model):
        # mesh 16 000 at d = 50 is four row blocks of directions; the only
        # mesh-sized matrix the group keeps is the projector (8 d mesh bytes)
        plan = TrialPlan(target="gaussian", n=60, r=0.05, trials=200, root_seed=5, k=3, model=poly2_model,
                         mesh=16_000)
        assert len(numerics.row_blocks(plan.mesh, poly2_model.dim)) == 4
        tracemalloc.start()
        try:
            run_trials(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * poly2_model.dim * plan.mesh + 3 * 8 * numerics.BLOCK_ELEMENTS


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
        calls = _record_draws(monkeypatch)
        plan = _target_plan(target, family12, poly2_model, trials=500)
        sweep(plan, **self.GRID)
        drawn = collections.Counter()
        for _, size, count, form in calls:
            assert form == "counts"
            drawn[count] += size
        assert drawn == {30: 500, 60: 500}

    def test_one_draw_pass_for_a_gaussian_sweep(self, monkeypatch, family12, poly2_model):
        # one sketch per trial; the trials the screen keeps take their normals from it
        _scale_thresholds(monkeypatch, 0.7)  # the screen keeps some trials, not all
        calls, kept = _record_draws(monkeypatch), _record_kept(monkeypatch)
        plan = _target_plan("gaussian", family12, poly2_model, trials=500)
        sweep(plan, **self.GRID)
        d = poly2_model.dim
        assert [c for c in calls if c[0] == 0] == [(0, 1, 2 * plan.mesh * d, "normals")]  # the mesh, once
        drawn = collections.Counter()
        for ndim, size, count, form in calls:
            if ndim == 1:
                drawn[form, count] += size
        assert drawn == {("sketch", 2 * d): 500} and 0 < sum(kept) < 500

def test_chernoff_threshold_is_rate_bound(rademacher, monkeypatch):
    # the harness thresholds chernoff runs at T_r of the tracked function
    dist = DiscreteDistribution(
        support=np.asarray(rademacher["support"], dtype=float),
        probabilities=np.asarray(rademacher["probabilities"], dtype=float),
    )
    t_direct = rate_bound_T(dist, rademacher["functions"]["f"], 0.05)[0]
    plan = _rademacher_plan(trials=4_000)
    plain = run_trials(plan)
    _override_thresholds(monkeypatch, t_direct)
    boosted = run_trials(plan)
    assert boosted.as_dict() == plain.as_dict()
