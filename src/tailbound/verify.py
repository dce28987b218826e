"""Seeded Monte Carlo harness for the probabilistic guarantees.

Each target precomputes its deterministic thresholds once, then counts
trials in which any tracked function's empirical mean strictly exceeds its
threshold. Trials draw from disjoint counter-based substreams of the root
seed, so reports are bit-identical across runs and parallelism degrees:
violation counting is a commutative fold over trial indices. Thread count
is set by the TAILBOUND_THREADS environment variable (default 1), capped at
the machine's CPU count.

Targets and ceilings:
  chernoff      one function f, threshold T_r(f), ceiling e^{-nr}
  corollary     the extremal normalized family difference h*, threshold
                w_r ||h*||, ceiling e^{-nr}
  gaussian      a mesh of unit directions u with per-direction rank-k
                totals, ceiling 2 e^{-nr} (the mesh under-approximates the
                sup over the unit ball, which the bound covers uniformly)
  theorem-main  every family member against w_{r+k/n} ||f|| + totalRHS,
                ceiling 2 e^{-nr}
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cgf import DiscreteDistribution, TabulatedFunction, rate_bound_T
from .chaining import (
    FunctionFamily,
    build_deflation,
    class_wr,
    extremal_difference,
    theorem_main_bound,
)
from .gaussian import GaussianModel, LinearFunctional, gaussian_instance_bound
from .rng import normals, substream_seed, uniforms

TARGETS = ("chernoff", "corollary", "gaussian", "theorem-main")
CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class TrialPlan:
    """One Monte Carlo configuration: target, sizes, seed, and model refs."""

    target: str
    n: int
    r: float
    trials: int
    root_seed: int
    distribution: DiscreteDistribution = None  # chernoff
    function_values: np.ndarray = None  # chernoff
    family: FunctionFamily = None  # corollary, theorem-main
    model: GaussianModel = None  # gaussian
    k: int = 0  # gaussian rank / theorem-main deflation size
    mesh: int = 0  # gaussian direction count

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        for name in ("n", "trials"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not (self.r > 0.0):
            raise ValueError("r must be positive")
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool) or self.k < 0:
            raise ValueError("k must be a nonnegative integer")
        if self.target == "chernoff":
            if self.distribution is None or self.function_values is None:
                raise ValueError("chernoff target requires a distribution and a function")
            f = TabulatedFunction(self.function_values)
            if f.values.shape[0] != self.distribution.size:
                raise ValueError("function length does not match support size")
            object.__setattr__(self, "function_values", f.values)
        elif self.target in ("corollary", "theorem-main"):
            if self.family is None:
                raise ValueError(f"{self.target} target requires a function family")
        else:
            if self.model is None:
                raise ValueError("gaussian target requires a Gaussian model")
            if not isinstance(self.mesh, (int, np.integer)) or isinstance(self.mesh, bool) or self.mesh < 1:
                raise ValueError("gaussian target requires mesh >= 1")
            if self.k > self.model.dim:
                raise ValueError("k must not exceed the model dimension")


@dataclass(frozen=True)
class VerificationReport:
    target: str
    n: int
    r: float
    k: int
    trials: int
    violations: int
    rate: float
    guarantee: float
    stderr: float
    passed: bool

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("violation rate must lie in [0, 1]")
        if self.passed != (self.rate <= self.guarantee + 3.0 * self.stderr):
            raise ValueError("pass flag inconsistent with rate and guarantee")

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _thread_count() -> int:
    """TAILBOUND_THREADS, clamped to 1..os.cpu_count()."""
    raw = os.environ.get("TAILBOUND_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        raise ValueError("TAILBOUND_THREADS must be an integer") from None
    return min(max(v, 1), os.cpu_count() or 1)


def _discrete_setup(plan: TrialPlan):
    """Tracked value rows, thresholds, cdf, and ceiling for discrete targets."""
    if plan.target == "chernoff":
        dist = plan.distribution
        tracked = plan.function_values[None, :]
        thresholds = np.array([rate_bound_T(dist, plan.function_values, plan.r)])
        ceiling = math.exp(-plan.n * plan.r)
    elif plan.target == "corollary":
        fam = plan.family
        dist = fam.distribution
        ext = extremal_difference(fam, plan.r)
        if ext is None:
            tracked = np.zeros((1, dist.size))
            thresholds = np.array([0.0])
        else:
            i, j, t_val = ext
            tracked = (fam.values[i] - fam.values[j])[None, :]
            thresholds = np.array([t_val * fam.distances[i, j]])
        ceiling = math.exp(-plan.n * plan.r)
    else:  # theorem-main
        fam = plan.family
        dist = fam.distribution
        defl = build_deflation(fam, plan.k)
        report = theorem_main_bound(fam, defl, plan.n, plan.r)
        tracked = fam.values
        thresholds = report.thresholds()
        ceiling = 1.0 - report.guarantee
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    return tracked, thresholds, cdf, ceiling


def _count_discrete(plan, tracked, thresholds, cdf, lo, hi) -> int:
    count = 0
    for t0 in range(lo, hi, CHUNK_TRIALS):
        t1 = min(t0 + CHUNK_TRIALS, hi)
        seeds = substream_seed(plan.root_seed, np.arange(t0, t1) + 1)
        idx = np.searchsorted(cdf, uniforms(seeds, plan.n))
        viol = np.zeros(t1 - t0, dtype=bool)
        for row, thr in zip(tracked, thresholds):
            viol |= row[idx].mean(axis=1) > thr
        count += int(viol.sum())
    return count


def _gaussian_setup(plan: TrialPlan):
    model = plan.model
    d = model.dim
    dirs = normals(substream_seed(plan.root_seed, 0), plan.mesh * d).reshape(plan.mesh, d)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate mesh direction")
    dirs /= norms[:, None]
    totals = np.array(
        [
            gaussian_instance_bound(model, LinearFunctional(u), plan.k, plan.n, plan.r).total
            for u in dirs
        ]
    )
    projector = model.sqrt_matrix() @ dirs.T  # (d, mesh)
    ceiling = 2.0 * math.exp(-plan.n * plan.r)
    return projector, totals, ceiling


def _count_gaussian(plan, projector, totals, lo, hi) -> int:
    d = projector.shape[0]
    scale = 1.0 / math.sqrt(plan.n)
    count = 0
    for t0 in range(lo, hi, CHUNK_TRIALS):
        t1 = min(t0 + CHUNK_TRIALS, hi)
        seeds = substream_seed(plan.root_seed, np.arange(t0, t1) + 1)
        g = normals(seeds, d)
        empirical = (g @ projector) * scale
        count += int(np.any(empirical > totals, axis=1).sum())
    return count


def _block_ranges(trials: int, workers: int):
    step = -(-trials // workers)
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def run_trials(plan: TrialPlan) -> VerificationReport:
    """Execute the plan and report the observed violation frequency: the
    share of trials in which some tracked function's empirical mean exceeds
    the threshold the plan's target derives for it."""
    workers = _thread_count()
    if plan.target == "gaussian":
        projector, totals, ceiling = _gaussian_setup(plan)
        counter = lambda lo, hi: _count_gaussian(plan, projector, totals, lo, hi)
    else:
        tracked, thresholds, cdf, ceiling = _discrete_setup(plan)
        counter = lambda lo, hi: _count_discrete(plan, tracked, thresholds, cdf, lo, hi)

    ranges = _block_ranges(plan.trials, workers)
    if len(ranges) == 1:
        violations = counter(*ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            violations = sum(pool.map(lambda rg: counter(*rg), ranges))

    rate = violations / plan.trials
    stderr = math.sqrt(rate * (1.0 - rate) / plan.trials)
    return VerificationReport(
        target=plan.target,
        n=int(plan.n),
        r=float(plan.r),
        k=int(plan.k),
        trials=int(plan.trials),
        violations=int(violations),
        rate=rate,
        guarantee=ceiling,
        stderr=stderr,
        passed=bool(rate <= ceiling + 3.0 * stderr),
    )


def sweep(plan: TrialPlan, n_values=None, r_values=None, k_values=None):
    """One report per (n, r, k) grid point, all from the plan's root seed.

    Each omitted axis defaults to the plan's own value, so a single-point
    sweep reproduces run_trials exactly. Explicitly empty axes are rejected.
    """
    axes = []
    for name, values in (("n", n_values), ("r", r_values), ("k", k_values)):
        if values is None:
            axes.append([getattr(plan, name)])
        else:
            vals = list(values)
            if not vals:
                raise ValueError(f"{name} grid must be nonempty")
            axes.append(vals)
    return [run_trials(dataclasses.replace(plan, n=n, r=r, k=k)) for n, r, k in itertools.product(*axes)]
