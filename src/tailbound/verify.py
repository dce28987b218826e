"""Seeded Monte Carlo harness for the probabilistic guarantees.

Each target precomputes its deterministic thresholds once, then counts
trials in which any tracked function's empirical mean strictly exceeds its
threshold. A violation is decided exactly in real arithmetic on the drawn
values and the float thresholds and tracked values:
  discrete targets  a trial is the atom-count vector c of its n inverse-CDF
                    draws (one row of an integer trials x s matrix); tracked
                    row v exceeds threshold t when c . v > n t
  gaussian          a trial is one standard normal vector g; mesh direction
                    j exceeds its total when g . P_j > sqrt(n) total_j, with
                    P = Sigma^{1/2} U' the projected mesh
Float products decide every comparison whose margin clears an a-priori
bound on their rounding error; fractions.Fraction settles the rest, so no
decision depends on summation order, BLAS or thread count.

Trials draw from disjoint counter-based substreams of the root seed, so
reports are bit-identical across runs and parallelism degrees: violation
counting is a commutative fold over trial indices. Trials are drawn in
chunks whose arrays hold at most numerics.BLOCK_ELEMENTS elements (one
trial at least). run_trials and sweep share one runner: plans that draw the
same values (the discrete targets at one n, the gaussian target at every
grid point) draw and count each trial once. Thread count is set by the
TAILBOUND_THREADS environment variable (default 1), capped at the machine's
CPU count.

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
from fractions import Fraction

import numpy as np

from .cgf import DiscreteDistribution, check_rows, rate_bound_T
from .chaining import (
    FunctionFamily,
    build_deflation,
    extremal_difference,
    theorem_main_bound,
)
from .gaussian import GaussianModel, gaussian_instance_bound_rows
from .numerics import check_int, row_blocks
from .rng import normals, substream_seed, uniforms

TARGETS = ("chernoff", "corollary", "gaussian", "theorem-main")
_UNIT_ROUNDOFF = 2.0**-53
_TINY = float(np.finfo(float).tiny)  # covers rounding below the normal range
LEVEL_PASSES_MAX = 96  # largest support whose atoms _atom_counts counts by level passes


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
        check_int("n", self.n, 1)
        check_int("trials", self.trials, 1)
        if not (self.r > 0.0):
            raise ValueError("r must be positive")
        check_int("k", self.k, 0)
        if self.target == "chernoff":
            if self.distribution is None or self.function_values is None:
                raise ValueError("chernoff target requires a distribution and a function")
            values = check_rows(self.distribution, [self.function_values], centered=False)[0]
            object.__setattr__(self, "function_values", values)
        elif self.target in ("corollary", "theorem-main"):
            if self.family is None:
                raise ValueError(f"{self.target} target requires a function family")
        else:
            if self.model is None:
                raise ValueError("gaussian target requires a Gaussian model")
            check_int("mesh", self.mesh, 1)
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


def _atom_counts(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Integer (rows, s) matrix counting, per row of uniforms u, the draws of
    each inverse-CDF atom searchsorted(cdf, u, side="left"), for a
    nondecreasing cdf of s levels whose last level is at least max u.

    Up to LEVEL_PASSES_MAX atoms, pass j < s - 1 counts the draws u <= cdf[j]
    (atoms 0..j) as bytes summed in the narrowest integer type that holds n,
    and differences give each atom's count. Above it, where s passes cost
    more than log s comparisons per draw (from about 50, 100 and 150 atoms
    at n = 50, 200 and 1000), searchsorted and one bincount of atom + s * row
    count them.
    """
    rows, s = u.shape[0], cdf.shape[0]
    if s > LEVEL_PASSES_MAX:
        atoms = np.searchsorted(cdf, u, side="left") + s * np.arange(rows)[:, None]
        return np.bincount(atoms.ravel(), minlength=rows * s).reshape(rows, s)
    at_most = np.empty((rows, s + 1), dtype=np.int64)  # column j + 1: draws of atoms <= j
    at_most[:, 0] = 0
    below, counter = np.empty(u.shape, dtype=bool), np.min_scalar_type(u.shape[1])
    for j in range(s - 1):
        np.less_equal(u, cdf[j], out=below)
        at_most[:, j + 1] = np.add.reduce(below.view(np.uint8), axis=1, dtype=counter)
    at_most[:, s] = u.shape[1]
    return np.diff(at_most, axis=1)


def _gaussian_mesh(plan: TrialPlan):
    """Unit mesh directions (mesh, d) from stream 0, and the projector
    Sigma^{1/2} dirs' (d, mesh) that maps a standard normal to the mesh."""
    model = plan.model
    d = model.dim
    dirs = normals(substream_seed(plan.root_seed, 0), plan.mesh * d).reshape(plan.mesh, d)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate mesh direction")
    dirs /= norms[:, None]
    return dirs, model.sqrt_matrix() @ dirs.T


def _gaussian_setup(plan: TrialPlan, dirs: np.ndarray):
    """Rank-k totals of the mesh directions, and the ceiling."""
    totals = gaussian_instance_bound_rows(plan.model, dirs, plan.k, plan.n, plan.r)
    return totals, 2.0 * math.exp(-plan.n * plan.r)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _exact_dot(x: np.ndarray, w: np.ndarray) -> Fraction:
    """x . w in exact rational arithmetic on the floats given."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), w.tolist())), Fraction(0))


def _above(dot: Fraction, square: int, t: float) -> bool:
    """dot > sqrt(square) * t, exactly."""
    t = Fraction(t)
    if t >= 0:
        return dot > 0 and dot * dot > square * t * t
    return dot >= 0 or dot * dot < square * t * t


@dataclass(frozen=True)
class _Check:
    """One plan's test of a trial x: a violation when x . w_j > sqrt(square) t_j
    for some column j of its slice `cols` of the group's weights."""

    cols: slice
    t: np.ndarray
    square: int
    level: np.ndarray  # sqrt(square) t in floats
    slack: np.ndarray  # bound on the rounding of level; 0 where floats decide exactly


class _Group:
    """Plans whose trials draw the same values: the discrete targets at one n
    (a trial is the atom counts of its n draws) or the gaussian target (a
    trial is one standard normal vector). Each chunk of trials is drawn once
    and multiplied once by the distinct weight columns of all plans; every
    plan then decides its own columns.

    A cell is decided in floats when |y - level| clears the a-priori bound
    2 (gamma_w max_t ||x_t||_p ||w_j||_q + gamma_2 |level_j|) on the rounding
    of y = x . w_j (any summation order; Hoelder pair (p, q)) and of level
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and 4.2),
    and exactly with fractions.Fraction otherwise; the factor 2 also covers
    the rounding of the bound and of the comparison. A column of zero
    weights at level 0 gets band 0: its products and its level are exact
    zeros, so y > level decides it.
    """

    def __init__(self, draw, per_trial: int, norms, parts):
        """draw maps trial seeds to the trials' values (trials, w) in floats;
        per_trial is the number of uniforms one trial draws; norms is the
        Hoelder pair (p, q); parts holds one (weights (w, c), t, square) per plan."""
        self.draw, self.p = draw, norms[0]
        index, blocks, self.checks = {}, [], []
        for weights, t, square in parts:
            key = (weights.shape, weights.tobytes())
            if key not in index:
                start = sum(b.shape[1] for b in blocks)
                index[key] = slice(start, start + weights.shape[1])
                blocks.append(weights)
            level = math.sqrt(square) * t
            exact = (level == 0.0) & ~np.any(weights, axis=0)
            slack = np.where(exact, 0.0, 2.0 * _gamma(2) * np.abs(level) + _TINY)
            self.checks.append(_Check(index[key], t, square, level, slack))
        self.weights = np.hstack(blocks)
        self.wnorm = np.linalg.norm(self.weights, ord=norms[1], axis=0)
        self.width = max(per_trial, *self.weights.shape)
        self.gamma_w = 2.0 * _gamma(self.weights.shape[0])

    def count(self, root_seed: int, lo: int, hi: int) -> np.ndarray:
        """Violating trials among trials lo..hi - 1, per plan."""
        out = np.zeros(len(self.checks), dtype=np.int64)
        for block in row_blocks(hi - lo, self.width):
            x = self.draw(substream_seed(root_seed, np.arange(lo + block.start, lo + block.stop) + 1))
            y = x @ self.weights
            xnorm = float(np.linalg.norm(x, ord=self.p, axis=1).max())
            for i, check in enumerate(self.checks):
                out[i] += np.count_nonzero(self._violated(x, y[:, check.cols], check, xnorm))
        return out

    def _violated(self, x, y, check: _Check, xnorm: float) -> np.ndarray:
        """Per trial: does some column exceed its level in real arithmetic."""
        band = self.gamma_w * xnorm * self.wnorm[check.cols] + check.slack
        maybe = y > check.level - band  # not surely at or below
        viol = np.zeros(y.shape[0], dtype=bool)
        rows = np.nonzero(maybe.any(axis=1))[0]
        viol[rows] = (y[rows] > check.level + band).any(axis=1)  # surely above
        for t in rows[~viol[rows]]:
            viol[t] = any(
                _above(_exact_dot(x[t], self.weights[:, check.cols.start + j]), check.square, check.t[j])
                for j in np.nonzero(maybe[t])[0]
            )
        return viol


def _discrete_group(plans):
    setups = [_discrete_setup(plan) for plan in plans]
    n, cdf = plans[0].n, setups[0][2]
    parts = [(tracked.T, thresholds, n * n) for tracked, thresholds, _, _ in setups]
    draw = lambda seeds: _atom_counts(uniforms(seeds, n), cdf).astype(float)
    return _Group(draw, n, (1, math.inf), parts), [setup[3] for setup in setups]


def _gaussian_group(plans):
    dirs, projector = _gaussian_mesh(plans[0])
    d = projector.shape[0]
    parts, ceilings = [], []
    for plan in plans:
        totals, ceiling = _gaussian_setup(plan, dirs)
        parts.append((projector, totals, plan.n))
        ceilings.append(ceiling)
    return _Group(lambda seeds: normals(seeds, d), 2 * d, (2, 2), parts), ceilings


def _block_ranges(trials: int, workers: int):
    step = -(-trials // workers)
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def _run(plans) -> list:
    """Reports of plans that differ only in n, r and k. Plans of one draw
    width share a group, so each trial range is drawn and counted once per
    group; trial ranges are spread over TAILBOUND_THREADS threads."""
    workers = _thread_count()
    gaussian = plans[0].target == "gaussian"
    members = {}  # draw width (the model's d for gaussian, else n) -> plan indices
    for i, plan in enumerate(plans):
        members.setdefault(plan.model.dim if gaussian else plan.n, []).append(i)
    build = _gaussian_group if gaussian else _discrete_group
    groups, ceilings = [], [0.0] * len(plans)
    for idx in members.values():
        group, group_ceilings = build([plans[i] for i in idx])
        groups.append((idx, group))
        for i, ceiling in zip(idx, group_ceilings):
            ceilings[i] = ceiling

    root_seed, trials = plans[0].root_seed, plans[0].trials

    def count(lo, hi):
        out = np.zeros(len(plans), dtype=np.int64)
        for idx, group in groups:
            out[idx] += group.count(root_seed, lo, hi)
        return out

    ranges = _block_ranges(trials, workers)
    if len(ranges) == 1:
        violations = count(*ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            violations = sum(pool.map(lambda rg: count(*rg), ranges))
    return [_report(plan, int(v), ceiling) for plan, v, ceiling in zip(plans, violations, ceilings)]


def _report(plan: TrialPlan, violations: int, ceiling: float) -> VerificationReport:
    rate = violations / plan.trials
    stderr = math.sqrt(rate * (1.0 - rate) / plan.trials)
    return VerificationReport(
        target=plan.target,
        n=int(plan.n),
        r=float(plan.r),
        k=int(plan.k),
        trials=int(plan.trials),
        violations=violations,
        rate=rate,
        guarantee=ceiling,
        stderr=stderr,
        passed=bool(rate <= ceiling + 3.0 * stderr),
    )


def run_trials(plan: TrialPlan) -> VerificationReport:
    """Execute the plan and report the observed violation frequency: the
    share of trials in which some tracked function's empirical mean exceeds
    the threshold the plan's target derives for it."""
    return _run([plan])[0]


def sweep(plan: TrialPlan, n_values=None, r_values=None, k_values=None):
    """One report per (n, r, k) grid point, all from the plan's root seed.

    Each omitted axis defaults to the plan's own value, so a single-point
    sweep reproduces run_trials exactly. Explicitly empty axes are rejected.
    Grid points that draw the same values (every point of a gaussian sweep,
    the discrete points at one n) share one draw of each trial.
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
    return _run([dataclasses.replace(plan, n=n, r=r, k=k) for n, r, k in itertools.product(*axes)])
