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
decision depends on summation order or BLAS threads. Two shortcuts keep
every decision exact. A discrete draw is never made a float: u <= c
exactly when its raw 64-bit value is at most an integer level derived from
c, and each tile of raw values (rng.tiles) is counted while in cache, so
memory does not grow with n. A gaussian trial first draws a sketch of its
normals, with float32 cosines (rng.sketch_normals), and skips the full
product when a rank-K screen (K the largest k of its group, up to d)
proves, from the sketch and a bound on its distance to the normals, that
it has no violation in real arithmetic; the trials it keeps (all, at a
NaN total) take float64 cosines, for their exact normals.

Trials draw from disjoint counter-based substreams of the root seed, so
reports are bit-identical across runs: violation counting is a commutative
fold over trial indices, and does not depend on how trials are chunked.
Trials are drawn in chunks whose arrays hold at most numerics.BLOCK_ELEMENTS
elements (one trial at least); a value depends only on its seed and
counter, and a kept trial's normals are the values an unscreened draw
gives, bit for bit. The gaussian mesh is drawn, bounded and projected in
row blocks of that size, so the projector P (d, mesh) is the one
mesh-sized array a gaussian run keeps. run_trials and sweep share one
runner: plans that draw the same values (the discrete targets at one n,
the gaussian target at every grid point) draw and count each trial once.
BLAS is the only parallelism.

Targets (each report's guarantee is the ceiling CEILING_FACTOR[target] e^{-nr}):
  chernoff      one function f, threshold T_r(f), factor 1
  corollary     the extremal normalized family difference h*, threshold
                w_r ||h*||, factor 1
  gaussian      a mesh of unit directions u with per-direction rank-k
                totals, factor 2 (the mesh under-approximates the sup over
                the unit ball, which the bound covers uniformly)
  theorem-main  every family member against w_{r+k/n} ||f|| + totalRHS,
                factor 2
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cgf import DiscreteDistribution, check_rows, rate_bound_T
from .chaining import (
    FunctionFamily,
    build_deflation,
    extremal_difference,
    theorem_main_bound,
)
from .gaussian import GaussianModel, gaussian_instance_bound
from .numerics import block_rows, check_int, row_blocks
from .rng import COS_ERROR, TILE, key_levels, normals, sketch_normals, substream_seed, tiles

CEILING_FACTOR = {"chernoff": 1.0, "corollary": 1.0, "gaussian": 2.0, "theorem-main": 2.0}
TARGETS = tuple(CEILING_FACTOR)
_UNIT_ROUNDOFF = 2.0**-53
_TINY = float(np.finfo(float).tiny)  # covers rounding below the normal range
LEVEL_PASSES_MAX = 80  # largest support whose atoms _atom_counts counts by level compares


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
    """Violations of one plan's thresholds in `trials` trials, against the
    ceiling `guarantee`. The observed rate, its binomial standard error and
    the pass rule rate <= guarantee + 3 stderr derive from those counts."""

    target: str
    n: int
    r: float
    k: int
    trials: int
    violations: int
    rate: float = field(init=False)
    guarantee: float
    stderr: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        if not (0 <= self.violations <= self.trials and self.trials >= 1):
            raise ValueError("violations must lie in 0..trials, with at least one trial")
        rate = self.violations / self.trials
        stderr = math.sqrt(rate * (1.0 - rate) / self.trials)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "passed", rate <= self.guarantee + 3.0 * stderr)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _discrete_setup(plan: TrialPlan):
    """Tracked value rows, their thresholds, and the cdf of a discrete target."""
    fam = plan.family
    dist = plan.distribution if plan.target == "chernoff" else fam.distribution
    if plan.target == "chernoff":
        tracked = plan.function_values[None, :]
        thresholds = rate_bound_T(dist, tracked, plan.r)[0]
    elif plan.target == "corollary":  # with no nonzero difference, the zero row at threshold 0
        i, j, t_val = extremal_difference(fam, plan.r) or (fam.zero_index, fam.zero_index, 0.0)
        tracked = (fam.values[i] - fam.values[j])[None, :]
        thresholds = np.array([t_val * fam.distances[i, j]])
    else:  # theorem-main
        tracked = fam.values
        thresholds = theorem_main_bound(fam, build_deflation(fam, plan.k), plan.n, plan.r).thresholds()
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    return tracked, thresholds, cdf


def _atom_counts(u: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Integer (rows, s) matrix counting, per row of draws u, the draws of
    each atom searchsorted(levels, u, side="left"), for s nondecreasing
    levels whose last is at least max u. The draws are uniforms and cdf
    levels, or anything that compares alike: their keys and rng.key_levels,
    or raw tile values and the raw levels of _draw_counts.

    Up to LEVEL_PASSES_MAX atoms, one compare counts, for every j < s - 1,
    the draws u <= levels[j] (atoms 0..j) as bytes summed in the narrowest
    integer type that holds a row's length, and differences give each atom's
    count. Above it, where s - 1 compares per draw cost more than log s,
    searchsorted and one bincount of atom * rows + row count them.
    """
    rows, s = u.shape[0], levels.shape[0]
    if s > LEVEL_PASSES_MAX:
        atoms = np.searchsorted(levels, u, side="left") * rows + np.arange(rows)[:, None]
        return np.bincount(atoms.ravel(order="K"), minlength=s * rows).reshape(s, rows).T
    at_most = np.empty((s + 1, rows), dtype=np.int64)  # row j + 1: draws of atoms <= j
    at_most[0], at_most[s] = 0, u.shape[1]
    below = np.less_equal(u, levels[:-1, None, None])  # (s - 1, rows, draws), each level laid out as u
    at_most[1:s] = np.add.reduce(below.view(np.uint8), axis=2, dtype=np.min_scalar_type(u.shape[1]))
    return (at_most[1:] - at_most[:-1]).T


def _draw_counts(seeds, n: int, levels: np.ndarray) -> np.ndarray:
    """Float (rows, s) atom counts of n draws from each substream in seeds,
    for the key levels M (rng.key_levels) of a cdf of s levels. An atom of
    level -1 lies below every uniform and is never drawn; for M >= 0, key z
    >> 11 <= M exactly when z <= M 2^11 + 2047, so each tile's raw values are
    counted against those raw levels while the tile is in cache, and memory
    does not grow with n. Where _atom_counts sums compares, a tile is laid
    out along its longer side, the one they sum along."""
    never = int(np.count_nonzero(levels < 0))  # a prefix: levels are nondecreasing
    raw = (levels[never:].astype(np.uint64) << np.uint64(11)) | np.uint64(2047)
    counts = np.zeros((levels.size, np.size(seeds)), dtype=np.int64)  # atom-major, as _atom_counts counts
    order = "F" if n * n < TILE and raw.size <= LEVEL_PASSES_MAX else "C"
    for rows, _, z, _ in tiles(seeds, n, order=order):
        counts[never:, rows] += _atom_counts(z, raw).T
    return counts.T.astype(float)


def _gaussian_mesh(plan: TrialPlan, rows: slice) -> np.ndarray:
    """Unit mesh directions rows.start..rows.stop - 1 (rows, d): those rows
    of one draw of mesh x d normals from stream 0, bit for bit."""
    d = plan.model.dim
    seed = substream_seed(plan.root_seed, 0)
    dirs = normals(seed, (rows.stop - rows.start) * d, start=rows.start * d).reshape(-1, d)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate mesh direction")
    dirs /= norms[:, None]
    return dirs


def _gamma(k: int, u: float = _UNIT_ROUNDOFF) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff (of float64 by default)."""
    return k * u / (1.0 - k * u)


def _norm_up(a: np.ndarray, axis) -> np.ndarray:
    """Euclidean norms of a along axis (all of a for None), plus sqrt(length)
    2^-537, the most that squares lost below the subnormal range take away."""
    return np.linalg.norm(a, axis=axis) + math.sqrt(a.size if axis is None else a.shape[axis]) * 2.0**-537


def _exact_dot(x: np.ndarray, w: np.ndarray) -> Fraction:
    """x . w in exact rational arithmetic on the floats given."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), w.tolist())), Fraction(0))


def _above(dot: Fraction, square: int, t: float) -> bool:
    """dot > sqrt(square) * t, exactly, for a float t that may be infinite."""
    if math.isinf(t):
        return t < 0
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
    zeros, so y > level decides it. A threshold of +inf, whose level is
    exactly +inf, gets slack 0, so every y but NaN decides it in floats as
    never exceeded; one of -inf is exceeded by every trial.
    """

    def __init__(self, draw, per_trial: int, norms, parts, screen=None):
        """draw maps the group and trial seeds to the trials' values (trials,
        w) in floats; per_trial is the number of uniforms one trial draws;
        norms is the Hoelder pair (p, q); parts holds one (weights (w, c), t,
        square) per plan; screen is a gaussian group's (L, R) (see _screen)."""
        self.draw, self.p = draw, norms[0]
        blocks, self.checks = [], []
        for weights, t, square in parts:  # equal weights share columns: the same object, or else equal values
            j = next((j for j, b in enumerate(blocks) if b is weights or np.array_equal(b, weights)), len(blocks))
            if j == len(blocks):
                blocks.append(weights)
            start = sum(b.shape[1] for b in blocks[:j])
            with np.errstate(over="ignore"):  # +inf where sqrt(square) t overflows; decided exactly
                level = math.sqrt(square) * t
            exact = ((level == 0.0) & ~np.any(weights, axis=0)) | (t == math.inf)
            slack = np.where(exact, 0.0, 2.0 * _gamma(2) * np.abs(level) + _TINY)
            self.checks.append(_Check(slice(start, start + weights.shape[1]), t, square, level, slack))
        self.weights = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        w, c = self.weights.shape
        self.wnorm = np.concatenate([np.linalg.norm(self.weights[:, cols], ord=norms[1], axis=0)
                                     for cols in row_blocks(c, w)])
        self.width = max(per_trial, w, c)
        self.gamma_w = 2.0 * _gamma(w)
        if screen is not None:
            self.screen = self._screen(*screen)
            # h's float32 product, reused by every chunk: a fresh one each chunk (up to 1 MiB) can
            # leave the heap top past malloc's trim threshold, to be returned and faulted in again
            self.h_out = np.empty((block_rows(self.width), c), np.float32)

    def _screen(self, L, R):
        """(L, R, lev, lev_top, rtop, a, e, c) for floats L (w, K) and R (K,
        c): a trial whose normals x lie within e_x = ||rho|| (COS_ERROR + 2u)
        of its sketch s (rng.sketch_normals, radii rho) and whose h = max_j
        (fl(s L) . R_j - lev_j), evaluated as _kept_normals does, is finite
        and at most -(||s|| a + ||rho|| e + c + the underflow term of
        _kept_normals) has no violation. lev_j, the least level_j - slack_j
        over the plans, is at most every plan's level in real arithmetic;
        lev_top is the largest finite |lev_j| (0 if none) and rtop = max |R|.
        A column at lev_j = +inf is never exceeded and never sets h; one at
        -inf or NaN makes h +inf or NaN, which keeps the trial. There x . w_j =
        (s L) . R_j + ((x - s) L) . R_j + x . E_j, E = weights - L R, with
        |((x - s) L) . R_j| <= e_x ||L||_F ||R_j||, ||x|| <= ||s|| + e_x and
        ||E_j|| <= (1 + u) ||fl(weights - fl(L R))_j|| + gamma_K ||L||_F
        ||R_j|| + sqrt(w) tiny. a and c add the roundings of s L (gamma_w ||s||
        ||L||_F ||R_j||), of lev, and of h, a float32 product of float32 casts
        (gamma_{K+3} at u = 2^-24, times ||s L|| ||R_j|| + |lev_j|; Higham 3.1
        and 4.2, tiny per product for float64 underflow), and the factor 1 + 2
        gamma_{2w+8} covers the rounding of the norms, a, e, c and the test.
        The norms of E and R are taken in column blocks of at most
        BLOCK_ELEMENTS, with E's in one buffer that every block reuses.
        """
        w, k = L.shape
        blocks = row_blocks(self.weights.shape[1], w)
        lev = np.full(self.weights.shape[1], math.inf)
        buf, norms = np.empty(w * (blocks[0].stop - blocks[0].start)), []
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps every trial
            for check in self.checks:
                lev[check.cols] = np.minimum(lev[check.cols], check.level - check.slack)
            lev_top = np.abs(lev[np.isfinite(lev)]).max(initial=0.0)
            for cols in blocks:
                res = np.matmul(L, R[:, cols], out=buf[: w * (cols.stop - cols.start)].reshape(w, -1))
                norms.append((_norm_up(np.subtract(self.weights[:, cols], res, out=res), 0).max(),
                              _norm_up(R[:, cols], 0).max(), np.abs(R[:, cols]).max(initial=0.0)))
            enorm, rnorm, rtop = np.max(norms, axis=0)  # NaN, if any, carries through
            lnorm, up = _norm_up(L, None), 1.0 + 2.0 * _gamma(2 * w + 8)
            g32 = _gamma(k + 3, 2.0**-24)
            a = enorm + (4.0 * _gamma(w) + 2.0 * g32) * lnorm * rnorm + math.sqrt(w) * _TINY
            e = (a + lnorm * rnorm) * (COS_ERROR + 2.0 * _UNIT_ROUNDOFF)
            c = 2.0 * (_gamma(w) + g32) * lev_top + 2.0 * _TINY * (1.0 + math.sqrt(k) * rnorm)
        return L, R, lev, lev_top, rtop, a * up, e * up, c * up

    def _kept_normals(self, seeds) -> np.ndarray:
        """The normals (rng.normals) of the trials the screen cannot prove
        free of violations (an inf or NaN keeps them), from their sketch's
        radii and angles, for the seeds of at most one chunk of count.

        h comes from one float32 product [fl(s L) 2^-p, 1] @ [R 2^(p-q);
        -lev 2^-q], then times 2^q: 2^p bounds |fl(s L)| and 2^q the sizes
        of h's terms, so no float32 value exceeds about 2 and the scalings
        are exact. A value below float32's normal range, or its product or
        sum, is off by at most 2^-126 in these units; (K + 1) 2^(q-120)
        bounds all of them. At K = 0, h = max_j -lev_j.
        """
        L, R, lev, lev_top, rtop, a, e, c = self.screen
        k = L.shape[1]
        rho, angles, cosines = sketch_normals(seeds, L.shape[0])
        s = rho * cosines
        with np.errstate(over="ignore", invalid="ignore"):
            tau, h = _norm_up(s, 1) * a + _norm_up(rho, 1) * e + c, -lev.min()
            if k:
                sl = s @ L
                top = np.abs(sl).max()
                size = top * math.sqrt(k) * rtop + lev_top
                if not math.isfinite(size):
                    return rho * np.cos(angles)
                p, q = np.frexp(top)[1], np.frexp(size)[1]
                left = np.ones((len(s), k + 1), dtype=np.float32)
                left[:, :k] = np.ldexp(sl, -p)
                right = np.vstack([np.ldexp(R, p - q), np.ldexp(-lev, -q)]).astype(np.float32)
                h = np.ldexp(np.matmul(left, right, out=self.h_out[: len(s)]).max(axis=1).astype(float), q)
                tau += math.ldexp(k + 1, int(q) - 119)  # twice (K + 1) 2^(q-120), for tau's rounding
            kept = ~((-math.inf < h) & (h <= -tau))
        return rho[kept] * np.cos(angles[kept])

    def count(self, root_seed: int, trials: int) -> np.ndarray:
        """Violating trials among trials 0..trials - 1, per plan. A gaussian
        chunk draws sketches, and only the trials its screen keeps pay for
        their exact normals' cosines."""
        out = np.zeros(len(self.checks), dtype=np.int64)
        for block in row_blocks(trials, self.width):
            seeds = substream_seed(root_seed, np.arange(block.start, block.stop) + 1)
            x = self.draw(self, seeds)
            if not x.shape[0]:
                continue
            xnorm = float(np.linalg.norm(x, ord=self.p, axis=1).max())
            # a product or band that overflows makes its cell's float test NaN, decided exactly
            with np.errstate(over="ignore", invalid="ignore"):
                y = x @ self.weights
                for i, check in enumerate(self.checks):
                    out[i] += np.count_nonzero(self._violated(x, y[:, check.cols], check, xnorm))
        return out

    def _violated(self, x, y, check: _Check, xnorm: float) -> np.ndarray:
        """Per trial: does some column exceed its level in real arithmetic."""
        if np.any(check.t == -math.inf):
            return np.ones(y.shape[0], dtype=bool)
        band = self.gamma_w * xnorm * self.wnorm[check.cols] + check.slack
        maybe = y <= check.level - band
        np.logical_not(maybe, out=maybe)  # not surely at or below; a NaN test goes to the exact path
        viol = np.zeros(y.shape[0], dtype=bool)
        rows = np.nonzero(maybe.any(axis=1))[0]
        yr = y[rows]  # surely above; an overflowed product bounds nothing and goes to the exact test
        viol[rows] = ((yr > check.level + band) & (yr < math.inf)).any(axis=1)
        for t in rows[~viol[rows]]:
            viol[t] = any(
                _above(_exact_dot(x[t], self.weights[:, check.cols.start + j]), check.square, check.t[j])
                for j in np.nonzero(maybe[t])[0]
            )
        return viol


def _discrete_group(plans) -> _Group:
    setups = [_discrete_setup(plan) for plan in plans]
    n, levels = plans[0].n, key_levels(setups[0][2])
    parts = [(tracked.T, thresholds, n * n) for tracked, thresholds, _ in setups]
    return _Group(lambda _, seeds: _draw_counts(seeds, n, levels), n, (1, math.inf), parts)


def _gaussian_group(plans) -> _Group:
    """The gaussian group, whose weights are the projector P = Sigma^{1/2}
    dirs' (d, mesh) that maps a standard normal to the mesh. P is its one
    mesh-sized matrix: the mesh is drawn, bounded and projected one row
    block at a time. A block's directions and totals are those rows of a
    whole-mesh run, bit for bit (the bound reads each row alone); its
    columns of P are one BLAS product, whose edge columns may round apart
    from a whole-mesh product's, and every decision is exact on the P kept.
    With one block (mesh <= BLOCK_ELEMENTS // d) every array is a
    whole-mesh run's."""
    model, mesh = plans[0].model, plans[0].mesh
    d, k = model.dim, max(p.k for p in plans)  # the screen's rank, any k: where the bound splits Sigma
    vecs, root = model.eigenvectors[:, :k], model.sqrt_matrix()
    projector, right, totals = np.empty((d, mesh)), np.empty((k, mesh)), np.empty((len(plans), mesh))
    for rows in row_blocks(mesh, d):
        dirs = _gaussian_mesh(plans[0], rows)
        for total, p in zip(totals, plans):
            total[rows] = gaussian_instance_bound(p.model, dirs, p.k, p.n, p.r).total
        right[:, rows] = vecs.T @ dirs.T
        np.matmul(root, dirs.T, out=projector[:, rows])  # P's first write, after the bound's temporaries are gone
    parts = [(projector, total, p.n) for total, p in zip(totals, plans)]
    screen = (vecs * np.sqrt(model.eigenvalues[:k]), right)
    # not a bound method: its cycle with the group would hold the group's arrays until a full collection
    return _Group(_Group._kept_normals, 2 * d, (2, 2), parts, screen)


def _run(plans) -> list:
    """Reports of plans that differ only in n, r and k. The gaussian plans
    form one group and the discrete plans one group per n; each group draws
    and counts each trial once, for all its plans."""
    gaussian = plans[0].target == "gaussian"
    members = {}  # group key (None for gaussian, else n) -> plan indices
    for i, plan in enumerate(plans):
        members.setdefault(None if gaussian else plan.n, []).append(i)
    violations = np.zeros(len(plans), dtype=np.int64)
    for idx in members.values():
        group = (_gaussian_group if gaussian else _discrete_group)([plans[i] for i in idx])
        violations[idx] = group.count(plans[0].root_seed, plans[0].trials)
    return [
        VerificationReport(target=p.target, n=int(p.n), r=float(p.r), k=int(p.k), trials=int(p.trials),
                           violations=int(v), guarantee=CEILING_FACTOR[p.target] * math.exp(-p.n * p.r))
        for p, v in zip(plans, violations)
    ]


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
