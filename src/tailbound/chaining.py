"""Finite-family chaining with a deflation step.

A FunctionFamily holds centered functions tabulated on a finite discrete
support, together with a norm on differences: either the CGF functional
sup_{lambda in R} sqrt(2 log E e^{lambda h}) / |lambda| (the default) or an
Orlicz norm; the CGF norm is found by a capped grid and Newton steps, with
no golden section. A deflation map A with |A[F]| <= e^k and ||A[f]|| <= ||f||
shrinks the family to {f - A[f]}; the chain bound combines the gamma
functional over admissible sequences anchored at {0} with covering
resolutions epsilon_ell, and every reported value carries a certificate
(the realizing sequences) that replays to the reported number.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cgf import DiscreteDistribution, _moments, check_rows, rate_bound_T_rows
from .numerics import NumericError, cgf_rows, check_int, readonly, row_blocks
from .orlicz import OrliczGenerator, orlicz_norm_rows

LOG2 = math.log(2.0)
ZERO_NORM_TOL = 1e-12
PLAN_NORM_SLACK = 1e-12

EXACT_EPSILON_LIMIT = 12  # exhaustive subset enumeration threshold for epsilon_ell
EXACT_GAMMA_LIMIT = 8  # exhaustive nested-sequence threshold for gamma


NORM_GRID = np.power(2.0, np.arange(-40, 61) / 2.0)  # |lambda| grid in units of 1/max|h|
NORM_GAIN_TOL = 1e-13  # a Newton step that promises less relative gain in the norm's F ends its search
NORM_BRACKET_TOL = 1e-6  # as does a bracket this narrow in log mu
NORM_MAX_ITER = 60  # bisection alone takes a grid bracket (0.69 wide) to NORM_BRACKET_TOL in 20
CACHE_SIZE = 64  # rates whose w_r pass, and plans whose deflated set, a family keeps


def cgf_functional_norm(dist: DiscreteDistribution, values: np.ndarray):
    """sup_{lambda in R} sqrt(2 Lambda_h(lambda)) / |lambda| for tabulated h.

    values is one function or a (count, support) array; the result is a float
    or an array of norms. The lambda -> 0 limit sqrt(Var h) is a candidate;
    the rest of the supremum is located for h and for -h by _sup_over_mu.
    Requires finite rows centered by the rule of cgf.check_rows, else the
    supremum diverges at lambda -> 0.
    """
    values = np.asarray(values, dtype=float)
    rows = check_rows(dist, np.atleast_2d(values))
    mask = dist.probabilities > 0.0
    h = rows[:, mask]
    vmax = np.abs(h).max(axis=1)
    norms = np.zeros(h.shape[0])
    live = np.nonzero(vmax > 0.0)[0]
    x = h[live] / vmax[live, None]
    # the sup over mu < 0 for x is the sup over mu > 0 for -x: one search per
    # row of [x; -x], each with its atoms sorted, so that rows equal up to a
    # sign or a permutation of equally likely atoms get equal norms
    sides = np.concatenate([x, -x])
    probs = np.broadcast_to(dist.probabilities[mask], sides.shape)
    order = np.lexsort((probs, sides))
    sides, probs = np.take_along_axis(sides, order, 1), np.take_along_axis(probs, order, 1)
    mean = (sides * probs).sum(axis=1)
    variance = np.maximum((sides * sides * probs).sum(axis=1) - mean * mean, 0.0)
    best = np.maximum(variance, _sup_over_mu(np.log(probs), sides, variance))
    norms[live] = vmax[live] * np.sqrt(np.maximum(best[: live.size], best[live.size :]))
    # positive-definiteness on discrete support: a function that is nonzero
    # on an atom of positive probability cannot have norm 0
    if np.any((norms <= ZERO_NORM_TOL) & (vmax > ZERO_NORM_TOL)):
        raise NumericError("norm evaluated to 0 on a function that is nonzero with positive probability")
    return float(norms[0]) if values.ndim == 1 else norms


def _sup_over_mu(logp: np.ndarray, x: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Per row of x (max|x| = 1, centered, of variance `variance`; logp holds
    its atoms' log-probabilities), a value of F(mu) = 2 Lambda(mu) / mu^2 at
    least F's best NORM_GRID value and F's local maximum next to it: the grid
    up to mu = 2 max x / variance, past which F < variance, then safeguarded
    Newton steps in log mu on mu Lambda'(mu) = 2 Lambda(mu) from the moment
    kernel cgf._moments (README, "CGF norm"). Each row's result depends on
    that row alone.
    """
    def f(logp, x, mu):
        return 2.0 * cgf_rows(logp, x, mu[:, None])[:, 0] / (mu * mu)

    log_grid, top = np.log(NORM_GRID), x.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        count = np.clip(np.searchsorted(NORM_GRID, 2.0 * top / variance, side="right"), 1, NORM_GRID.size)
    best, j = np.empty(x.shape[0]), np.empty(x.shape[0], dtype=int)
    for blk in row_blocks(x.shape[0], NORM_GRID.size * x.shape[1]):
        cb, n = count[blk], blk.stop - blk.start
        rows = np.repeat(np.arange(n), cb)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(cb) - cb, cb)
        grid = np.full((n, cb.max()), -math.inf)
        grid[rows, cols] = f(logp[blk][rows], x[blk][rows], NORM_GRID[cols])
        j[blk] = grid.argmax(axis=1)
        best[blk] = grid[np.arange(n), j[blk]]
    t, lo, hi = log_grid[j], log_grid[np.maximum(j - 1, 0)], log_grid[np.minimum(j + 1, NORM_GRID.size - 1)]
    for blk in row_blocks(x.shape[0], x.shape[1]):
        tb, lb, hb, pb, mb = t[blk], lo[blk], hi[blk], logp[blk], top[blk]  # views: updates reach t, lo, hi
        z, active = x[blk] - mb[:, None], np.arange(blk.stop - blk.start)
        for _ in range(NORM_MAX_ITER):
            ta, mu = tb[active], np.exp(tb[active])
            lam, m1, var = _moments(pb[active], z[active], mu)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam += mu * mb[active]  # Lambda(mu)
                ratio = mu * (m1 + mb[active]) / lam  # mu Lambda' / Lambda: 2 where F is stationary
                slope = ratio + mu * mu * var / lam - ratio * ratio  # d ratio / dt
                step = (2.0 - ratio) / slope
            rising = ratio > 2.0
            lb[active], hb[active] = np.where(rising, ta, lb[active]), np.where(rising, hb[active], ta)
            newton = (slope < 0.0) & (ta + step > lb[active]) & (ta + step < hb[active])
            tb[active] = np.where(newton, ta + step, 0.5 * (lb[active] + hb[active]))
            small = newton & (np.abs(step * (ratio - 2.0)) <= NORM_GAIN_TOL)
            active = active[~small & (hb[active] - lb[active] > NORM_BRACKET_TOL)]
            if not active.size:
                break
    return np.maximum(best, f(logp, x, np.exp(t)))


@dataclass(frozen=True)
class FunctionFamily:
    """Finite family of centered tabulated functions with a designated zero.

    members: mapping name -> values (one per support point), in a stable
    order, each a row that cgf.check_rows accepts. Twice the spread
    max f - min f at each point must be finite; then so is every
    (f - g) - (f' - g') the chain forms. norm_context selects the metric:
    "cgf" for the CGF functional or an OrliczGenerator instance.
    Construction norms every member difference once, re-centered
    (distances); member_norms is the zero member's row of distances, since a
    member's norm is its distance to 0. The family caches the w_r pass of
    each rate and the deflated set of each plan, CACHE_SIZE of each.
    """

    distribution: DiscreteDistribution
    members: dict
    norm_context: object = "cgf"

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must contain at least one member")
        names = tuple(self.members.keys())
        for name in names:
            try:
                check_rows(self.distribution, [self.members[name]])
            except ValueError as exc:
                raise ValueError(f"member {name!r}: {exc}") from None
        values = readonly([self.members[name] for name in names])
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(2.0 * (values.max(axis=0) - values.min(axis=0)))):
                raise ValueError("member values at a support point are too far apart: their differences overflow")
        zeros = np.nonzero(~values.any(axis=1))[0]
        if zeros.size == 0:
            raise ValueError("family must contain the zero function as a member")
        if not (self.norm_context == "cgf" or isinstance(self.norm_context, OrliczGenerator)):
            raise ValueError("norm_context must be 'cgf' or an OrliczGenerator")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "zero_index", int(zeros[0]))
        object.__setattr__(self, "members", {n: values[i] for i, n in enumerate(names)})
        for name, fn in (("_wr_pass", _extremal_pass), ("_deflate", _deflate)):
            object.__setattr__(self, name, functools.lru_cache(maxsize=CACHE_SIZE)(functools.partial(fn, self)))
        object.__setattr__(self, "distances", _distances(self, values))
        object.__setattr__(self, "member_norms", self.distances[self.zero_index])

    @property
    def size(self) -> int:
        return len(self.names)


def _differences(dist: DiscreteDistribution, values: np.ndarray, i, j, fn, scale=None) -> np.ndarray:
    """fn, one float per row, of the rows values[i] - values[j] (index arrays),
    divided by scale when given and re-centered to p-weighted mean 0, formed
    block by block. Re-centering keeps the rounding mean of a difference of
    nearby members, which the centering rule allows, out of norms and T_r."""
    out = np.zeros(len(i))
    for blk in row_blocks(len(i), values.shape[1]):
        rows = values[i[blk]] - values[j[blk]]
        if scale is not None:
            rows /= scale[blk, None]
        rows -= (rows * dist.probabilities).sum(axis=1)[:, None]
        out[blk] = fn(rows)
    return out


def _distances(family: FunctionFamily, values: np.ndarray, known=None) -> np.ndarray:
    """Read-only symmetric matrix of the family-metric distances between the
    rows of values. Entries above the diagonal, in np.triu_indices order, are
    taken from `known` where it is not NaN; the rest are normed."""
    dist, ctx = family.distribution, family.norm_context

    def norm(rows):
        return cgf_functional_norm(dist, rows) if ctx == "cgf" else orlicz_norm_rows(dist, rows, ctx)

    q = len(values)
    iu, ju = np.triu_indices(q, 1)
    upper = np.full(iu.size, np.nan) if known is None else known
    todo = np.isnan(upper)
    upper[todo] = _differences(dist, values, iu[todo], ju[todo], norm)
    out = np.zeros((q, q))
    out[iu, ju] = out[ju, iu] = upper
    out.flags.writeable = False
    return out


def _extremal_pass(family: FunctionFamily, r: float):
    """(w_r, extremal pair) from one batched T_r pass over every ordered pair
    of members with a difference norm above 1e-12, in lexicographic order."""
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    pairs = np.argwhere(family.distances > ZERO_NORM_TOL)
    dist, (i, j) = family.distribution, pairs.T
    scale = family.distances[i, j]
    t = _differences(dist, family.values, i, j, lambda rows: rate_bound_T_rows(dist, rows, r)[0], scale)
    if not len(pairs):
        return 0.0, None
    best = int(np.argmax(t))  # the first maximum: ties go to the smallest (i, j)
    return float(t[best]), (int(pairs[best, 0]), int(pairs[best, 1]), float(t[best]))


def class_wr(family: FunctionFamily, r: float) -> float:
    """w_r = sup over normalized member differences h/||h|| of T_r.

    Covers ordered pairs so both signs of every difference are included;
    differences with norm at most 1e-12 are skipped; 0 when all are. One
    batched pass per rate, cached and shared with extremal_difference.
    """
    return family._wr_pass(r)[0]


def extremal_difference(family: FunctionFamily, r: float):
    """The ordered pair (i, j) whose normalized difference attains class_wr.

    Ties break to the smallest (i, j) in lexicographic order. Returns
    (i, j, w) or None when all differences are zero.
    """
    return family._wr_pass(r)[1]


@dataclass(frozen=True)
class DeflationPlan:
    """Deflation map A as an assignment member index -> member index.

    The range size must satisfy |A[F]| <= e^k; k = 0 is the trivial plan
    sending everything to the zero member (standard chaining).
    """

    assignment: tuple
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))


def validate_plan(family: FunctionFamily, plan: DeflationPlan) -> None:
    if len(plan.assignment) != family.size:
        raise ValueError("plan assignment length does not match the family")
    for i, a in enumerate(plan.assignment):
        if not (0 <= a < family.size):
            raise ValueError("plan assignment index out of range")
        if family.member_norms[a] > family.member_norms[i] + PLAN_NORM_SLACK:
            raise ValueError(
                f"plan violates the norm constraint at member {family.names[i]!r}"
            )
    if plan.assignment[family.zero_index] != family.zero_index:
        raise ValueError("plan must map the zero member to itself")
    if len(set(plan.assignment)) > _center_budget(plan.k, family.size):
        raise ValueError("plan range exceeds the e^k budget")


def _center_budget(k: int, size: int) -> int:
    """min(floor(e^k), size), without evaluating e^k once it covers the family
    (e^k overflows a float from k = 710 on)."""
    return size if k >= math.log(size) else math.floor(math.exp(k))


def build_deflation(family: FunctionFamily, k: int) -> DeflationPlan:
    """Greedy k-center deflation with center budget floor(e^k).

    Centers come from farthest-first traversal under the family norm starting
    at the zero member. Each member is then assigned to its nearest center
    with norm not exceeding the member's own (ties to the smallest member
    index), keeping the zero member whenever no admissible center strictly
    improves on it. At k = 0 the zero member is the one center: the trivial
    plan. deflate validates the plan.
    """
    k = check_int("k", k, 0)
    z, norms = family.zero_index, family.member_norms
    centers = _farthest_first(family.distances, [z], _center_budget(k, family.size))
    order = np.array([z] + sorted(set(centers) - {z}))  # the zero member first: it wins ties
    admissible = norms[order][None, :] <= norms[:, None] + PLAN_NORM_SLACK
    assignment = order[np.argmin(np.where(admissible, family.distances[:, order], np.inf), axis=1)]
    return DeflationPlan(tuple(assignment), k)


@dataclass(frozen=True)
class DeflatedSet:
    """The deflated family {f - A[f]}, deduplicated, with its metric data."""

    values: np.ndarray  # (q, support) distinct deflated functions
    labels: tuple
    zero_pos: int
    member_map: tuple  # member index -> row in values
    dist: np.ndarray  # (q, q) pairwise norms; column zero_pos holds the norms

    @property
    def size(self) -> int:
        return self.values.shape[0]


def deflate(family: FunctionFamily, plan: DeflationPlan) -> DeflatedSet:
    """The deflated set {f - A[f]} of a plan, which is validated on every call;
    the family builds it once per assignment and caches it."""
    validate_plan(family, plan)
    return family._deflate(plan.assignment)


def _deflate(family: FunctionFamily, assignment: tuple) -> DeflatedSet:
    """Deflated rows f_m - f_c, deduplicated by their bytes, each kept with the
    (member m, anchor c) that first gives it. Distances come from the family
    by identity where one holds, and only the other pairs are normed."""
    rows, keys, member_map, origin = family.values - family.values[list(assignment)], {}, [], []
    for i, c in enumerate(assignment):
        key = rows[i].tobytes()
        if key not in keys:
            keys[key] = len(origin)
            origin.append((i, c))
        member_map.append(keys[key])
    m, c = np.array(origin).T
    values = readonly(rows[m])
    zero_pos = keys[np.zeros(family.values.shape[1]).tobytes()]
    a, b, fd = *np.triu_indices(len(origin), 1), family.distances
    known = np.where(c[a] == c[b], fd[m[a], m[b]], np.nan)  # (f - c) - (g - c) = f - g
    known = np.where(b == zero_pos, fd[m[a], c[a]], known)  # a row's distance to 0 is its member's to its anchor
    known = np.where(a == zero_pos, fd[m[b], c[b]], known)
    labels = tuple(f"{family.names[i]}-{family.names[j]}" for i, j in origin)
    return DeflatedSet(values, labels, zero_pos, tuple(member_map), _distances(family, values, known))


def _farthest_first(dist: np.ndarray, seed: list, budget: int) -> list:
    """seed grown by farthest-first traversal under dist to `budget` indices,
    or until every point is at distance 0; ties go to the smallest index."""
    chosen = list(seed)
    while len(chosen) < budget:
        min_d = np.min(dist[:, chosen], axis=1)
        cand = int(np.argmax(min_d))
        if min_d[cand] <= 0.0:
            break
        chosen.append(cand)
    return chosen


def epsilon_ell(deflated: DeflatedSet, ell: int):
    """Best covering radius of the deflated set by at most 2^{2^ell} elements.

    The candidates are every subset of that size, in itertools.combinations
    order, for sets of at most 12 elements, else the one farthest-first
    subset; all are scored in one reduction and the first minimum wins. The
    returned subset certifies the value.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    q = deflated.size
    budget = 2 ** (2**ell)
    if budget >= q:
        return 0.0, tuple(range(q))
    if q <= EXACT_EPSILON_LIMIT:
        subsets = np.array(list(itertools.combinations(range(q), budget)))
    else:
        subsets = np.array([_farthest_first(deflated.dist, [0], budget)])
    radii = deflated.dist[:, subsets].min(axis=2).max(axis=0)
    best = int(np.argmin(radii))
    return float(radii[best]), tuple(subsets[best].tolist())


def _ell_top(q: int) -> int:
    """Smallest ell >= 1 with 2^{2^ell} >= q; levels from there on may equal
    the whole set, so their chain terms vanish. (Level 0 is pinned to {0} and
    always contributes unless the set is just {0}.)"""
    ell = 1
    while 2 ** (2**ell) < q:
        ell += 1
    return ell


def _gamma_values(dist: np.ndarray, levels, weights) -> np.ndarray:
    """max over points x of sum_ell 2 w_ell dist(x, level ell), for each
    candidate: a level is a (candidates, size) index array, or one index
    sequence that every candidate shares."""
    total = np.zeros((dist.shape[0], 1))
    for lvl, w in zip(levels, weights):
        total = total + 2.0 * w * dist[:, np.atleast_2d(lvl)].min(axis=2)
    return total.max(axis=0)


def gamma_functional(deflated: DeflatedSet, family: FunctionFamily, n: int):
    """Generic-chaining gamma functional of the deflated set.

    gamma = inf over admissible nested sequences (A_0 = {0}, |A_ell| <=
    2^{2^ell}) of the worst-case weighted distance sum, with rates
    (2^{ell+3} + ell + 2) log(2) / n. Sequences are grown greedily by
    farthest-first additions; for sets of at most 8 elements every admissible
    sequence is scored as well, in one reduction, and the first minimum
    replaces the greedy sequence when it is strictly smaller.
    Returns (value, certificate) where the certificate lists the realizing
    levels, their rates, and their weights.
    """
    check_int("n", n, 1)
    q = deflated.size
    z = deflated.zero_pos
    if q == 1:
        return 0.0, {"levels": ((z,),), "rates": (), "weights": ()}
    ell_top = _ell_top(q)
    rates = tuple((2.0 ** (ell + 3) + ell + 2) * LOG2 / n for ell in range(ell_top))
    weights = tuple(class_wr(family, rr) for rr in rates)
    dist = deflated.dist

    levels = [[z]]
    for ell in range(1, ell_top):
        levels.append(_farthest_first(dist, levels[-1], min(2 ** (2**ell), q)))
    best_levels = tuple(tuple(lvl) for lvl in levels)
    best_val = float(_gamma_values(dist, best_levels, weights)[0])

    if q <= EXACT_GAMMA_LIMIT and ell_top == 2:
        # only the ell = 1 level is free: it contains 0, has 4 elements
        # (q > 4 here), and larger never hurts, so enumerate exactly
        others = [i for i in range(q) if i != z]
        cands = np.sort([(z, *combo) for combo in itertools.combinations(others, 3)], axis=1)
        vals = _gamma_values(dist, ((z,), cands), weights)
        best = int(np.argmin(vals))
        if vals[best] < best_val:
            best_val, best_levels = float(vals[best]), ((z,), tuple(cands[best].tolist()))

    return best_val, {"levels": best_levels, "rates": rates, "weights": weights}


@dataclass(frozen=True)
class ChainBoundReport:
    """Assembled uniform chain bound with its replayable certificate.

    total_rhs = gamma_value + 2 w_r epsilon_sum, and each member's threshold
    is w_shift ||f|| + total_rhs where w_shift = class_wr at rate r + k/n.
    The guarantee is 1 - 2 e^{-nr}.
    """

    n: int
    r: float
    k: int
    gamma_value: float
    epsilon_sum: float
    epsilon_values: tuple
    w_r: float
    w_shift: float
    per_member: dict
    total_rhs: float
    guarantee: float
    deflated_size: int
    certificate: dict

    def thresholds(self) -> np.ndarray:
        return np.array(list(self.per_member.values()))


def theorem_main_bound(
    family: FunctionFamily, plan: DeflationPlan, n: int, r: float
) -> ChainBoundReport:
    """Instance-dependent uniform bound for the deflated family.

    With probability at least 1 - 2 e^{-nr}, every member satisfies
    E_n f <= w_{r+k/n} ||f|| + gamma(A) + 2 w_r sum_ell epsilon_ell(A).
    """
    n = check_int("n", n, 1)
    if not (r > 0.0):
        raise ValueError("r must be positive")
    deflated = deflate(family, plan)
    q = deflated.size
    _, gamma_cert = gamma_functional(deflated, family, n)
    # a covering subset for every ell with a nonvanishing term
    subsets = tuple((ell, epsilon_ell(deflated, ell)[1]) for ell in range(_ell_top(q)) if 2 ** (2**ell) < q)
    certificate = {
        "deflated_labels": deflated.labels,
        "deflated_values": [list(map(float, row)) for row in deflated.values],
        "member_map": deflated.member_map,
        "gamma_levels": gamma_cert["levels"],
        "gamma_rates": gamma_cert["rates"],
        "gamma_weights": gamma_cert["weights"],
        "epsilon_subsets": subsets,
        "assignment": plan.assignment,
        "k": plan.k,
    }
    w_r, terms = _chain_terms(family, deflated, certificate, r)
    w_shift = class_wr(family, r + plan.k / n)
    per_member = {
        name: w_shift * float(family.member_norms[i]) + terms["total_rhs"] for i, name in enumerate(family.names)
    }
    return ChainBoundReport(
        n=n,
        r=float(r),
        k=int(plan.k),
        gamma_value=terms["gamma_value"],
        epsilon_sum=terms["epsilon_sum"],
        epsilon_values=terms["epsilon_values"],
        w_r=w_r,
        w_shift=w_shift,
        per_member=per_member,
        total_rhs=terms["total_rhs"],
        guarantee=1.0 - 2.0 * math.exp(-n * r),
        deflated_size=q,
        certificate=certificate,
    )


def _chain_terms(family: FunctionFamily, deflated: DeflatedSet, certificate: dict, r: float):
    """(w_r, terms) of a chain bound, evaluated over the certificate's gamma
    levels and rates and its epsilon subsets: the one arithmetic of the
    report and of its replay. terms holds gamma_value, epsilon_sum,
    epsilon_values, total_rhs = gamma_value + 2 w_r epsilon_sum and the
    gamma weights."""
    weights = tuple(class_wr(family, rr) for rr in certificate["gamma_rates"])
    gamma_value = float(_gamma_values(deflated.dist, certificate["gamma_levels"], weights)[0])
    epsilon_values = tuple(
        float(deflated.dist[:, list(subset)].min(axis=1).max()) for _ell, subset in certificate["epsilon_subsets"]
    )
    epsilon_sum = float(sum(epsilon_values))
    w_r = class_wr(family, r)
    return w_r, {
        "gamma_value": gamma_value,
        "epsilon_sum": epsilon_sum,
        "epsilon_values": epsilon_values,
        "total_rhs": gamma_value + 2.0 * w_r * epsilon_sum,
        "weights": weights,
    }


def replay_certificate(family: FunctionFamily, report: ChainBoundReport) -> dict:
    """Recompute every reported value from the certificate alone.

    Rebuilds the deflated set from the stored assignment, re-evaluates all
    distances, weights, and covering radii over the certified index sets
    with the report's own arithmetic, and returns the recomputed quantities
    for comparison with the report.
    """
    plan = DeflationPlan(tuple(report.certificate["assignment"]), int(report.certificate["k"]))
    deflated = deflate(family, plan)
    stored = np.array(report.certificate["deflated_values"], dtype=float)
    if stored.shape != deflated.values.shape or not np.array_equal(stored, deflated.values):
        raise ValueError("certificate deflated values do not match the family and plan")
    return _chain_terms(family, deflated, report.certificate, report.r)[1]


@dataclass(frozen=True)
class OptimizeResult:
    plan: DeflationPlan
    report: ChainBoundReport
    objective: float
    evaluations: tuple  # (k, objective) per candidate, in input order


def optimize_deflation(
    family: FunctionFamily, n: int, r: float, k_candidates
) -> OptimizeResult:
    """Pick the candidate k whose plan minimizes the deflated bound.

    The objective charges the threshold inflation at the worst member:
    total_rhs + (w_{r+k/n} - w_r) max_f ||f||. k = 0 denotes the trivial
    plan. Ties break toward smaller k.
    """
    kc = list(k_candidates)
    if not kc:
        raise ValueError("k candidate list must be nonempty")
    max_norm = float(np.max(family.member_norms))
    best = None
    evaluations = []
    for k in kc:
        k = check_int("k candidate", k, 0)
        plan = build_deflation(family, k)
        report = theorem_main_bound(family, plan, n, r)
        objective = report.total_rhs + (report.w_shift - report.w_r) * max_norm
        evaluations.append((k, objective))
        if best is None or (objective, k) < best[:2]:
            best = (objective, k, plan, report)
    return OptimizeResult(
        plan=best[2], report=best[3], objective=best[0], evaluations=tuple(evaluations)
    )
