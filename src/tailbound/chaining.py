"""Finite-family chaining with a deflation step.

A FunctionFamily holds centered functions tabulated on a finite discrete
support, together with a norm on differences: either the CGF functional
sup_{lambda in R} sqrt(2 log E e^{lambda h}) / |lambda| (the default) or an
Orlicz norm; the CGF norm is found by a capped grid and Newton steps of
cgf._dual_root, the solver T_r shares. A deflation map A with |A[F]| <= e^k
and ||A[f]|| <= ||f|| shrinks the family to {f - A[f]}; the chain bound
combines the gamma functional over admissible sequences anchored at {0}
with covering resolutions epsilon_ell, and every reported value carries a
certificate (the realizing sequences) that replays to the reported number.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cgf import DiscreteDistribution, _dual_root, _moments, check_rows, rate_bound_T
from .numerics import NumericError, check_int, readonly, row_blocks
from .orlicz import OrliczGenerator, orlicz_norm

LOG2 = math.log(2.0)

EXACT_EPSILON_LIMIT = 12  # exhaustive subset enumeration threshold for epsilon_ell
EXACT_GAMMA_LIMIT = 8  # exhaustive nested-sequence threshold for gamma


NORM_GRID = np.power(2.0, np.arange(-40, 61) / 2.0)  # |lambda| grid in units of 1/max|h|
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
    if np.any((norms <= 0.0) & (vmax > 0.0)):
        raise NumericError("norm evaluated to 0 on a function that is nonzero with positive probability")
    return float(norms[0]) if values.ndim == 1 else norms


def _sup_over_mu(logp: np.ndarray, x: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Per row of x (max|x| = 1, centered, of variance `variance`; logp holds
    its atoms' log-probabilities), a value of F(mu) = 2 Lambda(mu) / mu^2 at
    least F's best NORM_GRID value and F's local maximum next to it: the grid
    up to mu = 2 max x / variance, past which F < variance (_grid_max), then
    cgf._dual_root from the best grid point, bracketed by its neighbours, on
    G = Lambda / g = 1 (g = mu Lambda' - Lambda), where F peaks; G < 1 where
    F rises. Every Lambda is the CGF kernel cgf._moments (README, "CGF
    norm"). Each row's result depends on that row alone.
    """
    log_grid, top = np.log(NORM_GRID), x.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        count = np.clip(np.searchsorted(NORM_GRID, 2.0 * top / variance, side="right"), 1, NORM_GRID.size)
    best, j = _grid_max(logp, x, count)
    t, lo, hi = log_grid[j], log_grid[np.maximum(j - 1, 0)], log_grid[np.minimum(j + 1, NORM_GRID.size - 1)]
    peak = np.empty(x.shape[0])
    for blk in row_blocks(x.shape[0], x.shape[1]):
        pb, xb = logp[blk], x[blk]

        def moments(rows, mu):  # G = Lambda / g and dG/dt
            lam, g, var = _moments(pb[rows], xb[rows], mu)
            with np.errstate(divide="ignore", invalid="ignore"):
                return lam / g, (g + lam) / g - lam * mu * mu * var / (g * g)

        peak[blk] = _dual_root(moments, t[blk], lo[blk], hi[blk], 1.0)
    return np.maximum(best, 2.0 * _moments(logp, x, peak)[0] / (peak * peak))


def _grid_max(logp: np.ndarray, x: np.ndarray, count: np.ndarray):
    """(best, index) of F(mu) = 2 Lambda(mu) / mu^2 over the first count[i]
    NORM_GRID points per row of x: one cgf._moments call per block, over a
    (rows, points) grid axis, -inf past a row's count."""
    best, j = np.empty(x.shape[0]), np.empty(x.shape[0], dtype=int)
    for blk in row_blocks(x.shape[0], NORM_GRID.size * x.shape[1]):
        mu = NORM_GRID[: count[blk].max()]
        grid = 2.0 * _moments(logp[blk, None, :], x[blk, None, :], mu)[0] / (mu * mu)
        grid[np.arange(mu.size) >= count[blk, None]] = -math.inf
        j[blk] = grid.argmax(axis=1)
        best[blk] = grid[np.arange(grid.shape[0]), j[blk]]
    return best, j


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
        return cgf_functional_norm(dist, rows) if ctx == "cgf" else orlicz_norm(dist, rows, ctx)

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
    of members at a nonzero distance, in lexicographic order."""
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    pairs = np.argwhere(family.distances > 0.0)
    dist, (i, j) = family.distribution, pairs.T
    scale = family.distances[i, j]
    t = _differences(dist, family.values, i, j, lambda rows: rate_bound_T(dist, rows, r)[0], scale)
    if not len(pairs):
        return 0.0, None
    best = int(np.argmax(t))  # the first maximum: ties go to the smallest (i, j)
    return float(t[best]), (int(pairs[best, 0]), int(pairs[best, 1]), float(t[best]))


def class_wr(family: FunctionFamily, r: float) -> float:
    """w_r = sup over normalized member differences h/||h|| of T_r.

    Covers ordered pairs so both signs of every difference are included;
    differences of norm 0 are skipped; 0 when all are. One
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
        if family.member_norms[a] > family.member_norms[i]:
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
    admissible = norms[order][None, :] <= norms[:, None]
    assignment = order[np.argmin(np.where(admissible, family.distances[:, order], np.inf), axis=1)]
    return DeflationPlan(tuple(assignment), k)


@dataclass(frozen=True)
class DeflatedSet:
    """The deflated family {f - A[f]}, deduplicated, with its metric data."""

    values: np.ndarray  # (q, support) distinct deflated functions; row 0 is the zero function
    labels: tuple
    member_map: tuple  # member index -> row in values
    dist: np.ndarray  # (q, q) pairwise norms; column 0 holds the norms

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
    (member m, anchor c) that first gives it, the zero member's (z, z) first.
    Distances come from the family by identity where one holds, and only the
    other pairs are normed."""
    z, rows = family.zero_index, family.values - family.values[list(assignment)]
    keys, member_map, origin = {rows[z].tobytes(): 0}, [], [(z, z)]
    for i, c in enumerate(assignment):
        key = rows[i].tobytes()
        if key not in keys:
            keys[key] = len(origin)
            origin.append((i, c))
        member_map.append(keys[key])
    m, c = np.array(origin).T
    values = readonly(rows[m])
    a, b, fd = *np.triu_indices(len(origin), 1), family.distances
    known = np.where(c[a] == c[b], fd[m[a], m[b]], np.nan)  # (f - c) - (g - c) = f - g
    known = np.where(a == 0, fd[m[b], c[b]], known)  # a row's distance to 0 is its member's to its anchor
    labels = tuple(f"{family.names[i]}-{family.names[j]}" for i, j in origin)
    return DeflatedSet(values, labels, tuple(member_map), _distances(family, values, known))


def _farthest_first(dist: np.ndarray, seed: list, budget: int) -> list:
    """seed grown by farthest-first traversal under dist to `budget` indices,
    or until every point is at distance 0; ties go to the smallest index."""
    chosen, gap = list(seed), dist[:, seed].min(axis=1)
    while len(chosen) < budget:
        cand = int(np.argmax(gap))
        if gap[cand] <= 0.0:
            break
        chosen.append(cand)
        np.minimum(gap, dist[:, cand], out=gap)  # each point's distance to the chosen set
    return chosen


def _level_size(ell: int, q: int) -> int:
    """min(2^{2^ell}, q); the power is formed only while it is at most 2q."""
    return q if ell >= q.bit_length().bit_length() else min(2 ** (2**ell), q)


def epsilon_ell(deflated: DeflatedSet, ell: int):
    """Best covering radius of the deflated set by at most 2^{2^ell} elements.

    The candidates are every subset of that size, in itertools.combinations
    order, for sets of at most 12 elements, else a prefix of gamma's one
    farthest-first traversal from row 0; all are scored in one reduction and
    the first minimum wins. The returned subset certifies the value.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    q = deflated.size
    budget = _level_size(ell, q)
    if budget == q:
        return 0.0, tuple(range(q))
    if q <= EXACT_EPSILON_LIMIT:
        subsets = np.array(list(itertools.combinations(range(q), budget)))
    else:
        subsets = np.array([_farthest_first(deflated.dist, [0], budget)])
    radii = _gamma_values(deflated.dist, (subsets,), (1.0,))
    best = int(np.argmin(radii))
    return float(radii[best]), tuple(subsets[best].tolist())


def _ell_top(q: int) -> int:
    """Smallest ell >= 1 with 2^{2^ell} >= q; levels from there on may equal
    the whole set, so their chain terms vanish. (Level 0 is pinned to {0} and
    always contributes unless the set is just {0}.)"""
    return next(ell for ell in itertools.count(1) if _level_size(ell, q) == q)


def _gamma_rates(q: int, n: int) -> tuple:
    """gamma's rate (2^{ell+3} + ell + 2) log(2) / n per level of a set of q rows; none for q = 1."""
    return () if q == 1 else tuple((2.0 ** (ell + 3) + ell + 2) * LOG2 / n for ell in range(_ell_top(q)))


def _epsilon_ells(q: int) -> list:
    """The ell whose epsilon term does not vanish for a set of q rows."""
    return [ell for ell in range(_ell_top(q)) if _level_size(ell, q) < q]


def _gamma_values(dist: np.ndarray, levels, coefficients) -> np.ndarray:
    """max over points x of sum_ell c_ell dist(x, level ell), for each
    candidate (with one level and c = 1, its covering radius): a level is a
    (candidates, size) index array, or one index sequence all candidates share."""
    total = np.zeros((dist.shape[0], 1))
    for lvl, c in zip(levels, coefficients):
        total = total + c * dist[:, np.atleast_2d(lvl)].min(axis=2)
    return total.max(axis=0)


def gamma_functional(deflated: DeflatedSet, family: FunctionFamily, n: int):
    """Generic-chaining gamma functional of the deflated set.

    gamma = inf over admissible nested sequences (A_0 = {0}, |A_ell| <=
    2^{2^ell}) of the worst-case weighted distance sum, with rates
    (2^{ell+3} + ell + 2) log(2) / n. The greedy levels are prefixes of one
    farthest-first traversal from row 0, the zero row; for sets of at most 8
    elements every admissible sequence is scored as well, in one reduction,
    and the first minimum replaces the greedy sequence when strictly smaller.
    Returns (value, certificate) where the certificate lists the realizing
    levels, their rates, and their weights.
    """
    check_int("n", n, 1)
    q = deflated.size
    if q == 1:
        return 0.0, {"levels": ((0,),), "rates": (), "weights": ()}
    ell_top = _ell_top(q)
    rates = _gamma_rates(q, n)
    weights = tuple(class_wr(family, rr) for rr in rates)
    coefficients = tuple(2.0 * w for w in weights)
    dist = deflated.dist

    order = _farthest_first(dist, [0], _level_size(ell_top - 1, q))
    best_levels = ((0,), *(tuple(order[: 2 ** (2**ell)]) for ell in range(1, ell_top)))
    best_val = float(_gamma_values(dist, best_levels, coefficients)[0])

    if q <= EXACT_GAMMA_LIMIT and ell_top == 2:
        # only the ell = 1 level is free: it contains 0, has 4 elements
        # (q > 4 here), and larger never hurts, so enumerate exactly
        cands = np.array([(0, *combo) for combo in itertools.combinations(range(1, q), 3)])
        vals = _gamma_values(dist, ((0,), cands), coefficients)
        best = int(np.argmin(vals))
        if vals[best] < best_val:
            best_val, best_levels = float(vals[best]), ((0,), tuple(cands[best].tolist()))

    return best_val, {"levels": best_levels, "rates": rates, "weights": weights}


@dataclass(frozen=True)
class ChainBoundReport:
    """Assembled uniform chain bound with its replayable certificate.

    total_rhs = gamma_value + 2 w_r epsilon_sum, and each member's threshold
    is w_shift ||f|| + total_rhs where w_shift = class_wr at rate r + k/n.
    The guarantee is 1 - 2 e^{-nr}. Fields are in the CLI's output order.
    """

    n: int
    r: float
    k: int
    deflated_size: int
    gamma_value: float
    epsilon_values: tuple
    epsilon_sum: float
    w_r: float
    w_shift: float
    total_rhs: float
    guarantee: float
    per_member: dict
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
    levels = gamma_functional(deflated, family, n)[1]["levels"]
    # a covering subset for every ell with a nonvanishing term
    subsets = tuple((ell, epsilon_ell(deflated, ell)[1]) for ell in _epsilon_ells(deflated.size))
    return _chain_report(family, deflated, plan, n, r, levels, subsets)


def _chain_report(family, deflated, plan, n, r, levels, subsets) -> ChainBoundReport:
    """The report that a plan's deflated set, gamma's levels and epsilon's
    subsets certify: every value, evaluated over those index sets, and the
    certificate with its derived entries (deflated rows, labels, member map,
    gamma's rates for (q, n) and weights). The one arithmetic of
    theorem_main_bound and of replay_certificate."""
    rates = _gamma_rates(deflated.size, n)
    weights = tuple(class_wr(family, rr) for rr in rates)
    gamma_value = float(_gamma_values(deflated.dist, levels, [2.0 * w for w in weights])[0])
    epsilon_values = tuple(float(_gamma_values(deflated.dist, (subset,), (1.0,))[0]) for _ell, subset in subsets)
    epsilon_sum = float(sum(epsilon_values))
    w_r, w_shift = class_wr(family, r), class_wr(family, r + plan.k / n)
    total_rhs = gamma_value + 2.0 * w_r * epsilon_sum
    return ChainBoundReport(
        n=n, r=float(r), k=int(plan.k), deflated_size=deflated.size, gamma_value=gamma_value,
        epsilon_values=epsilon_values, epsilon_sum=epsilon_sum, w_r=w_r, w_shift=w_shift, total_rhs=total_rhs,
        guarantee=1.0 - 2.0 * math.exp(-n * r),
        per_member={name: w_shift * float(family.member_norms[i]) + total_rhs for i, name in enumerate(family.names)},
        certificate={
            "deflated_labels": deflated.labels,
            "deflated_values": [list(map(float, row)) for row in deflated.values],
            "member_map": deflated.member_map,
            "gamma_levels": levels,
            "gamma_rates": rates,
            "gamma_weights": weights,
            "epsilon_subsets": subsets,
            "assignment": plan.assignment,
            "k": plan.k,
        },
    )


def replay_certificate(family: FunctionFamily, report: ChainBoundReport) -> ChainBoundReport:
    """The report that the certificate alone implies for this family.

    Rebuilds the deflated set from the stored assignment, checks it against
    the stored rows (ValueError if they differ, so the stored indices name
    the same rows) and that its sets are admissible (ValueError otherwise:
    gamma's levels nested from {0}, one per rate, an epsilon subset for each
    ell whose term does not vanish, each set at most 2^{2^ell} distinct row
    indices), and re-evaluates every value over those sets with the report's
    own arithmetic. The certificate is valid for the family exactly when the
    returned report equals the given one.
    """
    cert = report.certificate
    plan = DeflationPlan(tuple(cert["assignment"]), int(cert["k"]))
    deflated = deflate(family, plan)
    stored = np.array(cert["deflated_values"], dtype=float)
    if stored.shape != deflated.values.shape or not np.array_equal(stored, deflated.values):
        raise ValueError("certificate deflated values do not match the family and plan")
    q, levels, subsets = deflated.size, cert["gamma_levels"], cert["epsilon_subsets"]
    if (len(levels) != _ell_top(q) or tuple(levels[0]) != (0,) or [ell for ell, _ in subsets] != _epsilon_ells(q)
            or any(not set(low) <= set(high) for low, high in zip(levels, levels[1:]))
            or any(len(set(idx)) != len(idx) or len(idx) > _level_size(ell, q)
                   or not all(isinstance(i, (int, np.integer)) and 0 <= i < q for i in idx)
                   for ell, idx in [*enumerate(levels), *subsets])):
        raise ValueError("certificate gamma levels or epsilon subsets are not admissible for the deflated set")
    return _chain_report(family, deflated, plan, report.n, report.r, levels, subsets)


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
