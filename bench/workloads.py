"""Seeded inputs, job lists and output checks of the workloads and their parts.

Every input is a pure function of the workload seed, drawn with numpy's
PCG64 generator; Monte Carlo root seeds derive from the workload seed too.
tailbound only ever sees the generated files. Each job is one call of the
CLI entry point; its check compares the parsed output with a value from
reference.py or with a property the method must have, and returns the
problems it found.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

# A workload runs the jobs of its parts in one round. Two parts share a
# workload so that a run can last 60 s within the benchmark's time budget.
PARTS = {"chain-orlicz": ("chain-cgf", "orlicz"), "mc-gaussian": ("mc-verify", "gaussian")}
NAMES = tuple(PARTS)

REL_TOL = 1e-8  # T_r, w_r and CGF / Orlicz norms against their references
GAUSS_TOL = 1e-9  # gaussian-bound terms against the closed form
M_SLACK = 1e-8  # wr-exp M may exceed the Bernstein closed form by this share
MC_Z = 5.0  # chernoff rate within this many binomial standard errors

RADEMACHER = {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": [-1.0, 1.0]}}


@dataclass
class Job:
    name: str
    argv: object  # CLI arguments, or a function of the round's earlier parsed outputs
    kind: str  # "bound" (deterministic, counts toward bound_s) or "mc"
    check: Callable  # (parsed output, all parsed outputs of the round) -> list of problems
    known_fault: bool = False  # fails every time on a fault named in CHANGES.md
    output: str = ""  # the --output path, set by the runner


@dataclass
class Inputs:
    files: dict  # file name -> JSON object written into the work directory
    meta: dict = field(default_factory=dict)  # what the checks need beyond the files


def mc_seed(seed: int, index: int) -> int:
    """Root seed of the index-th Monte Carlo job of a workload run."""
    return (seed * 1_000_003 + index) % (1 << 63)


# --- input generation -------------------------------------------------------


def synthetic_family(rng, members: int, support: int, scales, step: float, noise: float) -> dict:
    """Centered family on a uniform support: the zero member plus one cluster
    per scale. A cluster's base is a random balanced +-1 pattern times its
    scale; member j is the base times (1 + step j) plus Gaussian jitter of
    noise * scale, re-centered. Clusters at mixed scales give deflation
    near anchors to subtract, while the jitter keeps every member and
    difference distinct."""
    pattern = np.array([1.0] * (support // 2) + [-1.0] * (support - support // 2))
    funcs = {"zero": [0.0] * support}
    rest = members - 1
    for c, scale in enumerate(scales):
        base = rng.permutation(pattern) * scale
        for j in range(rest // len(scales) + (c < rest % len(scales))):
            v = base * (1.0 + step * j) + noise * scale * rng.standard_normal(support)
            funcs[f"c{c}m{j}"] = (v - v.mean()).tolist()
    return {
        "support": [[float(i)] for i in range(support)],
        "probabilities": [1.0 / support] * support,
        "functions": funcs,
    }


def gaussian_model(rng, dim: int):
    """Dense covariance Q diag(i^-2) Q' with a seeded orthogonal Q,
    symmetrised; returns (covariance, spectrum, Q)."""
    q, upper = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(upper))
    spectrum = np.arange(1, dim + 1, dtype=float) ** -2.0
    cov = (q * spectrum) @ q.T
    return (cov + cov.T) / 2.0, spectrum, q


def _generate_part(part: str, rng):
    """(files, meta) of one part of a workload."""
    if part == "chain-cgf":
        return {"family.json": synthetic_family(rng, 14, 12, (0.25, 1.0, 4.0), 0.15, 0.02)}, {}
    if part == "orlicz":
        return {"family.json": synthetic_family(rng, 10, 8, (0.5, 2.0), 0.15, 0.02), "rademacher.json": RADEMACHER}, {}
    if part == "mc-verify":
        return {"family.json": synthetic_family(rng, 12, 6, (0.25, 5.0), 0.1, 0.02), "rademacher.json": RADEMACHER}, {}
    cov, spectrum, q = gaussian_model(rng, GAUSS_DIM)
    u_rand = rng.standard_normal(GAUSS_DIM)
    directions = {"top": q[:, 0], "random": u_rand / np.linalg.norm(u_rand)}
    files = {"model.json": {"covariance": cov.tolist()}}
    files.update({f"u-{name}.json": u.tolist() for name, u in directions.items()})
    return files, {"spectrum": spectrum, "basis": q, "directions": directions}


def generate(workload: str, seed: int) -> Inputs:
    """All inputs of a workload; file names carry their part as a prefix."""
    if workload not in PARTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    inputs = Inputs({})
    for part in PARTS[workload]:
        files, meta = _generate_part(part, rng)
        inputs.files.update({f"{part}-{name}": obj for name, obj in files.items()})
        inputs.meta.update(meta)
    return inputs


def write_inputs(inputs: Inputs, workdir: str) -> None:
    for name, obj in inputs.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


# --- checks -----------------------------------------------------------------


def _close(label: str, got: float, want: float, tol: float) -> list:
    if abs(got - want) <= tol * max(abs(want), 1e-300):
        return []
    return [f"{label}: got {got!r}, reference {want!r} (relative tolerance {tol})"]


class FamilyReference:
    """Reference norms and class coefficients of one generated family, under
    the CGF norm or an Orlicz generator, memoised across checks."""

    def __init__(self, fam: dict, norm: dict | None = None):
        self.names = list(fam["functions"])
        self.values = np.array([fam["functions"][n] for n in self.names])
        self.probs = np.array(fam["probabilities"])
        self.norm = norm
        self._norms = {}
        self._w = {}

    def norm_of(self, i: int, j: int | None = None) -> float:
        key = (i, j)
        if key not in self._norms:
            h = self.values[i] if j is None else self.values[i] - self.values[j]
            if self.norm is None:
                self._norms[key] = ref.cgf_norm(h, self.probs)
            else:
                self._norms[key] = ref.orlicz_norm(h, self.probs, self.norm["kind"], self.norm.get("L"))
        return self._norms[key]

    def class_w(self, r: float) -> float:
        if r not in self._w:
            best = 0.0
            m = len(self.names)
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    d = self.norm_of(min(i, j), max(i, j))
                    if d > 1e-12:
                        best = max(best, ref.rate_T((self.values[i] - self.values[j]) / d, self.probs, r))
            self._w[r] = best
        return self._w[r]


def check_class_wr(fref: FamilyReference, r: float):
    return lambda out, _outputs: _close("w_r", out["value"], fref.class_w(r), REL_TOL)


def check_chain_report(fref: FamilyReference, rep: dict) -> list:
    """Plan properties and the per-member thresholds of a chain-bound report."""
    problems = []
    k = rep["k"]
    assignment = rep["certificate"]["assignment"]
    anchors = set(assignment)
    if len(anchors) > math.floor(math.exp(k)):
        problems.append(f"plan uses {len(anchors)} anchors, more than e^{k}")
    for i, a in enumerate(assignment):
        if fref.norm_of(a) > fref.norm_of(i) * (1.0 + REL_TOL) + 1e-12:
            problems.append(f"anchor of {fref.names[i]} has a larger norm than the member")
    w_r = fref.class_w(rep["r"])
    w_shift = fref.class_w(rep["r"] + k / rep["n"])
    problems += _close("w_r", rep["w_r"], w_r, REL_TOL)
    problems += _close("w_shift", rep["w_shift"], w_shift, REL_TOL)
    problems += _close("total_rhs", rep["total_rhs"], rep["gamma_value"] + 2.0 * rep["w_r"] * rep["epsilon_sum"], 1e-12)
    for i, name in enumerate(fref.names):
        want = w_shift * fref.norm_of(i) + rep["total_rhs"]
        problems += _close(f"threshold of {name}", rep["per_member"][name], want, REL_TOL)
    return problems


def check_optimize(fref: FamilyReference, k_candidates):
    def check(out, _outputs):
        problems = check_chain_report(fref, out["report"])
        objectives = {e["k"]: e["objective"] for e in out["evaluations"]}
        if sorted(objectives) != sorted(k_candidates):
            problems.append(f"optimize evaluated k {sorted(objectives)}, asked {sorted(k_candidates)}")
        best = min(k_candidates, key=lambda k: (objectives.get(k, math.inf), k))
        if out["best_k"] != best or out["report"]["k"] != best:
            problems.append(f"optimize chose k={out['best_k']}, the smallest objective is at k={best}")
        return problems

    return check


def check_passed(out, _outputs=None) -> list:
    reports = out if isinstance(out, list) else [out]
    return [f"{r['target']} n={r['n']} k={r['k']}: pass is false" for r in reports if not r["pass"]]


def check_positive(out, _outputs) -> list:
    v = out["value"]
    return [] if math.isfinite(v) and v > 0.0 else [f"{out['op']} value {v!r} is not finite and positive"]


def check_chernoff(n: int, r: float):
    t = ref.rademacher_T(r)
    p = ref.binomial_upper_tail(n, n * (1.0 + t) / 2.0)

    def check(out, _outputs):
        problems = check_passed(out)
        se = math.sqrt(p * (1.0 - p) / out["trials"])
        if abs(out["rate"] - p) > MC_Z * se:
            problems.append(f"chernoff rate {out['rate']!r} is more than {MC_Z} standard errors from {p!r}")
        return problems

    return check


def check_orlicz_norm(kind: str, L):
    want = ref.rademacher_orlicz_norm(kind, L)

    def check(out, _outputs):
        got = out["value"]
        if not (want <= got <= want * (1.0 + 1e-9)):
            return [f"got {got!r}, reference {want!r}, must lie in [ref, ref (1 + 1e-9)]"]
        return []

    return check


def check_wr_exp(kind: str, L):
    """M against its closed form (sub-Gaussian 1/4, Bernstein 1/(4L^2 +
    3 sqrt(2 pi) L + 4)), and the lemma ordering wr-quad <= wr-exp."""

    def check(out, outputs):
        problems = []
        if kind in ("sub-gaussian", "bernstein"):
            want = 0.25 if kind == "sub-gaussian" else ref.bernstein_conversion_factor(L)
            if out["M"] > want * (1.0 + M_SLACK):
                problems.append(f"M {out['M']!r} exceeds the closed form {want!r} by more than {M_SLACK:g}")
            problems += _close("M", out["M"], want, 1e-6)
        quad = outputs.get(f"wr-quad {kind} L={L}")
        if quad is not None and quad["value"] > out["value"]:
            problems.append(f"wr-quad {quad['value']!r} exceeds wr-exp {out['value']!r}")
        return problems

    return check


def check_gaussian_bound(meta: dict, direction: str, k: int, n: int, r: float):
    terms = ref.gaussian_terms(meta["spectrum"], meta["basis"], meta["directions"][direction], k, n, r)

    def check(out, _outputs):
        problems = []
        for name, want in terms.items():
            problems += _close(name, out[name], want, GAUSS_TOL)
        problems += _close("total", out["total"], sum(out[t] for t in terms), 1e-12)
        return problems

    return check


# --- job lists ----------------------------------------------------------------

CHAIN_R = 0.05
CHAIN_N = 200
K_CANDIDATES = (0, 1, 2, 3)
CLASS_RATES = (0.5, 5.0)  # interior and at-infinity branches of T_r
BERNSTEIN = {"kind": "bernstein", "L": 1.0}
BENNETT = {"kind": "bennett", "L": 1.0}
GENERATORS = (
    ("sub-gaussian", None),
    ("sub-exponential", None),
    ("bernstein", 0.1),
    ("bernstein", 1.0),
    ("bernstein", 10.0),
    ("bennett", 1.0),
)
GAUSS_DIM = 100
GAUSS_N = 100
GAUSS_R = 0.02
GAUSS_BOUNDS = (("top", 5), ("top", 20), ("random", 10))


def _gen_json(kind, L) -> str:
    return json.dumps({"kind": kind} if L is None else {"kind": kind, "L": L})


def _part_jobs(part: str, seed: int, first_mc: int, inputs: Inputs, path) -> list:
    """The jobs of one part; path(name) locates the part's input files and
    Monte Carlo root seeds start at index first_mc."""
    fam = inputs.files.get(f"{part}-family.json")
    mc_seed_of = lambda j: str(mc_seed(seed, first_mc + j))
    js = []
    if part == "chain-cgf":
        fref = FamilyReference(fam)
        ks = ",".join(map(str, K_CANDIDATES))
        js.append(Job("optimize", ["optimize", "--family", path("family.json"), "--n", str(CHAIN_N),
                                    "--r", str(CHAIN_R), "--k-candidates", ks], "bound", check_optimize(fref, K_CANDIDATES)))
        for r in CLASS_RATES:
            js.append(Job(f"class-wr r={r}", ["class-wr", "--family", path("family.json"), "--r", str(r)],
                           "bound", check_class_wr(fref, r)))
        verify = ["verify", "--target", "theorem-main", "--family", path("family.json"), "--n", str(CHAIN_N),
                  "--r", str(CHAIN_R), "--trials", "4000", "--seed", mc_seed_of(0)]
        # at the k the optimize job of the same round chose
        js.append(Job("verify theorem-main", lambda parsed: verify + ["--k", str(parsed["optimize"]["best_k"])],
                       "mc", check_passed))
    elif part == "orlicz":
        bern = FamilyReference(fam, BERNSTEIN)
        benn = FamilyReference(fam, BENNETT)
        for r in (0.05, 3.0):
            js.append(Job(f"class-wr bernstein r={r}", ["class-wr", "--family", path("family.json"), "--r", str(r),
                                                         "--norm", json.dumps(BERNSTEIN)], "bound", check_class_wr(bern, r)))
        js.append(Job("chain-bound bennett", ["chain-bound", "--family", path("family.json"), "--k", "1",
                                               "--n", str(CHAIN_N), "--r", str(CHAIN_R), "--norm", json.dumps(BENNETT)],
                       "bound", lambda out, _outputs: check_chain_report(benn, out)))
        for kind, L in (("sub-gaussian", None), ("bernstein", 1.0), ("bernstein", 10.0)):
            js.append(Job(f"orlicz-norm {kind} L={L}", ["orlicz-norm", "--dist", path("rademacher.json"), "--f", "f",
                                                         "--gen", _gen_json(kind, L)], "bound", check_orlicz_norm(kind, L)))
        for kind, L in GENERATORS:
            js.append(Job(f"wr-quad {kind} L={L}", ["wr-quad", "--gen", _gen_json(kind, L), "--r", "1.0"], "bound",
                           check_positive))
            if kind == "sub-exponential":
                continue  # its conversion factor M is 0, so wr-exp has no bound to give
            js.append(Job(f"wr-exp {kind} L={L}", ["wr-exp", "--gen", _gen_json(kind, L), "--r", "1.0"], "bound",
                           check_wr_exp(kind, L), known_fault=(kind, L) == ("bernstein", 10.0)))
        js.append(Job("verify theorem-main bernstein", ["verify", "--target", "theorem-main", "--family", path("family.json"),
                                                         "--norm", json.dumps(BERNSTEIN), "--n", str(CHAIN_N), "--r", str(CHAIN_R),
                                                         "--k", "1", "--trials", "4000", "--seed", mc_seed_of(0)],
                       "mc", check_passed))
    elif part == "mc-verify":
        fref = FamilyReference(fam)
        js.append(Job("sweep theorem-main", ["sweep", "--target", "theorem-main", "--family", path("family.json"),
                                              "--n", "200", "--r", str(CHAIN_R), "--trials", "4000",
                                              "--seed", mc_seed_of(0), "--n-grid", "50,200,800", "--k-grid", "0,2,3"],
                       "mc", check_passed))
        js.append(Job("verify chernoff", ["verify", "--target", "chernoff", "--dist", path("rademacher.json"), "--f", "f",
                                           "--n", "50", "--r", str(CHAIN_R), "--trials", "200000",
                                           "--seed", mc_seed_of(1)], "mc", check_chernoff(50, CHAIN_R)))
        js.append(Job("verify corollary", ["verify", "--target", "corollary", "--family", path("family.json"),
                                            "--n", "200", "--r", str(CHAIN_R), "--trials", "20000",
                                            "--seed", mc_seed_of(2)], "mc", check_passed))
        js.append(Job("chain-bound", ["chain-bound", "--family", path("family.json"), "--k", "2", "--n", str(CHAIN_N),
                                       "--r", str(CHAIN_R)], "bound", lambda out, _outputs: check_chain_report(fref, out)))
        js.append(Job(f"class-wr r={CHAIN_R}", ["class-wr", "--family", path("family.json"), "--r", str(CHAIN_R)],
                      "bound", check_class_wr(fref, CHAIN_R)))
        js.append(Job("trf", ["trf", "--dist", path("rademacher.json"), "--f", "f", "--r", str(CHAIN_R)], "bound",
                      lambda out, _outputs: _close("T_r", out["value"], ref.rademacher_T(CHAIN_R), REL_TOL)))
    elif part == "gaussian":
        for direction, k in GAUSS_BOUNDS:
            js.append(Job(f"gaussian-bound {direction} k={k}",
                           ["gaussian-bound", "--model", path("model.json"), "--u", path(f"u-{direction}.json"),
                            "--k", str(k), "--n", str(GAUSS_N), "--r", str(GAUSS_R)],
                           "bound", check_gaussian_bound(inputs.meta, direction, k, GAUSS_N, GAUSS_R)))
        js.append(Job("verify gaussian", ["verify", "--target", "gaussian", "--model", path("model.json"),
                                           "--n", str(GAUSS_N), "--r", str(GAUSS_R), "--k", "10", "--mesh", "1000",
                                           "--trials", "20000", "--seed", mc_seed_of(0)], "mc", check_passed))
    return js


def jobs(workload: str, seed: int, inputs: Inputs, workdir: str) -> list:
    """The workload's jobs in run order; every round runs all of them."""
    js = []
    for k, part in enumerate(PARTS[workload]):
        js += _part_jobs(part, seed, 10 * k, inputs, lambda name, part=part: os.path.join(workdir, f"{part}-{name}"))
    return js


def certified_bound(workload: str, outputs: dict) -> float:
    """The largest certified threshold of the workload's headline bound job."""
    headline = outputs["optimize"]["report"] if workload == "chain-orlicz" else outputs["chain-bound"]
    return max(headline["per_member"].values())
