"""Command-line interface: every operation behind one `tailbound` entry point.

Exit codes: 0 on success, 2 on input validation failure (the message names
the violated precondition; NaN or infinite --r, --M and --r-grid values
included), 1 on internal numeric failure such as a search grid with no
finite objective value, or on memory exhaustion. All floats are printed
with their shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .cgf import TabulatedFunction, rate_bound_T
from .chaining import build_deflation, class_wr, optimize_deflation, theorem_main_bound
from .gaussian import LinearFunctional, gaussian_instance_bound
from .jsonio import (
    dump_csv,
    dump_json,
    load_distribution,
    load_family,
    load_generator,
    load_json,
    load_model,
    load_vector,
    parse_inline_or_path,
)
from .numerics import NumericError
from .orlicz import conversion_factor_M, orlicz_norm, wr_exponential_type, wr_quadrature_bound
from .verify import TARGETS, TrialPlan, run_trials, sweep


def _dist_function(args):
    """The distribution of --dist and its function named by --f."""
    dist, functions = load_distribution(load_json(args.dist))
    if args.f not in functions:
        raise ValueError(f"function {args.f!r} not found in fixture")
    return dist, functions[args.f]


def _norm_context(args):
    if getattr(args, "norm", None) in (None, "cgf"):
        return "cgf"
    return load_generator(parse_inline_or_path(args.norm))


def _ints(text: str):
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _finite(text: str) -> float:
    """argparse type of --r, --M and the --r-grid entries: NaN and +-inf are
    input faults, rejected with exit code 2 before any computation."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finites(text: str):
    return [_finite(tok) for tok in text.split(",") if tok.strip() != ""]


def _cmd_trf(args):
    dist, values = _dist_function(args)
    value = rate_bound_T(dist, values, args.r)
    row = {"op": "trf", "function": args.f, "r": args.r, "value": value}
    return row, [row]


def _cmd_class_wr(args):
    family = load_family(load_json(args.family), _norm_context(args))
    value = class_wr(family, args.r)
    row = {"op": "class-wr", "r": args.r, "value": value}
    return row, [row]


def _cmd_orlicz_norm(args):
    dist, values = _dist_function(args)
    gen = load_generator(parse_inline_or_path(args.gen))
    value = orlicz_norm(dist, TabulatedFunction(values), gen)
    row = {"op": "orlicz-norm", "function": args.f, "kind": gen.kind, "value": value}
    return row, [row]


def _cmd_wr_quad(args):
    gen = load_generator(parse_inline_or_path(args.gen))
    value = wr_quadrature_bound(gen, args.r)
    row = {"op": "wr-quad", "kind": gen.kind, "r": args.r, "value": value}
    return row, [row]


def _cmd_wr_exp(args):
    gen = load_generator(parse_inline_or_path(args.gen))
    M = args.M if args.M is not None else conversion_factor_M(gen)
    if args.M is None and M <= 0.0:
        raise ValueError(f"the {gen.kind} generator's conversion factor M is 0, so wr-exp has no bound for it")
    value = wr_exponential_type(gen, M, args.r)
    row = {"op": "wr-exp", "kind": gen.kind, "r": args.r, "M": M, "value": value}
    return row, [row]


def _cmd_gaussian_bound(args):
    model = load_model(load_json(args.model))
    if (args.u is None) == (args.basis is None):
        raise ValueError("exactly one of --u and --basis is required")
    if args.u is not None:
        u = load_vector(parse_inline_or_path(args.u))
    else:
        if not (0 <= args.basis < model.dim):
            raise ValueError("--basis index out of range")
        u = np.zeros(model.dim)
        u[args.basis] = 1.0
    report = gaussian_instance_bound(
        model, LinearFunctional(u), args.k, args.n, args.r, loose_projected=args.loose_projected
    )
    row = {"op": "gaussian-bound", **report.as_dict()}
    return row, [row]


CHAIN_FIELDS = ("n", "r", "k", "deflated_size", "gamma_value", "epsilon_values", "epsilon_sum", "w_r",
                "w_shift", "total_rhs", "guarantee", "per_member", "certificate")


def _chain_payload(report):
    payload = {"op": "chain-bound", **{name: getattr(report, name) for name in CHAIN_FIELDS}}
    row = {k: v for k, v in payload.items() if k not in ("op", "epsilon_values", "per_member", "certificate")}
    row.update({f"threshold_{name}": thr for name, thr in report.per_member.items()})
    return payload, [row]


def _cmd_chain_bound(args):
    family = load_family(load_json(args.family), _norm_context(args))
    plan = build_deflation(family, args.k)
    report = theorem_main_bound(family, plan, args.n, args.r)
    return _chain_payload(report)


def _cmd_optimize(args):
    family = load_family(load_json(args.family), _norm_context(args))
    result = optimize_deflation(family, args.n, args.r, _ints(args.k_candidates))
    report_payload, _rows = _chain_payload(result.report)
    payload = {
        "op": "optimize",
        "best_k": result.plan.k,
        "objective": result.objective,
        "evaluations": [{"k": k, "objective": obj} for k, obj in result.evaluations],
        "report": report_payload,
    }
    rows = [
        {"k": k, "objective": obj, "selected": k == result.plan.k}
        for k, obj in result.evaluations
    ]
    return payload, rows


def _plan_from_args(args) -> TrialPlan:
    kwargs = dict(
        target=args.target,
        n=args.n,
        r=args.r,
        trials=args.trials,
        root_seed=args.seed,
        k=args.k,
        mesh=args.mesh,
    )
    if args.target == "chernoff":
        if args.dist is None or args.f is None:
            raise ValueError("chernoff target requires --dist and --f")
        kwargs["distribution"], kwargs["function_values"] = _dist_function(args)
    elif args.target in ("corollary", "theorem-main"):
        if args.family is None:
            raise ValueError(f"{args.target} target requires --family")
        kwargs["family"] = load_family(load_json(args.family), _norm_context(args))
    elif args.target == "gaussian":
        if args.model is None:
            raise ValueError("gaussian target requires --model")
        kwargs["model"] = load_model(load_json(args.model))
    return TrialPlan(**kwargs)


def _cmd_verify(args):
    report = run_trials(_plan_from_args(args))
    return report.as_dict(), [report.as_dict()]


def _cmd_sweep(args):
    plan = _plan_from_args(args)
    reports = sweep(
        plan,
        n_values=_ints(args.n_grid) if args.n_grid is not None else None,
        r_values=args.r_grid,
        k_values=_ints(args.k_grid) if args.k_grid is not None else None,
    )
    rows = [rep.as_dict() for rep in reports]
    return rows, rows


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default=None, help="write result to this path instead of stdout")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbound",
        description="Instance-dependent uniform tail bounds: rate functions, "
        "Orlicz coefficients, Gaussian rank-k bounds, deflated chaining, and "
        "Monte Carlo verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("trf", help="rate function T_r of a tabulated function")
    p.add_argument("--dist", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--r", type=_finite, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_trf)

    p = subs.add_parser("class-wr", help="class coefficient w_r of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--norm", default=None, help="generator JSON for an Orlicz norm context")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_class_wr)

    p = subs.add_parser("orlicz-norm", help="Orlicz norm of a tabulated function")
    p.add_argument("--dist", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--gen", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_orlicz_norm)

    p = subs.add_parser("wr-quad", help="quadrature coefficient bound for a generator")
    p.add_argument("--gen", required=True)
    p.add_argument("--r", type=_finite, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_wr_quad)

    p = subs.add_parser("wr-exp", help="closed-form coefficient bound for exponential-type generators")
    p.add_argument("--gen", required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--M", type=_finite, default=None, help="conversion factor; computed when omitted")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_wr_exp)

    p = subs.add_parser("gaussian-bound", help="rank-k instance bound for a linear functional")
    p.add_argument("--model", required=True)
    p.add_argument("--u", default=None, help="coefficient vector (inline JSON or path)")
    p.add_argument("--basis", type=int, default=None, help="standard basis index (0-based)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--loose-projected", action="store_true")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_gaussian_bound)

    p = subs.add_parser("chain-bound", help="deflated chaining bound for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--norm", default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_chain_bound)

    p = subs.add_parser("optimize", help="pick the best deflation size from candidates")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--k-candidates", required=True, help="comma-separated candidate k values")
    p.add_argument("--norm", default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_optimize)

    for name, handler in (("verify", _cmd_verify), ("sweep", _cmd_sweep)):
        p = subs.add_parser(name, help=f"Monte Carlo {name} of a probabilistic guarantee")
        p.add_argument("--target", required=True, choices=TARGETS)
        p.add_argument("--dist", default=None)
        p.add_argument("--f", default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--model", default=None)
        p.add_argument("--norm", default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_finite, required=True)
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--mesh", type=int, default=1000)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        if name == "sweep":
            p.add_argument("--n-grid", default=None)
            p.add_argument("--r-grid", type=_finites, default=None)
            p.add_argument("--k-grid", default=None)
        _add_output_flags(p)
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, rows = args.handler(args)
        text = dump_json(payload) if args.format == "json" else dump_csv(rows)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
