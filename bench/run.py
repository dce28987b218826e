"""tailbound benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat 10 [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. A run times set-up in separate processes,
then runs the workload's jobs in rounds, in this process, through the CLI
entry point `tailbound.cli.main(argv)` with `--output` to a file. It starts
rounds while one more fits in --seconds, checks every output of the first
round against bench/reference.py and requires later rounds to repeat it byte
for byte, prints each metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 rounds alternate untraced and traced and
the metrics are per layer, from the traced rounds, plus the tracing overhead.

--repeat N runs each workload N times, with seeds N consecutive from --seed,
each in a process of its own, and prints the median and quartiles of every
metric (the statistic BENCHMARK.json's bounds are set from).
"""

import os

# One thread everywhere, before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TAILBOUND_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

SETUP_SAMPLES = 7
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def import_tailbound():
    """Import tailbound from this checkout's src/, never from elsewhere."""
    try:
        import tailbound
        import tailbound.cli
    except ImportError as exc:
        raise BenchError(f"cannot import tailbound from {SRC}: {exc}") from None
    origin = os.path.dirname(os.path.abspath(tailbound.__file__))
    if os.path.dirname(origin) != SRC:
        raise BenchError(f"tailbound was imported from {origin}, not from {SRC}")
    return tailbound


# --- set-up -------------------------------------------------------------------


def setup_child(workload: str, seed: int, workdir: str) -> None:
    """What setup_s times: import tailbound, generate and write the inputs."""
    import_tailbound()
    import workloads

    workloads.write_inputs(workloads.generate(workload, seed), workdir)


def timed_setup(workload: str, seed: int, workdir: str) -> list:
    """Wall times of SETUP_SAMPLES fresh set-up processes, interpreter start-up
    included; the last one leaves the inputs the jobs read."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed with exit code {proc.returncode}: {proc.stderr.strip()}")
    return times


# --- rounds -------------------------------------------------------------------


def run_round(cli, jobs: list, tracer=None) -> dict:
    """Run every job once, back to back; time each CLI call and keep its
    exit code and output text."""
    rec = {"wall": 0.0, "bound": 0.0, "mc": 0.0, "trials": 0, "time": {}, "rc": {}, "text": {}, "stderr": {}}
    parsed = {}
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            argv = (job.argv(parsed) if callable(job.argv) else job.argv) + ["--output", job.output]
            if tracer is not None:
                tracer.begin_job()
            err = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)  # looked up per call, so a traced round sees the wrapper
            dt = time.perf_counter() - t0
            rec["wall"] += dt
            rec[job.kind] += dt
            rec["time"][job.name] = dt
            rec["rc"][job.name] = rc
            rec["stderr"][job.name] = err.getvalue()
            text = ""
            if rc == 0:
                with open(job.output, encoding="utf-8") as fh:
                    text = fh.read()
                parsed[job.name] = json.loads(text)
                if job.kind == "mc":
                    reports = parsed[job.name]
                    reports = reports if isinstance(reports, list) else [reports]
                    rec["trials"] += sum(r["trials"] for r in reports)
            rec["text"][job.name] = text
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["elapsed"] = time.perf_counter() - start
    rec["parsed"] = parsed
    return rec


def run_rounds(cli, jobs: list, seconds: float, tracer=None) -> list:
    """Whole rounds while the next one is expected to end within `seconds`;
    with a tracer, rounds alternate untraced and traced, at least one each."""
    rounds = []
    window = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
        rec = run_round(cli, jobs, tracer if traced else None)
        rec["traced"] = traced
        if traced:
            rec["trace"] = tracer.dump()
            rec["layers"] = layer_metrics(tracer)
        rounds.append(rec)
        elapsed = time.perf_counter() - window
        typical = statistics.median(r["elapsed"] for r in rounds)
        minimum = 2 if tracer is not None else 1
        if len(rounds) >= minimum and elapsed + typical > seconds:
            return rounds


# --- checks -------------------------------------------------------------------


def check_rounds(jobs: list, rounds: list):
    """(correct, attempted, failed, problems). The first round's outputs are
    checked against the references; later rounds must repeat them exactly."""
    first = rounds[0]
    verdict = {}
    problems = []
    for job in jobs:
        rc = first["rc"][job.name]
        if rc != 0:
            found = [f"exit code {rc}: {first['stderr'][job.name].strip()}"]
        else:
            found = job.check(first["parsed"][job.name], first["parsed"])
        verdict[job.name] = found
        problems += [f"{job.name}: {p}" for p in found]
    failed = 0
    correct = True
    for rec in rounds:
        for job in jobs:
            bad = bool(verdict[job.name])
            if rec["rc"][job.name] != first["rc"][job.name] or rec["text"][job.name] != first["text"][job.name]:
                problems.append(f"{job.name}: output differs between rounds")
                bad = True
                correct = False
            if bad:
                failed += 1
                if not job.known_fault:
                    correct = False
    return correct, len(rounds) * len(jobs), failed, problems


# --- metrics ------------------------------------------------------------------

LAYER_SELF = {  # metric -> span names whose self times it sums
    "cgf.rate_bound_T.s": ("cgf.rate_bound_T",),
    "chaining.family_build.s": ("chaining.family_build",),
    "chaining.cgf_functional_norm.s": ("chaining.cgf_functional_norm",),
    "chaining.deflate.s": ("chaining.deflate",),
    "chaining.class_wr.s": ("chaining.class_wr",),
    "chaining.gamma_functional.s": ("chaining.gamma_functional",),
    "chaining.epsilon_ell.s": ("chaining.epsilon_ell",),
    "chaining.extremal_difference.s": ("chaining.extremal_difference",),
    "chaining.theorem_main_bound.s": ("chaining.theorem_main_bound",),
    "chaining.optimize_deflation.s": ("chaining.optimize_deflation",),
    "orlicz.orlicz_norm.s": ("orlicz.orlicz_norm",),
    "orlicz.wr_quadrature_bound.s": ("orlicz.wr_quadrature_bound",),
    "orlicz.conversion_factor_M.s": ("orlicz.conversion_factor_M",),
    "gaussian.jacobi_eigh.s": ("gaussian.jacobi_eigh",),
    "gaussian.model_build.s": ("gaussian.model_build",),
    "gaussian.instance_bound.s": ("gaussian.gaussian_instance_bound",),
    "verify.run_trials.s": ("verify.run_trials",),
    "rng.uniforms.s": ("rng.uniforms",),
    "rng.normals.s": ("rng.normals",),
    "rng.substream_seed.s": ("rng.substream_seed",),
    "cli.main.s": ("cli.main",),
    "jsonio.load.s": ("jsonio.load_json", "jsonio.parse_inline_or_path", "jsonio.load_distribution",
                      "jsonio.load_generator", "jsonio.load_family", "jsonio.load_model"),
    "jsonio.dump.s": ("jsonio.dump_json", "jsonio.dump_csv"),
}
LAYER_CALLS = {  # metric -> span name counted
    "cgf.rate_bound_T.calls": "cgf.rate_bound_T",
    "chaining.cgf_functional_norm.calls": "chaining.cgf_functional_norm",
    "chaining.class_wr.calls": "chaining.class_wr",
    "orlicz.orlicz_norm.calls": "orlicz.orlicz_norm",
    "gaussian.jacobi_eigh.calls": "gaussian.jacobi_eigh",
    "gaussian.instance_bound.calls": "gaussian.gaussian_instance_bound",
}
LAYER_COUNTS = (  # counters the tracer keeps
    "cgf.oracle_evals",
    "numerics.minimize_positive.calls",
    "numerics.golden_section_min.calls",
    "numerics.logsumexp.calls",
    "numerics.adaptive_simpson.calls",
    "numerics.integrand_evals",
    "chaining.class_wr.distinct_r",
    "verify.trials",
    "rng.draws",
    "jsonio.output_bytes",
)
UNITS = {"s": "s", "distinct_share": "ratio", "output_bytes": "bytes", "overhead_pct": "%"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "count")


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced round."""
    selfs = tracer.self_times()
    calls = tracer.span_counts()
    out = {m: sum(selfs.get(n, 0.0) for n in names) for m, names in LAYER_SELF.items()}
    out.update({m: calls.get(n, 0) for m, n in LAYER_CALLS.items()})
    out.update({m: tracer.counts.get(m, 0) for m in LAYER_COUNTS})
    norm_calls = calls.get("chaining.cgf_functional_norm", 0)
    out["chaining.norm.distinct_share"] = tracer.counts.get("chaining.norm.distinct", 0) / norm_calls if norm_calls else 0.0
    return out


def end_to_end_metrics(rounds: list, setup_times: list, certified: float, peak_rss_mb: float) -> dict:
    """Round times are averaged over all rounds of the run. On a shared
    machine whose speed drifts by tens of percent, no other statistic of the
    rounds (median, fastest round, sum of per-job fastest times) spread
    consistently less across runs."""
    total = lambda key: sum(r[key] for r in rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": total("wall") / len(rounds),
        "bound_s": total("bound") / len(rounds),
        "trials_per_s": total("trials") / total("mc"),
        "peak_rss_mb": peak_rss_mb,
        "certified_bound": certified,
    }
    units = {"setup_s": "s", "wall_s": "s", "bound_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB",
             "certified_bound": "value"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer_metrics(rounds: list) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit_of(name)}
    overhead = statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain) - 1.0
    out["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return out


# --- one run ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    if workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(workloads.NAMES)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-{seed}-", dir=OUT)
    try:
        setup_times = timed_setup(workload, seed, workdir)
        tailbound = import_tailbound()
        inputs = workloads.generate(workload, seed)
        jobs = workloads.jobs(workload, seed, inputs, workdir)
        for i, job in enumerate(jobs):
            job.output = os.path.join(workdir, f"out-{i}.json")
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
        rounds = run_rounds(tailbound.cli, jobs, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, attempted, failed, problems = check_rounds(jobs, rounds)
        if trace:
            metrics = per_layer_metrics(rounds)
            with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "seed": seed,
                           "rounds": [r["trace"] for r in rounds if r["traced"]]}, fh)
        else:
            certified = workloads.certified_bound(workload, rounds[0]["parsed"])
            metrics = end_to_end_metrics(rounds, setup_times, certified, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    keep = ("wall", "bound", "mc", "trials", "elapsed", "traced", "time")
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "setup_s": setup_times,
                   "rounds": [{k: r[k] for k in keep} for r in rounds], "problems": problems, "result": result}, fh, indent=1)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {workload} seed {seed}: {len(rounds)} rounds of {len(jobs)} jobs")
    print("round wall_s " + " ".join(f"{r['wall']:.3f}{'*' if r['traced'] else ''}" for r in rounds))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return result


# --- repeat mode ----------------------------------------------------------------


def quartiles(values: list):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload_names, count: int, seed: int, seconds: float, trace: bool) -> int:
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh).get("end_to_end", [])}
    summary = {}
    status = 0
    for workload in workload_names:
        results = []
        for i in range(count):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed + i),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed + i}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {}
        print(f"\n{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, failed share {shares}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            note = f"  bound {bounds[name]:.3f}" if name in bounds else ""
            print(f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{note}")
        summary[workload] = {"failed_shares": shares, "metrics": rows}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"count": count, "seed": seed, "seconds": seconds, "trace": trace, "workloads": summary}, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run each workload this many times")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            setup_child(args.workload, args.seed, args.workdir)
            return 0
        if args.repeat:
            import workloads

            names = [args.workload] if args.workload else list(workloads.NAMES)
            return repeat(names, args.repeat, args.seed, args.seconds, bool(args.trace))
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
