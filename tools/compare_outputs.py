"""Compare the CLI outputs of two source trees on the benchmark's jobs.

    python3 tools/compare_outputs.py dump --src DIR --out FILE
    python3 tools/compare_outputs.py diff A B

`dump` runs the jobs of both benchmark workloads, seeds 1-3, as this
checkout's bench/workloads.py (only imported) defines them, and the
FIXTURE_COMMANDS on this checkout's fixtures/family12.json,
fixtures/rademacher.json and fixtures/gaussian-poly2.json and on the
GENERATED inputs (seeded, permuted or rescaled), through the
`tailbound.cli.main` of DIR/src, DIR being a checkout's root, and saves each
job's exit code, output and stderr in FILE. Every warning is recorded, and
an exception or a SystemExit (an argparse fault of a checkout whose parser
exits) that escapes main is recorded in place of the exit code.
`diff` lists the jobs whose records differ, with the largest relative change
among their JSON floats (CSV outputs are compared as text); it exits 1 if any do.
"""

import os

# One thread everywhere, as in bench/run.py, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
import tempfile
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURES = {  # placeholder -> fixtures/ file
    "{family}": "family12.json", "{rademacher}": "rademacher.json", "{gaussian}": "gaussian-poly2.json",
}


def _atoms512() -> dict:
    """512 atoms and a centered function f: more atoms than verify counts by level passes."""
    gen = np.random.default_rng(512)
    support, probs, f = gen.normal(size=(512, 1)), gen.dirichlet(np.ones(512)), gen.normal(size=512)
    return {"support": support.tolist(), "probabilities": probs.tolist(), "functions": {"f": (f - probs @ f).tolist()}}


def _tie() -> dict:
    """Two atoms whose first cdf level (2^52 + 2) 2^-53 is the uniform of two
    keys, 2^52 + 1 and 2^52 + 2 (fl(m + 0.5) ties to even), and a centered f."""
    p = (2**52 + 2) * 2.0**-53
    return {"support": [[-1.0], [1.0]], "probabilities": [p, 1.0 - p], "functions": {"f": [-(1.0 - p), p]}}


def _family64() -> dict:
    """A 24-member synthetic family on 64 equally likely atoms (bench/workloads.py)."""
    import workloads
    return workloads.synthetic_family(np.random.default_rng(64), 24, 64, (0.25, 1.0, 4.0), 0.15, 0.02)


def _family97() -> dict:
    """A 12-member synthetic family on 97 equally likely atoms: more atoms
    than verify counts by level compares."""
    import workloads
    return workloads.synthetic_family(np.random.default_rng(97), 12, 97, (0.25, 1.0, 4.0), 0.15, 0.02)


def _family64_permuted() -> dict:
    """_family64 with its members listed in default_rng(64).permutation(24)
    order, so that the zero member is not first: every bound must match
    _family64's."""
    family = _family64()
    names = list(family["functions"])
    order = np.random.default_rng(64).permutation(len(names))
    family["functions"] = {names[i]: family["functions"][names[i]] for i in order}
    return family


def _gaussian50_times(e: int) -> dict:
    """A dense d = 50 covariance Q diag(i^-2) Q' (Q from a QR of seeded
    normals), made exactly symmetric, times 2^e: every bound term at even e
    is 2^(e/2) times the unscaled one."""
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(50, 50)))
    cov = (q * np.arange(1.0, 51.0) ** -2) @ q.T
    return {"covariance": np.ldexp((cov + cov.T) / 2, e).tolist()}


def _family12_times(e: int) -> dict:
    """fixtures/family12.json with every member times 2^e: the scale edge,
    where every output is 2^e times the unscaled one."""
    with open(os.path.join(ROOT, "fixtures", "family12.json"), encoding="utf-8") as fh:
        family = json.load(fh)
    family["functions"] = {name: [math.ldexp(v, e) for v in values] for name, values in family["functions"].items()}
    return family


SCALE_EDGE = {"{family12x2^-45}": lambda: _family12_times(-45), "{family12x2^1000}": lambda: _family12_times(1000)}
GAUSSIAN_SCALES = {"{gaussian50}": 0, "{gaussian50x2^30}": 30, "{gaussian50x2^-60}": -60}
FLOAT32_EDGE = {"{gaussian50x2^120}": 120, "{gaussian50x2^-120}": -120}
GENERATED = {  # placeholder -> inputs written for the run
    "{poly-1000}": lambda: {"spectrum": "poly", "d": 3, "exponent": -1000},  # eigenvalue 3^1000 overflows
    "{atoms512}": _atoms512, "{tie}": _tie, "{family64}": _family64, "{family64perm}": _family64_permuted,
    "{family97}": _family97,
    **SCALE_EDGE,
    **{key: (lambda e=e: _gaussian50_times(e)) for key, e in {**GAUSSIAN_SCALES, **FLOAT32_EDGE}.items()},
}
BENNETT = ['{"kind": "bennett", "L": %s}' % L for L in (0.1, 1, 10)]
# The benchmark's six generators; then Bennett at other L, a custom table,
# and a table whose first slope 1e-13 lies below the lambda search grid.
BENCH_GENERATORS = [
    '{"kind": "sub-gaussian"}', '{"kind": "sub-exponential"}',
    *('{"kind": "bernstein", "L": %s}' % L for L in (0.1, 1, 10)), BENNETT[1],
]
GENERATORS = [
    *BENCH_GENERATORS, BENNETT[0], BENNETT[2],
    '{"kind": "custom", "t": [0.5, 1, 2, 4], "phi": [0.25, 0.75, 2.0, 5.0]}',
    '{"kind": "custom", "t": [1, 2], "phi": [1e-13, 1]}',
]
FIXTURE_COMMANDS = [
    # Deflation at k >= 1 with many anchors, under the CGF norm and an Orlicz
    # norm: the benchmark's families (m <= 14) barely reach it.
    *([*cmd, *norm]
      for norm in ([], ["--norm", '{"kind": "bernstein", "L": 1}'])
      for cmd in [
          *(["chain-bound", "--family", "{family}", "--k", str(k), "--n", "200", "--r", "0.05"] for k in range(4)),
          ["optimize", "--family", "{family}", "--n", "200", "--r", "0.05", "--k-candidates", "0,1,2,3"],
          ["sweep", "--target", "theorem-main", "--family", "{family}", "--n", "200", "--r", "0.05",
           "--trials", "400", "--seed", "1", "--k-grid", "0,1,2,3", "--r-grid", "0.05,0.2"],
      ]),
    # The chain report's CSV columns.
    ["chain-bound", "--family", "{family}", "--k", "2", "--n", "200", "--r", "0.05", "--format", "csv"],
    ["optimize", "--family", "{family}", "--n", "200", "--r", "0.05", "--k-candidates", "0,1,2,3", "--format", "csv"],
    # Input faults found by an overflow: custom tables whose slopes overflow
    # (about 1e310 then 1e8, and 1e600), a spectrum whose eigenvalue 3^1000
    # overflows, and a direction whose Euclidean norm does.
    ["class-wr", "--family", "{family}", "--r", "0.1", "--norm",
     '{"kind": "custom", "t": [1e-320, 1], "phi": [1e-10, 1e8]}'],
    ["orlicz-norm", "--dist", "{rademacher}", "--f", "f", "--gen",
     '{"kind": "custom", "t": [1e-300, 1], "phi": [1e300, 1e301]}'],
    ["gaussian-bound", "--model", "{poly-1000}", "--basis", "0", "--k", "1", "--n", "10", "--r", "0.1"],
    ["gaussian-bound", "--model", "{gaussian}", "--u", json.dumps([1e200] + [0] * 49), "--k", "1", "--n", "10",
     "--r", "0.1"],
    # The Orlicz coefficient bounds away from the benchmark's r = 1, and the
    # Bennett inverse and Orlicz norms at several L.
    *([op, "--gen", gen, "--r", r] for op in ("wr-quad", "wr-exp") for gen in GENERATORS for r in ("0.05", "10")),
    # Large lambda, where the quadrature integrand is truncated early, for the
    # benchmark's six generators.
    *([op, "--gen", gen, "--r", "1000"] for op in ("wr-quad", "wr-exp") for gen in BENCH_GENERATORS),
    *(["orlicz-norm", "--dist", "{rademacher}", "--f", "f", "--gen", gen] for gen in BENNETT),
    # Generators at extreme parameters, where phi, the moment integral or the
    # quadrature objective overflows.
    ["wr-exp", "--gen", '{"kind": "bennett", "L": 1e300}', "--r", "1"],
    ["wr-exp", "--gen", '{"kind": "bennett", "L": 1e-300}', "--r", "1e300"],
    ["wr-exp", "--gen", '{"kind": "bennett", "L": 1e30}', "--r", "1"],
    ["wr-exp", "--gen", '{"kind": "custom", "t": [1, 2], "phi": [1, 1e308]}', "--r", "1"],
    ["wr-quad", "--gen", '{"kind": "sub-gaussian"}', "--r", "1e300"],
    ["orlicz-norm", "--dist", "{rademacher}", "--f", "f", "--gen", '{"kind": "bennett", "L": 1e300}'],
    *(["class-wr", "--family", "{family}", "--r", "0.05", "--norm", gen] for gen in BENNETT),
    # The CGF norm and w_r on a larger support, down to a small rate.
    *(["class-wr", "--family", "{family64}", "--r", r] for r in ("0.0001", "0.05")),
    # The member order: family64 and its members permuted, the zero member
    # no longer first, under the CGF norm and an Orlicz norm.
    *([*cmd, *norm]
      for family in ("{family64}", "{family64perm}")
      for norm in ([], ["--norm", '{"kind": "bernstein", "L": 1}'])
      for cmd in [
          ["optimize", "--family", family, "--n", "200", "--r", "0.05", "--k-candidates", "0,1,2,3"],
          ["chain-bound", "--family", family, "--k", "2", "--n", "200", "--r", "0.05"],
      ]),
    # The Gaussian model's scale edge: a dense covariance times 2^30 and 2^-60.
    *(["gaussian-bound", "--model", model, "--basis", "0", "--k", "3", "--n", "200", "--r", "0.05"]
      for model in GAUSSIAN_SCALES),
    # The sweep's grouped draws: discrete points grouped by n, and a gaussian
    # sweep whose points all share one draw.
    ["sweep", "--target", "chernoff", "--dist", "{rademacher}", "--f", "f", "--n", "50", "--r", "0.05",
     "--trials", "20000", "--seed", "3", "--n-grid", "10,50,200", "--r-grid", "0.02,0.05"],
    ["sweep", "--target", "gaussian", "--model", "{gaussian}", "--n", "5", "--r", "0.0001", "--mesh", "256",
     "--trials", "2000", "--seed", "4", "--n-grid", "5,50", "--k-grid", "0,2,5,10"],
    # Draws cut into several tiles: a support counted by searchsorted, one
    # trial wider than a tile, and a mesh of 2 * 4000 * 50 uniforms.
    ["verify", "--target", "chernoff", "--dist", "{atoms512}", "--f", "f", "--n", "50", "--r", "0.02",
     "--trials", "20000", "--seed", "6"],
    ["verify", "--target", "chernoff", "--dist", "{rademacher}", "--f", "f", "--n", "40000", "--r", "0.00001",
     "--trials", "1000", "--seed", "7"],
    ["verify", "--target", "gaussian", "--model", "{gaussian}", "--n", "5", "--r", "0.0001", "--mesh", "4000",
     "--trials", "2000", "--seed", "8"],
    # The gaussian rank-k screen: a dense model and its 2^30 multiple at k = 3,
    # at an r where trials violate and at one where the screen drops most
    # trials, and at k = d, where the screen is skipped.
    *(["verify", "--target", "gaussian", "--model", model, "--k", "3", "--n", "200", "--r", r, "--mesh", "256",
       "--trials", "2000", "--seed", "9"]
      for model in ("{gaussian50}", "{gaussian50x2^30}") for r in ("0.0001", "0.01")),
    ["verify", "--target", "gaussian", "--model", "{gaussian50}", "--k", "50", "--n", "200", "--r", "0.0001",
     "--mesh", "256", "--trials", "2000", "--seed", "9"],
    # The screen's float32 product at a dense model times 2^120 and 2^-120.
    *(["verify", "--target", "gaussian", "--model", model, "--k", "3", "--n", "200", "--r", r, "--mesh", "256",
       "--trials", "2000", "--seed", "9"]
      for model in FLOAT32_EDGE for r in ("0.0001", "0.01")),
    # Integer keys against a cdf level that two keys' uniforms equal.
    ["verify", "--target", "chernoff", "--dist", "{tie}", "--f", "f", "--n", "50", "--r", "0.05",
     "--trials", "20000", "--seed", "10"],
    # Trials of 3 * 2^15 + 7 draws, which cross counter-tile edges, and a
    # 97-atom family, counted by searchsorted.
    ["verify", "--target", "chernoff", "--dist", "{rademacher}", "--f", "f", "--n", str(3 * 2**15 + 7),
     "--r", "0.00003", "--trials", "1000", "--seed", "11"],
    ["verify", "--target", "theorem-main", "--family", "{family97}", "--k", "2", "--n", "200", "--r", "0.05",
     "--trials", "2000", "--seed", "12"],
    # The scale edge: family12 times 2^-45 and 2^1000, under the CGF norm and
    # an Orlicz norm.
    *([*cmd, *norm]
      for family in SCALE_EDGE
      for norm in ([], ["--norm", '{"kind": "bernstein", "L": 1}'])
      for cmd in [
          ["optimize", "--family", family, "--n", "200", "--r", "0.05", "--k-candidates", "0,1,2,3"],
          ["chain-bound", "--family", family, "--k", "2", "--n", "200", "--r", "0.05"],
          ["verify", "--target", "theorem-main", "--family", family, "--k", "2", "--n", "200", "--r", "0.05",
           "--trials", "2000", "--seed", "1"],
      ]),
    # The theorem-main guarantee at nr = 40, where 1 - (1 - 2e^{-nr}) is 0.
    ["verify", "--target", "theorem-main", "--family", "{family}", "--k", "2", "--n", "800", "--r", "0.05",
     "--trials", "2000", "--seed", "1"],
    # The verify report's CSV columns.
    ["sweep", "--target", "chernoff", "--dist", "{rademacher}", "--f", "f", "--n", "50", "--r", "0.05",
     "--trials", "2000", "--seed", "3", "--n-grid", "10,50", "--format", "csv"],
    # Argument faults: a NaN --r, a missing --r, and an unknown --target.
    ["trf", "--dist", "{rademacher}", "--f", "f", "--r", "nan"],
    ["trf", "--dist", "{rademacher}", "--f", "f"],
    ["verify", "--target", "bogus", "--family", "{family}", "--n", "200", "--r", "0.05", "--trials", "100",
     "--seed", "1"],
]


def _run(main, argv) -> dict:
    """Exit code, output file text (when the call succeeds) and stderr of one CLI call."""
    with tempfile.TemporaryDirectory() as workdir:
        output = os.path.join(workdir, "out.json")
        with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
            warnings.simplefilter("always")  # each warning, not only the first at its line
            try:
                rc = main(argv + ["--output", output])
            except Exception as exc:  # the command line would print a traceback
                rc = f"uncaught {type(exc).__name__}: {exc}"
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
        text = ""
        if rc == 0:
            with open(output, encoding="utf-8") as fh:
                text = fh.read()
    return {"rc": rc, "output": text, "stderr": err.getvalue()}


def dump(src: str, out: str) -> int:
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(ROOT, "bench")]
    import tailbound.cli
    import workloads
    records = {}
    for workload, seed in itertools.product(workloads.NAMES, (1, 2, 3)):
        with tempfile.TemporaryDirectory() as workdir:
            inputs = workloads.generate(workload, seed)
            workloads.write_inputs(inputs, workdir)
            parsed = {}  # earlier outputs of the round, which later jobs' argv may read
            for job in workloads.jobs(workload, seed, inputs, workdir):
                record = _run(tailbound.cli.main, job.argv(parsed) if callable(job.argv) else job.argv)
                if record["rc"] == 0:
                    parsed[job.name] = json.loads(record["output"])
                records[f"{workload} seed {seed}: {job.name}"] = record
    with tempfile.TemporaryDirectory() as workdir:
        paths = {key: os.path.join(ROOT, "fixtures", name) for key, name in FIXTURES.items()}
        for key, make in GENERATED.items():
            paths[key] = os.path.join(workdir, key.strip("{}") + ".json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(make(), fh)
        def fill(arg: str) -> str:
            for key, path in paths.items():
                arg = arg.replace(key, path)
            return arg
        for cmd in FIXTURE_COMMANDS:
            records["fixture: " + " ".join(cmd)] = _run(tailbound.cli.main, [fill(a) for a in cmd])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    return 0


def _floats(text: str):
    """(the parsed JSON text with each float replaced by 0.0, the floats in
    order), or (the text, no floats) for CSV output."""
    found = []
    try:
        return json.loads(text or "null", parse_float=lambda s: found.append(float(s)) or 0.0), found
    except ValueError:
        return text, []


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    jobs = sorted(set(a) | set(b))
    differing = [job for job in jobs if a.get(job) != b.get(job)]
    missing = {"rc": None, "output": "", "stderr": ""}  # a job only one dump ran
    for job in differing:
        ra, rb = a.get(job, missing), b.get(job, missing)
        notes = [f"exit code {ra['rc']} -> {rb['rc']}"] if ra["rc"] != rb["rc"] else []
        if ra["stderr"] != rb["stderr"]:
            notes.append("stderr differs")
        (shape_a, floats_a), (shape_b, floats_b) = _floats(ra["output"]), _floats(rb["output"])
        if shape_a != shape_b or len(floats_a) != len(floats_b):
            notes.append("non-float output differs")
        else:
            rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(floats_a, floats_b) if x != y]
            if rel:
                notes.append(f"{len(rel)} floats differ, largest relative change {max(rel):.3g}")
        print(f"{job}: {'; '.join(notes)}")
    print(f"{len(differing)} of {len(jobs)} jobs differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the benchmark jobs of one checkout and record their outputs")
    p.add_argument("--src", required=True, help="root of the checkout whose src/ to run")
    p.add_argument("--out", required=True, help="JSON file to write")
    p = sub.add_parser("diff", help="list the jobs whose records differ between two dumps")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    return dump(args.src, args.out) if args.command == "dump" else diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
