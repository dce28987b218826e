"""Compare the CLI outputs of two source trees on the benchmark's jobs.

    python3 tools/compare_outputs.py dump --src DIR --out FILE
    python3 tools/compare_outputs.py diff A B

`dump` runs the jobs of both benchmark workloads, seeds 1-3, as this
checkout's bench/workloads.py (only imported) defines them, and the
FIXTURE_COMMANDS on this checkout's fixtures/family12.json,
fixtures/rademacher.json and fixtures/gaussian-poly2.json and on the seeded
GENERATED inputs, through the `tailbound.cli.main` of DIR/src, DIR being a
checkout's root, and saves each job's exit code, output and stderr in FILE.
`diff` lists the jobs whose records differ, with the largest relative change
among their JSON floats; it exits 1 if any do.
"""

import os

# One thread everywhere, as in bench/run.py, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TAILBOUND_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import sys
import tempfile

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


def _family64() -> dict:
    """A 24-member synthetic family on 64 equally likely atoms (bench/workloads.py)."""
    import workloads
    return workloads.synthetic_family(np.random.default_rng(64), 24, 64, (0.25, 1.0, 4.0), 0.15, 0.02)


GENERATED = {"{atoms512}": _atoms512, "{family64}": _family64}  # placeholder -> inputs written for the run
BENNETT = ['{"kind": "bennett", "L": %s}' % L for L in (0.1, 1, 10)]
# The benchmark's six generators; then Bennett at other L and a custom table.
BENCH_GENERATORS = [
    '{"kind": "sub-gaussian"}', '{"kind": "sub-exponential"}',
    *('{"kind": "bernstein", "L": %s}' % L for L in (0.1, 1, 10)), BENNETT[1],
]
GENERATORS = [
    *BENCH_GENERATORS, BENNETT[0], BENNETT[2],
    '{"kind": "custom", "t": [0.5, 1, 2, 4], "phi": [0.25, 0.75, 2.0, 5.0]}',
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
    # The Orlicz coefficient bounds away from the benchmark's r = 1, and the
    # Bennett inverse and Orlicz norms at several L.
    *([op, "--gen", gen, "--r", r] for op in ("wr-quad", "wr-exp") for gen in GENERATORS for r in ("0.05", "10")),
    # Large lambda, where the quadrature integrand is truncated early, for the
    # benchmark's six generators.
    *([op, "--gen", gen, "--r", "1000"] for op in ("wr-quad", "wr-exp") for gen in BENCH_GENERATORS),
    *(["orlicz-norm", "--dist", "{rademacher}", "--f", "f", "--gen", gen] for gen in BENNETT),
    *(["class-wr", "--family", "{family}", "--r", "0.05", "--norm", gen] for gen in BENNETT),
    # The CGF norm and w_r on a larger support, down to a small rate.
    *(["class-wr", "--family", "{family64}", "--r", r] for r in ("0.0001", "0.05")),
    ["optimize", "--family", "{family64}", "--n", "200", "--r", "0.05", "--k-candidates", "0,1,2,3"],
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
]


def _run(main, argv) -> dict:
    """Exit code, output file text (when the call succeeds) and stderr of one CLI call."""
    with tempfile.TemporaryDirectory() as workdir:
        output = os.path.join(workdir, "out.json")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv + ["--output", output])
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
    """(the parsed JSON text with each float replaced by 0.0, the floats in order)."""
    found = []
    return json.loads(text or "null", parse_float=lambda s: found.append(float(s)) or 0.0), found


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
