"""Alternating parent/change pairs of the benchmark, summarized as JSON.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--workload W ...] [--pairs 10] [--seeds 1,2,3] [--seconds 20]

DIR is the root of a checkout. Each pair runs
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` once in
the parent checkout and once in the change checkout, each in a process of
its own and without a bytecode cache. The side that runs first alternates
from pair to pair, and pair i uses seed seeds[i % len(seeds)]. For every
end-to-end metric the output keeps each side's runs, their median and
quartiles, the ratio of the change's median to the parent's, and `wins`, the
number of pairs in which the change read better (ties count for neither);
"better" and the units come from the change checkout's BENCHMARK.json. The
script only calls bench/run.py and changes nothing in either checkout
besides what that run leaves in bench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one bench/run.py run in the checkout at root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=3 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: dict, spec: dict) -> dict:
    """Per metric: each side's runs, median and quartiles, and the pairs won."""
    out = {}
    for name, (unit, better) in spec.items():
        metric = {"unit": unit, "better": better}
        for side in SIDES:
            values = [r["metrics"][name]["value"] for r in runs[side]]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metric[side] = {"median": med, "q1": q1, "q3": q3, "runs": values}
        parent, change = metric["parent"], metric["change"]
        metric["change_over_parent"] = change["median"] / parent["median"] if parent["median"] else None
        sign = 1.0 if better == "lower" else -1.0
        metric["wins"] = sum(sign * (p - c) > 0.0 for p, c in zip(parent["runs"], change["runs"]))
        out[name] = metric
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the change checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    result = {
        "description": (
            f"End-to-end medians of the parent commit and of this change, from {args.pairs} alternating "
            f"parent/change pairs per workload of `python3 bench/run.py --workload W --seed S --seconds "
            f"{args.seconds:g} --trace 0` (tools/bench_pairs.py; the side that runs first alternates from pair "
            f"to pair, pair i uses seed seeds[i mod {len(seeds)}]), each run in its own process and checkout, "
            f"with no bytecode cache on either side, on a {os.cpu_count()}-CPU {platform.machine()} machine "
            f"(Python {platform.python_version()}). q1/q3 are quartiles over the runs; wins counts the pairs "
            f"in which the change read better (ties count for neither)."
        ),
        "workloads": {},
    }
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        first = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(run_once(roots[side], workload, seeds[i % len(seeds)], args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"bound_s {runs[side][-1]['metrics']['bound_s']['value']:.4f}", file=sys.stderr)
        result["workloads"][workload] = {
            "pairs": args.pairs,
            "seeds": seeds,
            "first": first,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "attempted_per_run": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
            "metrics": summarize(runs, spec),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
                  f"wins {m['wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
