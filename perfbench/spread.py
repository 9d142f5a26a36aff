"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--out perfbench/results/BENCH_x.json]

It runs every workload of BENCHMARK.json with --trace 0 for its run_seconds,
once per seed 0 .. N-1. For every workload and end-to-end metric it prints
the median of the runs and the distance between their first and third
quartiles as a share of the median, next to the metric's bound. The result
is steady when every spread stays below a third of its bound. Runs go one
at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from percentiles import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    stamp = next(
        (json.loads(x[len("# stamp "):]) for x in lines if x.startswith("# stamp ")), {}
    )
    return json.loads(lines[-1]), stamp


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {"seeds": list(range(args.seeds)), "seconds": seconds, "trace": 0, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list] = {}
        units = {}
        for seed in report["seeds"]:
            result, stamp = run(workload, seed, seconds)
            report.setdefault("stamp", stamp)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: outputs failed their checks")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {}
        for name, vals in values.items():
            entry = {"unit": units[name], "median": statistics.median(vals), "values": vals}
            if len(vals) >= 2 and entry["median"]:
                entry["spread"] = quartile_spread(vals)
            bound = bounds[name]
            if "spread" in entry:
                steady &= entry["spread"] <= bound / 3
            summary[name] = entry
            spread = f"{entry['spread']:.4f}" if "spread" in entry else "-"
            print(f"{workload:15s} {name:32s} median {entry['median']:<12.6g} "
                  f"{units[name]:6s} spread {spread:7s} bound {bound}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
