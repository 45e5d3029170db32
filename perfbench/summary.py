"""Summarise benchmark runs, or compare two sets of them.

usage (from the root of a checkout):
  python3 perfbench/summary.py [DIR]            # default .perfbench/results
  python3 perfbench/summary.py DIR_A DIR_B      # is B within A's bounds?
  python3 perfbench/summary.py DIR --write FILE # also write the summary as JSON

For each workload it prints every end-to-end metric over the untraced runs
(median, quartiles, quartile spread as a share of the median, and the bound
from BENCHMARK.json), failed_frac with the attempted count, and every
per-layer metric over the traced runs, marking counts that did not repeat
exactly.  Comparing refuses runs that differ in whether gmpy2 was
importable, because that selects the Scalar coefficient type.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> list:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def quartiles(xs: list):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summarise(runs: list, bounds: dict) -> dict:
    groups = defaultdict(list)
    for run in runs:
        groups[(run["workload"], run["trace"])].append(run)
    out = {}
    for (workload, trace), group in sorted(groups.items()):
        entry = out.setdefault(workload, {})
        attempted = sum(r["attempted"] for r in group)
        failed = sum(r["failed"] for r in group)
        key = "per_layer" if trace else "end_to_end"
        entry[key] = {"runs": len(group), "seeds": sorted({r["seed"] for r in group}),
                      "attempted": attempted, "failed": failed,
                      "failed_frac": failed / attempted, "metrics": {}}
        for name, first in group[0]["metrics"].items():
            xs = [r["metrics"][name]["value"] for r in group]
            q1, med, q3 = quartiles(xs)
            stat = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3}
            if trace:
                if first["unit"] not in ("s", "ratio"):
                    stat["repeats"] = len(set(xs)) == 1
            else:
                stat["spread"] = (q3 - q1) / med
                stat["bound"] = bounds.get(name)
            entry[key]["metrics"][name] = stat
        if not trace:  # per-job seconds: for reference, not end-to-end metrics
            walls = defaultdict(list)
            for run in group:
                for p in run["passes"]:
                    for job in p["jobs"]:
                        walls[job["name"]].append(job["wall_s"])
            entry[key]["job_wall_s"] = {k: statistics.median(v) for k, v in walls.items()}
    return out


def print_summary(summary: dict) -> None:
    for workload, entry in summary.items():
        for key in ("end_to_end", "per_layer"):
            if key not in entry:
                continue
            part = entry[key]
            print(f"== {workload} {key}: {part['runs']} runs, seeds {part['seeds']}")
            for name, s in part["metrics"].items():
                line = (f"  {name:<46} {s['median']:>14.6g} {s['unit']:<6}"
                        f" q1={s['q1']:.6g} q3={s['q3']:.6g}")
                if "spread" in s:
                    line += f" spread={s['spread']:.2%} bound={s['bound']}"
                if s.get("repeats") is False:
                    line += "  COUNT DID NOT REPEAT"
                print(line)
            print(f"  {'failed_frac':<46} {part['failed_frac']:>14.6g} "
                  f"({part['failed']} of {part['attempted']} jobs)")


def compare(a: dict, b: dict, bounds: dict) -> int:
    worse = 0
    for workload in a:
        if workload not in b or "end_to_end" not in a[workload]:
            continue
        for name, sa in a[workload]["end_to_end"]["metrics"].items():
            sb = b[workload]["end_to_end"]["metrics"][name]
            change = sb["median"] / sa["median"] - 1
            verdict = "worse" if change > bounds[name] else "within bound"
            worse += verdict == "worse"
            print(f"{workload:<14} {name:<12} A={sa['median']:.6g} B={sb['median']:.6g} "
                  f"change={change:+.2%} bound={bounds[name]:.0%} {verdict}")
    return 1 if worse else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", default=[os.path.join(ROOT, ".perfbench", "results")])
    ap.add_argument("--write", help="write the summary of one directory as JSON")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    sets = [load_runs(d) for d in args.dirs[:2]]
    gmpy2 = {run["env"]["gmpy2"] for runs in sets for run in runs}
    if len(gmpy2) > 1:
        print("error: runs differ in whether gmpy2 was importable; not comparable",
              file=sys.stderr)
        return 2
    summaries = [summarise(runs, bounds) for runs in sets]
    for directory, summary in zip(args.dirs, summaries):
        print(f"# {directory}")
        print_summary(summary)
    if args.write:
        env = sets[0][0]["env"] if sets[0] else {}
        with open(args.write, "w") as fh:
            json.dump({"env": env, "workloads": summaries[0]}, fh, indent=1)
            fh.write("\n")
    if len(summaries) == 2:
        return compare(summaries[0], summaries[1], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
