"""quiverdt benchmark: real user jobs, timed end to end, traced layer by layer.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record    # rewrite perfbench/expected.json at seed 0

A workload is a list of jobs: CLI subcommands and scripts on the stock
quivers at fixed truncations, plus one library job.  Each job is a fresh
interpreter (perfbench/job.py) with the checkout's `src` first on the path,
as a CLI user runs it; a memo in one job can never serve a later one.  A pass
runs the jobs one after another from a single client (closed loop, one
process at a time).

--trace 0 runs passes until S seconds have gone (at least one) and prints the
end-to-end metrics: total_s (median wall seconds of a pass), setup_s (median
over every job process of the time from its start until quiverdt is imported
and its quiver file loaded) and peak_rss_mb (largest resident set of any
job).  --trace 1 runs one untraced and one traced pass and prints the
per-layer metrics of perfbench/tracer.py.  Both print failed_frac (failed
jobs over attempted jobs).  One set-up-only job runs untimed first, so that
bytecode compilation (into .perfbench/pycache) never lands in a timed
setup_s.

Seed 0 runs the stock inputs.  Another seed maps every --theta, --c and --mu
by x -> s*x + t with s > 0, which keeps every slope comparison and so the
work; outputs are mapped back before they are checked.  Scripts keep their
fixed inputs.

Every job's output is checked: exit code 0, a digest of its output recorded
at seed 0 in perfbench/expected.json, and independent values where the job
has them.  A job fails on a non-zero exit, a timeout or a failed check.  The
last line of stdout is the JSON result; the full record of the run goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
RUN_LIMIT_S = 170  # no job may run past this, so a run ends within 180 s
PLANE_PARTITIONS = (1, 1, 3, 6, 13, 24, 48, 86)  # OEIS A000219, n = 0..7


class SeedMap:
    """x -> s*x + t, s > 0, drawn from the seed; seed 0 is the identity."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.s = Fraction(rng.randint(1, 3), rng.randint(1, 2)) if seed else Fraction(1)
        self.t = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if seed else Fraction(0)

    def __call__(self, *xs) -> str:
        return ",".join(str(self.s * Fraction(x) + self.t) for x in xs)

    def back(self, text: str) -> str:
        return str((Fraction(text) - self.t) / self.s)


# ---- output checks ----------------------------------------------------------------
# Each job's stdout is first mapped back to its seed-0 form.  The digest then
# covers all of it except lines specialised at the Euler point: that
# convention is open and may change without the series changing.

def same(out: str, *_) -> str:
    return out


def hn_to_seed0(out: str, m: SeedMap) -> str:
    return "\n".join(f"# slope {m.back(line[8:])}" if line.startswith("# slope ") else line
                     for line in out.splitlines())


def walls_to_seed0(out: str, m: SeedMap) -> str:
    return " ".join(m.back(w) for w in out.split())


def macmahon_digested(out: str) -> str:
    # n and the directly enumerated count; the series column is an Euler value
    return "\n".join("\t".join(line.split("\t")[::2]) for line in out.splitlines())


def conifold_digested(out: str) -> str:
    return out.split("# euler-limit transfer series")[0]


def no_check(out: str) -> list:
    return []


def check_macmahon(out: str) -> list:
    rows = [line.split("\t") for line in out.splitlines()[1:] if not line.startswith("#")]
    direct = tuple(int(r[2]) for r in rows)
    problems = [] if direct == PLANE_PARTITIONS else [f"plane partitions {direct}"]
    if "# all values agree" not in out:
        problems.append("series disagrees with plane partitions")
    return problems


def check_conifold(out: str) -> list:
    """Conifold Omega: L + L^2 on the diagonal, -v next to it, nothing else."""
    table = out.split("# sign diagnostic")[0].splitlines()[1:]
    got = dict(line.split("\t") for line in table)
    n = int(out.splitlines()[0].rsplit(" ", 1)[1])
    want = {f"{a},{b}": "(v^4+v^2)/(1)" if a == b else "(-v)/(1)"
            for a in range(n + 1) for b in range(n + 1)
            if 0 < a + b <= n and abs(a - b) <= 1}
    problems = [] if got == want else ["Omega table differs from L+L^2 / -v"]
    if "# sign diagnostic: clean" not in out:
        problems.append("sign diagnostic not clean")
    return problems


def check_tour(out: str) -> list:
    agree = [line for line in out.splitlines() if "crossing products agree" in line]
    if not agree or not all(line.endswith("True") for line in agree):
        return ["crossing products disagree"]
    return []


def check_oracle_rows(out: str) -> list:
    rows = out.splitlines()
    if not rows or not all(row.endswith("\tok") for row in rows):
        return ["oracle row not ok"]
    return []


def check_jordan(out: str) -> list:
    rows = [tuple(int(x) for x in line.split("\t")) for line in out.splitlines()]
    want = [(n, q, q ** n) for q in (2, 3) for n in (1, 2, 3)]
    return [] if rows == want else [f"Jordan counts {rows} != q^n"]


# ---- workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    name: str
    quiver: str                         # stock quiver file the set-up loads
    argv: Callable[[SeedMap], list]     # ["cli", args...] or ["script", path, args...]
    check: Callable[[str], list] = no_check
    to_seed0: Callable[[str, SeedMap], str] = same
    digested: Callable[[str], str] = same


K, J = "quivers/kronecker.json", "quivers/jordan.json"
C3, CONI = "quivers/c3.json", "quivers/conifold.json"

WORKLOADS = {
    # Symmetric quivers with built-in potentials: every universal series is a
    # pleth_exp, Omega is a pleth_log, and ncdt/transfer_series re-derive
    # their result a second way.  Exp/Log does most of the work; no HN.
    "symmetric_exp": [
        Job("universal_c3_N7", C3, lambda m: ["cli", "universal", C3, "-N", "7"]),
        Job("macmahon_N7", C3, lambda m: ["script", "scripts/macmahon_check.py", "-N", "7"],
            check_macmahon, digested=macmahon_digested),
        Job("conifold_invariants_N6", CONI,
            lambda m: ["script", "scripts/conifold_invariants.py", "-N", "6"],
            check_conifold, digested=conifold_digested),
        Job("transfer_conifold_N6", CONI, lambda m: ["cli", "transfer", CONI, "-N", "6"]),
    ],
    # Non-symmetric, trivial potential: HN recursion, twisted torus_mul,
    # torus_inverse, slope products and wall search, no Exp/Log.  The wall
    # tour calls hn_factorize 14 times on one input.
    "framed_walls": [
        Job("hn_kronecker_N7", K, lambda m: ["cli", "hn", K, f"--theta={m(1, 0)}", "-N", "7"],
            to_seed0=hn_to_seed0),
        Job("framed_kronecker_half_N7", K,
            lambda m: ["cli", "framed", K, f"--theta={m(1, 0)}", f"--c={m('1/2')}",
                       "--side", "-", f"--mu={m('1/2')}", "-N", "7"]),
        Job("framed_kronecker_inf_N6", K,
            lambda m: ["cli", "framed", K, f"--theta={m(1, 0)}", "--c=+inf", "-N", "6"]),
        Job("walls_kronecker_33", K,
            lambda m: ["cli", "walls", K, "--alpha", "3,3", f"--theta={m(1, 0)}"],
            to_seed0=walls_to_seed0),
        Job("kronecker_wall_tour_N6", K,
            lambda m: ["script", "scripts/kronecker_wall_tour.py", "-N", "6"],
            check=check_tour),
        Job("smooth_model_jordan_N8", J,
            lambda m: ["cli", "smooth-model", J, f"--theta={m(0)}", f"--mu={m(0)}", "-N", "8"]),
    ],
    # Brute-force enumeration over F_q with almost no Scalar work.
    "oracle_counts": [
        Job("check_oracle_kronecker_q2", K,
            lambda m: ["cli", "check-oracle", K, "--q", "2", "--max-dim", "4",
                       f"--theta={m(1, 0)}", f"--c={m('1/2')}"], check=check_oracle_rows),
        Job("check_oracle_kronecker_q3", K,
            lambda m: ["cli", "check-oracle", K, "--q", "3", "--max-dim", "3",
                       f"--theta={m(1, 0)}", f"--c={m('1/2')}"], check=check_oracle_rows),
        Job("jordan_counts", J, lambda m: ["script", "perfbench/jordan_counts.py"],
            check=check_jordan),
    ],
}
SETUP_ONLY = Job("setup_only", K, lambda m: ["none"])


def required_files() -> list:
    files = {"src/quiverdt/cli.py"}
    for jobs in WORKLOADS.values():
        for job in jobs:
            files.add(job.quiver)
            argv = job.argv(SeedMap(0))
            files.add(argv[1] if argv[0] == "script" else argv[2])
    return sorted(files)


# ---- running jobs ---------------------------------------------------------------

def job_env() -> dict:
    env = dict(os.environ)
    # WALLCROSS_BUDGET changes what the oracle attempts; the others change
    # what runs (asserts) or add bytecode compilation to set-up.
    for var in ("WALLCROSS_BUDGET", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, m: SeedMap, expected: dict | None, started: float):
        self.m, self.expected, self.started = m, expected, started
        self.env = job_env()
        self.dir = os.path.join(WORK, "jobs", str(os.getpid()))
        self.count = 0

    def job(self, job: Job, trace: int) -> dict:
        """Run one job to completion and check its output."""
        self.count += 1
        base = os.path.join(self.dir, str(self.count))
        timeout = max(1.0, self.started + RUN_LIMIT_S - time.monotonic())
        timed_out = threading.Event()
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            t0 = time.monotonic()
            cmd = [sys.executable, os.path.join(HERE, "job.py"), base + ".json", repr(t0),
                   str(trace), job.quiver] + job.argv(self.m)
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(base + ".out", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        record = {}
        if os.path.exists(base + ".json"):
            with open(base + ".json") as fh:
                record = json.load(fh)

        problems = []
        if timed_out.is_set():
            problems.append("timeout")
        elif proc.returncode != 0:
            with open(base + ".err", errors="replace") as fh:
                tail = (fh.read().strip().splitlines() or [""])[-1]
            problems.append(f"exit code {proc.returncode}: {tail}")
        try:
            output = job.to_seed0(stdout, self.m)
            problems += job.check(output)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            output = stdout
            problems.append(f"output does not parse: {exc!r}")
        digest = hashlib.sha256(job.digested(output).encode()).hexdigest()[:16]
        if self.expected is not None and digest != self.expected.get(job.name):
            problems.append("output digest differs from the recorded one")
        return {"name": job.name, "wall_s": wall, "setup_s": record.get("setup_s"),
                "rss_mb": usage.ru_maxrss / 1024, "out_bytes": len(output.encode()),
                "output": output, "digest": digest, "problems": problems,
                "trace": record.get("trace")}

    def run_pass(self, jobs: list, trace: int) -> dict:
        t0 = time.monotonic()
        results = [self.job(job, trace) for job in jobs]
        return {"total_s": time.monotonic() - t0, "jobs": results}


# ---- metrics ----------------------------------------------------------------------

def high_percentile(xs: list):
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return None


def timing(xs: list, unit: str) -> dict:
    out = {"value": statistics.median(xs), "unit": unit, "samples": len(xs)}
    hp = high_percentile(xs)
    if hp:
        out[f"p{hp[0]}"] = hp[1]
    return out


def end_to_end(passes: list) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    return {
        "total_s": timing([p["total_s"] for p in passes], "s"),
        "setup_s": timing([j["setup_s"] for j in jobs if j["setup_s"] is not None], "s"),
        "peak_rss_mb": {"value": max(j["rss_mb"] for j in jobs), "unit": "MB",
                        "samples": len(jobs)},
    }


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


# ---- entry points -----------------------------------------------------------------

def record_expected(runner: Runner) -> int:
    """Write the seed-0 digests; refuse if any job fails its other checks."""
    digests = {}
    for jobs in WORKLOADS.values():
        for res in runner.run_pass(jobs, 0)["jobs"]:
            if res["problems"]:
                print(f"{res['name']}: {'; '.join(res['problems'])}", file=sys.stderr)
                return 1
            digests[res["name"]] = res["digest"]
    with open(EXPECTED, "w") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(EXPECTED, ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json at seed 0")
    args = ap.parse_args()
    started = time.monotonic()

    missing = [f for f in required_files() if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"error: not a quiverdt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not args.record and (args.workload is None or not os.path.isfile(EXPECTED)):
        print("error: need --workload and a recorded perfbench/expected.json", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    expected = None  # --record computes the digests instead of checking them
    if not args.record:
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    runner = Runner(SeedMap(args.seed if not args.record else 0), expected, started)
    os.makedirs(runner.dir, exist_ok=True)
    try:
        runner.job(SETUP_ONLY, 0)  # untimed warm-up: writes bytecode, warms the file cache
        if args.record:
            return record_expected(runner)
        return measure(args, runner)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)


def measure(args, runner: Runner) -> int:
    jobs = WORKLOADS[args.workload]
    if args.trace:
        plain = runner.run_pass(jobs, 0)
        traced = runner.run_pass(jobs, 1)
        passes = [plain, traced]
        for a, b in zip(plain["jobs"], traced["jobs"]):
            if a["output"] != b["output"]:
                b["problems"].append("traced output differs from untraced output")
        metrics = layer_metrics([j["trace"] for j in traced["jobs"] if j["trace"]],
                                sum(j["out_bytes"] for j in traced["jobs"]),
                                traced["total_s"], plain["total_s"])
    else:
        passes = []
        while not passes or time.monotonic() - runner.started < args.seconds:
            passes.append(runner.run_pass(jobs, 0))
        metrics = end_to_end(passes)

    results = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in results if j["problems"])
    for j in results:
        for problem in j["problems"]:
            print(f"FAILED {j['name']}: {problem}")
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"python={env['python']} nproc={env['nproc']} gmpy2={env['gmpy2']}")
    for name, metric in metrics.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in metric.items()
                        if k not in ("value", "unit") and isinstance(v, float))
        samples = f" (n={metric['samples']}{extra})" if "samples" in metric else ""
        print(f"{name}\t{metric['value']:.6g} {metric['unit']}{samples}")
    print(f"failed_frac\t{failed / len(results):.6g} ({failed} of {len(results)} jobs)")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    for j in results:
        del j["trace"], j["output"]
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "env": env, "metrics": metrics,
                   "attempted": len(results), "failed": failed,
                   "passes": passes}, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
