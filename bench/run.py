"""The coxtop benchmark: three self-checking workloads, end to end and per layer.

    python3 bench/run.py --workload davis-realization --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``.
Each pass runs every job of the workload once, in a fresh single Python
process; passes repeat while another one fits in ``--seconds``, and the
run reports medians.  The first pass (or, traced, the first untraced and
traced pair) always runs, so a thick-decomposition run has one untraced
pass of about 25 s and a traced run of it takes about 50 s, beyond
``--seconds``.  Separate set-up-only processes add samples for
``setup_s`` in untraced runs.  Every job's output is checked (closed forms, or values in
``bench/expected.json``); a failed check counts in ``failed`` and the run
goes on.

With ``--trace 0`` the result holds the end-to-end metrics of untraced
passes.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``tracer.py``),
plus ``trace.overhead_ratio``, traced over untraced wall time.  The last
line of standard output is the JSON result; the lines above it are a
readable report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS, module_shares, per_layer_metrics  # noqa: E402

WORKLOADS = ("davis-realization", "thick-decomposition", "infinite-types")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 10
TIME_LIMIT_S = 170  # the whole run must end within three minutes


class ChildError(RuntimeError):
    pass


def run_child(workload, seed, mode, timeout):
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), mode]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process failed ({proc.returncode}): {proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["elapsed"] = perf_counter() - t0
    return report


def measure(workload, seed, seconds, trace):
    """Set-up samples (untraced runs only), then passes while another one
    fits in the time."""
    start = perf_counter()

    def remaining():
        return max(5.0, TIME_LIMIT_S - (perf_counter() - start))

    setups = [
        run_child(workload, seed, "setup", remaining())["setup_s"]
        for _ in range(0 if trace else SETUP_SAMPLES)
    ]
    plan = ("pass", "trace") if trace else ("pass",)
    done = {mode: [] for mode in plan}
    i = 0
    while True:
        mode = plan[i % len(plan)]
        done[mode].append(run_child(workload, seed, mode, remaining()))
        i += 1
        if i < len(plan):
            continue
        upcoming = done[plan[i % len(plan)]]
        estimate = max(r["elapsed"] for r in upcoming)
        if perf_counter() - start + estimate > seconds:
            break
    setups += [r["setup_s"] for r in done["pass"]]
    return setups, done["pass"], done.get("trace", [])


def tally(passes):
    """(attempted, failed, problem lines): a job fails on a check problem,
    or when its output differs from the same job's output in the first pass."""
    attempted = failed = 0
    problems = []
    reference = {j["job"]: j["digest"] for j in passes[0]["jobs"]}
    for n, report in enumerate(passes):
        for job in report["jobs"]:
            attempted += 1
            issues = list(job["problems"])
            if job["digest"] != reference[job["job"]]:
                issues.append("output differs from the first pass")
            if issues:
                failed += 1
                problems.extend(f"pass {n} {job['job']}: {issue}" for issue in issues)
    return attempted, failed, problems


def median(reports, key):
    return statistics.median(r[key] for r in reports)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coxtop", "__init__.py")):
        sys.stderr.write(f"error: no coxtop sources under {ROOT}/src\n")
        return 2
    try:
        setups, passes, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    attempted, failed, problems = tally(passes + traced)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-up samples")
    for line in problems:
        print("FAILED", line)
    print("pass wall times (s): untraced", " ".join(f"{r['wall_s']:.3f}" for r in passes),
          "| traced", " ".join(f"{r['wall_s']:.3f}" for r in traced))
    wall = median(passes, "wall_s")
    if args.trace:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        traced_wall = median(traced, "wall_s")
        layers["trace.overhead_ratio"] = traced_wall / wall
        metrics = {name: (layers[name], unit) for name, unit, _ in per_layer_metrics()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<58} {value:>14.6g} {unit}")
        shares = module_shares(layers, traced_wall)
        print(f"module shares of the traced wall time ({traced_wall:.3f} s): "
              + ", ".join(f"{m} {s:.3f}" for m, s in shares))
        print(f"largest module share: {shares[0][0]} {shares[0][1]:.3f} "
              f"(it should move {LAYERS[shares[0][0]][0]})")
        print(f"span self times + job self times + bookkeeping = "
              f"{layers['trace.accounted_ratio']:.6f} of the traced wall time")
    else:
        values = {
            "wall_s": wall,
            "cpu_s": median(passes, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median(passes, "peak_rss_mb"),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:>12.6f} {unit}")
    print(f"  {'failed_ratio':<12} {failed / attempted:>12.6f} ratio ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
