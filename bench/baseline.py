"""Measure every workload over several seeds and write baseline.json.

    python3 bench/baseline.py

Run from the repository root.  The run length is ``run_seconds`` of
``BENCHMARK.json``.  The script runs ``run.py`` untraced on seeds 1-10 for
every workload, then the same ten-seed set a second time right after, then
one seed five times per workload (the spread of these repeats is host
noise alone, as the input does not change), and finally one traced run per
workload.  Per set and metric it records the ten values, the median, the
quartiles and the spread (quartile distance over median, as the acceptance
rule computes it), and how far the second set's median is from the first,
together with the git commit, the Python version and ``nproc``.  A run that
fails or reports a failed job stops the script with an error.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402

SEEDS = list(range(1, 11))
SETS = 2
REPEAT_SEED = 1
REPEATS = 5
OUT = os.path.join(HERE, "baseline.json")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported failed jobs:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}, lines[:-1]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def measure_set(label, workload, seeds, seconds, bounds):
    runs = [bench(workload, seed, seconds, 0)[0] for seed in seeds]
    table = {name: summary([r[name] for r in runs]) for name in runs[0]}
    for name, s in table.items():
        flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of its bound)"
        print(f"{label} {workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f} "
              f"bound {bounds[name]}{flag}", flush=True)
    return table


def save(out):
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": SEEDS,
        "layer_moves": {module: moves for module, (moves, _) in LAYERS.items()},
        "sets": [],
        "set_shift": {},
        "repeats": {"seed": REPEAT_SEED},
        "per_layer": {},
    }
    for n in range(SETS):
        out["sets"].append({})
        for workload in WORKLOADS:
            out["sets"][n][workload] = measure_set(f"set {n + 1}", workload, SEEDS, seconds, bounds)
            save(out)
    for workload in WORKLOADS:
        first, last = out["sets"][0][workload], out["sets"][-1][workload]
        out["set_shift"][workload] = {
            name: last[name]["median"] / first[name]["median"] - 1 for name in first
        }
        print(f"{workload} second set over first, median shift: "
              + ", ".join(f"{k} {v:+.4f}" for k, v in out["set_shift"][workload].items()),
              flush=True)
    for workload in WORKLOADS:
        out["repeats"][workload] = measure_set(
            f"seed {REPEAT_SEED} x{REPEATS}", workload, [REPEAT_SEED] * REPEATS, seconds, bounds
        )
        save(out)
    for workload in WORKLOADS:
        layers, report = bench(workload, SEEDS[0], seconds, 1)
        out["per_layer"][workload] = {"seed": SEEDS[0], "metrics": layers,
                                      "report": [ln for ln in report if not ln.startswith("  ")]}
        print("\n".join(out["per_layer"][workload]["report"]), flush=True)
        save(out)


if __name__ == "__main__":
    main()
