"""The benchmark tracer wraps coxtop functions by name from outside.

Renaming or deleting one of the names in ``bench/tracer.py`` ``LAYERS``,
or changing a format it reads (``CochainComplex.maps``), breaks the traced
benchmark; these tests make it fail here instead.  So does deleting a
name that ``bench/workloads.py`` calls, or a change that makes one of its
job checks fail: one untraced pass of every workload runs here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxtop

ROOT = Path(__file__).resolve().parents[1]


def run_in_bench(script):
    """Run a Python script from bench/, against the coxtop under test."""
    src = Path(coxtop.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT / "bench",
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs_against_src():
    src = Path(coxtop.__file__).resolve().parents[1]
    out = run_in_bench("import coxtop, tracer\ntracer.Tracer().install()\nprint(coxtop.__file__)\n")
    assert Path(out.strip()).resolve().is_relative_to(src)


def test_coboundary_metrics_read_the_stored_format():
    # cells and nnz of relative_cochain_complex as the tracer reads them off
    # CochainComplex.maps: the 6-vertex RP^2 has 6 + 15 + 10 cells and
    # 2 * 15 + 3 * 10 incidences, and one residual block ([2, ...]) to factor
    out = run_in_bench(
        "import json, tracer\n"
        "from coxtop.complexes import SimplicialComplex, relative_cohomology\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "rp2 = SimplicialComplex.from_maximal([(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5),"
        " (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)])\n"
        "h = t.run_job('rp2', lambda: relative_cohomology(rp2))\n"
        "print(json.dumps([str(h), t.layer_metrics(1.0, 0)]))\n"
    )
    h, metrics = json.loads(out)
    assert h == "H^0 = Z; H^2 = Z/2"
    assert metrics["complexes.relative_cochain_complex.calls"] == 1
    assert metrics["complexes.relative_cochain_complex.cells"] == 31
    assert metrics["complexes.relative_cochain_complex.nnz"] == 60
    assert metrics["intlinalg.smith_normal_form.coboundary.calls"] == 1


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_job_passes_its_check(workload):
    # one pass of the workload in a fresh process, as the benchmark runs it
    # (seed 1), with every job checked against bench/expected.json
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(ROOT), workload, "1", "pass"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    jobs = json.loads(proc.stdout)["jobs"]
    assert jobs and all(not job["problems"] for job in jobs), jobs
