"""Self-tests of the benchmark harness: span arithmetic, failure counting,
seeded input generation and agreement with BENCHMARK.json.

    python -m pytest bench/tests -q
"""

import json
import os
import sys
from collections import Counter
from itertools import combinations

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from coxtop.chambers import parse_chamber_system, residue_partition_map  # noqa: E402
from coxtop.coxmatrix import parse_coxeter_matrix  # noqa: E402


def load_expected():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -------------------------------------------------------------- spans


def span(name, start, end, parent, job=0, excluded=0.0):
    return [name, start, end, parent, job, excluded]


def test_self_times_on_a_synthetic_tree():
    spans = [
        span("job:a", 0.0, 10.0, -1),
        span("m.f", 1.0, 6.0, 0, excluded=0.5),
        span("m.g", 2.0, 3.0, 1),
        span("m.g", 4.0, 5.0, 1),
        span("m.h", 7.0, 9.0, 0),
        span("m.k", 8.0, 12.0, 4),  # overruns its parent: clipped to 9.0
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 2, 5 - 2 - 0.5, 1, 1, 2 - 1, 4])


def test_wrapped_calls_account_for_the_whole_job():
    t = tracer.Tracer()

    def leaf(n):
        return sum(range(n))

    leaf_w = t.span_wrapper("m.leaf", leaf)

    def outer():
        return [leaf_w(20000) for _ in range(3)]

    outer_w = t.span_wrapper("m.outer", outer)
    t.run_job("j", lambda: (outer_w(), leaf_w(1000)))
    selfs = tracer.self_times(t.spans)
    job = t.spans[0]
    bookkeeping = sum(s[5] for s in t.spans)
    assert t.calls == {"m.outer": 1, "m.leaf": 4}
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1, 1, 0]
    assert sum(selfs) + bookkeeping == pytest.approx(job[2] - job[1], abs=1e-9)
    assert all(x >= 0 for x in selfs)


def test_smith_normal_form_is_split_by_calling_path():
    from coxtop import intlinalg

    t = tracer.Tracer()
    snf = t.span_wrapper(tracer.SNF, intlinalg.smith_normal_form)
    cohomology = t.span_wrapper(tracer.SNF_COBOUNDARY_CALLER, lambda: snf([[1, 1], [0, 2]]))
    complement = t.span_wrapper("intlinalg.direct_complement", lambda: snf([[2], [0]]))
    t.run_job("j", lambda: (cohomology(), complement(), complement()))
    assert t.calls[tracer.SNF + ".coboundary"] == 1
    assert t.calls[tracer.SNF + ".lattice"] == 2
    assert t.sums[tracer.SNF + ".coboundary.entries"] == 4
    assert t.sums[tracer.SNF + ".lattice.entries"] == 4
    layers = t.layer_metrics(t.spans[0][2] - t.spans[0][1], 0)
    assert layers[tracer.SNF + ".lattice.distinct_ratio"] == 0.5


# ------------------------------------------------------- failure counting


def test_corrupted_expected_value_counts_as_failed(tmp_path):
    expected = load_expected()
    expected["infinite-types"]["hc"]["t333"]["a"][2][3] += 1
    inputs = workloads.make_inputs("infinite-types", 3, str(tmp_path))
    inputs["oracle"] = inputs["oracle"][:5]
    jobs = [
        j
        for j in workloads.make_jobs("infinite-types", inputs, expected)
        if j.name in ("hc_t333", "oracle_slice")
    ]
    jobs.append(workloads.Job("raises", lambda: 1 // 0, lambda out: []))
    outputs, wall, _ = child.run_pass(jobs)
    results = child.check_outputs(jobs, outputs)
    attempted, failed, problems = run.tally([{"jobs": results}])
    assert wall > 0
    assert (attempted, failed) == (3, 2)
    assert any("t333 differs" in p for p in problems)
    assert any("ZeroDivisionError" in p for p in problems)


def test_output_that_changes_between_passes_counts_as_failed():
    first = {"jobs": [{"job": "a", "problems": [], "digest": "x"}]}
    second = {"jobs": [{"job": "a", "problems": [], "digest": "y"}]}
    assert run.tally([first, first])[:2] == (2, 0)
    assert run.tally([first, second])[:2] == (2, 1)


def test_rp2_canary_sees_the_torsion():
    faces = workloads.rp2_faces(workloads.random.Random(5))
    graded = workloads.rp2_run(faces)()
    assert workloads.rp2_problems(graded) == []
    assert graded[2].torsion == (2,)


# ------------------------------------------------------------ seeded inputs


def residue_profile(system):
    """Number of residues of every type, keyed by label names."""
    labels = system.matrix.labels
    return {
        workloads.type_key(T): max(residue_partition_map(system, T)) + 1
        for r in range(len(labels) + 1)
        for T in combinations(labels, r)
    }


def matrix_profile(mat):
    return {workloads.type_key(p): m for p, m in mat.entries.items()}


def invariants(workload, inputs):
    """Seed-independent facts about the inputs that fix the expected outputs."""
    if workload == "davis-realization":
        return (
            residue_profile(inputs["fano_x_a1"]),
            matrix_profile(inputs["a3"]),
            workloads.rp2_run(inputs["rp2"])().to_json(),
        )
    if workload == "thick-decomposition":
        with open(inputs["chamber_file"], encoding="utf-8") as fh:
            return residue_profile(parse_chamber_system(fh.read()))
    out = {}
    for name in workloads.HC_INPUTS:
        with open(inputs[name], encoding="utf-8") as fh:
            out[name] = matrix_profile(parse_coxeter_matrix(fh.read()))
    out["oracle"] = (len(inputs["oracle"]), len(set(m.to_text() for m in inputs["oracle"])))
    return out


def inputs_in(directory, workload, seed):
    directory.mkdir()
    return workloads.make_inputs(workload, seed, str(directory))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    a = inputs_in(tmp_path / "a", workload, 11)
    b = inputs_in(tmp_path / "b", workload, 11)
    assert workloads.fingerprint(a) == workloads.fingerprint(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_with_same_invariants(workload, tmp_path):
    a = inputs_in(tmp_path / "a", workload, 11)
    b = inputs_in(tmp_path / "b", workload, 12)
    assert workloads.fingerprint(a) != workloads.fingerprint(b)
    assert invariants(workload, a) == invariants(workload, b)


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == tracer.per_layer_metrics()
    assert not [n for n, c in Counter(n for n, _, _ in layer).items() if c > 1]
