"""Workload inputs, jobs and correctness checks for the coxtop benchmark.

A workload is a list of jobs.  ``make_inputs(workload, seed, workdir)``
generates the inputs from the seed; with the import of coxtop it is the
set-up the benchmark times.  ``make_jobs(workload, inputs, expected)``
returns the jobs over those inputs, each a computation and its check.
The seed renumbers chambers, permutes generator order and samples
the oracle slice; every expected invariant is independent of the seed.

Closed forms are checked where they exist (Steinberg ranks q^N, unit
witness determinants, free-product growth 0, 1, 2, 4, ..., the Z/2 of
RP^2, agreement of the two finiteness oracles).  Everything else is
compared against ``expected.json``, recorded at the seed commit with
``record_expected.py``.

Jobs call coxtop through module attributes (``realization.realize``), so
that wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, product

from coxtop import chambers, cli, complexes, coxmatrix, realization
from coxtop.coxmatrix import INF, CoxeterMatrix

WORKLOADS = ("davis-realization", "thick-decomposition", "infinite-types")

# D^empty of a building of type with longest-element length N over panels
# of size q + 1 has rank q^N (Solomon-Tits): fano is q = 2, N = 3 and a
# thin factor contributes q = 1.
STEINBERG_FANO_X_A1 = 2**3
STEINBERG_FANO_X_FANO = 2**6
FANO_X_FANO_CHAMBERS = 21 * 21
FANO_X_A1_F_VECTOR = [108, 457, 602, 252]

# 6-vertex triangulation of the real projective plane (hemi-icosahedron).
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
)

# Rank-4 oracle sweep: every labelling of the six pairs by these values.
ORACLE_VALUES = (2, 3, 4, 5, 6, INF)
ORACLE_LABELS = ("a", "b", "c", "d")
ORACLE_SLICE = 4666  # one tenth of the 6^6 matrices

HC_INPUTS = {
    # name: (generators, labelled pairs, radius)
    "free3": ("stu", (("s", "t", "inf"), ("t", "u", "inf"), ("s", "u", "inf")), 8),
    "t333": ("abc", (("a", "b", "3"), ("b", "c", "3"), ("a", "c", "3")), 12),
    "t236": ("abc", (("b", "c", "3"), ("a", "c", "6")), 12),
}


@dataclass
class Job:
    """One timed computation and the check of its output.

    ``run`` takes no arguments and returns the output; ``check`` takes the
    output and returns a list of problems (empty when correct).
    """

    name: str
    run: object
    check: object


def type_key(T):
    """Seed-independent key for a generator subset: sorted label names."""
    return ",".join(sorted(T))


# ------------------------------------------------------------------ inputs


def _permuted_matrix(mat, rng):
    labels = list(mat.labels)
    rng.shuffle(labels)
    return CoxeterMatrix(tuple(labels), dict(mat.entries))


def renumbered(system, rng):
    """The same chamber system with chambers renumbered, panel blocks
    reordered and generator order permuted."""
    perm = list(range(system.size))
    rng.shuffle(perm)
    panels = {}
    for s in system.matrix.labels:
        blocks = [frozenset(perm[i] for i in b) for b in system.panels[s]]
        rng.shuffle(blocks)
        panels[s] = tuple(blocks)
    return chambers.ChamberSystem(_permuted_matrix(system.matrix, rng), panels, system.size)


def a1_building():
    return chambers.thin_building(CoxeterMatrix(("u",), {}))


def fano_x_fano():
    second = chambers.fano_building(("s1", "t1"))
    return chambers.product_building(chambers.fano_building(), second)


def cox_text(gens, pairs, rng):
    """A .cox file for the given pairs, generators in a seed-chosen order."""
    order = list(gens)
    rng.shuffle(order)
    pairs = list(pairs)
    rng.shuffle(pairs)
    return "gens " + " ".join(order) + "\n" + "".join(f"{s} {t} {m}\n" for s, t, m in pairs)


def oracle_slice(rng):
    """A seed-chosen fixed-size sample of the rank-4 matrices."""
    slots = list(combinations(ORACLE_LABELS, 2))
    every = list(product(ORACLE_VALUES, repeat=len(slots)))
    picked = sorted(rng.sample(range(len(every)), ORACLE_SLICE))
    return [
        CoxeterMatrix(ORACLE_LABELS, {frozenset(p): m for p, m in zip(slots, every[i]) if m != 2})
        for i in picked
    ]


# -------------------------------------------------------------------- jobs


def cross_check_run(make_system, with_f_vector):
    def run():
        system = make_system()
        K = complexes.davis_chamber(system.matrix)
        f_vector = list(realization.realize(system, K).f_vector()) if with_f_vector else None
        report = realization.formula_cross_check(system, K)
        return {"f_vector": f_vector, "report": report}

    return run


def cross_check_record(report):
    """The seed-independent part of a cross-check report."""
    return {
        "entries": {type_key(e.type): [e.local.to_json(), e.multiplicity] for e in report.entries},
        "realized": report.realized.to_json(),
    }


def cross_check_problems(out, expected, steinberg, f_vector=None):
    report = out["report"]
    record = cross_check_record(report)
    problems = []
    if not report.ok:
        problems.append("realized cohomology differs from the assembled sum")
    if not report.euler_ok:
        problems.append("Euler characteristics differ")
    if f_vector is not None and out["f_vector"] != f_vector:
        problems.append(f"f-vector {out['f_vector']} != {f_vector}")
    rank = record["entries"].get("", [None, None])[1]
    if rank != steinberg:
        problems.append(f"Steinberg rank {rank} != {steinberg}")
    if record["entries"] != expected["entries"]:
        problems.append("cross-check entries differ from the recorded values")
    if record["realized"] != expected["realized"]:
        problems.append("realized cohomology differs from the recorded value")
    return problems


def rp2_faces(rng):
    """The RP^2 triangles with vertices renamed by a seed-chosen permutation."""
    names = list(range(6))
    rng.shuffle(names)
    return [tuple(names[v] for v in tri) for tri in RP2_TRIANGLES]


def rp2_run(faces):
    def run():
        X = complexes.SimplicialComplex.from_maximal(faces)
        return complexes.relative_cohomology(X)

    return run


def rp2_problems(graded):
    got = graded.to_json()
    want = {"0": {"free_rank": 1, "torsion": []}, "2": {"free_rank": 0, "torsion": [2]}}
    return [] if got == want else [f"RP^2 cohomology {got} != {want}"]


def cli_run(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}

    return run


def cli_payload(out):
    if out["code"] != 0:
        raise ValueError(f"exit code {out['code']}")
    return json.loads(out["stdout"])


def verify_building_problems(out, expected):
    payload = cli_payload(out)
    problems = [] if payload["passed"] else ["verify_building did not pass"]
    if len(payload["residue_checks"]) != expected["residue_checks"]:
        problems.append("number of rank-2 residue checks differs from the recorded value")
    return problems


def part_ranks(payload):
    """Witness part ranks keyed by type labels."""
    return {type_key(T): r for T, r in payload["part_ranks"]}


def witness_problems(out, expected):
    payload = cli_payload(out)
    ranks = part_ranks(payload)
    problems = []
    if not payload["ok"] or abs(payload["determinant"] or 0) != 1:
        problems.append(f"witness determinant {payload['determinant']} is not a unit")
    if sum(ranks.values()) != FANO_X_FANO_CHAMBERS:
        problems.append(f"part ranks sum to {sum(ranks.values())}, not {FANO_X_FANO_CHAMBERS}")
    if ranks.get("") != STEINBERG_FANO_X_FANO:
        problems.append(f"Steinberg rank {ranks.get('')} != {STEINBERG_FANO_X_FANO}")
    if ranks != expected["part_ranks"]:
        problems.append("part ranks differ from the recorded values")
    return problems


def hc_canonical(payload):
    """The hc report keyed by type labels, so generator order drops out."""
    return {
        type_key(c["T"]): [c["local"], c["multiplicity"], c["series"]["coefficients"]]
        for c in payload["contributions"]
    }


def hc_problems(name, out, expected):
    got = hc_canonical(cli_payload(out))
    problems = []
    if name == "free3":
        radius = HC_INPUTS[name][2]
        want = [0] + [2 ** (i - 1) for i in range(1, radius + 1)]
        if got.get("s", [None, None, None])[2] != want:
            problems.append(f"free-product series at T={{s}} is not {want}")
    if got != expected[name]:
        problems.append(f"hc report for {name} differs from the recorded value")
    return problems


def oracle_run(matrices):
    subsets = [T for r in range(len(ORACLE_LABELS) + 1) for T in combinations(ORACLE_LABELS, r)]

    def run():
        cases = disagreements = 0
        for mat in matrices:
            for T in subsets:
                cases += 1
                disagreements += coxmatrix.is_spherical(mat, T) != coxmatrix.cosine_gram_definite(mat, T)
        return {"cases": cases, "disagreements": disagreements}

    return run


def oracle_problems(out, cases):
    problems = []
    if out["disagreements"]:
        problems.append(f"oracles disagree on {out['disagreements']} subsets")
    if out["cases"] != cases:
        problems.append(f"slice covered {out['cases']} subsets, not {cases}")
    return problems


def make_inputs(workload, seed, workdir):
    """The workload's inputs, generated from the seed; files go to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "davis-realization":
        a3 = CoxeterMatrix(("a", "b", "c"), {frozenset("ab"): 3, frozenset("bc"): 3})
        fano_a1 = chambers.product_building(chambers.fano_building(), a1_building())
        return {
            "fano_x_a1": renumbered(fano_a1, rng),
            "a3": _permuted_matrix(a3, rng),
            "rp2": rp2_faces(rng),
        }
    if workload == "thick-decomposition":
        system = renumbered(fano_x_fano(), rng)
        inputs = {
            "chamber_file": os.path.join(workdir, "fano_x_fano.chambers"),
            "matrix_file": os.path.join(workdir, "fano_x_fano.cox"),
        }
        _write(inputs["chamber_file"], system.to_text())
        _write(inputs["matrix_file"], system.matrix.to_text())
        return inputs
    if workload == "infinite-types":
        inputs = {}
        for name, (gens, pairs, _) in HC_INPUTS.items():
            inputs[name] = os.path.join(workdir, f"{name}.cox")
            _write(inputs[name], cox_text(gens, pairs, rng))
        inputs["oracle"] = oracle_slice(rng)
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_jobs(workload, inputs, expected):
    """The workload's jobs over the given inputs."""
    want = expected[workload]
    if workload == "davis-realization":
        return [
            Job(
                "fano_x_a1",
                cross_check_run(lambda: inputs["fano_x_a1"], with_f_vector=True),
                lambda out: cross_check_problems(
                    out, want["fano_x_a1"], STEINBERG_FANO_X_A1, FANO_X_A1_F_VECTOR
                ),
            ),
            Job(
                "thin_a3",
                cross_check_run(lambda: chambers.thin_building(inputs["a3"]), with_f_vector=False),
                lambda out: cross_check_problems(out, want["thin_a3"], 1),
            ),
            Job("rp2_torsion", rp2_run(inputs["rp2"]), rp2_problems),
        ]
    if workload == "thick-decomposition":
        chamber_file, matrix_file = inputs["chamber_file"], inputs["matrix_file"]
        return [
            Job(
                "verify_building",
                cli_run(["verify-building", "--chamber-file", chamber_file, "--json"]),
                lambda out: verify_building_problems(out, want),
            ),
            Job(
                "verify_decomposition",
                cli_run(
                    ["verify-decomposition", matrix_file, "--chamber-file", chamber_file, "--json"]
                ),
                lambda out: witness_problems(out, want),
            ),
        ]
    jobs = [
        Job(
            f"hc_{name}",
            cli_run(["hc", inputs[name], "--N", str(radius), "--json"]),
            lambda out, name=name: hc_problems(name, out, want["hc"]),
        )
        for name, (_, _, radius) in HC_INPUTS.items()
    ]
    cases = len(inputs["oracle"]) * 2 ** len(ORACLE_LABELS)
    jobs.append(
        Job("oracle_slice", oracle_run(inputs["oracle"]), lambda out: oracle_problems(out, cases))
    )
    return jobs


def fingerprint(inputs):
    """Text that changes exactly when the generated inputs change."""
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, str):
            with open(value, encoding="utf-8") as fh:
                parts.append(fh.read())
        elif isinstance(value, list) and value and isinstance(value[0], CoxeterMatrix):
            parts.extend(m.to_text() for m in value)
        elif hasattr(value, "to_text"):
            parts.append(value.to_text())
        else:
            parts.append(repr(value))
    return "\n".join(parts)
