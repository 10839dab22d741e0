"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is exact (no tolerances anywhere - every comparison
is integer or boolean equality).
"""

from itertools import combinations, product
from math import prod

import pytest

from coxtop.chambers import (
    digon_building,
    fano_building,
    product_building,
    projective_plane_building,
    thin_building,
)
from coxtop.cli import main as cli_main
from coxtop.complexes import classical_chamber, davis_chamber
from coxtop.coxmatrix import (
    INF,
    CoxeterMatrix,
    cosine_gram_definite,
    is_spherical,
    spherical_poset,
)
from coxtop.decomposition import (
    BuildingDecomposition,
    filtration_ranks,
    sigma_formula_check,
)
from coxtop.groups import enumerate_ball, enumerate_group
from coxtop.hc import duality_check, thin_multiplicity_series, vcd
from coxtop.intlinalg import AbGroup, GradedGroup
from coxtop.realization import formula_cross_check, realization_cohomology
from test_chambers import BUILT_INS
from test_groups import descent_count


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


A2 = mk("st", [("s", "t", 3)])
B2 = mk("st", [("s", "t", 4)])
A3 = mk("abc", [("a", "b", 3), ("b", "c", 3)])
FREE3 = mk("stu", [("s", "t", INF), ("t", "u", INF), ("s", "u", INF)])
DINF = mk("st", [("s", "t", INF)])
TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
RA_4CYCLE = mk("abcd", [("a", "c", INF), ("b", "d", INF)])
MIXED = mk(
    "abcd",
    [
        ("a", "b", 3),
        ("b", "c", 3),
        ("a", "c", 3),
        ("a", "d", INF),
        ("b", "d", INF),
        ("c", "d", INF),
    ],
)

RANK_LE_3_FINITE = {
    "A1": mk("a", []),
    "A1xA1": mk("ab", []),
    "A2": A2,
    "B2": B2,
    "I2(5)": mk("st", [("s", "t", 5)]),
    "I2(6)": mk("st", [("s", "t", 6)]),
    "A3": A3,
    "B3": mk("abc", [("a", "b", 4), ("b", "c", 3)]),
    "A1xA2": mk("abc", [("b", "c", 3)]),
    "H3": mk("abc", [("a", "b", 5), ("b", "c", 3)]),
}


def report(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def test_criterion_01_thin_decomposition():
    for name, mat in RANK_LE_3_FINITE.items():
        system = thin_building(mat)
        dec = BuildingDecomposition(system)
        witness = dec.witness(frozenset())
        assert witness.ok, (name, witness.note)
        assert abs(witness.determinant) == 1, name
        table = enumerate_group(mat, mat.labels)
        assert witness.rank_sum() == len(table) == system.size, name
        for T in dec.poset:
            q = dec.d_quotient(T)
            assert not q.torsion, (name, T)
            assert q.free == descent_count(table, T), (name, T)
    report(1, "thin decomposition witnesses are unimodular and the quotient "
              "ranks equal the descent-class counts on all ten groups")


def test_criterion_02_thick_decomposition():
    cases = [
        ("digon(2,3)", digon_building(2, 3), 6),
        ("digon(3,3)", digon_building(3, 3), 9),
        ("fano", fano_building(), 21),
        (
            "fano x thin A1",
            product_building(fano_building(), thin_building(mk("u", []))),
            42,
        ),
    ]
    for name, system, size in cases:
        assert system.size == size, name
        dec = BuildingDecomposition(system)
        types = dec.poset if name == "fano" else [frozenset()]
        for T in types:
            witness = dec.witness(T)
            assert witness.ok, (name, sorted(T), witness.note)
            assert abs(witness.determinant) == 1, (name, sorted(T))
        w0 = dec.witness(frozenset())
        assert w0.rank_sum() == size, name
    report(2, "thick decomposition witnesses are unimodular with rank sums "
              "6, 9, 21, 42 (digon(2,3) has 6 chambers by construction)")


def test_criterion_03_chamber_concentration():
    expected = [
        (thin_building(A2), 1),
        (digon_building(3, 3), 4),
        (fano_building(), 8),
    ]
    for system, rank in expected:
        dec = BuildingDecomposition(system)
        # H(sigma, sigma^U) at T = U = {} is the whole augmented chamber simplex
        h = sigma_formula_check(system, (), ()).entries[0].direct
        n = len(system.matrix.labels) - 1
        assert h == GradedGroup({n: AbGroup(rank)}), (system.size, h)
        assert dec.d_quotient(frozenset()) == AbGroup(rank)
    report(3, "chamber coefficient cohomology is concentrated in the top "
              "degree with ranks 1, 4, 8 and no torsion")


def test_criterion_04_main_formula_cross_check():
    systems = [thin_building(A2), digon_building(3, 3), fano_building()]
    for system in systems:
        for model in (classical_chamber(system.matrix), davis_chamber(system.matrix)):
            result = formula_cross_check(system, model)
            assert result.ok, (system.size, result.to_json())
    fano = fano_building()
    r = realization_cohomology(fano, classical_chamber(fano.matrix))
    assert r == GradedGroup({0: AbGroup(1), 1: AbGroup(8)})
    report(4, "realized cohomology equals the assembled sum for all six "
              "(building, model) pairs; Fano over the simplex gives (Z, Z^8)")


def test_criterion_05_face_identities_exhaustive():
    checked = 0
    for system in (thin_building(A2), fano_building()):
        dec = BuildingDecomposition(system)
        S = set(system.matrix.labels)
        for T in dec.poset:
            free = sorted(S - T)
            for r in range(len(free) + 1):
                for U in combinations(free, r):
                    result = sigma_formula_check(system, T, U)
                    assert result.ok, (sorted(T), U, result.to_json())
                    checked += 1
    report(5, f"all {checked} face-cohomology identity checks pass on the "
              "thin and Fano rank-2 buildings")


def test_criterion_06_coxeter_complexes_are_spheres():
    circle = GradedGroup({0: AbGroup(1), 1: AbGroup(1)})
    sphere2 = GradedGroup({0: AbGroup(1), 2: AbGroup(1)})
    for mat, sphere in ((A2, circle), (B2, circle), (A3, sphere2)):
        assert realization_cohomology(thin_building(mat), classical_chamber(mat)) == sphere
    report(6, "Coxeter complexes: A2 and B2 realize circles, A3 realizes "
              "the 2-sphere, exactly")


def test_criterion_07_vcd():
    assert vcd(FREE3).value == 1
    assert vcd(DINF).value == 1
    assert vcd(TRIANGLE333).value == 2
    assert vcd(RA_4CYCLE).value == 2
    report(7, "vcd = 1 for the free product of three involutions and the "
              "infinite dihedral group; 2 for the (3,3,3) triangle and the "
              "4-cycle right-angled system")


def test_criterion_08_duality():
    r1 = duality_check(FREE3)
    assert r1.is_duality and r1.dimension == 1
    r2 = duality_check(TRIANGLE333)
    assert r2.is_duality and r2.dimension == 2
    r3 = duality_check(MIXED)
    assert not r3.is_duality and r3.offending
    report(8, "duality verdicts: (true, 1), (true, 2), and a mixed-"
              f"concentration failure with offending types {sorted(set(tuple(T) for T, _ in r3.offending))}")


@pytest.mark.slow
def test_criterion_09_oracle_agreement_sweep():
    values = [2, 3, 4, 5, 6, INF]
    total = 0
    # ranks 1..3 exhaustively
    for rank in (1, 2, 3):
        labels = tuple("abcd"[:rank])
        pair_slots = list(combinations(labels, 2))
        for ms in product(values, repeat=len(pair_slots)):
            entries = {
                frozenset(p): m for p, m in zip(pair_slots, ms) if m != 2
            }
            mat = CoxeterMatrix(labels, entries)
            for r in range(rank + 1):
                for T in combinations(labels, r):
                    assert is_spherical(mat, T) == cosine_gram_definite(mat, T)
                    total += 1
    # rank 4 exhaustively (6^6 matrices)
    labels = ("a", "b", "c", "d")
    pair_slots = list(combinations(labels, 2))
    subsets = [T for r in range(5) for T in combinations(labels, r)]
    for ms in product(values, repeat=6):
        entries = {frozenset(p): m for p, m in zip(pair_slots, ms) if m != 2}
        mat = CoxeterMatrix(labels, entries)
        for T in subsets:
            assert is_spherical(mat, T) == cosine_gram_definite(mat, T)
            total += 1
    report(9, f"classification and Gram-definiteness oracles agree on all "
              f"{total} subset checks over every rank <= 4 matrix")


def test_criterion_10_growth_series():
    [series] = thin_multiplicity_series(spherical_poset(FREE3), [("s",)], 8)
    assert series.coefficients == (0, 1, 2, 4, 8, 16, 32, 64, 128)
    # independent cross-check: brute-force descent counting in the ball
    ball = enumerate_ball(FREE3, 8)
    brute = [0] * 9
    for e in ball.elements:
        if e.descents == frozenset("s"):
            brute[e.length] += 1
    assert tuple(brute) == series.coefficients
    for mat in (FREE3, TRIANGLE333, DINF, A2):
        [empty] = thin_multiplicity_series(spherical_poset(mat), [()], 6)
        assert empty.coefficients == (1, 0, 0, 0, 0, 0, 0)
    report(10, "descent growth series: powers of two at the singleton, "
               "(1, 0, 0, ...) at the empty set for every tested matrix")


def test_criterion_11_filtration_and_graded_modules():
    from coxtop.hc import graded_module_report

    systems = [
        thin_building(A2),
        digon_building(2, 3),
        digon_building(3, 3),
        fano_building(),
    ]
    for system in systems:
        filt = filtration_ranks(system)
        assert filt.matches, system.size
        assert sum(g.free for g in filt.graded) == system.size
        graded = graded_module_report(system)
        realized = realization_cohomology(system, davis_chamber(system.matrix))
        assert graded.totals == realized, system.size
        assert graded.matches_hc
    report(11, "filtration gradeds sum to the chamber count and the graded "
               "module rows total the realized standard cohomology on all "
               "four finite buildings")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    files = {}
    for name, text in [
        ("triangle333.cox", "gens a b c\na b 3\nb c 3\na c 3\n"),
        ("freeprod3.cox", "gens s t u\ns t inf\nt u inf\ns u inf\n"),
        ("a2.cox", "gens s t\ns t 3\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        files[name] = str(p)
    suite = [
        ["spherical-subsets", files["triangle333.cox"], "--json"],
        ["nerve", files["triangle333.cox"], "--json"],
        ["davis-chamber", files["freeprod3.cox"], "--json"],
        ["cohomology", files["triangle333.cox"], "--model", "K", "--json"],
        ["realize", files["a2.cox"], "--building", "fano", "--model", "delta", "--json"],
        ["coxeter-complex", files["a2.cox"], "--json"],
        ["decompose", files["a2.cox"], "--building", "digon(3,3)", "--json"],
        ["verify-decomposition", files["a2.cox"], "--building", "fano", "--json"],
        ["sigma-check", files["a2.cox"], "--json"],
        ["hc", files["freeprod3.cox"], "--json", "--N", "4"],
        ["vcd", files["triangle333.cox"], "--json"],
        ["duality", files["freeprod3.cox"], "--json"],
        ["growth", files["freeprod3.cox"], "--T", "s", "--N", "5", "--json"],
        ["filtration", files["a2.cox"], "--json"],
        ["verify-building", "--building", "fanoxa1", "--json"],
        ["metric-flag", files["triangle333.cox"], "--json"],
    ]
    outputs = []
    for argv in suite:
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        outputs.append(out)
    for argv, first in zip(suite, outputs):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out == first, argv
    report(12, f"all {len(suite)} CLI invocations produce byte-identical "
               "JSON on repeated runs")


def thickness_sums(system):
    """Sum of q_w over the w of W with each descent set, where q_w is the
    product of (panel size - 1) along a reduced word of w: the number of
    chambers at W-distance w from a given one."""
    mat = system.matrix
    q = {}
    for s in mat.labels:
        sizes = {len(block) for block in system.panels[s]}
        assert len(sizes) == 1, (s, sizes)
        q[s] = sizes.pop() - 1
    sums = {}
    for e in enumerate_group(mat, mat.labels).elements:
        sums[e.descents] = sums.get(e.descents, 0) + prod(q[s] for s in e.word)
    return sums


def test_criterion_13_summand_ranks_closed_form():
    systems = {name: build() for name, build in BUILT_INS.items()}
    systems["plane(3)xplane(3)"] = product_building(
        projective_plane_building(3), projective_plane_building(3, ("u", "v"))
    )
    for name, system in systems.items():
        dec = BuildingDecomposition(system)
        S = frozenset(system.matrix.labels)
        sums = thickness_sums(system)
        for T in dec.poset:
            assert dec.splitting_rank(T) == sums.get(S - T, 0), (name, sorted(T))
    plane_squared = BuildingDecomposition(systems["plane(3)xplane(3)"])
    assert plane_squared.splitting_rank(frozenset()) == 3**6
    report(13, "every summand rank hat(A)^T equals the sum of q_w over the w "
               f"with descent set S - T on all {len(systems)} buildings; "
               "plane(3) x plane(3) has Steinberg rank 3^6 = 729")
