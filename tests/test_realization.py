import random
from itertools import combinations

import pytest

from coxtop.chambers import (
    ChamberSystem,
    digon_building,
    fano_building,
    parse_chamber_system,
    product_building,
    projective_plane_building,
    thin_building,
)
from coxtop.complexes import (
    SimplicialComplex,
    classical_chamber,
    davis_chamber,
    local_groups,
    nerve,
    relative_cochain_complex,
    relative_cohomology,
)
from coxtop.coxmatrix import CoxeterMatrix, spherical_poset
from coxtop.decomposition import sigma_formula_check
from coxtop.hc import hc_standard_realization
from coxtop.intlinalg import AbGroup, GradedGroup
from coxtop.realization import (
    formula_cross_check,
    realization_cochain_complex,
    realization_cohomology,
    realize,
)
from test_chambers import BUILT_INS
from test_complexes import mirror_union
from test_intlinalg import uncleared_cohomology


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


A2 = mk("st", [("s", "t", 3)])
B2 = mk("st", [("s", "t", 4)])
A3 = mk("abc", [("a", "b", 3), ("b", "c", 3)])
A1 = mk("s", [])

CIRCLE = GradedGroup({0: AbGroup(1), 1: AbGroup(1)})
SPHERE2 = GradedGroup({0: AbGroup(1), 2: AbGroup(1)})


class TestRealize:
    def test_thin_a2_hexagon(self):
        sys = thin_building(A2)
        assert realize(sys, classical_chamber(A2)).f_vector() == (6, 6)
        assert realization_cohomology(sys, classical_chamber(A2)) == CIRCLE

    def test_fano_heawood(self):
        sys = fano_building()
        X = classical_chamber(sys.matrix)
        assert realize(sys, X).f_vector() == (14, 21)
        assert realization_cohomology(sys, X) == GradedGroup({0: AbGroup(1), 1: AbGroup(8)})

    def test_single_point_model(self):
        from coxtop.complexes import MirroredComplex, SimplicialComplex

        sys = thin_building(A2)
        X = MirroredComplex(
            sys.matrix.labels,
            SimplicialComplex.from_maximal([frozenset(["pt"])]),
            (frozenset(),),
        )
        assert realize(sys, X).f_vector() == (6,)
        assert realization_cohomology(sys, X) == GradedGroup({0: AbGroup(6)})

    def test_cell_count_identity(self):
        sys = digon_building(3, 3)
        K = davis_chamber(sys.matrix)
        r = realize(sys, K)
        for k in range(K.complex.dim + 1):
            expected = sum(
                len(set(sys.partition_map(K.face_label(f))))
                for f in K.complex.faces_of_dim(k)
            )
            assert len(r.faces_of_dim(k)) == expected

    def test_davis_realization_contractible(self):
        # the standard realization of a building is contractible
        for sys in (thin_building(A2), digon_building(3, 3), fano_building()):
            h = realization_cohomology(sys, davis_chamber(sys.matrix))
            assert h == GradedGroup({0: AbGroup(1)})


def coxeter_cohomology(mat):
    return realization_cohomology(thin_building(mat), classical_chamber(mat))


class TestCoxeterComplex:
    def test_a2_circle(self):
        assert coxeter_cohomology(A2) == CIRCLE

    def test_b2_circle(self):
        assert realize(thin_building(B2), classical_chamber(B2)).f_vector() == (8, 8)
        assert coxeter_cohomology(B2) == CIRCLE

    def test_a3_sphere(self):
        assert realize(thin_building(A3), classical_chamber(A3)).f_vector() == (14, 36, 24)
        assert coxeter_cohomology(A3) == SPHERE2

    def test_a1_two_points(self):
        assert coxeter_cohomology(A1) == GradedGroup({0: AbGroup(2)})


def renumbered(system, rng):
    """``system`` with its chambers permuted and its panel blocks shuffled."""
    perm = rng.sample(range(system.size), system.size)
    panels = {
        s: tuple(frozenset(perm[c] for c in b) for b in rng.sample(blocks, len(blocks)))
        for s, blocks in system.panels.items()
    }
    return ChamberSystem(system.matrix, panels, system.size)


# a 4-cycle of chambers of type s t inf: finite, so no building, but it
# has a realization; times a1 it has a non-spherical label over the simplex
DINF_CYCLE = "gens s t\ns t inf\nchambers 4\npanel s: {0,1} {2,3}\npanel t: {1,2} {3,0}\n"


def dinf_cycle_x_a1():
    return product_building(parse_chamber_system(DINF_CYCLE), thin_building(mk("u", [])))


RESIDUE_BLOCK_SYSTEMS = {
    "a1": lambda: thin_building(mk("u", [])),
    "fano": fano_building,
    "digon(2,3)": lambda: digon_building(2, 3),
    "digon(3,3)": lambda: digon_building(3, 3),
    "plane(3)": lambda: projective_plane_building(3),
    "fanoxa1": lambda: product_building(fano_building(), thin_building(mk("u", []))),
    "digon(3,3)xa1": lambda: product_building(digon_building(3, 3), thin_building(mk("u", []))),
    "fanoxfano": lambda: product_building(fano_building(), fano_building(("u", "v"))),
    "renumbered-fanoxa1": lambda: renumbered(
        product_building(fano_building(), thin_building(mk("u", []))), random.Random(16)
    ),
    "thin-A2": lambda: thin_building(A2),
    "thin-A3": lambda: thin_building(A3),
    "thin-B3": lambda: thin_building(mk("abc", [("a", "b", 4), ("b", "c", 3)])),
    "dinf-cycle": lambda: parse_chamber_system(DINF_CYCLE),
    "dinf-cyclexa1": dinf_cycle_x_a1,
}


def reference_realize(system, X):
    """The glued complex one face at a time, each copy written vertex by
    vertex, through the checking constructor."""
    model = X.complex
    label = {f: X.face_label(f) for f in model.faces}
    count = {f: len(system.least_chambers(T)) for f, T in label.items()}
    table, offset = [], {}
    for v, name in enumerate(model.vertices):
        if (v,) in count:
            offset[v] = len(table)
            table.extend((name, r) for r in range(count[(v,)]))
    faces = set()
    for f in model.faces:
        ups = [(offset[v], system.containing(label[f], label[(v,)])) for v in f]
        for r in range(count[f]):
            faces.add(tuple(o + up[r] for o, up in ups))
    return SimplicialComplex(tuple(table), frozenset(faces))


def over_both_models(names):
    """(name, model) for each system and model chamber; fano x fano over K
    takes about a second, so it is marked slow."""
    return [
        pytest.param(name, model, marks=pytest.mark.slow)
        if (name, model) == ("fanoxfano", "K") else (name, model)
        for name in names
        for model in ("delta", "K")
    ]


class TestResidueBlocksAgainstGluedComplex:
    """The residue-block cochain complex against the glued complex that
    ``realize`` builds, whose simplicial cohomology is the reference."""

    @pytest.mark.parametrize("model", ["delta", "K"])
    @pytest.mark.parametrize("name", list(RESIDUE_BLOCK_SYSTEMS))
    def test_glued_faces_match_the_checked_reference(self, name, model):
        system = RESIDUE_BLOCK_SYSTEMS[name]()
        chamber = classical_chamber if model == "delta" else davis_chamber
        X = chamber(system.matrix)
        glued, expected = realize(system, X), reference_realize(system, X)
        assert glued.vertices == expected.vertices
        assert glued.faces == expected.faces

    @pytest.mark.parametrize("name, model", over_both_models(RESIDUE_BLOCK_SYSTEMS))
    def test_same_cells_and_cohomology(self, name, model):
        system = RESIDUE_BLOCK_SYSTEMS[name]()
        chamber = classical_chamber if model == "delta" else davis_chamber
        X = chamber(system.matrix)
        glued = realize(system, X)
        blocks = realization_cochain_complex(system, X).validate()
        assert blocks.dims == dict(enumerate(glued.f_vector()))
        assert realization_cohomology(system, X) == relative_cohomology(glued)

    def test_non_spherical_label_is_glued(self):
        # over the simplex the vertex u has label {s, t}, whose two
        # residues are the two 4-cycles: the realization is the cylinder
        # over a circle with both ends coned off, a 2-sphere; dropping
        # those two cells would leave the open cylinder, H^1 = H^2 = Z
        system = dinf_cycle_x_a1()
        X = classical_chamber(system.matrix)
        assert len(system.least_chambers({"s", "t"})) == 2
        assert realization_cochain_complex(system, X).dims == {0: 6, 1: 12, 2: 8}
        assert realization_cohomology(system, X) == SPHERE2


def per_cell_block_complex(cells_by_degree, size, restrict):
    """Dims and maps of ``cochain_complex`` with ``size``, each cell's rows
    written by one comprehension over the basis elements of its block:
    row i holds (j + restrict(g, f)[i], sign) over the faces f of g.  The
    reference for the rows read across from per-face columns."""
    blocks, sizes, dims = {}, {}, {}
    for k, cells in cells_by_degree.items():
        blocks[k], total = {}, 0
        for c in cells:
            r = sizes[c] = size(c)
            if r:
                blocks[k][c] = total
                total += r
        if total:
            dims[k] = total
    maps = {}
    for k in sorted(dims):
        if k + 1 not in dims:
            continue
        rows = []
        for g in blocks[k + 1]:
            row, sign = [], 1
            for p in range(len(g)):
                f = g[:p] + g[p + 1 :]
                j = blocks[k].get(f)
                if j is not None:
                    row.append((j, sign, restrict(g, f)))
                sign = -sign
            rows.extend([(j + up[i], sign) for j, sign, up in row] for i in range(sizes[g]))
        maps[k] = rows
    return dims, maps


class TestBlockRowsAgainstPerCellRows:
    """Every residue-block complex against ``per_cell_block_complex``."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Checks each complex that ``residue_cochain_complex`` writes and
        keeps its maps."""
        from coxtop import decomposition

        seen = []
        build = decomposition.cochain_complex

        def checked(cells_by_degree, size, restrict):
            cx = build(cells_by_degree, size, restrict)
            assert (cx.dims, cx.maps) == per_cell_block_complex(cells_by_degree, size, restrict)
            seen.append(cx.maps)
            return cx

        monkeypatch.setattr(decomposition, "cochain_complex", checked)
        return seen

    @pytest.mark.parametrize("model", ["delta", "K"])
    @pytest.mark.parametrize("name", list(dict.fromkeys([*BUILT_INS, *RESIDUE_BLOCK_SYSTEMS])))
    def test_realized(self, name, model, checked):
        system = {**BUILT_INS, **RESIDUE_BLOCK_SYSTEMS}[name]()
        chamber = classical_chamber if model == "delta" else davis_chamber
        realization_cochain_complex(system, chamber(system.matrix))
        assert len(checked) == 1

    @pytest.mark.parametrize("name", ["fano", "digon(3,3)", "fanoxa1", "thin-A3", "fanoxfano"])
    def test_sigma_pairs(self, name, checked):
        system = BUILT_INS[name]()
        S = system.matrix.labels
        pairs = 0
        for T in spherical_poset(system.matrix):
            free = [s for s in S if s not in T]
            for r in range(len(free) + 1):
                for U in combinations(free, r):
                    sigma_formula_check(system, T, frozenset(U))
                    pairs += 1
        assert len(checked) == 3 * pairs and any(checked)

    def test_cell_with_no_face_gets_empty_rows(self):
        # the edge (1, 2) has no vertex in the complex, but the vertex (0,)
        # is there, so d^0 exists and holds two empty rows for the edge
        from coxtop.complexes import cochain_complex

        cells = {0: [(0,)], 1: [(1, 2)]}
        cx = cochain_complex(cells, lambda c: 2, lambda g, f: (0, 1))
        assert (cx.dims, cx.maps) == per_cell_block_complex(cells, lambda c: 2, None)
        assert cx.maps == {0: [[], []]}


CLEARING_SYSTEMS = [
    "fano", "fanoxa1", "plane(3)", "digon(3,3)", "thin-A2", "thin-A3", "thin-B3", "fanoxfano"
]


class TestClearingAgainstUncleared:
    """Top-down clearing in ``CochainComplex.cohomology`` against every
    map factored on its own, on both sides of the main formula."""

    @pytest.mark.parametrize("name, model", over_both_models(CLEARING_SYSTEMS))
    def test_realized(self, name, model):
        system = RESIDUE_BLOCK_SYSTEMS[name]()
        chamber = classical_chamber if model == "delta" else davis_chamber
        cx = realization_cochain_complex(system, chamber(system.matrix))
        assert cx.cohomology() == uncleared_cohomology(cx)

    @pytest.mark.parametrize("name", CLEARING_SYSTEMS)
    def test_local_groups_of_k(self, name):
        # the nerve route against the relative pair on K itself, whose
        # cohomology is taken with and without clearing
        matrix = RESIDUE_BLOCK_SYSTEMS[name]().matrix
        K = davis_chamber(matrix)
        S = set(matrix.labels)
        poset = spherical_poset(matrix)
        for T, h in local_groups(nerve(poset), poset):
            cx = relative_cochain_complex(K.complex, mirror_union(K, S - set(T)))
            assert h == cx.cohomology() == uncleared_cohomology(cx), T

    @pytest.mark.parametrize("name", CLEARING_SYSTEMS)
    def test_local_groups_of_delta(self, name):
        matrix = RESIDUE_BLOCK_SYSTEMS[name]().matrix
        delta = classical_chamber(matrix)
        S = set(matrix.labels)
        for T, h in local_groups(delta.nerve(), spherical_poset(matrix)):
            cx = relative_cochain_complex(delta.complex, mirror_union(delta, S - set(T)))
            assert h == cx.cohomology() == uncleared_cohomology(cx), T

    @pytest.mark.slow
    def test_realized_plane3_x_fano_over_k(self):
        # 689,280 coboundary nonzeros, every pivot of which the peel finds
        system = product_building(projective_plane_building(3), fano_building(("u", "v")))
        cx = realization_cochain_complex(system, davis_chamber(system.matrix))
        assert cx.cohomology() == uncleared_cohomology(cx) == GradedGroup({0: AbGroup(1)})


class TestCrossCheck:
    @pytest.mark.parametrize("target", ["delta", "K"])
    def test_thin_a2(self, target):
        sys = thin_building(A2)
        X = classical_chamber(A2) if target == "delta" else davis_chamber(A2)
        report = formula_cross_check(sys, X)
        assert report.ok and report.euler_ok

    @pytest.mark.parametrize("target", ["delta", "K"])
    def test_digon33(self, target):
        sys = digon_building(3, 3)
        mat = sys.matrix
        X = classical_chamber(mat) if target == "delta" else davis_chamber(mat)
        report = formula_cross_check(sys, X)
        assert report.ok and report.euler_ok

    @pytest.mark.parametrize("target", ["delta", "K"])
    def test_fano(self, target):
        sys = fano_building()
        mat = sys.matrix
        X = classical_chamber(mat) if target == "delta" else davis_chamber(mat)
        report = formula_cross_check(sys, X)
        assert report.ok and report.euler_ok

    def test_rank3_thin_types(self):
        for pairs in (
            [("a", "b", 3), ("b", "c", 3)],  # A3
            [("a", "b", 4), ("b", "c", 3)],  # B3
            [("b", "c", 3)],  # A1 x A2
        ):
            mat = mk("abc", pairs)
            sys_ = thin_building(mat)
            for X in (classical_chamber(mat), davis_chamber(mat)):
                report = formula_cross_check(sys_, X)
                assert report.ok and report.euler_ok, pairs

    def test_rank3_product_building(self):
        # 42 chambers of type A2 x A1: the largest cross-check in the suite
        prod = product_building(fano_building(), thin_building(mk("u", [])))
        for X in (classical_chamber(prod.matrix), davis_chamber(prod.matrix)):
            report = formula_cross_check(prod, X)
            assert report.ok and report.euler_ok

    def test_fano_delta_contributions(self):
        sys = fano_building()
        report = formula_cross_check(sys, classical_chamber(sys.matrix))
        by_type = {e.type: e for e in report.entries}
        # full set contributes the constants in degree 0
        full = by_type[("s", "t")]
        assert full.graded() == GradedGroup({0: AbGroup(1)})
        # the empty type contributes rank 8 in the top degree
        empty = by_type[()]
        assert empty.graded() == GradedGroup({1: AbGroup(8)})
        # singleton types contribute nothing
        assert not by_type[("s",)].graded()
        assert not by_type[("t",)].graded()
        assert report.realized == GradedGroup({0: AbGroup(1), 1: AbGroup(8)})


    @pytest.mark.parametrize("name", ["fano", "fanoxa1", "digon(3,3)", "thin-A3", "thin-B3"])
    def test_terms_are_the_hc_report_over_k(self, name):
        # over the Davis chamber the assembled side is the H_c report of
        # the same system, term by term
        system = RESIDUE_BLOCK_SYSTEMS[name]()
        report = formula_cross_check(system, davis_chamber(system.matrix))
        hc = hc_standard_realization(system.matrix, system)
        assert report.entries == hc.contributions
        assert report.assembled == hc.totals == report.realized


def test_cohomology_path_scans_no_dense_matrix(monkeypatch):
    # the splittings (the lattice path) are computed first; every
    # coboundary after that must reach the elimination as sparse rows
    from coxtop import intlinalg
    from coxtop.decomposition import BuildingDecomposition

    prod = product_building(fano_building(), thin_building(mk("u", [])))
    dec = BuildingDecomposition(prod)
    for T in dec.poset:
        dec.splitting(T)

    factor = intlinalg._divisors_and_pivots
    factored = []

    def sparse_only(rows, cleared):
        for row in rows:
            assert all(isinstance(e, tuple) and len(e) == 2 and e[1] for e in row), row
        factored.append(len(rows))
        return factor(rows, cleared)

    monkeypatch.setattr(intlinalg, "_divisors_and_pivots", sparse_only)
    report = formula_cross_check(prod, davis_chamber(prod.matrix))
    assert report.ok and report.euler_ok and factored
