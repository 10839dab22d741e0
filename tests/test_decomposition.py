import pytest

from coxtop.chambers import (
    ChamberError,
    ChamberSystem,
    digon_building,
    fano_building,
    parse_chamber_system,
    product_building,
    thin_building,
)
from coxtop.complexes import classical_chamber, davis_chamber
from coxtop.coxmatrix import CoxeterMatrix, spherical_poset
from coxtop.decomposition import (
    BuildingDecomposition,
    filtration_ranks,
    residue_cochain_complex,
    sigma_formula_check,
)
from coxtop.groups import enumerate_group
from coxtop.intlinalg import (
    AbGroup,
    GradedGroup,
    TorsionObstruction,
    column_hermite,
    echelon_basis,
    quotient_structure,
)
from coxtop.realization import realization_cochain_complex
from test_complexes import mirror_union, simplex_sign
from test_groups import descent_count


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


def coefficient_complex(X, B, system):
    """The coefficient complex of the pair (X, B), unaugmented: one block
    A^{S(c)} per cell c of X outside B (a subcomplex on X's vertex table)
    whose label S(c) is spherical, written by ``residue_cochain_complex``."""
    poset = spherical_poset(system.matrix)
    bfaces = B.faces if B is not None else frozenset()
    cells = {
        k: [f for f in X.complex.faces_of_dim(k) if f not in bfaces and X.face_label(f) in poset]
        for k in range(X.complex.dim + 1)
    }
    return residue_cochain_complex(system, cells, X.face_label)


def chamber_simplex_cohomology(system):
    """The augmented coefficient cohomology of the whole chamber simplex:
    the pair (sigma, sigma^U) of ``sigma_formula_check`` at T = U = {}."""
    rel = sigma_formula_check(system, (), ()).entries[0]
    assert rel.name == "rel"
    return rel.direct


A2 = mk("st", [("s", "t", 3)])
# four chambers of type s t inf: a finite chamber system of infinite type
DINF_CYCLE = "gens s t\ns t inf\nchambers 4\npanel s: {0,1} {2,3}\npanel t: {1,2} {3,0}\n"


@pytest.fixture(scope="module")
def thin_a2():
    return BuildingDecomposition(thin_building(A2))


@pytest.fixture(scope="module")
def fano():
    return BuildingDecomposition(fano_building())


@pytest.fixture(scope="module")
def digon33():
    return BuildingDecomposition(digon_building(3, 3))


class TestResidueModules:
    def test_empty_type_full_module(self, fano):
        assert fano.residue_count(frozenset()) == 21

    def test_fano_point_type(self, fano):
        assert fano.residue_count(frozenset("s")) == 7

    def test_fano_full_type_connected(self, fano):
        assert fano.residue_count(frozenset("st")) == 1

    def test_nonspherical_zero(self):
        inf = mk("st", [("s", "t", None)])
        panels = {
            "s": (frozenset({0, 1}), frozenset({2, 3})),
            "t": (frozenset({0, 3}), frozenset({1, 2})),
        }
        dec = BuildingDecomposition(ChamberSystem(inf, panels, 4))
        # A^{st} = 0: it adds no generator and has no D or summand
        assert dec.span_in_coordinates(frozenset(), [frozenset("st")]) == []
        assert dec.d_quotient(frozenset("st")) == AbGroup()
        assert dec.residue_count(frozenset()) == 4
        with pytest.raises(ValueError, match="not spherical") as refused:
            dec.splitting(frozenset("st"))
        assert not isinstance(refused.value, TorsionObstruction)


class TestAboveAndQuotient:
    def test_fano_above_empty(self, fano):
        H = fano.above_in_coordinates(frozenset())
        # 7 + 7 indicators, one relation
        assert len(echelon_basis(fano.residue_count(frozenset()), H)) == 13

    def test_thin_a2_above_s(self, thin_a2):
        H = thin_a2.above_in_coordinates(frozenset("s"))
        # the all-ones vector
        assert len(echelon_basis(thin_a2.residue_count(frozenset("s")), H)) == 1

    def test_maximal_type(self, fano):
        H = fano.above_in_coordinates(frozenset("st"))
        assert echelon_basis(fano.residue_count(frozenset("st")), H) == []

    def test_thin_a2_d_ranks(self, thin_a2):
        ranks = {
            (): 1,
            ("s",): 2,
            ("t",): 2,
            ("s", "t"): 1,
        }
        for T, r in ranks.items():
            q = thin_a2.d_quotient(frozenset(T))
            assert q == AbGroup(r), T

    def test_fano_d_empty(self, fano):
        assert fano.d_quotient(frozenset()) == AbGroup(8)

    def test_digon_d_ranks(self, digon33):
        assert digon33.d_quotient(frozenset()) == AbGroup(4)
        assert digon33.d_quotient(frozenset("s")) == AbGroup(2)
        assert digon33.d_quotient(frozenset("t")) == AbGroup(2)
        assert digon33.d_quotient(frozenset("st")) == AbGroup(1)

    def test_thin_d_ranks_match_descents(self):
        mat = mk("abc", [("a", "b", 3), ("b", "c", 3)])
        dec = BuildingDecomposition(thin_building(mat))
        table = enumerate_group(mat, "abc")
        for T in dec.poset:
            assert dec.d_quotient(T).free == descent_count(table, T), T

    def test_monotone_containment(self, fano):
        # A^U sits inside A^T when T <= U: every U-indicator is a sum of
        # T-indicators, so the inclusion matrix has one 1 per fine residue
        inc = fano.inclusion_matrix(frozenset("s"), frozenset("st"))
        assert all(sum(row) == 1 for row in inc)


@pytest.mark.parametrize(
    "build",
    [
        fano_building,
        lambda: thin_building(mk("abc", [("a", "b", 3), ("b", "c", 3)])),
        lambda: digon_building(3, 3),
        lambda: product_building(fano_building(), thin_building(mk("u", []))),
    ],
    ids=["fano", "thin_a3", "digon33", "fano_x_a1"],
)
def test_covers_span_the_same_lattice(build):
    # A^{>T} from the covers T+s equals the span over every strict superset
    dec = BuildingDecomposition(build())
    for T in dec.poset:
        every = [
            [(i, x) for i, x in enumerate(col) if x]
            for U in dec.poset.supersets(T, strict=True)
            for col in zip(*dec.inclusion_matrix(T, U))
        ]
        above = dec.above_in_coordinates(T)
        assert column_hermite(above) == column_hermite(every), T
        # D^T read off the splitting equals the quotient factored directly
        assert dec.d_quotient(T) == quotient_structure(dec.residue_count(T), above), T


def test_torsion_quotient_read_off_the_splitting():
    # nine chambers of type A2 x A1 on which A^{>empty} is not a direct summand
    nine = ChamberSystem(
        mk("stu", [("s", "t", 3)]),
        {
            "s": tuple(map(frozenset, ([0, 5], [4, 6, 7], [2, 3], [1, 8]))),
            "t": tuple(map(frozenset, ([1, 4], [2, 6], [3, 5, 7], [0, 8]))),
            "u": tuple(map(frozenset, ([0, 7], [2, 6], [5, 8], [1, 3, 4]))),
        },
        9,
    )
    dec = BuildingDecomposition(nine)
    assert dec.d_quotient(frozenset()) == AbGroup(0, (2,))
    with pytest.raises(TorsionObstruction) as obstruction:
        dec.splitting(frozenset())
    assert obstruction.value.quotient == AbGroup(0, (2,))


def test_splittings_are_shared_per_system():
    system = fano_building()
    first, second = BuildingDecomposition(system), BuildingDecomposition(system)
    assert first.poset is second.poset is system.poset()
    for T in first.poset:
        assert first.splitting(T) is second.splitting(T), T


@pytest.mark.parametrize(
    "read",
    [
        lambda dec: dec.residue_count(("z",)),
        lambda dec: dec.witness(("z",)),
        lambda dec: dec.d_quotient(("z",)),
        lambda dec: dec.splitting(("z",)),
        lambda dec: dec.splitting_rank(("s", "z")),
        lambda dec: sigma_formula_check(dec.system, ("z",), ()),
        lambda dec: sigma_formula_check(dec.system, (), ("z",)),
    ],
    ids=["residue_count", "witness", "d_quotient", "splitting", "splitting_rank",
         "sigma-T", "sigma-U"],
)
def test_unknown_generator_is_named_everywhere(read):
    dec = BuildingDecomposition(fano_building())
    with pytest.raises(ChamberError, match="^residue type names unknown generator 'z'$"):
        read(dec)


class TestSplittings:
    def test_maximal_is_whole_module(self, fano):
        hat = fano.splitting(frozenset("st"))
        assert len(hat) == 1

    def test_splitting_ranks_sum_to_size(self, fano):
        total = sum(fano.splitting_rank(T) for T in fano.poset)
        assert total == 21

    def test_witness_thin_a2(self, thin_a2):
        w = thin_a2.witness(())
        assert w.ok and abs(w.determinant) == 1
        assert [r for _, r in w.part_ranks] == [1, 2, 2, 1]

    def test_witness_digon(self, digon33):
        w = digon33.witness(frozenset())
        assert w.ok
        assert w.rank_sum() == 9
        assert [r for _, r in w.part_ranks] == [4, 2, 2, 1]

    def test_witness_fano_all_types(self, fano):
        for T in fano.poset:
            w = fano.witness(T)
            assert w.ok, (T, w.note)

    def test_witness_fano_s(self, fano):
        w = fano.witness(frozenset("s"))
        assert [r for _, r in w.part_ranks] == [6, 1]
        assert w.rank_sum() == 7


class TestCoefficientCohomology:
    def test_single_unmirrored_vertex(self, fano):
        from coxtop.complexes import MirroredComplex, SimplicialComplex

        X = MirroredComplex(
            fano.matrix.labels,
            SimplicialComplex.from_maximal([frozenset([0])]),
            (frozenset(),),
        )
        h = coefficient_complex(X, None, fano.system).validate().cohomology()
        assert h == GradedGroup({0: AbGroup(21)})

    def test_unaugmented_chamber_top_group(self, fano):
        # without augmentation the top degree is still D^empty
        X = classical_chamber(fano.matrix)
        h = coefficient_complex(X, None, fano.system).validate().cohomology()
        assert h[1] == AbGroup(8)
        assert h[0] == AbGroup(1)  # constants survive over a finite type

    def test_augmented_chamber_concentration(self, fano):
        h = chamber_simplex_cohomology(fano.system)
        assert h == GradedGroup({1: AbGroup(8)})

    def test_augmented_chamber_thin(self, thin_a2):
        h = chamber_simplex_cohomology(thin_a2.system)
        assert h == GradedGroup({1: AbGroup(1)})

    def test_augmented_chamber_digon(self, digon33):
        h = chamber_simplex_cohomology(digon33.system)
        assert h == GradedGroup({1: AbGroup(4)})

    def test_relative_to_full_mirror_union(self, fano):
        # (Delta, boundary): only the top cell survives; group is A itself
        X = classical_chamber(fano.matrix)
        B = mirror_union(X, X.labels)
        h = coefficient_complex(X, B, fano.system).validate().cohomology()
        assert h == GradedGroup({1: AbGroup(21)})

    def test_davis_chamber_coefficient_contractible(self, thin_a2):
        # the Davis chamber computes the compactly supported cohomology of
        # the standard realization; for a finite group that is a point
        X = davis_chamber(thin_a2.matrix)
        h = coefficient_complex(X, None, thin_a2.system).validate().cohomology()
        assert h == GradedGroup({0: AbGroup(1)})


def dense_block_coboundaries(dec, cells_by_degree, label):
    """Dense reference for the coefficient coboundaries: the block of a
    cell g over its face f is simplex_sign(g, f) times the inclusion
    A^{label f} -> A^{label g}; cells with a non-spherical label drop out."""
    size = {
        c: dec.residue_count(label(c)) if frozenset(label(c)) in dec.poset else 0
        for cells in cells_by_degree.values()
        for c in cells
    }
    dims, offset = {}, {}
    for k, cells in cells_by_degree.items():
        total = 0
        for c in cells:
            offset[c] = total
            total += size[c]
        if total:
            dims[k] = total
    maps = {}
    for k in dims:
        if k + 1 not in dims:
            continue
        mat = [[0] * dims[k] for _ in range(dims[k + 1])]
        for g in cells_by_degree[k + 1]:
            for f in cells_by_degree[k]:
                if set(f) < set(g) and size[g] and size[f]:
                    sign = simplex_sign(g, f)
                    for i, row in enumerate(dec.inclusion_matrix(label(g), label(f))):
                        for j, x in enumerate(row):
                            mat[offset[g] + i][offset[f] + j] += sign * x
        maps[k] = mat
    return dims, maps


def assert_matches_dense(cx, dec, cells_by_degree, label):
    dims, maps = dense_block_coboundaries(dec, cells_by_degree, label)
    cx.validate()
    assert cx.dims == dims and cx.maps.keys() == maps.keys()
    for k, rows in cx.maps.items():
        assert [[dict(row).get(j, 0) for j in range(dims[k])] for row in rows] == maps[k]


class TestCoboundariesMatchDense:
    @pytest.mark.parametrize(
        "build, model",
        [("fano", davis_chamber), ("thin_a2", classical_chamber), ("thin_a2", davis_chamber),
         ("digon33", classical_chamber), ("digon33", davis_chamber)],
    )
    @pytest.mark.parametrize("relative", [False, True])
    def test_mirrored_complex(self, request, build, model, relative):
        dec = request.getfixturevalue(build)
        X = model(dec.matrix)
        B = mirror_union(X, dec.matrix.labels[:1]) if relative else None
        bfaces = B.faces if B is not None else frozenset()
        cells = {
            k: [f for f in X.complex.faces_of_dim(k) if f not in bfaces]
            for k in range(X.complex.dim + 1)
        }
        cx = coefficient_complex(X, B, dec.system)
        assert_matches_dense(cx, dec, cells, X.face_label)

    @pytest.mark.parametrize("build", ["fano", "thin_a2", "digon33"])
    def test_augmented_chamber_faces(self, request, build):
        # the reference: the faces of sigma as tuples of the free generators
        # S - T, the (-1)-cell () included, labelled S - f, a face lying in
        # the mirror s when s avoids it.  Their coboundaries match the
        # dense blocks, and their groups are the ones sigma_formula_check
        # reads off the chamber simplex (at T = U = {}, the whole simplex).
        from itertools import combinations

        dec = request.getfixturevalue(build)
        S = frozenset(dec.matrix.labels)

        def faces_of(free):
            free = sorted(free)
            return {c for k in range(len(free) + 1) for c in combinations(free, k)}

        def meeting(cells, U):
            return {f for f in cells if not U.issubset(f)} if U else set()

        def groups(total, sub):
            cells = {}
            for f in sorted(total - sub, key=lambda f: (len(f), f)):
                if S.difference(f) in dec.poset:
                    cells.setdefault(len(f) - 1, []).append(f)
            cx = residue_cochain_complex(dec.system, cells, S.difference)
            assert_matches_dense(cx, dec, cells, S.difference)
            return cx.cohomology()

        for T in dec.poset:
            sigma = faces_of(S - T)
            for r in range(len(S - T) + 1):
                for U in map(frozenset, combinations(sorted(S - T), r)):
                    sigma_U = meeting(sigma, U)
                    sigma_W = meeting(sigma, S - T - U)
                    expected = [groups(sigma, sigma_U), groups(sigma_U, sigma_U & sigma_W),
                                groups(sigma_U, set())]
                    report = sigma_formula_check(dec.system, T, U)
                    assert [e.direct for e in report.entries] == expected, (T, U)

    def test_infinite_type_drops_only_non_spherical_cells(self):
        # a 4-cycle of type s t inf times a1: finite, of infinite type.
        # Over the simplex the vertex u has label {s, t}, whose A^T is 0:
        # the coefficient complex drops it, the realization glues its two
        # residues; both are the shared builder over their cells.  Every
        # label of the Davis chamber is spherical, so there they agree.
        system = product_building(parse_chamber_system(DINF_CYCLE), thin_building(mk("u", [])))
        dec = BuildingDecomposition(system)
        X = classical_chamber(system.matrix)
        every = {k: X.complex.faces_of_dim(k) for k in range(X.complex.dim + 1)}
        spherical = {k: [f for f in cells if X.face_label(f) in dec.poset]
                     for k, cells in every.items()}
        assert [X.complex.vertices[f[0]] for k in every for f in every[k]
                if f not in spherical[k]] == ["u"]

        coefficient = coefficient_complex(X, None, system)
        assert coefficient == residue_cochain_complex(system, spherical, X.face_label)
        assert_matches_dense(coefficient, dec, every, X.face_label)

        realized = realization_cochain_complex(system, X).validate()
        assert realized == residue_cochain_complex(system, every, X.face_label)
        assert realized.dims == {0: 6, 1: 12, 2: 8}
        assert coefficient.dims == {0: 4, 1: 12, 2: 8}

        K = davis_chamber(system.matrix)
        assert coefficient_complex(K, None, system) == realization_cochain_complex(
            system, K
        )


class TestSigmaFormulas:
    def test_thin_a2_all_pairs(self, thin_a2):
        S = set("st")
        for T in thin_a2.poset:
            free = S - T
            for k in range(len(free) + 1):
                from itertools import combinations

                for U in combinations(sorted(free), k):
                    report = sigma_formula_check(thin_a2.system, T, U)
                    assert report.ok, (sorted(T), U, report.to_json())

    def test_fano_spec_example(self, fano):
        # base type {s}, mirror set {t}: the relative group has rank 7
        # = hat rank 6 + hat rank 1
        report = sigma_formula_check(fano.system, ("s",), ("t",))
        assert report.ok
        rel = report.entries[0]
        assert rel.direct == GradedGroup({0: AbGroup(7)})

    def test_fano_base_s_no_mirrors(self, fano):
        report = sigma_formula_check(fano.system, ("s",), ())
        assert report.ok
        rel = report.entries[0]
        assert rel.direct == GradedGroup({0: AbGroup(6)})

    def test_invalid_args(self, fano):
        with pytest.raises(ValueError):
            sigma_formula_check(fano.system, ("s",), ("s",))


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(2, 5), st.integers(2, 5))
@settings(max_examples=12, deadline=None)
def test_digon_family_properties(p, q):
    system = digon_building(p, q)
    dec = BuildingDecomposition(system)
    w = dec.witness(frozenset())
    assert w.ok and w.rank_sum() == p * q
    # quotient ranks: (p-1)(q-1), q-1, p-1, 1
    assert dec.d_quotient(frozenset()) == AbGroup((p - 1) * (q - 1))
    assert dec.d_quotient(frozenset("s")) == AbGroup(q - 1)
    assert dec.d_quotient(frozenset("t")) == AbGroup(p - 1)
    f = filtration_ranks(system)
    assert f.matches and sum(g.free for g in f.graded) == p * q


class TestRankThree:
    """Rank-3 types exercise middle degrees of the face identities."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [("a", "b", 3), ("b", "c", 3)],  # A3
            [("a", "b", 4), ("b", "c", 3)],  # B3
            [("b", "c", 3)],  # A1 x A2
        ],
    )
    def test_sigma_checks_exhaustive(self, pairs):
        from itertools import combinations

        mat = mk("abc", pairs)
        system = thin_building(mat)
        dec = BuildingDecomposition(system)
        S = set(mat.labels)
        for T in dec.poset:
            free = sorted(S - T)
            for r in range(len(free) + 1):
                for U in combinations(free, r):
                    report = sigma_formula_check(system, T, U)
                    assert report.ok, (sorted(T), U)

    def test_augmented_chamber_rank3(self):
        mat = mk("abc", [("a", "b", 3), ("b", "c", 3)])
        system = thin_building(mat)
        h = chamber_simplex_cohomology(system)
        assert h == GradedGroup({2: AbGroup(1)})

    def test_product_building_concentration(self):
        from coxtop.chambers import product_building

        prod = product_building(fano_building(), thin_building(mk("u", [])))
        h = chamber_simplex_cohomology(prod)
        assert h == GradedGroup({2: AbGroup(8)})


def test_order3_plane_q_cubed():
    # top-degree rank follows the thickness-cubed pattern: 2^3 for the
    # Fano building, 3^3 here
    from coxtop.chambers import projective_plane_building

    sys3 = projective_plane_building(3)
    dec = BuildingDecomposition(sys3)
    assert dec.d_quotient(frozenset()) == AbGroup(27)
    w = dec.witness(frozenset())
    assert w.ok and w.rank_sum() == 52
    assert [r for _, r in w.part_ranks] == [27, 12, 12, 1]
    h = chamber_simplex_cohomology(sys3)
    assert h == GradedGroup({1: AbGroup(27)})


class TestFiltration:
    def test_thin_a2(self, thin_a2):
        f = filtration_ranks(thin_a2.system)
        assert f.matches
        assert f.convention.startswith("sum over |T| >= p")
        assert [g.free for g in f.graded] == [1, 4, 1]
        assert f.ranks[0] == 6

    def test_fano(self, fano):
        f = filtration_ranks(fano.system)
        assert f.matches
        assert [g.free for g in f.graded] == [8, 12, 1]

    def test_digon(self, digon33):
        f = filtration_ranks(digon33.system)
        assert f.matches
        assert [g.free for g in f.graded] == [4, 4, 1]
