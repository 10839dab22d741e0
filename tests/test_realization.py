import pytest

from coxtop.chambers import digon_building, fano_building, thin_building
from coxtop.complexes import classical_chamber, davis_chamber
from coxtop.coxmatrix import CoxeterMatrix
from coxtop.intlinalg import AbGroup, GradedGroup
from coxtop.realization import (
    coxeter_complex,
    formula_cross_check,
    realization_cohomology,
    realize,
)


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
        r = realize(thin_building(A2), classical_chamber(A2))
        assert r.f_vector() == (6, 6)
        assert realization_cohomology(r) == CIRCLE

    def test_fano_heawood(self):
        r = realize(fano_building(), classical_chamber(fano_building().matrix))
        assert r.f_vector() == (14, 21)
        assert realization_cohomology(r) == GradedGroup(
            {0: AbGroup(1), 1: AbGroup(8)}
        )

    def test_single_point_model(self):
        from coxtop.complexes import MirroredComplex, SimplicialComplex

        sys = thin_building(A2)
        X = MirroredComplex(
            sys.matrix.labels,
            SimplicialComplex.from_maximal([frozenset(["pt"])]),
            {},
        )
        r = realize(sys, X)
        assert r.f_vector() == (6,)

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
            r = realize(sys, davis_chamber(sys.matrix))
            assert realization_cohomology(r) == GradedGroup({0: AbGroup(1)})


class TestCoxeterComplex:
    def test_a2_circle(self):
        assert realization_cohomology(coxeter_complex(A2)) == CIRCLE

    def test_b2_circle(self):
        r = coxeter_complex(B2)
        assert r.f_vector() == (8, 8)
        assert realization_cohomology(r) == CIRCLE

    def test_a3_sphere(self):
        r = coxeter_complex(A3)
        assert r.f_vector() == (14, 36, 24)
        assert realization_cohomology(r) == SPHERE2

    def test_a1_two_points(self):
        r = coxeter_complex(A1)
        assert realization_cohomology(r) == GradedGroup({0: AbGroup(2)})


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
        from coxtop.chambers import product_building

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
        assert full.contribution == GradedGroup({0: AbGroup(1)})
        # the empty type contributes rank 8 in the top degree
        empty = by_type[()]
        assert empty.contribution == GradedGroup({1: AbGroup(8)})
        # singleton types contribute nothing
        assert not by_type[("s",)].contribution
        assert not by_type[("t",)].contribution
        assert report.realized == GradedGroup({0: AbGroup(1), 1: AbGroup(8)})


def test_cohomology_path_scans_no_dense_matrix(monkeypatch):
    # the splittings (the lattice path) are computed first; every
    # coboundary after that must reach the elimination as sparse rows
    from coxtop import intlinalg
    from coxtop.chambers import product_building
    from coxtop.decomposition import BuildingDecomposition

    prod = product_building(fano_building(), thin_building(mk("u", [])))
    dec = BuildingDecomposition(prod)
    for T in dec.poset:
        dec.splitting(T)

    factor = intlinalg.elementary_divisors
    factored = []

    def sparse_only(rows):
        for row in rows:
            assert all(isinstance(e, tuple) and len(e) == 2 and e[1] for e in row), row
        factored.append(len(rows))
        return factor(rows)

    monkeypatch.setattr(intlinalg, "elementary_divisors", sparse_only)
    report = formula_cross_check(prod, davis_chamber(prod.matrix))
    assert report.ok and report.euler_ok and factored
