import pytest

from coxtop.coxmatrix import INF, CoxeterMatrix
from coxtop.complexes import (
    SimplicialComplex,
    classical_chamber,
    davis_chamber,
    flag_complex,
    metric_flag_check,
    nerve,
    punctured_nerve_homology,
    reduced_cohomology,
    relative_cochain_complex,
    relative_cohomology,
    simplex_sign,
    vertex_key,
)
from coxtop.intlinalg import AbGroup, GradedGroup


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
FREE3 = mk("abc", [("a", "b", INF), ("b", "c", INF), ("a", "c", INF)])
A2 = mk("st", [("s", "t", 3)])


class TestFlagComplex:
    def test_chain_gives_simplex(self):
        c = flag_complex([frozenset(), frozenset("a"), frozenset("ab")])
        assert c.dim == 2 and len(c.faces_of_dim(2)) == 1

    def test_antichain(self):
        c = flag_complex([frozenset("a"), frozenset("b"), frozenset("c")])
        assert c.dim == 0 and len(c.vertices) == 3

    def test_proper_subsets_of_3_set(self):
        elems = [frozenset(x) for x in ("a", "b", "c", "ab", "ac", "bc")]
        c = flag_complex(elems)
        assert c.f_vector() == (6, 6)  # subdivided triangle boundary
        h = relative_cohomology(c)
        assert h[0] == AbGroup(1) and h[1] == AbGroup(1)


class TestNerve:
    def test_free_product(self):
        n = nerve(FREE3)
        assert n.f_vector() == (3,)

    def test_triangle(self):
        n = nerve(TRIANGLE333)
        assert n.f_vector() == (3, 3)

    def test_finite_full_simplex(self):
        n = nerve(A2)
        assert n.f_vector() == (2, 1)


class TestDavisChamber:
    def test_tripod(self):
        K = davis_chamber(FREE3)
        assert K.complex.f_vector() == (4, 3)
        for s in "abc":
            assert K.mirror(s).f_vector() == (1,)

    def test_subdivided_triangle(self):
        K = davis_chamber(TRIANGLE333)
        assert len(K.complex.vertices) == 7
        for s in "abc":
            assert K.mirror(s).f_vector() == (3, 2)  # path of two edges

    def test_rank_one(self):
        m = mk("s", [])
        K = davis_chamber(m)
        assert K.complex.f_vector() == (2, 1)
        assert K.mirror("s").f_vector() == (1,)

    def test_cone_contractible(self):
        for mat in (FREE3, TRIANGLE333, A2):
            K = davis_chamber(mat)
            h = relative_cohomology(K.complex)
            assert h == GradedGroup({0: AbGroup(1)})

    def test_face_labels_monotone(self):
        K = davis_chamber(TRIANGLE333)
        for f in K.complex.faces:
            label = K.face_label(f)
            for p in range(len(f)):
                if len(f) > 1:
                    assert K.face_label(f[:p] + f[p + 1 :]) >= label


class TestMirrorOps:
    def test_tripod_union_full(self):
        K = davis_chamber(FREE3)
        leaves = K.mirror_union("abc")
        assert leaves.f_vector() == (3,)

    def test_empty_union_and_intersection(self):
        K = davis_chamber(FREE3)
        assert K.mirror_union(()).is_empty()
        assert K.mirror_intersection(()) == K.complex

    def test_union_monotone(self):
        K = davis_chamber(TRIANGLE333)
        small = K.mirror_union("a")
        big = K.mirror_union("ab")
        assert small.is_subcomplex_of(big)

    def test_intersection_antitone(self):
        K = davis_chamber(TRIANGLE333)
        assert K.mirror_intersection("ab").is_subcomplex_of(K.mirror_intersection("a"))


class TestClassicalChamber:
    def test_rank3(self):
        D = classical_chamber(TRIANGLE333)
        assert D.complex.f_vector() == (3, 3, 1)
        assert D.complex.vertices == ("a", "b", "c")
        assert D.face_label((0, 1)) == frozenset("c")
        assert D.face_label((0,)) == frozenset("bc")
        assert D.face_label((0, 1, 2)) == frozenset()

    def test_rank1(self):
        D = classical_chamber(mk("s", []))
        assert D.complex.f_vector() == (1,)
        assert D.mirror("s").is_empty()


class TestRelativeCohomology:
    def test_disk_rel_boundary(self):
        disk = SimplicialComplex.from_maximal([frozenset("abc")])
        boundary = SimplicialComplex.from_maximal(
            [frozenset("ab"), frozenset("bc"), frozenset("ac")]
        )
        h = relative_cohomology(disk, boundary)
        assert h == GradedGroup({2: AbGroup(1)})

    def test_tripod_rel_leaves(self):
        K = davis_chamber(FREE3)
        leaves = K.mirror_union("abc")
        h = relative_cohomology(K.complex, leaves)
        assert h == GradedGroup({1: AbGroup(2)})

    def test_not_a_subcomplex(self):
        X = SimplicialComplex.from_maximal([frozenset("ab")])
        A = SimplicialComplex.from_maximal([frozenset("cd")])
        with pytest.raises(ValueError):
            relative_cohomology(X, A)

    def test_subcomplex_on_another_vertex_table(self):
        # a path a - b - c; the edge bc numbered on its own table is
        # accepted, the edge ac (vertices of X, not a face) is refused
        X = SimplicialComplex.from_maximal([frozenset("ab"), frozenset("bc")])
        bc = SimplicialComplex.from_maximal([frozenset("bc")])
        ac = SimplicialComplex.from_maximal([frozenset("ac")])
        assert bc.vertices == ("b", "c") and X.faces_from(bc) == {(1,), (2,), (1, 2)}
        assert bc.is_subcomplex_of(X) and not ac.is_subcomplex_of(X)
        same_table = X.sub(lambda f: f[0] > 0)
        assert relative_cohomology(X, bc) == relative_cohomology(X, same_table)
        with pytest.raises(ValueError):
            relative_cohomology(X, ac)

    def test_empty(self):
        assert relative_cohomology(SimplicialComplex.empty()) == GradedGroup({})

    def test_euler_identity(self):
        K = davis_chamber(TRIANGLE333)
        A = K.mirror_union("ab")
        h = relative_cohomology(K.complex, A)
        chi_cells = sum(
            (-1) ** k * (len(K.complex.faces_of_dim(k)) - len(A.faces_of_dim(k)))
            for k in range(K.complex.dim + 1)
        )
        assert chi_cells == h.euler_characteristic()


    def test_cell_order_and_signs(self):
        # mixed labels (ints, strings, tuples, frozensets) in one complex
        X = SimplicialComplex.from_maximal(
            [(1, "a", (2, "b"), frozenset("st")), ("a", frozenset("s"), (2, "b"))]
        )
        A = SimplicialComplex.from_maximal([(1, "a")])
        cx = relative_cochain_complex(X, A)
        # A numbers its own vertices: compare the cells by their labels
        def labels(C, f):
            return frozenset(C.vertices[i] for i in f)

        afaces = {labels(A, f) for f in A.faces}
        cells = {
            k: [labels(X, f) for f in X.faces_of_dim(k) if labels(X, f) not in afaces]
            for k in range(X.dim + 1)
        }
        for k in cells:
            order = [tuple(vertex_key(v) for v in sorted(f, key=vertex_key)) for f in cells[k]]
            assert order == sorted(order)
        for k, rows in cx.validate().maps.items():
            assert len(rows) == len(cells[k + 1])
            for i, g in enumerate(cells[k + 1]):
                row = dict(rows[i])
                for j, f in enumerate(cells[k]):
                    expected = simplex_sign(g, f) if f < g else 0
                    assert row.get(j, 0) == expected


class TestReduced:
    def test_three_points(self):
        X = SimplicialComplex.from_maximal([frozenset("a"), frozenset("b"), frozenset("c")])
        r = reduced_cohomology(X)
        assert not r.empty_complex
        assert r.groups == GradedGroup({0: AbGroup(2)})

    def test_empty_flagged(self):
        r = reduced_cohomology(SimplicialComplex.empty())
        assert r.empty_complex and not r.groups
        assert r.concentrated_degree() == -1


class TestPuncturedNerve:
    def test_free_product(self):
        out = punctured_nerve_homology(FREE3)
        assert out[frozenset()].groups == GradedGroup({0: AbGroup(2)})
        assert out[frozenset("a")].groups == GradedGroup({0: AbGroup(1)})

    def test_triangle_circle(self):
        out = punctured_nerve_homology(TRIANGLE333)
        assert out[frozenset()].groups == GradedGroup({1: AbGroup(1)})
        assert out[frozenset("a")].is_zero()
        assert out[frozenset("ab")].is_zero()

    def test_finite_full_set_flagged(self):
        out = punctured_nerve_homology(A2)
        assert out[frozenset("st")].empty_complex


class TestMetricFlag:
    @pytest.mark.parametrize(
        "mat",
        [
            TRIANGLE333,
            FREE3,
            A2,
            mk("ab", [("a", "b", INF)]),
            mk("abcd", [("a", "b", INF), ("c", "d", INF)]),  # right angled
            mk("abc", [("a", "b", 4), ("b", "c", 3)]),  # finite B3
            mk("abc", [("a", "b", 5), ("b", "c", 5)]),  # hyperbolic
        ],
    )
    def test_always_true(self, mat):
        assert metric_flag_check(mat)


def test_vertex_key_total_order():
    vs = [frozenset("ab"), "x", 3, ("a", 1), frozenset()]
    assert sorted(vs, key=vertex_key) == sorted(vs, key=vertex_key)
    assert vertex_key(frozenset("a")) < vertex_key(frozenset("ab"))
