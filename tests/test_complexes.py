import random
from dataclasses import dataclass
from itertools import combinations

import pytest

from coxtop import complexes, coxmatrix
from coxtop.coxmatrix import INF, CoxeterMatrix, cosine_gram_definite, is_spherical, spherical_poset
from coxtop.complexes import (
    MirroredComplex,
    SimplicialComplex,
    classical_chamber,
    cochain_complex,
    davis_chamber,
    flag_complex,
    local_groups,
    metric_flag_check,
    nerve,
    relative_cochain_complex,
    relative_cohomology,
    vertex_key,
)
from coxtop.hc import duality_check
from coxtop.intlinalg import AbGroup, GradedGroup
from test_coxmatrix import shuffled_matrix
from test_intlinalg import RP2_TRIANGLES


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
FREE3 = mk("abc", [("a", "b", INF), ("b", "c", INF), ("a", "c", INF)])
A2 = mk("st", [("s", "t", 3)])
EMPTY = SimplicialComplex((), frozenset())


# References shared with the other test modules: the union of mirrors and
# the sign of a codimension-one face, each from its definition.


def mirror_union(X, U):
    """X^U, the cells whose label meets U; the empty union is the empty complex."""
    return X.complex.sub(lambda f: not X.face_label(f).isdisjoint(U))


def simplex_sign(face, subface):
    """Sign of subface inside face: (-1)^(position of the missing vertex)."""
    missing = set(face) - set(subface)
    if len(missing) != 1:
        raise ValueError("not a codimension-one subface")
    v = missing.pop()
    ordered = sorted(face, key=vertex_key)
    return (-1) ** ordered.index(v)


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
        n = nerve(spherical_poset(FREE3))
        assert n.f_vector() == (3,)

    def test_triangle(self):
        n = nerve(spherical_poset(TRIANGLE333))
        assert n.f_vector() == (3, 3)

    def test_finite_full_simplex(self):
        n = nerve(spherical_poset(A2))
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
        leaves = mirror_union(K, "abc")
        assert leaves.f_vector() == (3,)

    def test_empty_union_and_intersection(self):
        K = davis_chamber(FREE3)
        assert mirror_union(K, ()).is_empty()

    def test_union_monotone(self):
        K = davis_chamber(TRIANGLE333)
        small = mirror_union(K, "a")
        big = mirror_union(K, "ab")
        assert big.faces_from(small) is not None

    def test_intersection_antitone(self):
        K = davis_chamber(TRIANGLE333)
        ab = K.complex.sub(lambda f: f in K.mirror("a").faces and f in K.mirror("b").faces)
        assert K.mirror("a").faces_from(ab) is not None
        assert ab.f_vector() == (1,)  # the cone point {a, b}

    def test_subcomplexes_skip_the_per_face_check(self, monkeypatch):
        # their faces are faces of a checked complex, and the result is
        # the complex a checked construction gives
        K = davis_chamber(TRIANGLE333)
        checked = {
            U: SimplicialComplex(K.complex.vertices, mirror_union(K, U).faces)
            for U in ("", "a", "ab", "abc")
        }

        def per_face_check(self):
            raise AssertionError("a subcomplex ran the per-face check")

        monkeypatch.setattr(SimplicialComplex, "__post_init__", per_face_check)
        for U, X in checked.items():
            union = mirror_union(K, U)
            assert union == X and union.dim == X.dim
        assert K.complex.sub(lambda f: 0 not in f).dim == 1


class TestFaceCheck:
    @pytest.mark.parametrize("face", [(), (1, 0), (0, 0), (-1,), (2,)])
    def test_refused(self, face):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), frozenset({face}))

    def test_dim(self):
        assert EMPTY.dim == -1
        X = SimplicialComplex.from_maximal([("a", "b", "c"), ("d",)])
        assert X.dim == 2 and X.sub(lambda f: len(f) < 3).dim == 1


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

    def test_equality_is_identity(self):
        # the vertex labels define a mirrored complex; an equality that
        # skipped them took the chamber for the bare simplex
        D = classical_chamber(A2)
        assert D != MirroredComplex(D.labels, D.complex, (frozenset(),) * 2)
        assert D == D


class TestVertexLabelTable:
    def test_wrong_length_names_the_vertex(self):
        D = classical_chamber(A2)
        with pytest.raises(ValueError, match="vertex 't' has no label"):
            MirroredComplex(D.labels, D.complex, (frozenset("t"),))
        with pytest.raises(ValueError, match="3 labels for the 2 vertices"):
            MirroredComplex(D.labels, D.complex, (frozenset(),) * 3)

    def test_unknown_generator_names_the_vertex(self):
        D = classical_chamber(A2)
        with pytest.raises(ValueError, match=r"vertex 't' names unknown generators \['u'\]"):
            MirroredComplex(D.labels, D.complex, (frozenset("t"), frozenset("su")))

    def test_empty_face_is_the_augmentation(self):
        for X in (classical_chamber(TRIANGLE333), davis_chamber(TRIANGLE333)):
            assert X.face_label(()) == frozenset("abc")


class TestComplexJson:
    def test_each_vertex_label_is_converted_once(self, monkeypatch):
        # the realized vertex labels are (model vertex, residue) pairs; the
        # face lists index one converted table instead of converting a
        # label once per face it lies in
        from coxtop import complexes
        from coxtop.chambers import fano_building
        from coxtop.realization import realize

        X = realize(fano_building(), davis_chamber(A2))
        calls = []
        convert = complexes._label_json
        monkeypatch.setattr(complexes, "_label_json", lambda v: calls.append(v) or convert(v))
        table = [complexes._label_json(v) for v in X.vertices]
        once = len(calls)
        faces = X.to_json()
        assert len(calls) == 2 * once
        assert faces == [[table[i] for i in f] for k in range(X.dim + 1) for f in X.faces_of_dim(k)]
        assert len(faces) > len(X.vertices)


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
        leaves = mirror_union(K, "abc")
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
        assert X.faces_from(bc) is not None and X.faces_from(ac) is None
        same_table = X.sub(lambda f: f[0] > 0)
        assert relative_cohomology(X, bc) == relative_cohomology(X, same_table)
        with pytest.raises(ValueError):
            relative_cohomology(X, ac)

    def test_empty(self):
        assert relative_cohomology(EMPTY) == GradedGroup({})

    def test_euler_identity(self):
        K = davis_chamber(TRIANGLE333)
        A = mirror_union(K, "ab")
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


def rp2():
    return SimplicialComplex.from_maximal(RP2_TRIANGLES), None


def k_of_a3_rel_mirrors():
    K = davis_chamber(mk("abc", [("a", "b", 3), ("b", "c", 3)]))
    return K.complex, mirror_union(K, "ab")


def fano_x_a1_realization():
    from coxtop.chambers import fano_building, product_building, thin_building
    from coxtop.realization import realize

    system = product_building(fano_building(), thin_building(mk("u", [])))
    return realize(system, davis_chamber(system.matrix)), None


@pytest.mark.parametrize("pair", [rp2, k_of_a3_rel_mirrors, fano_x_a1_realization])
def test_size_one_cochains_match_the_block_path(pair):
    # the simplicial cochains, written without blocks, equal the general
    # block path with one basis element per cell
    X, A = pair()
    afaces = A.faces if A is not None else frozenset()
    kept = {k: [f for f in X.faces_of_dim(k) if f not in afaces] for k in range(X.dim + 1)}
    blocks = cochain_complex(kept, lambda c: 1, lambda g, f: (0,))
    assert relative_cochain_complex(X, A) == cochain_complex(kept) == blocks.validate()


# ------------------------------------------- the reduced-cohomology reference


@dataclass(frozen=True)
class ReducedCohomology:
    """Reduced cohomology, with the empty complex kept as an explicit flag
    instead of a degree -1 group."""

    empty_complex: bool
    groups: GradedGroup

    def is_zero(self):
        return not self.empty_complex and not self.groups

    def concentrated_degree(self):
        """The unique nonzero degree, or None; the empty complex reports -1."""
        if self.empty_complex:
            return -1
        degs = self.groups.degrees()
        if len(degs) == 1:
            return degs[0]
        return None


def reduced_cohomology(X):
    """The reduced cohomology of X, computed on X itself.  With
    ``punctured_nerve_homology`` and ``reference_duality_check``, the
    reference for ``duality_check``, which reads the same groups off
    ``local_groups`` one degree up."""
    if X.is_empty():
        return ReducedCohomology(True, GradedGroup({}))
    plain = relative_cohomology(X)
    groups = dict(plain.groups)
    h0 = groups.get(0, AbGroup())
    # degree 0 is free of rank = number of components; reduce by one Z
    groups[0] = AbGroup(h0.free - 1, h0.torsion)
    return ReducedCohomology(False, GradedGroup(groups))


def punctured_nerve_homology(mat):
    """For each spherical T, the reduced cohomology of K^(S-T)."""
    K = davis_chamber(mat)
    S = set(mat.labels)
    return {T: reduced_cohomology(mirror_union(K, S - set(T))) for T in spherical_poset(mat)}


def reference_duality_check(matrix):
    """The JSON of ``duality_check`` from the reduced groups of K^{S-T}."""
    punctured = punctured_nerve_homology(matrix)
    details = []
    offending = []
    degrees_seen = set()
    for T in spherical_poset(matrix):
        r = punctured[T]
        T_sorted = sorted(T, key=matrix.index)
        if r.empty_complex:
            details.append({"T": T_sorted, "degrees": [-1], "empty_complex": True})
            degrees_seen.add(-1)
            continue
        degs = r.groups.degrees()
        details.append({"T": T_sorted, "degrees": degs, "empty_complex": False})
        if not r.groups.is_free():
            offending.append([T_sorted, "torsion in the punctured cohomology"])
        if len(degs) > 1:
            offending.append([T_sorted, f"spread over degrees {degs}"])
        degrees_seen.update(degs)
    if len(degrees_seen) > 1:
        spread = sorted(degrees_seen)
        for entry in details:
            if entry["degrees"] and entry["degrees"] != [max(spread)]:
                offending.append(
                    [entry["T"], f"degree {entry['degrees']} below the top {max(spread)}"]
                )
    is_duality = not offending and bool(degrees_seen)
    return {
        "is_duality": is_duality,
        "dimension": (max(degrees_seen) + 1) if is_duality else None,
        "offending": offending,
        "details": details,
    }


class TestReduced:
    def test_three_points(self):
        X = SimplicialComplex.from_maximal([frozenset("a"), frozenset("b"), frozenset("c")])
        r = reduced_cohomology(X)
        assert not r.empty_complex
        assert r.groups == GradedGroup({0: AbGroup(2)})

    def test_empty_flagged(self):
        r = reduced_cohomology(EMPTY)
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


def random_matrix(rng, rank, values=(2, 2, 3, 3, 4, 5, 6, INF, INF)):
    labels = "abcdef"[:rank]
    entries = {}
    for s, t in combinations(labels, 2):
        m = rng.choice(values)
        if m != 2:
            entries[frozenset((s, t))] = m
    return CoxeterMatrix(tuple(labels), entries)


class TestDualityAgainstReducedReference:
    @pytest.mark.parametrize("mat", [FREE3, TRIANGLE333, A2], ids=["free3", "triangle", "a2"])
    def test_named(self, mat):
        assert duality_check(mat).to_json() == reference_duality_check(mat)

    def test_seeded_sweep(self):
        # the local groups shifted down by one degree against the reduced
        # groups of each K^{S-T}, over 30 matrices of each rank 1-5
        rng = random.Random(18)
        verdicts = set()
        for rank in range(1, 6):
            for _ in range(30):
                mat = random_matrix(rng, rank)
                got = duality_check(mat).to_json()
                assert got == reference_duality_check(mat), mat.entries
                verdicts.add(got["is_duality"])
        assert verdicts == {True, False}


def relative_pairs(X, types):
    """(T, H(X, X^{S-T})) computed on X itself: the reference for
    ``local_groups`` of X's nerve."""
    S = set(X.labels)
    return [
        (T, relative_cochain_complex(X.complex, mirror_union(X, S - set(T))).cohomology())
        for T in types
    ]


class TestNerveRouteAgainstRelativePairs:
    def test_nerve_of_the_models(self):
        # K's vertex labels are the spherical subsets; the simplex's are
        # the complements of single generators
        for mat in (FREE3, TRIANGLE333, A2, mk("abcd", [("a", "b", 3), ("c", "d", 5)])):
            assert davis_chamber(mat).nerve() == nerve(spherical_poset(mat))
            proper = [U for r in range(1, len(mat.labels)) for U in combinations(mat.labels, r)]
            assert classical_chamber(mat).nerve() == SimplicialComplex.from_maximal(proper)

    def test_seeded_sweep(self):
        # 20 matrices of each rank 1-6 with labels 2-7 and infinity, on
        # both model chambers
        rng = random.Random(23)
        for rank in range(1, 7):
            for _ in range(20):
                mat = random_matrix(rng, rank, (2, 3, 4, 5, 6, 7, INF))
                poset = spherical_poset(mat)
                K = davis_chamber(mat)
                assert K.nerve() == nerve(poset)
                for X in (K, classical_chamber(mat)):
                    assert local_groups(X.nerve(), poset) == relative_pairs(X, poset), mat.entries


def models_with_reference_mirrors(mat):
    """Each model chamber with its per-generator mirrors built as
    subcomplexes: in K the chains of spherical subsets that all contain
    s, in the simplex the faces that avoid the vertex s."""
    K = davis_chamber(mat)
    up = {s: {i for i, T in enumerate(K.complex.vertices) if s in T} for s in mat.labels}
    yield K, {s: K.complex.sub(up[s].issuperset) for s in mat.labels}
    D = classical_chamber(mat)
    at = D.complex.vertices.index
    yield D, {s: D.complex.sub(lambda f, p=at(s): p not in f) for s in mat.labels}


class TestLabelTableAgainstMirrors:
    def test_seeded_sweep(self):
        # the matrices of TestNerveRouteAgainstRelativePairs.test_seeded_sweep
        rng = random.Random(23)
        for rank in range(1, 7):
            for _ in range(20):
                mat = random_matrix(rng, rank, (2, 3, 4, 5, 6, 7, INF))
                for X, mirrors in models_with_reference_mirrors(mat):
                    for s, m in mirrors.items():
                        assert X.mirror(s) == m, (mat.entries, s)
                    for f in X.complex.faces:
                        label = frozenset(s for s, m in mirrors.items() if f in m.faces)
                        assert X.face_label(f) == label, (mat.entries, f)


def all_subsets_metric_flag(mat):
    """The reference for ``metric_flag_check``: the two oracles compared
    on every pairwise-spherical subset of S, by size and then in
    lexicographic order."""
    S = mat.labels
    for r in range(1, len(S) + 1):
        for T in combinations(S, r):
            if not all(is_spherical(mat, (s, t)) for s, t in combinations(T, 2)):
                continue
            if is_spherical(mat, T) != cosine_gram_definite(mat, T):
                return False
    return True


def outcome(check, mat):
    try:
        return check(mat)
    except ValueError as e:
        return type(e), str(e)


def right_angled(L):
    """m = 2 on the edges of the flag complex L and infinity off them;
    generator v<i> is L's vertex i."""
    labels = [f"v{i}" for i in range(len(L.vertices))]
    edges = set(L.faces_of_dim(1))
    return mk(labels, [(labels[i], labels[j], INF) for i, j in combinations(range(len(labels)), 2)
                       if (i, j) not in edges])


def barycentric_subdivision(X):
    """The flag complex of the faces of X under inclusion."""
    return flag_complex(frozenset(X.vertices[i] for i in f) for f in X.faces)


@pytest.fixture
def spherical_calls(monkeypatch):
    """The subsets ``is_spherical`` is asked about, wherever it is bound."""
    calls = []

    def counted(m, T):
        calls.append(T)
        return is_spherical(m, T)

    for module in (coxmatrix, complexes):
        if getattr(module, "is_spherical", None) is is_spherical:
            monkeypatch.setattr(module, "is_spherical", counted)
    return calls


class TestMetricFlag:
    def test_matches_all_subsets(self):
        rng = random.Random(29)
        raised = 0
        for _ in range(2000):
            mat = shuffled_matrix(rng)
            want = outcome(all_subsets_metric_flag, mat)
            assert outcome(metric_flag_check, mat) == want, mat.entries
            raised += want is not True
        assert 0 < raised < 2000

    @pytest.mark.parametrize(
        "mat, flipped",
        [
            (mk("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)]), "bcd"),  # a face of A4
            (TRIANGLE333, "abc"),  # a clique that is not a face
        ],
        ids=["3-clique", "non-face"],
    )
    def test_a_flipped_gram_answer_is_flagged(self, monkeypatch, mat, flipped):
        asked = []

        def flip(m, T):
            asked.append(frozenset(T))
            return cosine_gram_definite(m, T) != (frozenset(T) == frozenset(flipped))

        monkeypatch.setattr(complexes, "cosine_gram_definite", flip)
        assert not metric_flag_check(mat)
        assert asked[-1] == frozenset(flipped)

    def test_compares_only_the_walks_proposals(self, spherical_calls):
        # the right-angled 16-cycle has 33 spherical subsets among 2^16
        mat = right_angled(SimplicialComplex.from_maximal((i, (i + 1) % 16) for i in range(16)))
        assert metric_flag_check(mat)
        assert len(spherical_calls) < 2000

    def test_right_angled_over_sd_rp2(self, spherical_calls):
        # sd RP^2 has 31 vertices, 90 edges and 60 triangles, and it is
        # flag, so its faces are exactly the spherical subsets
        L = barycentric_subdivision(SimplicialComplex.from_maximal(RP2_TRIANGLES))
        mat = right_angled(L)
        poset = spherical_poset(mat)
        assert set(poset) == {frozenset()} | {frozenset(mat.labels[i] for i in f) for f in L.faces}
        assert [sum(len(T) == k for T in poset) for k in range(4)] == [1, 31, 90, 60]
        assert len(spherical_calls) <= 1546  # one per proposal; breadth-first asks 5,041 times
        assert metric_flag_check(mat)

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
    # a bool is an int, so True keys as 1
    assert vertex_key(True) == vertex_key(1)
    assert sorted([2, True, False, "a"], key=vertex_key) == [False, True, 2, "a"]
