import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtop import intlinalg
from coxtop.intlinalg import (
    AbGroup,
    CochainComplex,
    GradedGroup,
    TorsionObstruction,
    _bareiss,
    _complement_tails,
    _divisors_and_pivots,
    _merge_torsion,
    _peel,
    basis_quotient,
    _echelon,
    column_hermite,
    determinant,
    direct_complement,
    echelon_basis,
    echelon_coordinates,
    hermite_reduce,
    identity,
    matmul,
    quotient_structure,
    shape,
    smith_normal_form,
)
from test_chambers import BUILT_INS, renumbered


# Dense conversions at the test boundary: the library keeps matrices sparse.


def sparse_vector(v):
    return [(i, x) for i, x in enumerate(v) if x]


def sparse_rows(a):
    """The rows of a dense matrix as (column, entry) pairs."""
    return [sparse_vector(row) for row in a]


def gens_of(a):
    """The columns of a dense matrix as sparse generators."""
    return [sparse_vector(col) for col in zip(*a)]


def dense(n, gens):
    """The n-row matrix with the sparse generators as its columns."""
    m = [[0] * len(gens) for _ in range(n)]
    for k, g in enumerate(gens):
        for i, x in g:
            m[i][k] = x
    return m


def det(a):
    """Determinant of a dense square matrix."""
    return determinant(gens_of(a), len(a))

small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# Mostly zero, small entries; shapes include 0 x n and n x 0.
sparse_matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3]), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSNF:
    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal() == [1, 6]

    def test_zero(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal() == [0, 0]
        assert snf.U == identity(2) and snf.V == identity(2)

    def test_identity(self):
        assert smith_normal_form(identity(3)).diagonal() == [1, 1, 1]

    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_snf_properties(self, a):
        snf = smith_normal_form(a)
        # UAV = D exactly
        assert matmul(matmul(snf.U, a), snf.V) == snf.D
        # U, V unimodular and the tracked inverse of U is a genuine inverse
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1
        assert matmul(snf.U, snf.uinv) == identity(shape(a)[0])
        # diagonal shape and divisibility chain
        r, c = shape(snf.D)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert snf.D[i][j] == 0
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0) or (x == 0 and y == 0)

    def test_deterministic(self):
        a = [[4, 6, 2], [2, 8, 10], [0, 2, 2]]
        first = smith_normal_form(a)
        second = smith_normal_form(a)
        assert first.U == second.U and first.V == second.V


def nonzero_smith_diagonal(a):
    return [d for d in smith_normal_form(a).diagonal() if d]


def heap_divisors(rows):
    """Nonzero invariant factors with no peeling: every row indexed by
    ``_indexed`` and eliminated by ``_unit_pivots``, the residual block
    factored by ``smith_normal_form`` (looked up on the module, so a test
    may record it).  The reference for ``_peel``."""
    rows, where = intlinalg._indexed(rows)
    pivots = intlinalg._unit_pivots(rows, where)
    live = [row for row in rows if row]
    cols = sorted({j for row in live for j in row})
    residual = [[row.get(j, 0) for j in cols] for row in live]
    rest = intlinalg.smith_normal_form(residual).diagonal() if residual else []
    return [1] * len(pivots) + [d for d in rest if d]


def divisors(rows):
    """Nonzero invariant factors of sparse rows, peel first: the kernel of
    cohomology and ``quotient_structure``."""
    return _divisors_and_pivots(rows)[0]


class TestElementaryDivisors:
    @given(sparse_matrices, st.sampled_from([1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_smith(self, a, scale):
        # scale 2 and 3 leave no unit entry, so the residual path runs
        a = [[scale * x for x in row] for row in a]
        rows = sparse_rows(a)
        diag = nonzero_smith_diagonal(a)
        assert divisors(rows) == heap_divisors(rows) == diag
        width = len(a[0]) if a else 0
        torsion = tuple(d for d in diag if d > 1)
        assert quotient_structure(width, rows) == AbGroup(width - len(diag), torsion)

    @pytest.mark.parametrize(
        "a, expected",
        [
            ([], []),
            ([[], []], []),
            ([[0, 0], [0, 0]], []),
            ([[3]], [3]),
            ([[2, 4], [6, 8]], [2, 4]),
            ([[1, 1], [1, -1]], [1, 2]),
            ([[0, 1, 0], [0, 0, 0], [1, 0, 1]], [1, 1]),
        ],
    )
    def test_fixed(self, a, expected):
        rows = sparse_rows(a)
        assert divisors(rows) == heap_divisors(rows) == expected
        assert expected == nonzero_smith_diagonal(a)

    def test_only_the_residual_is_factored(self, monkeypatch):
        from coxtop import intlinalg

        seen = []
        dense = intlinalg.smith_normal_form

        def recording(a):
            seen.append(a)
            return dense(a)

        monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
        assert divisors([[(0, 1), (1, 1)], [(0, 1), (1, -1)]]) == [1, 2]
        assert seen == [[[-2]]]
        assert divisors(sparse_rows(identity(4))) == [1] * 4
        assert len(seen) == 1

    @pytest.mark.parametrize(
        "rows, repeated",
        [
            ([[(0, 2), (0, 1)], [(1, 3)]], "row 0 names index 0 twice"),
            ([[(1, 3)], [(0, 1), (2, 1), (0, 1)]], "row 1 names index 0 twice"),
        ],
    )
    def test_repeated_index_refused(self, rows, repeated):
        # a dict of the row would keep its last entry: [1, 3] for the first
        with pytest.raises(ValueError, match=repeated):
            quotient_structure(3, rows)


def random_peelable(rng):
    """Sparse rows, with no index twice in a row, that exercise ``_peel``:
    entries in {1, -1, 2, -2, 3}, some rows given a column of their own
    (a lone entry, unit or not), some rows empty, and a random set of rows
    to clear."""
    width = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 9)):
        cols = rng.sample(range(width), rng.randint(0, min(3, width)))
        row = [(j, rng.choice([1, -1, 1, -1, 2, -2, 3])) for j in cols]
        if rng.random() < 0.5:
            row.append((width, rng.choice([1, -1, 2, 3])))
            width += 1
        rng.shuffle(row)
        rows.append(row)
    cleared = {i for i in range(len(rows)) if rng.random() < 0.2}
    return rows, cleared


class TestPeel:
    """``_peel`` in front of the heap, against the heap alone."""

    def test_random_matrices_against_the_heap(self):
        rng = random.Random(22)
        peeled = lone_non_units = cored = 0
        for _ in range(600):
            rows, cleared = random_peelable(rng)
            kept = [row for i, row in enumerate(rows) if i not in cleared]
            width = 1 + max((j for row in rows for j, _ in row), default=-1)
            a = [[dict(row).get(j, 0) for j in range(width)] for row in kept]
            divisors, pivot_columns = _divisors_and_pivots(rows, cleared)
            assert divisors == heap_divisors(kept) == nonzero_smith_diagonal(a)
            pivots, core = _peel(rows, cleared)
            assert {q for _, q, _ in pivots} <= pivot_columns
            peeled += len(pivots)
            cored += len(core)
            count = {}
            for i in core:
                for j, _ in rows[i]:
                    count[j] = count.get(j, 0) + 1
            lone_non_units += sum(
                1 for i in core for j, x in rows[i] if count[j] == 1 and x not in (1, -1)
            )
        assert peeled > 500 and cored > 500 and lone_non_units > 100

    def test_peeled_block_is_unit_triangular(self):
        rng = random.Random(2022)
        for _ in range(600):
            rows, cleared = random_peelable(rng)
            pivots, core = _peel(rows, cleared)
            peeled = [p for p, _, _ in pivots]
            assert len(set(peeled)) == len(peeled)
            assert not set(peeled) & set(core) and not (set(peeled) | set(core)) & cleared
            assert all(rows[i] for i in core)
            assert sorted(peeled + core) == [
                i for i, row in enumerate(rows) if row and i not in cleared
            ]
            assert core == sorted(core)
            for k, (p, q, u) in enumerate(pivots):
                assert u in (1, -1) and dict(rows[p])[q] == u
                # every row live when q was peeled, other than p, is zero at q
                later = peeled[k + 1:] + core
                assert all(q not in dict(rows[i]) for i in later)

    def test_core_is_left_for_the_heap(self, monkeypatch):
        # the peel leaves the 2 x 2 block [[1, 1], [1, -1]], which has no
        # lone column, to the heap
        seen = []
        heap = intlinalg._unit_pivots
        monkeypatch.setattr(
            intlinalg,
            "_unit_pivots",
            lambda rows, where: seen.append([dict(row) for row in rows]) or heap(rows, where),
        )
        rows = [[(0, 1), (1, 1), (2, 1)], [(1, 1), (2, -1)], [(1, 1), (2, 1)], [(3, 1), (2, 2)]]
        assert divisors(rows) == [1, 1, 1, 2]
        assert seen == [[{1: 1, 2: -1}, {1: 1, 2: 1}]]


def dense_complement(n, b):
    """The complement read off the whole dense Smith form: its inverse row
    transform's tail columns, reduced modulo the Hermite lattice of b."""
    if not b or not b[0]:
        return identity(n)
    snf = smith_normal_form(b)
    diag = [d for d in snf.diagonal() if d]
    torsion = tuple(d for d in diag if d > 1)
    if torsion:
        raise TorsionObstruction("dense", AbGroup(n - len(diag), torsion))
    H, pivots = dense_hermite(b)
    tail = []
    for v in list(zip(*snf.uinv))[len(diag):]:
        for col, p in zip(zip(*H), pivots):
            q = v[p] // col[p]
            v = [x - q * y for x, y in zip(v, col)]
        tail.append(sparse_vector(v))
    return dense(n, tail)


def building_decomposition(spec):
    """The decomposition of one of the small built-in buildings."""
    from coxtop.chambers import digon_building, fano_building, product_building, thin_building
    from coxtop.coxmatrix import CoxeterMatrix
    from coxtop.decomposition import BuildingDecomposition

    system = {
        "fano": fano_building,
        "digon(3,3)": lambda: digon_building(3, 3),
        "fanoxa1": lambda: product_building(
            fano_building(), thin_building(CoxeterMatrix(("u",), {}))
        ),
        "fanoxfano": lambda: product_building(fano_building(), fano_building(("u", "v"))),
    }[spec]()
    return BuildingDecomposition(system)


sparse_square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestSparseLatticeKernels:
    @given(sparse_square_matrices, st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_determinant_matches_bareiss(self, a, scale):
        # scale 2 leaves no unit entry, so the whole matrix is the residual
        from coxtop.intlinalg import _bareiss

        a = [[scale * x for x in row] for row in a]
        assert det(a) == _bareiss(a)

    @given(sparse_matrices)
    @settings(max_examples=300, deadline=None)
    def test_complement_matches_dense_smith(self, b):
        n = len(b)
        try:
            expected = dense_complement(n, b)
        except TorsionObstruction as exc:
            with pytest.raises(TorsionObstruction) as got:
                direct_complement(n, gens_of(b))
            assert got.value.quotient == exc.quotient
            return
        assert dense(n, direct_complement(n, gens_of(b))) == expected

    @pytest.mark.parametrize("spec", ["fano", "digon(3,3)", "fanoxa1"])
    def test_complement_matches_dense_smith_on_buildings(self, spec):
        dec = building_decomposition(spec)
        for T in dec.poset:
            b = dec.above_in_coordinates(T)
            n = dec.residue_count(T)
            assert dense(n, direct_complement(n, b)) == dense_complement(n, dense(n, b))

    def test_witness_factors_no_dense_matrix(self, monkeypatch):
        from coxtop import intlinalg
        from coxtop.chambers import fano_building, product_building
        from coxtop.decomposition import BuildingDecomposition

        seen = {"smith_normal_form": [], "_bareiss": []}
        for name, calls in seen.items():
            factor = getattr(intlinalg, name)
            monkeypatch.setattr(
                intlinalg, name, lambda a, calls=calls, factor=factor: calls.append(a) or factor(a)
            )

        def dense_inclusion(self, fine, coarse):
            raise AssertionError("a dense inclusion matrix reached the lattice path")

        monkeypatch.setattr(BuildingDecomposition, "inclusion_matrix", dense_inclusion)
        system = product_building(fano_building(), fano_building(("u", "v")))
        witness = BuildingDecomposition(system).witness(frozenset())
        assert shape(witness.matrix) == (441, 441)
        assert witness.determinant == -1 and witness.ok
        assert seen["smith_normal_form"] == []
        assert all(len(a) < 441 for a in seen["_bareiss"])


def column_coordinates(basis, v):
    """Sparse coordinates of the sparse vector v in an echelon basis, or
    None if v is not in the lattice: every basis column in turn, each
    clearing v at its pivot.  The reference for ``echelon_coordinates``."""
    v = dict(v)
    coords = []
    for j, col in enumerate(basis):
        p, pivot = col[0]
        q, r = divmod(v.get(p, 0), pivot)
        if r:
            return None
        if q:
            coords.append((j, q))
            for i, x in col:
                v[i] = v.get(i, 0) - q * x
                if not v[i]:
                    del v[i]
    return None if v else coords


class TestHermite:
    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_hermite_spans_same_lattice(self, a):
        basis = column_hermite(gens_of(a))
        # every original column lies in the Hermite lattice
        for col in gens_of(a):
            assert column_coordinates(basis, col) is not None
        # Hermite columns lie in the original lattice: ranks agree
        assert len(basis) == len(nonzero_smith_diagonal(a))

    def test_reduce_canonical(self):
        basis = column_hermite(gens_of([[2, 0], [0, 3]]))
        assert hermite_reduce(basis, [(0, 5), (1, 7)]) == [(0, 1), (1, 1)]

    def test_rank(self):
        assert len(echelon_basis(2, gens_of([[1, 2], [2, 4]]))) == 1
        # the echelon basis is as long as the Hermite basis
        rng = random.Random(18)
        for _ in range(50):
            a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 5))]
            assert len(echelon_basis(len(a), gens_of(a))) == len(column_hermite(gens_of(a)))


class TestEchelonCoordinates:
    """``echelon_coordinates`` reads each vector from its least index up,
    against ``column_coordinates``, which visits every basis column."""

    def test_random_lattices(self):
        rng = random.Random(2412)
        inside = outside = 0
        for _ in range(400):
            n, m = rng.randint(1, 7), rng.randint(0, 6)
            entries = rng.choice([(0, 0, 1, -1), (0, 0, 0, 1, -1, 2, -2, 3), (0, 2, -2, 4)])
            gens = [[(i, x) for i in range(n) if (x := rng.choice(entries))] for _ in range(m)]
            vectors = []
            for _ in range(6):
                v = {}
                for g in gens:  # a random combination: inside the lattice
                    c = rng.randint(-3, 3)
                    for i, x in g:
                        v[i] = v.get(i, 0) + c * x
                if rng.random() < 0.5:  # most often moved outside
                    i = rng.randrange(n)
                    v[i] = v.get(i, 0) + rng.choice([1, -1, 2, 3])
                vectors.append(sorted((i, x) for i, x in v.items() if x))
            for basis in (echelon_basis(n, gens), column_hermite(gens)):
                expected = [column_coordinates(basis, v) for v in vectors]
                assert echelon_coordinates(basis, vectors) == expected
                inside += sum(c is not None for c in expected)
                outside += sum(c is None for c in expected)
        assert inside > 1000 and outside > 1000

    def test_empty_basis(self):
        assert echelon_coordinates([], [[], [(0, 1)]]) == [[], None]


def dense_hermite(a):
    """Reference column Hermite form on dense columns: gcd-combine the
    columns with support in each row in turn, then reduce earlier columns
    at later pivot rows."""
    rows, _ = shape(a)
    work = [list(c) for c in zip(*a) if any(c)]
    H = []
    pivots = []
    r = 0
    while work and r < rows:
        here = [c for c in work if c[r] != 0]
        rest = [c for c in work if c[r] == 0]
        if not here:
            r += 1
            continue
        base = here[0]
        for c in here[1:]:
            base, c = dense_gcd_steps(base, c, r)
            if any(c):
                rest.append(c)
        if base[r] < 0:
            base = [-x for x in base]
        H.append(base)
        pivots.append(r)
        work = rest
        r += 1
    for j in range(len(H)):
        for k in range(j + 1, len(H)):
            p = pivots[k]
            q = H[j][p] // H[k][p]
            if q:
                H[j] = [x - q * y for x, y in zip(H[j], H[k])]
    return dense(rows, [sparse_vector(c) for c in H]), pivots


def dense_gcd_steps(u, v, r):
    """Column operations making v[r] = 0, keeping the span."""
    while v[r] != 0:
        if abs(v[r]) < abs(u[r]) or u[r] == 0:
            u, v = v, u
        q = v[r] // u[r]
        v = [x - q * y for x, y in zip(v, u)]
    return u, v


def sparse_hermite(n, gens):
    """``column_hermite`` as a dense matrix with its pivot rows."""
    basis = column_hermite(gens)
    assert all(c == sorted(c) for c in basis)
    return dense(n, basis), [c[0][0] for c in basis]


class TestSparseHermite:
    """The Hermite form is unique, so the sparse one equals the dense one."""

    @given(st.one_of(small_matrices, sparse_matrices))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense(self, a):
        assert sparse_hermite(len(a), gens_of(a)) == dense_hermite(a)

    def test_matches_dense_on_seeded_matrices(self):
        rng = random.Random(20081)
        for _ in range(400):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            a = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            assert sparse_hermite(r, gens_of(a)) == dense_hermite(a), a

    @pytest.mark.parametrize("spec", ["fano", "digon(3,3)", "fanoxa1", "fanoxfano"])
    def test_matches_dense_on_buildings(self, spec):
        dec = building_decomposition(spec)
        for T in dec.poset:
            b = dec.above_in_coordinates(T)
            n = dec.residue_count(T)
            assert sparse_hermite(n, b) == dense_hermite(dense(n, b)), sorted(T)


class TestQuotient:
    def test_z2_summand(self):
        q = quotient_structure(2, [[(0, 2)]])
        assert q == AbGroup(1, (2,))

    def test_full_basis(self):
        assert quotient_structure(3, gens_of(identity(3))) == AbGroup(0, ())

    def test_empty(self):
        assert quotient_structure(4, []) == AbGroup(4, ())

    def test_torsion_chain(self):
        q = quotient_structure(2, [[(0, 2)], [(1, 4)]])
        assert q == AbGroup(0, (2, 4))

    @pytest.mark.parametrize("index", [2, -1])
    def test_index_outside_the_ambient_rank(self, index):
        with pytest.raises(ValueError, match="outside"):
            quotient_structure(2, [[(0, 1)], [(index, 3)]])


class TestComplement:
    def test_axis(self):
        c = direct_complement(2, [[(0, 1)]])
        assert c == [[(1, 1)]]

    def test_diagonal_vector(self):
        b = [[(0, 1), (1, 1)]]
        c = direct_complement(2, b)
        assert abs(determinant(b + c, 2)) == 1

    def test_torsion_obstruction(self):
        with pytest.raises(TorsionObstruction):
            direct_complement(2, [[(0, 2)]])

    @pytest.mark.parametrize("index", [2, -1])
    def test_index_outside_the_ambient_rank(self, index):
        with pytest.raises(ValueError, match="outside"):
            direct_complement(2, [[(0, 1), (index, 1)]])

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_complement_is_unimodular_completion(self, a):
        n = shape(a)[0]
        snf = smith_normal_form(a)
        if any(d > 1 for d in snf.diagonal()):
            return
        H = column_hermite(gens_of(a))
        if not H:
            return
        c = direct_complement(n, H)
        assert abs(determinant(H + c, n)) == 1


def submodule_quotient(n, big, small):
    """span(big) / span(small) by the path ``sigma-check`` and
    ``filtration`` take: the echelon basis of the big module, then the
    quotient by the small one in its coordinates."""
    return basis_quotient(n, echelon_basis(n, big), small)


class TestSubmoduleQuotient:
    def test_inside(self):
        big = [[(0, 1)], [(1, 2)]]
        small = [[(0, 2)]]
        q = submodule_quotient(3, big, small)
        assert q == AbGroup(1, (2,))

    def test_not_contained(self):
        with pytest.raises(ValueError):
            submodule_quotient(2, [[(0, 2)]], [[(0, 1)]])

    @pytest.mark.parametrize(
        "big, small", [([[(3, 1)]], []), ([[(0, 1)]], [[(-1, 1)]])]
    )
    def test_index_outside_the_ambient_rank(self, big, small):
        with pytest.raises(ValueError, match="outside"):
            submodule_quotient(3, big, small)


class TestCochain:
    def test_single_z(self):
        cx = CochainComplex({0: 1}).validate()
        assert cx.cohomology() == GradedGroup({0: AbGroup(1)})

    def test_triangle_boundary(self):
        # circle: three vertices, three edges
        d0 = [[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(0, -1), (2, 1)]]
        cx = CochainComplex({0: 3, 1: 3}, {0: d0}).validate()
        h = cx.cohomology()
        assert h[0] == AbGroup(1) and h[1] == AbGroup(1)

    def test_times_two(self):
        cx = CochainComplex({0: 1, 1: 1}, {0: [[(0, 2)]]}).validate()
        h = cx.cohomology()
        assert h[0] == AbGroup() and h[1] == AbGroup(0, (2,))

    def test_d_squared_checked(self):
        cx = CochainComplex({0: 1, 1: 1, 2: 1}, {0: [[(0, 1)]], 1: [[(0, 1)]]})
        with pytest.raises(ValueError):
            cx.validate()

    @pytest.mark.parametrize(
        "rows",
        [
            [[(0, 1)]],  # one row for a target of rank 2
            [[(0, 1)], [(2, 1)]],  # column past the source rank
            [[(0, 1)], [(-1, 1)]],  # negative column
            [[(0, 1)], [(1, 0)]],  # stored zero
            [[(0, 1)], [(1, 1), (1, -1)]],  # repeated column
        ],
    )
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            CochainComplex({0: 2, 1: 2}, {0: rows}).validate()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_d_squared_check_matches_dense_product(self, data):
        n, m, p = (data.draw(st.integers(1, 5)) for _ in range(3))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2])

        def matrix(r, c):
            return data.draw(
                st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
            )

        inner, outer = matrix(m, n), matrix(p, m)
        cx = CochainComplex({0: n, 1: m, 2: p}, {0: sparse_rows(inner), 1: sparse_rows(outer)})
        if not any(map(any, matmul(outer, inner))):
            cx.validate()
        else:
            with pytest.raises(ValueError):
                cx.validate()

    def test_three_torsion(self):
        cx = CochainComplex({0: 1, 1: 1}, {0: [[(0, 3)]]}).validate()
        assert cx.cohomology() == GradedGroup({1: AbGroup(0, (3,))})

    def test_rp2_has_z2(self):
        from coxtop.complexes import SimplicialComplex, relative_cohomology

        rp2 = SimplicialComplex.from_maximal(RP2_TRIANGLES)
        assert relative_cohomology(rp2) == GradedGroup({0: AbGroup(1), 2: AbGroup(0, (2,))})

    def test_euler(self):
        d0 = [[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(0, -1), (2, 1)]]
        cx = CochainComplex({0: 3, 1: 3}, {0: d0})
        h = cx.cohomology()
        assert cx.euler_characteristic() == h.euler_characteristic() == 0


def uncleared_cohomology(cx):
    """Cohomology with every map factored on its own by ``heap_divisors``,
    no rows dropped and none peeled: the reference for the top-down
    clearing and the peeling in ``CochainComplex.cohomology``."""
    divisors = {k: heap_divisors(m) for k, m in cx.maps.items()}
    out = {}
    for k, n in cx.dims.items():
        incoming = divisors.get(k - 1, [])
        free = n - len(divisors.get(k, [])) - len(incoming)
        out[k] = AbGroup(free, tuple(d for d in incoming if d > 1))
    return GradedGroup(out)


def unimodular_pair(n, rng, steps):
    """A random n x n unimodular matrix and its inverse: a product of
    row additions with multipliers in {-2, -1, 1, 2} and row swaps."""
    a, inv = identity(n), identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            a[i], a[j] = a[j], a[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= c * row[i]
    return a, inv


def smith_form_complex(rng):
    """A random cochain complex with a known answer, and that answer.

    In Smith form, degree k is Z^{r_{k-1}} + Z^{h_k} + Z^{r_k}: d^k maps
    the last block of degree k diagonally onto the first block of degree
    k + 1, with the divisors drawn for it (units and torsion 2, 3, 4 and
    6, in no particular order), so H^k is Z^{h_k} plus the torsion of
    d^{k-1}.  Every degree is then conjugated by a random unimodular
    matrix, which changes no group.
    """
    top = rng.randint(1, 4)
    divisors = [
        [1] * rng.randint(0, 3) + rng.sample([2, 3, 4, 6], rng.randint(0, 2)) for _ in range(top)
    ]
    for ds in divisors:
        rng.shuffle(ds)
    divisors.append([])
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    dims = [len(divisors[k - 1]) * (k > 0) + free[k] + len(divisors[k]) for k in range(top + 1)]
    pairs = [unimodular_pair(n, rng, 2 * n) for n in dims]
    maps = {}
    for k in range(top):
        d = [[0] * dims[k] for _ in range(dims[k + 1])]
        start = dims[k] - len(divisors[k])
        for i, x in enumerate(divisors[k]):
            d[i][start + i] = x
        if dims[k] and dims[k + 1]:
            d = matmul(matmul(pairs[k + 1][0], d), pairs[k][1])
        maps[k] = sparse_rows(d)
    answer = {}
    for k in range(top + 1):
        group = AbGroup(free[k])
        for x in divisors[k - 1] if k else []:
            group = group.direct_sum(AbGroup(0, (x,) if x > 1 else ()))
        answer[k] = group
    cx = CochainComplex({k: n for k, n in enumerate(dims) if n}, maps)
    return cx.validate(), GradedGroup(answer)


RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
]


def moore_space_z3():
    """A disc whose boundary wraps three times around a triangle: vertex 0
    in the middle, a ring 1..9, and the boundary vertices i, i + 3, i + 6
    of a 9-gon glued to 10 + i.  H^2 = Z/3."""
    ring = list(range(1, 10))
    rim = [10 + i % 3 for i in range(9)]
    triangles = []
    for i in range(9):
        r, r1, a, a1 = ring[i], ring[(i + 1) % 9], rim[i], rim[(i + 1) % 9]
        triangles += [(0, r, r1), (r, r1, a), (r1, a, a1)]
    return triangles


class TestClearing:
    """``CochainComplex.cohomology`` factors from the top down, each map
    less the rows the map above cleared, against ``uncleared_cohomology``."""

    def test_random_smith_form_complexes(self):
        rng = random.Random(2011)
        seen = set()  # (torsion, degree)
        for _ in range(240):
            cx, answer = smith_form_complex(rng)
            assert cx.cohomology() == uncleared_cohomology(cx) == answer
            for m in cx.maps.values():
                assert _divisors_and_pivots(m)[0] == heap_divisors(m)
            for k, group in answer.groups.items():
                seen.update((d, k) for d in group.torsion)
        for d in (2, 3, 4, 6):
            assert len({k for t, k in seen if t % d == 0}) >= 2, d

    @pytest.mark.parametrize(
        "triangles, expected",
        [
            (RP2_TRIANGLES, {0: AbGroup(1), 2: AbGroup(0, (2,))}),
            (moore_space_z3(), {0: AbGroup(1), 2: AbGroup(0, (3,))}),
        ],
        ids=["RP2", "moore-z3"],
    )
    def test_torsion_surfaces(self, triangles, expected):
        from coxtop.complexes import SimplicialComplex, relative_cochain_complex

        cx = relative_cochain_complex(SimplicialComplex.from_maximal(triangles)).validate()
        assert cx.cohomology() == uncleared_cohomology(cx) == GradedGroup(expected)
        for m in cx.maps.values():
            assert _divisors_and_pivots(m)[0] == heap_divisors(m)

    def test_cleared_rows_meet_a_non_unit_block(self, monkeypatch):
        # d^0 = (2, 2)^T and d^1 = (1, -1): the unit pivot of d^1 clears
        # one row of d^0, whose residual block without it is [2]
        from coxtop import intlinalg

        seen = []
        dense = intlinalg.smith_normal_form

        def recording(a):
            seen.append(a)
            return dense(a)

        monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
        cx = CochainComplex(
            {0: 1, 1: 2, 2: 1}, {0: [[(0, 2)], [(0, 2)]], 1: [[(0, 1), (1, -1)]]}
        ).validate()
        assert cx.cohomology() == uncleared_cohomology(cx) == GradedGroup({1: AbGroup(0, (2,))})
        assert seen == [[[2]], [[2], [2]]]


def factor(n):
    """The prime factorization of n by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_merge_torsion(*lists):
    """The divisibility chain of the direct sum of the cyclic groups in
    ``lists``, through its elementary divisors: the prime powers of each
    prime are stacked from the top."""
    primary = {}
    for d in sorted(d for lst in lists for d in lst):
        for p, e in factor(d).items():
            primary.setdefault(p, []).append(e)
    chains = []
    for p, exps in primary.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            while len(chains) <= i:
                chains.append(1)
            chains[i] *= p**e
    return tuple(sorted(chains))


def random_chain(rng):
    """A random divisibility chain of up to four factors, each a product
    of small primes times the one before."""
    chain, d = [], 1
    for _ in range(rng.randint(0, 4)):
        d *= rng.choice((1, 2, 2, 3, 4, 5, 6, 7, 9, 12))
        if d > 1:
            chain.append(d)
    return tuple(chain)


class TestAbGroup:
    def test_str(self):
        assert str(AbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
        assert str(AbGroup()) == "0"

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AbGroup(0, (4, 2))

    def test_direct_sum_merges_torsion(self):
        s = AbGroup(1, (2,)).direct_sum(AbGroup(0, (3,)))
        assert s == AbGroup(1, (6,))

    def test_tensor_free(self):
        g = AbGroup(1, (2,))
        assert g.tensor_free(3) == AbGroup(3, (2, 2, 2))
        assert g.tensor_free(0) == AbGroup()

    def test_merge_against_elementary_divisors(self):
        rng = random.Random(28)
        for _ in range(3000):
            a, b = random_chain(rng), random_chain(rng)
            assert _merge_torsion(a, b) == reference_merge_torsion(a, b), (a, b)
            rank = rng.randint(1, 3)
            assert AbGroup(0, a).tensor_free(rank).torsion == reference_merge_torsion(*[a] * rank)

    def test_merge_factors_nothing(self):
        # trial division would take about sqrt(p) steps for each prime
        p, q = 10**12 + 39, 2**61 - 1
        assert _merge_torsion((p,), (p,)) == (p, p)
        assert _merge_torsion((2, q), (q,)) == (q, 2 * q)
        assert AbGroup(1, (6, 6 * q)).direct_sum(AbGroup(0, (4,))) == AbGroup(1, (2, 6, 12 * q))

    def test_omega(self):
        g = AbGroup("omega", ())
        assert g.direct_sum(AbGroup(5)).free == "omega"
        assert AbGroup(2).tensor_free("omega").free == "omega"
        assert AbGroup(0).tensor_free("omega") == AbGroup()


class TestGraded:
    def test_zero_dropped(self):
        g = GradedGroup({0: AbGroup(), 1: AbGroup(1)})
        assert g.degrees() == [1]

    def test_ops(self):
        g = GradedGroup({0: AbGroup(1), 2: AbGroup(3)})
        assert g.top_degree() == 2
        assert g.tensor_free(2)[2] == AbGroup(6)
        s = g.direct_sum(GradedGroup({2: AbGroup(0, (2,))}))
        assert s[2] == AbGroup(3, (2,))

    def test_equality_ignores_zeros_and_refuses_hashing(self):
        g = GradedGroup({1: AbGroup(1)})
        assert g == GradedGroup({0: AbGroup(), 1: AbGroup(1)})
        assert g != GradedGroup({1: AbGroup(2)}) and g != {1: AbGroup(1)}
        with pytest.raises(TypeError):
            hash(g)


def test_determinant_bareiss():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [0, 1, 0], [1, 0, 1]]) == 1
    assert det(identity(4)) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert determinant([], 0) == 1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2, 0], [0, 0, -1], [4, 0, 3]]) == -8  # residual [[0, 2], [4, 0]]
    assert det([[1, 1], [1, 1]]) == det([[0, 0], [0, 1]]) == 0


@pytest.mark.parametrize(
    "a, n",
    [
        ([[(0, 1)], [(1, 1)]], 3),  # two columns in Z^3
        ([[(0, 1)], [(1, 1)], [(2, 1)]], 2),  # three columns in Z^2
        ([[(0, 1)], [(2, 1)]], 2),  # index past n
        ([[(0, 1)], [(-1, 1)]], 2),  # negative index
    ],
)
def test_determinant_refuses_a_non_square_input(a, n):
    with pytest.raises(ValueError):
        determinant(a, n)


def test_repeated_index_refused_at_the_lattice_entry_points():
    # a dict of column 0 would keep its last entry, and the determinant 1
    with pytest.raises(ValueError, match="row 0 names index 0 twice"):
        determinant([[(0, 1), (0, 1)], [(1, 1)]], 2)
    gens = [[(1, 3)], [(2, 1), (0, 2), (2, -1)]]
    for check in (quotient_structure, direct_complement, echelon_basis):
        with pytest.raises(ValueError, match="row 1 names index 2 twice"):
            check(3, gens)
    with pytest.raises(ValueError, match="row 1 names index 2 twice"):
        basis_quotient(3, echelon_basis(3, [[(0, 1)], [(1, 1)], [(2, 1)]]), gens)
    with pytest.raises(ValueError, match="map at degree 0, row 1 names index 1 twice"):
        CochainComplex({0: 2, 1: 2}, {0: [[(0, 1)], [(1, 1), (1, -1)]]}).validate()


def with_lone_units(rng, n):
    """A random n x n matrix in which about half the rows have one nonzero
    entry, a unit or 2: the transpose that ``determinant`` eliminates has
    lone entries there, unit or not."""
    a = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(n)]
    for i in rng.sample(range(n), n // 2):
        a[i] = [0] * n
        a[i][rng.randrange(n)] = rng.choice([1, -1, 1, -1, 2])
    return a


def test_determinant_with_lone_units_matches_bareiss():
    rng = random.Random(441)
    nonzero = lone = 0
    for _ in range(300):
        a = with_lone_units(rng, rng.randint(1, 8))
        d = det(a)
        assert d == _bareiss(a)
        nonzero += d != 0
        lone += len(_peel(gens_of(a))[0])  # lone units of the transpose
    assert nonzero > 50 and lone > 300


class TestDeterminantPeels:
    """``determinant`` runs ``_eliminate`` like the other unit-pivot
    kernels, the peel included."""

    @pytest.fixture
    def peeled(self, monkeypatch):
        """The pivots of every ``_peel`` call."""
        calls = []
        peel = intlinalg._peel
        monkeypatch.setattr(intlinalg, "_peel", lambda *a: calls.append(peel(*a)[0]) or peel(*a))
        return calls

    def test_peel_runs_inside_determinant(self, peeled):
        # the transpose rows (1, 0) and (3, 1): column 1 is lone, then column 0
        assert det([[1, 3], [0, 1]]) == 1
        assert peeled == [[(1, 1, 1), (0, 0, 1)]]

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [None, "thick-decomposition:7"], ids=["plain", "renumbered"])
    def test_fano_x_fano_witness_matches_bareiss(self, seed, peeled):
        from coxtop.decomposition import BuildingDecomposition

        system = BUILT_INS["fanoxfano"]()
        if seed is not None:
            system = shuffled(system, random.Random(seed))
        w = BuildingDecomposition(system).witness(frozenset())
        del peeled[:]  # the splittings' quotients peel too
        assert w.determinant == determinant(gens_of(w.matrix), len(w.matrix))
        assert len(peeled) == 1
        assert w.determinant == _bareiss(w.matrix) in (1, -1)


def reference_complement(n, gens):
    """``direct_complement`` with every tail reduced against the full
    ``column_hermite``, whether or not the elimination shows it canonical."""
    tail, _ = _complement_tails(n, gens)
    basis = column_hermite(gens)
    return [hermite_reduce(basis, v) for v in tail]


def shuffled(system, rng):
    """``system`` with chamber i renumbered perm[i], perm shuffled by rng."""
    from coxtop.chambers import ChamberSystem

    perm = list(range(system.size))
    rng.shuffle(perm)
    panels = {
        s: tuple(frozenset(perm[c] for c in b) for b in blocks)
        for s, blocks in system.panels.items()
    }
    return ChamberSystem(system.matrix, panels, system.size)


class TestComplementAgainstFullHermite:
    """The unreduced tails come back only when the elimination proves them
    canonical, and the others are reduced over the echelon form alone; both
    must agree with reduction over the full Hermite form."""

    @pytest.fixture
    def factored(self, monkeypatch):
        """Every residual block that ``smith_normal_form`` factors."""
        from coxtop import intlinalg

        blocks = []
        dense = intlinalg.smith_normal_form
        monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: blocks.append(a) or dense(a))
        return blocks

    @staticmethod
    def branches(n, gens, seen, factored):
        """Compare with the reference; record which branches ran."""
        before = len(factored)
        try:
            expected = reference_complement(n, gens)
        except TorsionObstruction as exc:
            with pytest.raises(TorsionObstruction) as got:
                direct_complement(n, gens)
            assert got.value.quotient == exc.quotient
            seen.add("torsion")
            return
        assert direct_complement(n, gens) == expected
        seen.add("certified" if _complement_tails(n, gens)[1] else "echelon")
        if len(factored) > before:
            seen.add("smith")

    def check_system(self, system, seen, factored):
        from coxtop.decomposition import BuildingDecomposition

        dec = BuildingDecomposition(system)
        for T in dec.poset:
            self.branches(dec.residue_count(T), dec.above_in_coordinates(T), seen, factored)

    def test_built_ins(self, factored):
        seen = set()
        for build in BUILT_INS.values():
            self.check_system(build(), seen, factored)
            self.check_system(renumbered(build(), random.Random(17)), seen, factored)
        assert "certified" in seen

    def test_renumbered_fano_x_fano_misses_the_certificate(self, factored):
        # the chamber numbering of the thick-decomposition benchmark's input
        # at seed 7, where T = {} and T = {u} take the echelon reduction
        seen = set()
        self.check_system(
            shuffled(BUILT_INS["fanoxfano"](), random.Random("thick-decomposition:7")),
            seen,
            factored,
        )
        assert seen == {"certified", "echelon"}

    def test_random_lattices(self, factored):
        rng = random.Random(17)
        seen = set()
        for _ in range(1500):
            n, m = rng.randint(1, 7), rng.randint(0, 7)
            entries = rng.choice([(0, 0, 1, -1), (0, 0, 0, 1, -1, 2, -2, 3), (0, 0, 2, -2, 3, 4)])
            gens = [
                [(i, x) for i in range(n) if (x := rng.choice(entries))] for _ in range(m)
            ]
            self.branches(n, gens, seen, factored)
        assert seen == {"certified", "echelon", "smith", "torsion"}

    @pytest.mark.parametrize(
        "n, gens, quotient",
        [
            (1, [[(0, 2)]], AbGroup(0, (2,))),
            (3, [[(0, 1), (1, 1)], [(0, 1), (1, -1)]], AbGroup(1, (2,))),
            (3, [[(1, 2), (2, 4)], [(0, 1)], [(1, 6)]], AbGroup(0, (2, 12))),
        ],
    )
    def test_torsion(self, n, gens, quotient, factored):
        seen = set()
        self.branches(n, gens, seen, factored)
        assert seen == {"torsion"}
        with pytest.raises(TorsionObstruction) as got:
            direct_complement(n, gens)
        assert got.value.quotient == quotient == quotient_structure(n, gens)

    @given(st.one_of(small_matrices, sparse_matrices), st.data())
    @settings(max_examples=200, deadline=None)
    def test_echelon_reduces_like_hermite(self, a, data):
        gens = gens_of(a)
        E, H = _echelon(gens), column_hermite(gens)
        assert [c[0] for c in E] == [c[0] for c in H]
        v = sparse_vector(data.draw(st.lists(st.integers(-30, 30), min_size=len(a), max_size=len(a))))
        assert hermite_reduce(E, v) == hermite_reduce(H, v)
