import random
import tracemalloc
from itertools import combinations, product

import pytest

from coxtop.coxmatrix import INF, CoxeterMatrix, is_spherical
from coxtop.chambers import (
    AMBIGUOUS,
    ChamberError,
    ChamberSystem,
    digon_building,
    fano_building,
    gallery_distances,
    parse_chamber_system,
    product_building,
    projective_plane_building,
    residue_partition_map,
    thin_building,
    verify_building,
)
from coxtop.decomposition import BuildingDecomposition
from test_groups import inverse, multiply_word


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


A2 = mk("st", [("s", "t", 3)])
B2 = mk("st", [("s", "t", 4)])


class TestThin:
    def test_a1(self):
        sys = thin_building(mk("s", []))
        assert sys.size == 2
        assert len(sys.panels["s"]) == 1

    def test_a2(self):
        sys = thin_building(A2)
        assert sys.size == 6
        for s in "st":
            assert len(sys.panels[s]) == 3
            assert all(len(b) == 2 for b in sys.panels[s])

    def test_b2(self):
        assert thin_building(B2).size == 8

    def test_subset(self):
        # the system keeps the matrix it was given
        sys = thin_building(A2)
        assert sys.size == 6 and sys.matrix is A2


class TestDigon:
    def test_thin_case(self):
        sys = digon_building(2, 2)
        assert sys.size == 4

    def test_33(self):
        sys = digon_building(3, 3)
        assert sys.size == 9
        for s in "st":
            assert all(len(b) == 3 for b in sys.panels[s])

    def test_23(self):
        sys = digon_building(2, 3)
        assert sys.size == 6
        assert all(len(b) == 2 for b in sys.panels["s"])
        assert all(len(b) == 3 for b in sys.panels["t"])

    def test_too_small(self):
        with pytest.raises(ChamberError):
            digon_building(1, 3)


class TestProjectivePlane:
    def test_fano_counts(self):
        sys = fano_building()
        assert sys.size == 21
        assert len(sys.panels["s"]) == 7 and len(sys.panels["t"]) == 7
        assert all(len(b) == 3 for b in sys.panels["s"])
        assert all(len(b) == 3 for b in sys.panels["t"])

    def test_order3_counts(self):
        sys = projective_plane_building(3)
        assert sys.size == 52
        assert all(len(b) == 4 for b in sys.panels["s"])

    def test_s_residues_are_points(self):
        sys = fano_building()
        pm = sys.partition_map("s")
        assert len(sys.least_chambers("s")) == 7
        assert all(pm.count(r) == 3 for r in range(7))

    def test_unsupported_order(self):
        with pytest.raises(ChamberError):
            projective_plane_building(4)


class TestProduct:
    def test_thin_squares(self):
        a = thin_building(mk("a", []))
        b = thin_building(mk("b", []))
        p = product_building(a, b)
        assert p.size == 4
        assert p.matrix.m("a", "b") == 2

    def test_fano_times_a1(self):
        p = product_building(fano_building(), thin_building(mk("u", [])))
        assert p.size == 42
        assert set(p.matrix.labels) == {"s", "t", "u"}

    def test_collision(self):
        with pytest.raises(ChamberError):
            product_building(fano_building(), thin_building(mk("s", [])))


class TestResidues:
    def test_empty_type_singletons(self):
        sys = thin_building(A2)
        assert sys.partition_map(()) == list(range(6))
        assert sys.least_chambers(()) == list(range(6))

    def test_thin_a2_s(self):
        sys = thin_building(A2)
        pm = sys.partition_map("s")
        assert len(sys.least_chambers("s")) == 3
        assert all(pm.count(r) == 2 for r in range(3))

    def test_refinement(self):
        sys = fano_building()
        small, big = sys.partition_map("s"), sys.partition_map("st")
        assert sys.least_chambers("st") == [0]
        # each s-residue lies in the st-residue of its least chamber
        least = sys.least_chambers("s")
        assert all(big[c] == big[least[r]] for c, r in enumerate(small))

    def test_unknown_generator(self):
        sys = fano_building()
        for call in (residue_partition_map, ChamberSystem.partition_map):
            with pytest.raises(ChamberError, match="'x'"):
                call(sys, ("s", "x"))

    def test_equality_is_identity(self):
        # the panels define a chamber system: an equality that skipped them
        # took fano for fano with its s- and t-panels exchanged
        fano = fano_building()
        plain = ChamberSystem(fano.matrix, fano.panels, fano.size)
        swapped = ChamberSystem(
            fano.matrix, {"s": fano.panels["t"], "t": fano.panels["s"]}, fano.size
        )
        assert plain != swapped
        assert plain == plain


def delta(system, i, j):
    """delta(i, j) off the minimal galleries of ``gallery_distances``, or
    AMBIGUOUS; a defined delta has the gallery distance as its length."""
    _, dist, deltas = gallery_distances(system, i)
    w = deltas[j]
    if w != AMBIGUOUS:
        assert system.element_table().elements[w].length == dist[j]
    return w


class TestWDistance:
    def test_identity(self):
        sys = thin_building(A2)
        assert delta(sys, 3, 3) == 0

    def test_thin_formula(self):
        sys = thin_building(A2)
        table = sys.element_table()
        for i in range(sys.size):
            for j in range(sys.size):
                expect = multiply_word(table, inverse(table, i), table.elements[j].word)
                assert delta(sys, i, j) == expect

    def test_symmetry(self):
        sys = fano_building()
        table = sys.element_table()
        for i in range(0, sys.size, 5):
            for j in range(0, sys.size, 5):
                assert inverse(table, delta(sys, i, j)) == delta(sys, j, i)

    def test_fano_point_adjacency(self):
        sys = fano_building()
        blk = next(iter(sys.panels["s"]))  # chambers sharing a point
        chambers = sorted(blk)
        w = delta(sys, chambers[0], chambers[1])
        assert sys.element_table().elements[w].word == ("s",)


class TestVerify:
    def test_fano_passes(self):
        report = verify_building(fano_building())
        assert report.passed
        heawood = [c for c in report.residue_checks if c["pair"] == ["s", "t"]]
        assert heawood[0]["girth"] == 6 and heawood[0]["diameter"] == 3

    def test_digon33_passes(self):
        report = verify_building(digon_building(3, 3))
        assert report.passed
        check = report.residue_checks[0]
        assert check["girth"] == 4 and check["diameter"] == 2

    def test_product_passes(self):
        p = product_building(fano_building(), thin_building(mk("u", [])))
        assert verify_building(p).passed

    def test_plane3_passes(self):
        report = verify_building(projective_plane_building(3))
        assert report.passed
        check = report.residue_checks[0]
        assert check["girth"] == 6 and check["diameter"] == 3

    def test_plane3_squared_passes(self):
        # 2,704 chambers over 36 group elements: the all-sources pass takes
        # n·|W| steps per neighbour where one BFS per chamber took n²
        system = product_building(
            projective_plane_building(3), projective_plane_building(3, ("u", "v"))
        )
        report = verify_building(system)
        assert report.passed and report.distance_note == "checked"

    def test_thin_all_pass(self):
        for mat in (A2, B2):
            assert verify_building(thin_building(mat)).passed
        # every spherical type on three generators with labels in
        # {2, ..., 7, 9, inf}: A3, B3, H3 on root tables, and A1 x I2(m)
        # with m = 7 or 9 on the dihedral model
        spherical = 0
        for ms in product((2, 3, 4, 5, 6, 7, 9, INF), repeat=3):
            mat = mk("abc", [(s, t, m) for (s, t), m in zip(combinations("abc", 2), ms)])
            if is_spherical(mat, "abc"):
                spherical += 1
                assert verify_building(thin_building(mat)).passed, ms
        assert spherical == 34

    def test_hexagon_with_digon_type_fails(self):
        # six chambers in a cycle pretend to have commuting generators;
        # the rank-2 residue is a 3-gon, not a 2-gon, and minimal
        # galleries of types sts and tst disagree in the group
        mat = mk("st", [])
        panels = {
            "s": (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})),
            "t": (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 0})),
        }
        from coxtop.chambers import ChamberSystem

        sys_bad = ChamberSystem(mat, panels, 6)
        report = verify_building(sys_bad)
        assert not report.residues_ok and not report.passed
        assert delta(sys_bad, 0, 3) == AMBIGUOUS

    def test_empty_panel_block_is_refused(self):
        mat = mk("st", [("s", "t", 3)])
        with pytest.raises(ChamberError, match="'s'"):
            ChamberSystem(
                mat,
                {
                    "s": (frozenset({0, 1}), frozenset({2, 3}), frozenset()),
                    "t": (frozenset({0, 3}), frozenset({1, 2})),
                },
                4,
            )
        with pytest.raises(ChamberError, match="'s'"):
            parse_chamber_system(
                "gens s t\ns t 3\nchambers 4\n"
                "panel s: {0,1} {2,3} {}\npanel t: {0,3} {1,2}\n"
            )

    def test_small_panel_fails(self):
        mat = mk("s", [])
        sys_bad = type(thin_building(mat))(
            mat, {"s": (frozenset({0, 1}), frozenset({2}))}, 3
        )
        report = verify_building(sys_bad)
        assert not report.panel_sizes_ok and not report.passed


def cycle(n, m):
    """n chambers in a cycle with alternating s- and t-panels, declared of
    type m(s, t) = m; a building only when n = 2m (a thin m-gon)."""
    mat = mk("st", [("s", "t", m)] if m != 2 else [])
    panels = {
        "s": tuple(frozenset({i, i + 1}) for i in range(0, n, 2)),
        "t": tuple(frozenset({i + 1, (i + 2) % n}) for i in range(0, n, 2)),
    }
    return ChamberSystem(mat, panels, n)


def two_fanos():
    """Two disjoint copies of the Fano building: every residue is fine."""
    f = fano_building()
    panels = {
        s: f.panels[s] + tuple(frozenset(c + f.size for c in b) for b in f.panels[s])
        for s in f.matrix.labels
    }
    return ChamberSystem(f.matrix, panels, 2 * f.size)


class TestDistanceFailures:
    @pytest.mark.parametrize(
        "system, residues_ok, note",
        [
            (cycle(6, 2), False, "ambiguous distance between 0 and 3"),
            (cycle(8, 2), False, "non-reduced gallery between 0 and 3"),
            (cycle(8, 3), False, "ambiguous distance between 0 and 4"),
            (two_fanos(), True, "disconnected"),
        ],
        ids=["6-cycle-m2", "8-cycle-m2", "8-cycle-m3", "two-fanos"],
    )
    def test_first_failure_is_named(self, system, residues_ok, note):
        report = verify_building(system)
        assert report.residues_ok == residues_ok
        assert not report.distance_ok and not report.passed
        assert report.distance_note == note

    def test_w_distance_refuses_ambiguous_galleries(self):
        assert delta(cycle(8, 3), 0, 4) == AMBIGUOUS

    def test_finite_system_of_infinite_type_fails(self):
        mat = mk("st", [("s", "t", INF)])
        one_panel = (frozenset({0, 1}),)
        report = verify_building(ChamberSystem(mat, {"s": one_panel, "t": one_panel}, 2))
        assert report.panel_sizes_ok and report.residues_ok
        assert not report.distance_ok and not report.passed
        assert report.distance_note.startswith("type is infinite")

    def test_bfs_reads_no_panel(self, monkeypatch):
        # the distance check walks the per-system neighbour table, all
        # sources in one pass, and looks up no panel per edge; a pass
        # that finds no failure runs no gallery BFS at all
        from coxtop import chambers

        def refuse(self, s, i):
            raise AssertionError("panel_of called")

        calls = []
        bfs = chambers.gallery_distances
        monkeypatch.setattr(ChamberSystem, "panel_of", refuse)
        monkeypatch.setattr(
            chambers, "gallery_distances", lambda system, i: calls.append(i) or bfs(system, i)
        )
        system = product_building(fano_building(), fano_building(("u", "v")))
        assert verify_building(system).passed
        assert calls == []


def reference_distance_check(system):
    """The W-distance check with one ``gallery_distances`` per chamber:
    the first failing pair in discovery order, then inverse symmetry.
    The reference for ``verify_building``'s all-sources pass."""
    table = system.element_table()
    back = []  # delta(i, 0) for every chamber i
    for i in range(system.size):
        order, dist, delta = gallery_distances(system, i)
        if i == 0:
            order0, delta0 = order, delta
        if len(order) != system.size:
            return False, "disconnected"
        for j in order:
            w = delta[j]
            if w == AMBIGUOUS:
                return False, f"ambiguous distance between {i} and {j}"
            if table.elements[w].length != dist[j]:
                return False, f"non-reduced gallery between {i} and {j}"
        back.append(delta[0])
    for j in order0:
        if inverse(table, delta0[j]) != back[j]:
            return False, f"distance not inverse-symmetric at {j}"
    return True, "checked"


def panel_swaps(system, rng, count):
    """``system`` with ``count`` random exchanges of two chambers between
    two panels of one generator; panel sizes stay."""
    panels = {s: [set(b) for b in system.panels[s]] for s in system.matrix.labels}
    for _ in range(count):
        blocks = panels[rng.choice(system.matrix.labels)]
        first, second = rng.sample(blocks, 2)
        a, b = rng.choice(sorted(first)), rng.choice(sorted(second))
        first.remove(a)
        first.add(b)
        second.remove(b)
        second.add(a)
    return ChamberSystem(
        system.matrix, {s: tuple(map(frozenset, b)) for s, b in panels.items()}, system.size
    )


def random_panels(rng, labels, size):
    """Per generator, a shuffled chamber list cut into blocks of one to
    three chambers."""
    panels = {}
    for s in labels:
        order = rng.sample(range(size), size)
        blocks = []
        while order:
            cut = rng.randint(1, 3)
            blocks.append(frozenset(order[:cut]))
            order = order[cut:]
        panels[s] = tuple(blocks)
    return panels


def random_rank2(rng):
    """A random chamber system of type m(s, t) in {2, 3, 4}: each generator
    cuts a shuffled chamber list into blocks of one to three chambers."""
    size = rng.randint(2, 12)
    m = rng.choice((2, 3, 4))
    panels = random_panels(rng, "st", size)
    return ChamberSystem(mk("st", [("s", "t", m)] if m != 2 else []), panels, size)


A3 = mk("abc", [("a", "b", 3), ("b", "c", 3)])
BUILT_INS = {
    "a1": lambda: thin_building(mk("u", [])),
    "thin-A2": lambda: thin_building(A2),
    "thin-B2": lambda: thin_building(B2),
    "thin-G2": lambda: thin_building(mk("st", [("s", "t", 6)])),
    "thin-A3": lambda: thin_building(A3),
    "thin-B3": lambda: thin_building(mk("abc", [("a", "b", 3), ("b", "c", 4)])),
    "thin-H3": lambda: thin_building(mk("abc", [("a", "b", 3), ("b", "c", 5)])),
    "fano": fano_building,
    "digon(2,3)": lambda: digon_building(2, 3),
    "digon(3,3)": lambda: digon_building(3, 3),
    "plane(3)": lambda: projective_plane_building(3),
    "fanoxa1": lambda: product_building(fano_building(), thin_building(mk("u", []))),
    "digon(3,3)xa1": lambda: product_building(digon_building(3, 3), thin_building(mk("u", []))),
    "fanoxfano": lambda: product_building(fano_building(), fano_building(("u", "v"))),
}


class TestDistancePassAgainstReference:
    @pytest.mark.parametrize("name", list(BUILT_INS))
    def test_built_ins(self, name):
        system = BUILT_INS[name]()
        report = verify_building(system)
        assert (report.distance_ok, report.distance_note) == reference_distance_check(system)
        assert report.distance_ok

    @pytest.mark.parametrize(
        "system",
        [cycle(6, 2), cycle(8, 2), cycle(8, 3), two_fanos()],
        ids=["6-cycle-m2", "8-cycle-m2", "8-cycle-m3", "two-fanos"],
    )
    def test_pinned_failures(self, system):
        report = verify_building(system)
        assert (report.distance_ok, report.distance_note) == reference_distance_check(system)

    def test_fuzz(self):
        rng = random.Random(14)
        swapped = [
            fano_building(),
            digon_building(3, 3),
            projective_plane_building(3),
            thin_building(A3),
            BUILT_INS["fanoxa1"](),
        ]
        kinds = set()
        for case in range(1200):
            if case % 2:
                system = random_rank2(rng)
            else:
                system = panel_swaps(rng.choice(swapped), rng, rng.randint(1, 3))
            report = verify_building(system)
            expected = reference_distance_check(system)
            assert (report.distance_ok, report.distance_note) == expected, case
            kinds.add(expected[1].split(" ")[0])
        assert {"checked", "disconnected", "ambiguous", "non-reduced"} <= kinds


def reference_residues(system, T):
    """The T-residues by union-find over the raw panel blocks, each a
    sorted chamber list, ordered by least chamber.  The reference for
    ``residue_partition_map`` and the least chambers cached beside it."""
    T = [s for s in system.matrix.labels if s in set(T)]
    parent = list(range(system.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in T:
        for block in system.panels[s]:
            it = iter(sorted(block))
            first = find(next(it))
            for other in it:
                parent[find(other)] = first
    groups = {}
    for i in range(system.size):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def renumbered(system, rng):
    """``system`` with its chambers permuted and its panel blocks shuffled."""
    perm = rng.sample(range(system.size), system.size)
    panels = {
        s: tuple(frozenset(perm[c] for c in b) for b in rng.sample(blocks, len(blocks)))
        for s, blocks in system.panels.items()
    }
    return ChamberSystem(system.matrix, panels, system.size)


def assert_residues_match_reference(system):
    labels = system.matrix.labels
    dec = BuildingDecomposition(system)
    for r in range(len(labels) + 1):
        for T in combinations(labels, r):
            expected = reference_residues(system, T)
            pm = [None] * system.size
            for index, chambers in enumerate(expected):
                for c in chambers:
                    pm[c] = index
            assert residue_partition_map(system, T) == pm, T
            assert system.partition_map(T) == pm, T
            assert system.least_chambers(T) == [g[0] for g in expected], T
            assert dec.residue_count(T) == len(expected), T


RESIDUE_SYSTEMS = ["a1", "fano", "plane(3)", "digon(2,3)", "digon(3,3)",
                   "thin-A3", "thin-B3", "thin-H3", "fanoxa1", "fanoxfano"]


class TestResiduesAgainstReference:
    @pytest.mark.parametrize("name", RESIDUE_SYSTEMS)
    def test_built_ins(self, name):
        assert_residues_match_reference(BUILT_INS[name]())

    @pytest.mark.parametrize("name", RESIDUE_SYSTEMS)
    def test_renumbered(self, name):
        rng = random.Random(15)
        for _ in range(3):
            assert_residues_match_reference(renumbered(BUILT_INS[name](), rng))

    def test_disconnected(self):
        assert_residues_match_reference(two_fanos())
        assert_residues_match_reference(renumbered(two_fanos(), random.Random(15)))

    def test_random_partitions(self):
        # panels with singleton blocks, and systems in several pieces
        rng = random.Random(15)
        singletons = disconnected = 0
        for _ in range(300):
            size = rng.randint(1, 14)
            labels = "stu"[: rng.randint(1, 3)]
            system = ChamberSystem(mk(labels, []), random_panels(rng, labels, size), size)
            assert_residues_match_reference(system)
            singletons += any(len(b) == 1 for s in labels for b in system.panels[s])
            disconnected += len(system.least_chambers(labels)) > 1
        assert singletons and disconnected


def reference_containing(fine_residues, coarse_residues):
    """The body of the ``_containing`` that ``BuildingDecomposition`` kept
    before the system owned the inclusions, read off union-find residues:
    for each fine residue, the coarse residue holding its least chamber."""
    up = {c: index for index, chambers in enumerate(coarse_residues) for c in chambers}
    return [up[chambers[0]] for chambers in fine_residues]


def reference_covered(fine_residues, coarse_residues):
    """The body of the old ``_covered``: for each coarse residue, the fine
    residues it holds, in order."""
    held = [[] for _ in coarse_residues]
    for f, c in enumerate(reference_containing(fine_residues, coarse_residues)):
        held[c].append(f)
    return held


def assert_inclusions_match_reference(system):
    labels = system.matrix.labels
    subsets = [frozenset(T) for r in range(len(labels) + 1) for T in combinations(labels, r)]
    residues = {T: reference_residues(system, T) for T in subsets}
    for fine in subsets:
        for coarse in subsets:
            if fine <= coarse:
                pair = residues[fine], residues[coarse]
                key = (fine, coarse)
                assert system.containing(fine, coarse) == reference_containing(*pair), key
                assert system.covered(fine, coarse) == reference_covered(*pair), key


class TestInclusionsAgainstReference:
    @pytest.mark.parametrize("name", list(BUILT_INS))
    def test_built_ins(self, name):
        assert_inclusions_match_reference(BUILT_INS[name]())
        rng = random.Random(20)
        for _ in range(3):
            assert_inclusions_match_reference(renumbered(BUILT_INS[name](), rng))

    def test_non_spherical_types(self):
        # the index takes any type: random panels of a type with m(s, u)
        # infinite, so that {s, u} and {s, t, u} are not spherical
        rng = random.Random(20)
        matrix = mk("stu", [("s", "t", 3), ("s", "u", INF)])
        for _ in range(50):
            size = rng.randint(1, 14)
            assert_inclusions_match_reference(
                ChamberSystem(matrix, random_panels(rng, "stu", size), size)
            )

    def test_fine_outside_coarse_raises(self):
        sys = fano_building()
        for call in (sys.containing, sys.covered):
            with pytest.raises(ValueError, match="fine <= coarse"):
                call("st", "s")
            with pytest.raises(ValueError, match="fine <= coarse"):
                call("s", "t")

    def test_second_call_is_cached(self):
        sys = fano_building()
        first = sys.containing("s", "st")
        assert sys.containing(("s",), frozenset("ts")) is first


def test_constructor_panels_are_regular():
    # every constructor produces panels of one size per generator
    systems = [
        thin_building(A2),
        thin_building(B2),
        digon_building(2, 3),
        fano_building(),
        projective_plane_building(3),
        product_building(fano_building(), thin_building(mk("u", []))),
    ]
    for sys_ in systems:
        for s in sys_.matrix.labels:
            sizes = {len(b) for b in sys_.panels[s]}
            assert len(sizes) == 1, (s, sizes)


class TestTextFormat:
    def test_roundtrip(self):
        # generators named like the body lines: the relation line
        # "panel x 3" or "chambers x 3" belongs to the matrix
        systems = [digon_building(2, 3)] + [
            fano_building(labels)
            for name in ("panel", "chambers")
            for labels in ((name, "x"), ("x", name))
        ]
        for sys in systems:
            text = sys.to_text()
            back = parse_chamber_system(text)
            assert back.size == sys.size
            assert back.matrix.labels == sys.matrix.labels
            assert back.matrix.entries == sys.matrix.entries
            for s in sys.matrix.labels:
                assert sorted(back.panels[s], key=min) == sorted(sys.panels[s], key=min)

    def test_panel_for_unknown_generator_names_its_line(self):
        with pytest.raises(ChamberError, match="^line 3: panel for unknown generator 'x'$"):
            parse_chamber_system("gens s\nchambers 2\npanel x: {0,1}\n")

    def test_cover_check_needs_no_chamber_set(self):
        # a million chambers and one panel of two: the check counts the
        # chambers the disjoint, in-range blocks cover
        tracemalloc.start()
        try:
            with pytest.raises(ChamberError, match="s-panels do not cover the chambers"):
                parse_chamber_system("gens s\nchambers 1000000\npanel s: {0,1}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_fano_roundtrip_verifies(self):
        text = fano_building().to_text()
        back = parse_chamber_system(text)
        assert verify_building(back).passed

    def test_bad_panel(self):
        with pytest.raises(ChamberError):
            parse_chamber_system("gens s\nchambers 2\npanel s: {0}\n")
