"""Finite chamber systems and buildings.

A chamber system over the generators of a Coxeter matrix is a finite set
of chambers with one partition (the s-panels) per generator.  Residues of
type T are the connected components under the panels with types in T.
Every residue is read off one index per system, the chamber ->
(generator index, neighbour) table ``ChamberSystem.neighbours``, and
numbered by its least chamber (``residue_partition_map``).  The same
index says which residue holds which: ``ChamberSystem.containing`` maps
each residue of a type to the residue of a larger type holding it, and
``ChamberSystem.covered`` inverts it; every map between residue modules
(coboundary blocks, lattice generators, witness lifts, glued faces)
reads it there.

Constructors provided: the thin building (the group itself, panels =
cosets of the order-2 subgroups), rank-2 generalized digons (complete
bipartite incidence), the flag building of a projective plane of order 2
or 3, and products.  ``verify_building`` checks the panel-size axiom,
the generalized-polygon structure of rank-2 residues (girth 2m, diameter
m of the panel incidence graph), and consistency of the W-valued
distance obtained from minimal galleries.

The distance is decided by one layered breadth-first pass from every
chamber at once over a per-system chamber -> (generator index,
neighbour) table: the sources are the bits of Python ints, and each
chamber keeps, per group element, the sources whose minimal galleries to
it realize that element.  A pass that finds every distance defined and
reduced has shown symmetry too, since reversing a minimal gallery
inverts its type.  Only a failing pass runs ``gallery_distances``, one
search from one chamber, to name the first failing pair.  A finite
chamber system of infinite type is never a building: an apartment has
|W| = infinity chambers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .coxmatrix import INF, CoxeterMatrix, is_spherical, parse_coxeter_matrix
from .groups import enumerate_group


class ChamberError(ValueError):
    """Malformed chamber system input."""


@dataclass(frozen=True, eq=False)  # compared by identity
class ChamberSystem:
    matrix: CoxeterMatrix
    panels: dict  # label -> tuple of frozensets of indices
    size: int = 0

    def __post_init__(self):
        for s in self.matrix.labels:
            blocks = self.panels.get(s)
            if blocks is None:
                raise ChamberError(f"missing panel partition for generator {s!r}")
            covered = set()
            for b in blocks:
                if not b:
                    raise ChamberError(f"empty panel block for generator {s!r}")
                stray = [c for c in b if not 0 <= c < self.size]
                if stray:
                    raise ChamberError(
                        f"panel block for generator {s!r} names chamber {min(stray)}, "
                        f"out of range [0, {self.size})"
                    )
                if not covered.isdisjoint(b):
                    raise ChamberError(f"{s}-panels overlap")
                covered.update(b)
            # every chamber is in range and no two blocks meet
            if len(covered) != self.size:
                raise ChamberError(f"{s}-panels do not cover the chambers")
        # type -> (partition map, least chamber of each residue)
        object.__setattr__(self, "_partitions", {})
        # (fine type, coarse type) -> coarse residue holding each fine residue
        object.__setattr__(self, "_inclusions", {})
        # type -> hat(A)^T, filled by every BuildingDecomposition of this system
        object.__setattr__(self, "_splittings", {})

    def panel_of(self, s, i):
        return next(b for b in self.panels[s] if i in b)

    def partition_map(self, T):
        """``residue_partition_map`` of type T; cached per instance."""
        return self._residue_index(T)[0]

    def least_chambers(self, T):
        """The least chamber of each T-residue, in residue order; its
        length is the number of T-residues.  Cached with the partition map."""
        return self._residue_index(T)[1]

    def containing(self, fine, coarse):
        """For each ``fine``-residue, in residue order, the index of the
        ``coarse``-residue holding it, read off ``least_chambers(fine)``
        and ``partition_map(coarse)``.  ``coarse`` must contain ``fine``
        as a type.  Cached per instance."""
        key = (frozenset(fine), frozenset(coarse))
        cached = self._inclusions.get(key)
        if cached is None:
            fine, coarse = key
            if not fine <= coarse:
                raise ValueError("inclusion needs fine <= coarse as types")
            up = self.partition_map(coarse)
            cached = self._inclusions[key] = [up[c] for c in self.least_chambers(fine)]
        return cached

    def covered(self, fine, coarse):
        """For each ``coarse``-residue, the ``fine``-residues it holds, in
        order: the inverse of ``containing``."""
        held = [[] for _ in self.least_chambers(coarse)]
        for f, c in enumerate(self.containing(fine, coarse)):
            held[c].append(f)
        return held

    def _residue_index(self, T):
        T = frozenset(T)
        cached = self._partitions.get(T)
        if cached is None:
            pm = residue_partition_map(self, T)
            least = []
            for c, r in enumerate(pm):
                if r == len(least):  # residues are numbered by least chamber
                    least.append(c)
            cached = self._partitions[T] = (pm, least)
        return cached

    def element_table(self):
        """The full group table of the (finite) type; cached per instance."""
        cached = getattr(self, "_table", None)
        if cached is None:
            cached = enumerate_group(self.matrix, self.matrix.labels)
            object.__setattr__(self, "_table", cached)
        return cached

    def neighbours(self):
        """chamber -> tuple of (generator index, adjacent chamber), by
        generator and then in panel order; cached per instance."""
        cached = getattr(self, "_neighbours", None)
        if cached is None:
            adjacent = [[] for _ in range(self.size)]
            for k, s in enumerate(self.matrix.labels):
                for block in self.panels[s]:
                    pairs = [(k, j) for j in block]  # shared by the block
                    for i in block:
                        adjacent[i].extend(p for p in pairs if p[1] != i)
            cached = tuple(map(tuple, adjacent))
            object.__setattr__(self, "_neighbours", cached)
        return cached

    def to_text(self):
        lines = [self.matrix.to_text().rstrip("\n")]
        lines.append(f"chambers {self.size}")
        for s in self.matrix.labels:
            blocks = sorted(self.panels[s], key=min)
            body = " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in blocks)
            lines.append(f"panel {s}: {body}")
        return "\n".join(lines) + "\n"


def parse_chamber_system(text):
    """Parse the chamber-system format: the type matrix lines, then
    ``chambers <n>`` and one ``panel <s>: {i,j,...} ...`` line per generator.
    A line whose first word is ``chambers`` or ``panel`` is a body line
    unless it reads as a matrix line ``<name> <name> <m>``: three words,
    no colon."""
    head_lines = []
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        head, colon, _ = stripped.partition(":")
        kind = head.split()[:1]
        if kind in (["chambers"], ["panel"]) and (colon or len(stripped.split()) != 3):
            body.append((lineno, kind[0], stripped))
            raw = ""  # blanked, so the matrix parser numbers the file's lines
        head_lines.append(raw)
    matrix = parse_coxeter_matrix("\n".join(head_lines))
    size = None
    panels = {}
    for lineno, kind, line in body:
        if kind == "chambers":
            if size is not None:
                raise ChamberError(f"line {lineno}: second 'chambers' line")
            count = line[len("chambers") :].strip()
            try:
                size = int(count)
            except ValueError:
                size = 0
            if size < 1:
                raise ChamberError(
                    f"line {lineno}: expected 'chambers <n>' with n >= 1, got {count!r}"
                )
            continue
        rest = line[len("panel") :].strip()
        name, _, blocks_text = rest.partition(":")
        s = name.strip()
        if s not in matrix.labels:
            raise ChamberError(f"line {lineno}: panel for unknown generator {s!r}")
        if s in panels:
            raise ChamberError(f"line {lineno}: second panel line for generator {s!r}")
        blocks = []
        for tok in blocks_text.split():
            if not (tok.startswith("{") and tok.endswith("}")):
                raise ChamberError(f"bad panel block {tok!r}")
            try:
                blocks.append(frozenset(int(x) for x in tok[1:-1].split(",") if x))
            except ValueError:
                raise ChamberError(
                    f"line {lineno}: panel block {tok!r} holds a non-integer"
                ) from None
        panels[s] = tuple(blocks)
    if size is None:
        raise ChamberError("missing 'chambers <n>' line")
    return ChamberSystem(matrix, panels, size)


def residue_partition_map(system, T):
    """chamber index -> residue index, residues numbered by least chamber.

    Each chamber not yet placed, in increasing order, opens the next
    residue, and a search over the T-edges of ``system.neighbours()``
    places the rest of it.
    """
    labels = system.matrix.labels
    for s in T:
        if s not in labels:
            raise ChamberError(f"residue type names unknown generator {s!r}")
    kinds = {labels.index(s) for s in T}
    neighbours = system.neighbours()
    out = [None] * system.size
    count = 0
    for c in range(system.size):
        if out[c] is None:
            out[c] = count
            stack = [c]
            while stack:
                for k, j in neighbours[stack.pop()]:
                    if out[j] is None and k in kinds:
                        out[j] = count
                        stack.append(j)
            count += 1
    return out


# ------------------------------------------------------------ constructors


def thin_building(mat):
    """The group W as a building: panels are the cosets {w, ws}."""
    table = enumerate_group(mat, mat.labels)
    panels = {}
    for k, s in enumerate(mat.labels):
        blocks = set()
        for i in range(len(table)):
            j = table.mult[i][k]
            blocks.add(frozenset((i, j)))
        panels[s] = tuple(sorted(blocks, key=min))
    system = ChamberSystem(mat, panels, len(table))
    object.__setattr__(system, "_table", table)
    return system


def digon_building(p, q, labels=("s", "t")):
    """Rank-2 building of type m=2: chambers are cells of a p x q grid.

    The s-panels fix the second coordinate (size p) and the t-panels fix
    the first (size q); the panel incidence graph is complete bipartite.
    """
    if p < 2 or q < 2:
        raise ChamberError("digon parameters must be >= 2")
    s, t = labels
    mat = CoxeterMatrix((s, t), {})
    idx = {(i, j): i * q + j for i in range(p) for j in range(q)}
    panels = {
        s: tuple(frozenset(idx[(i, j)] for i in range(p)) for j in range(q)),
        t: tuple(frozenset(idx[(i, j)] for j in range(q)) for i in range(p)),
    }
    return ChamberSystem(mat, panels, p * q)


def _projective_plane(q):
    """Points and lines of PG(2, q) over the prime field, q in {2, 3}."""
    if q not in (2, 3):
        raise ChamberError("projective planes are built for q in {2, 3} only")

    def normalize(v):
        for x in v:
            if x % q != 0:
                inv = pow(x, q - 2, q)
                return tuple((inv * y) % q for y in v)
        return None

    points = sorted(
        {normalize(v) for v in product(range(q), repeat=3)} - {None}
    )
    lines = points[:]  # lines are kernels of covectors; same normal forms
    incidence = {
        (pt, ln): sum(a * b for a, b in zip(pt, ln)) % q == 0
        for pt in points
        for ln in lines
    }
    return points, lines, incidence


def projective_plane_building(q, labels=("s", "t")):
    """Chambers are incident point-line flags; type is the 3-gon (m=3)."""
    s, t = labels
    points, lines, incidence = _projective_plane(q)
    flags = [(pt, ln) for pt in points for ln in lines if incidence[(pt, ln)]]
    idx = {f: i for i, f in enumerate(flags)}
    mat = CoxeterMatrix((s, t), {frozenset((s, t)): 3})
    s_panels = []
    for pt in points:
        s_panels.append(frozenset(idx[(pt, ln)] for ln in lines if incidence[(pt, ln)]))
    t_panels = []
    for ln in lines:
        t_panels.append(frozenset(idx[(pt, ln)] for pt in points if incidence[(pt, ln)]))
    return ChamberSystem(mat, {s: tuple(s_panels), t: tuple(t_panels)}, len(flags))


def fano_building(labels=("s", "t")):
    return projective_plane_building(2, labels)


def product_building(a, b):
    """Chambers = pairs; panels act on one factor; cross labels commute."""
    if set(a.matrix.labels) & set(b.matrix.labels):
        raise ChamberError("generator label collision in product")
    labels = a.matrix.labels + b.matrix.labels
    entries = dict(a.matrix.entries)
    entries.update(b.matrix.entries)
    mat = CoxeterMatrix(labels, entries)
    nb = b.size
    panels = {}
    for s in a.matrix.labels:
        blocks = []
        for block in a.panels[s]:
            for j in range(nb):
                blocks.append(frozenset(i * nb + j for i in block))
        panels[s] = tuple(blocks)
    for s in b.matrix.labels:
        blocks = []
        for i in range(a.size):
            for block in b.panels[s]:
                blocks.append(frozenset(i * nb + j for j in block))
        panels[s] = tuple(blocks)
    return ChamberSystem(mat, panels, a.size * nb)


# ------------------------------------------------------------- W-distance


AMBIGUOUS = -1  # gallery_distances: minimal galleries realize several elements


def gallery_distances(system, start):
    """Minimal galleries from ``start``, by breadth-first search over
    ``system.neighbours()``.

    Returns ``(order, dist, delta)``: the reachable chambers in discovery
    order, and per chamber (lists indexed by chamber) the gallery distance
    (``None`` if unreachable) and the group element realized by its
    minimal galleries.  ``delta[j]`` is ``AMBIGUOUS`` when two minimal
    galleries to j realize different elements, or when j's predecessor is
    ambiguous: right multiplication by a generator is injective, so an
    ambiguity propagates along every minimal gallery through it.  In a
    building no chamber is ambiguous.
    """
    mult = system.element_table().mult
    neighbours = system.neighbours()
    dist = [None] * system.size
    delta = [AMBIGUOUS] * system.size
    dist[start] = 0
    delta[start] = 0
    order = [start]
    for i in order:  # grows while it is walked: a FIFO queue
        d = dist[i] + 1
        w = delta[i]
        for k, j in neighbours[i]:
            dj = dist[j]
            if dj is None:
                dist[j] = d
                delta[j] = AMBIGUOUS if w == AMBIGUOUS else mult[w][k]
                order.append(j)
            elif dj == d and delta[j] != AMBIGUOUS:
                if w == AMBIGUOUS or mult[w][k] != delta[j]:
                    delta[j] = AMBIGUOUS
    return order, dist, delta


def _distance_pass(system, table):
    """``gallery_distances`` from every chamber at once, one layer at a time.

    The sources are the bits of Python ints.  At layer d, ``layer[j]``
    maps a group element w to the sources i with gallery distance d to j
    whose minimal galleries to j realize w, and ``reached[j]`` holds the
    sources within distance d of j.  Returns ``bad``: the sources whose
    breadth-first search would meet an ambiguous or non-reduced chamber
    or miss one.
    """
    mult = table.mult
    length = [e.length for e in table.elements]
    neighbours = system.neighbours()
    layer = [{0: 1 << j} for j in range(system.size)]
    reached = [1 << j for j in range(system.size)]
    everyone = (1 << system.size) - 1
    bad = 0
    d = 0
    while True:
        d += 1
        nxt = []
        for j, adjacent in enumerate(neighbours):
            fresh = everyone ^ reached[j]
            entries = {}
            for k, p in adjacent:
                for w, bits in layer[p].items():
                    new = bits & fresh
                    if new:
                        v = mult[w][k]
                        entries[v] = entries.get(v, 0) | new
            seen = 0
            for v, bits in entries.items():
                bad |= seen & bits  # a source in two entries: ambiguous
                seen |= bits
                if length[v] != d:
                    bad |= bits  # non-reduced
            reached[j] |= seen
            nxt.append(entries)
        if not any(nxt):
            break
        layer = nxt
    for r in reached:
        bad |= everyone ^ r  # disconnected
    return bad


def _first_distance_failure(system, table, i):
    """The first failure on ``gallery_distances`` from i, in discovery
    order: an unreached chamber, then an ambiguous or a non-reduced one."""
    order, dist, delta = gallery_distances(system, i)
    if len(order) != system.size:
        return "disconnected"
    for j in order:
        w = delta[j]
        if w == AMBIGUOUS:
            return f"ambiguous distance between {i} and {j}"
        if table.elements[w].length != dist[j]:
            return f"non-reduced gallery between {i} and {j}"
    return None


# ------------------------------------------------------------ verification


def _bipartite_girth_diameter(edges, a, b):
    """Girth and diameter of the bipartite multigraph with left vertices
    0..a-1, right vertices a..a+b-1 and one edge (x, a + y) per pair
    (x, y) of ``edges``; the diameter is None when it is disconnected."""
    simple = dict.fromkeys(edges)
    girth = 2 if len(simple) < len(edges) else None  # a multi-edge
    size = a + b
    adjacency = [[] for _ in range(size)]
    for x, y in simple:
        adjacency[x].append(a + y)
        adjacency[a + y].append(x)
    # girth and eccentricity by one BFS from every vertex on the simple graph
    diameter = 0
    connected = True
    for src in range(size):
        dist = [-1] * size
        parent = [-1] * size
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                for v in adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = du + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v and dist[v] >= du:
                        cycle = du + dist[v] + 1
                        if girth is None or cycle < girth:
                            girth = cycle
            frontier = nxt
        if -1 in dist:
            connected = False
        else:
            diameter = max(diameter, max(dist))
    return girth, (diameter if connected else None)


@dataclass
class BuildingReport:
    panel_sizes_ok: bool
    panel_failures: list
    residue_checks: list  # dicts per (pair, residue)
    residues_ok: bool
    distance_ok: bool
    distance_note: str
    passed: bool

    def to_json(self):
        return {
            "panel_sizes_ok": self.panel_sizes_ok,
            "panel_failures": self.panel_failures,
            "residue_checks": self.residue_checks,
            "residues_ok": self.residues_ok,
            "distance_ok": self.distance_ok,
            "distance_note": self.distance_note,
            "passed": self.passed,
        }


def verify_building(system):
    """Necessary building axioms at desk scale.

    (a) every panel has at least two chambers; (b) every rank-2 residue
    with finite label m is a generalized m-gon (panel incidence graph has
    girth 2m and diameter m); (c) for finite type, minimal galleries
    define a single-valued distance with delta(x,y) = delta(y,x)^-1 and
    gallery length equal to word length.  (c) is one pass from every
    chamber at once (``_distance_pass``); when a source fails, one
    ``gallery_distances`` from the lowest failing source names the first
    failing pair in discovery order.  Symmetry needs no search of its
    own: reversed, a minimal gallery of type s1...sk from x to y is one
    of type sk...s1 from y to x, so once all minimal galleries from every
    source realize one element, delta(y,x) = delta(x,y)^-1.  For infinite
    type (c) fails outright: the system is finite, and an apartment of a
    building of infinite type is not.
    """
    failures = []
    for s in system.matrix.labels:
        for b in system.panels[s]:
            if len(b) < 2:
                failures.append({"generator": s, "panel": sorted(b)})
    panel_ok = not failures

    residue_checks = []
    residues_ok = True
    for s, t in combinations(system.matrix.labels, 2):
        m = system.matrix.m(s, t)
        if m is INF:
            continue
        s_ids = system.partition_map((s,))
        t_ids = system.partition_map((t,))
        for chambers in system.covered((), (s, t)):
            # vertices are the residue's panels, numbered in order of appearance
            left, right = {}, {}
            edges = [
                (left.setdefault(s_ids[c], len(left)), right.setdefault(t_ids[c], len(right)))
                for c in chambers
            ]
            girth, diameter = _bipartite_girth_diameter(edges, len(left), len(right))
            ok = girth == 2 * m and diameter == m
            residues_ok &= ok
            residue_checks.append(
                {
                    "pair": [s, t],
                    "m": m,
                    "residue_min_chamber": chambers[0],
                    "girth": girth,
                    "expected_girth": 2 * m,
                    "diameter": diameter,
                    "expected_diameter": m,
                    "ok": ok,
                }
            )

    distance_ok = True
    if is_spherical(system.matrix, system.matrix.labels):
        note = "checked"
        table = system.element_table()
        bad = _distance_pass(system, table)
        if bad:
            distance_ok = False
            note = _first_distance_failure(system, table, (bad & -bad).bit_length() - 1)
    else:
        # an apartment of a building of type (W, S) has |W| chambers
        distance_ok = False
        note = "type is infinite; a finite chamber system is not a building of infinite type"
    passed = panel_ok and residues_ok and distance_ok
    return BuildingReport(
        panel_ok, failures, residue_checks, residues_ok, distance_ok, note, passed
    )
