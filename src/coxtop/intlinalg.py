"""Exact integer linear algebra: Smith and Hermite forms, quotients,
complements, and cohomology of cochain complexes of free abelian groups.

The cohomology and lattice kernels share one unit-pivot elimination,
``_eliminate``: a +-1 alone in its column is peeled with no row operation
(``_peel``), only the rows left over are indexed for the other +-1
pivots, and a dense Smith form (Bareiss, for ``determinant``) runs only
on the residual block, which has no unit entry.  Cohomology and
``quotient_structure`` read the invariant factors off it
(``_divisors_and_pivots``); ``determinant`` expands along its pivots.
Cohomology factors the maps from the top degree down with clearing (Chen
and Kerber's twist, over Z): if d^k has unit pivots in rows P and
columns Q, then d^k[P, Q] is unimodular and d^k d^{k-1} = 0, so the rows
Q of d^{k-1} lie in the Z-span of its other rows.  Dropping them changes
neither the row lattice nor the nonzero invariant factors of d^{k-1},
whether or not it has a residual block, so each map is factored once,
less the rows the map above cleared.

``direct_complement`` replays the pivot order of the transform-carrying
``smith_normal_form`` on sparse rows, so its choice of complement is that
of the dense form, and it reduces that complement against an echelon
basis only when the elimination has not already shown it canonical.
Every lattice reader takes one basis, ``echelon_basis``, the echelon
form ``_echelon`` finds on sparse columns bucketed by leading index: its
length is the rank, and coordinates in it are read by forward
substitution on its pivots.  ``column_hermite`` back-reduces it to the
unique Hermite form, which no program path needs.

There is one sparse format.  A coboundary is a list of rows and a module
lattice in Z^n is a list of generators; either way each is a list of
(index, entry) pairs, nonzero, no index twice, and the ambient rank n is
passed alongside.  ``quotient_structure``, ``direct_complement``,
``echelon_basis``, ``basis_quotient`` and ``determinant`` refuse an
index outside [0, n), and they refuse a row that names one index twice
(``CochainComplex.validate`` checks the maps).  Only ``matmul``,
``smith_normal_form`` and the residual blocks it factors are dense lists
of lists.  Everything is arbitrary precision; pivoting is deterministic
(smallest nonzero absolute value, ties broken in row-major order) so
witnesses are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from operator import itemgetter


class TorsionObstruction(Exception):
    """A submodule that was required to be a direct summand is not one.

    A failed verification, not bad input: it is deliberately not a
    ``ValueError``, and the command line reports it with exit code 2.

    ``quotient`` is the structure of the ambient module modulo the
    submodule, with the torsion that obstructs the splitting.
    """

    def __init__(self, message, quotient):
        super().__init__(message)
        self.quotient = quotient


# ----------------------------------------------------------------- matrices


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [row[:] for row in a]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} times {rb}x{cb}")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _check_generators(n, gens):
    """Refuse a generator index outside [0, n): list indexing would wrap a
    negative one silently; or one index twice (``_check_distinct``)."""
    for g in gens:
        for i, _ in g:
            if not 0 <= i < n:
                raise ValueError(f"generator index {i} outside [0, {n})")
    _check_distinct(gens)


def _check_distinct(rows, what="row"):
    """Refuse a sparse row that names one index twice: a dict of it would
    keep the last entry silently, and ``_peel`` counts entries."""
    for k, row in enumerate(rows):
        if len(dict(row)) < len(row):
            ids = [j for j, _ in row]
            j = next(j for j in ids if ids.count(j) > 1)
            raise ValueError(f"{what} {k} names index {j} twice")


# ------------------------------------------------------------- determinant


def determinant(a, n):
    """Determinant of the n x n integer matrix with the sparse columns a.

    The columns are eliminated as the rows of the transpose, which has the
    same determinant.  The unit pivots of ``_eliminate`` expand it along
    their columns; the square block of the rows and columns they leave, in
    their original order, goes to Bareiss.  The sign is that of the
    permutation matching every row to its pivot column or residual column.

    >>> determinant([[(0, 1), (1, 3)], [(0, 2), (1, 4)]], 2)
    -2
    """
    if len(a) != n:
        raise ValueError(f"determinant of {len(a)} columns in Z^{n}: not square")
    _check_generators(n, a)
    pivots, residual = _eliminate(a)
    if len(pivots) + len(residual) < n:
        return 0  # a row with no pivot was zero or became zero
    perm = [None] * n
    sign = 1
    for p, q, u in pivots:
        perm[p] = q
        sign *= u
    cols = sorted(set(range(n)).difference(perm))
    for i, j in zip(residual, cols):
        perm[i] = j
    for i in range(n):  # sort perm by transpositions
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return sign * _bareiss([[row.get(j, 0) for j in cols] for row in residual.values()])


def _bareiss(a):
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    mat = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * pivot - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = pivot
    return sign * mat[n - 1][n - 1]


# ------------------------------------------------------------- Smith form


@dataclass
class SNFResult:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``uinv`` is maintained alongside so callers can move between the two
    row bases without solving anything.
    """

    U: list
    D: list
    V: list
    uinv: list

    def diagonal(self):
        r, c = shape(self.D)
        return [self.D[i][i] for i in range(min(r, c))]


def _min_abs_pivot(a, start):
    rows, cols = shape(a)
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            x = a[i][j]
            if x != 0 and (best is None or abs(x) < abs(best[2])):
                best = (i, j, x)
                if abs(x) == 1:
                    return best
    return best


def smith_normal_form(a):
    """Deterministic Smith normal form with unimodular transforms.

    >>> snf = smith_normal_form([[2, 0], [0, 3]])
    >>> snf.diagonal()
    [1, 6]
    """
    rows, cols = shape(a)
    D = copy_matrix(a)
    U = identity(rows)
    uinv = identity(rows)
    V = identity(cols)

    def row_add(i, j, k):  # row_i += k * row_j  (on D and U); uinv col j -= k*col i
        D[i] = [x + k * y for x, y in zip(D[i], D[j])]
        U[i] = [x + k * y for x, y in zip(U[i], U[j])]
        for r in range(rows):
            uinv[r][j] -= k * uinv[r][i]

    def col_add(j, i, k):  # col_j += k * col_i
        for r in range(rows):
            D[r][j] += k * D[r][i]
        for r in range(cols):
            V[r][j] += k * V[r][i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in range(rows):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        for r in range(rows):
            uinv[r][i] = -uinv[r][i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = _min_abs_pivot(D, t)
        if found is None:
            break
        pi, pj, _ = found
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # clear column t then row t; repeat until both are clean
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_add(i, t, -q)
                    if D[i][t] != 0:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_add(j, t, -q)
                    if D[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # divisibility: D[t][t] must divide everything below-right
        pivot = D[t][t]
        fix = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % pivot != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_add(t, fix, 1)
            continue
        if pivot < 0:
            row_negate(t)
        t += 1
    return SNFResult(U, D, V, uinv)


def _peel(rows, cleared=frozenset()):
    """Peel the +-1 entries that are alone in their column: the free-face
    reduction of Kaczynski, Mrozek and Slusarek.

    Returns the pivots as (row, column, unit) and the indices of the rows
    left over (the core), in increasing order.  The rows ``cleared`` and
    the empty rows are in neither.  For each column the pass keeps the
    number of live rows with an entry there and the xor of their indices,
    so a column with one entry names its row.  A lone unit splits the
    matrix as (+-1) + M' without a row operation; dropping its row may
    leave other columns lone, and they are taken in turn.  A row peeled
    later was live when an earlier column was lone, so the peeled block,
    in peel order, is triangular with a unit diagonal, and the core rows
    are zero in every peeled column.  Dropping a row only leaves more
    columns lone, so the core does not depend on the order of the peeling.

    >>> _peel([[(0, 1), (1, 2)], [(1, 2), (2, -1)], [(1, 3)], []])
    ([(0, 0, 1), (1, 2, -1)], [2])
    """
    live = list(map(bool, rows))
    for i in cleared:
        live[i] = False
    width = 1 + max(map(itemgetter(0), chain.from_iterable(rows)), default=-1)
    count = [0] * width
    xor = [0] * width
    for i, row in enumerate(rows):
        if live[i]:
            for j, _ in row:
                count[j] += 1
                xor[j] ^= i
    pivots = []
    lone = [j for j, c in enumerate(count) if c == 1]
    for q in lone:  # appended to while it is read: a queue
        if count[q] != 1:
            continue  # its row was peeled from another column
        p = xor[q]
        row = rows[p]
        for j, u in row:
            if j == q:
                break
        if u != 1 and u != -1:
            continue
        pivots.append((p, q, u))
        live[p] = False
        for j, _ in row:
            count[j] -= 1
            xor[j] ^= p
            if count[j] == 1:
                lone.append(j)
    return pivots, [i for i, alive in enumerate(live) if alive]


def _indexed(rows):
    """Sparse rows as {column: entry} dicts, and for every column the set
    of rows with a nonzero entry there."""
    rows = [dict(row) for row in rows]
    where = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    return rows, where


def _unit_step(rows, where, p, q):
    """Clear column q from every other row with the unit pivot rows[p][q],
    then drop row p: its other entries are cleared by column operations,
    which touch no other row.  Returns the rows that changed."""
    pivot_row = rows[p]
    u = pivot_row[q]
    rows[p] = {}
    for j in pivot_row:
        where[j].discard(p)
    changed = sorted(where[q])
    for i in changed:
        row = rows[i]
        f = row[q] * u
        for j, x in pivot_row.items():
            y = row.get(j, 0) - f * x
            if y:
                if j not in row:
                    where[j].add(i)
                row[j] = y
            elif j in row:
                del row[j]
                where[j].discard(i)
    return changed


def _unit_pivots(rows, where):
    """Eliminate +-1 pivots, always from the shortest row that has one and
    in it the column with the fewest entries.  Returns the pivots as
    (row, column, unit); the rows left nonzero hold the residual block,
    which has no unit entry."""
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []
    while heap:
        n, p = heapq.heappop(heap)
        pivot_row = rows[p]
        if len(pivot_row) != n:
            continue  # stale entry: the row changed or is eliminated
        candidates = [j for j, x in pivot_row.items() if x == 1 or x == -1]
        if not candidates:
            continue  # comes back on the heap if a later step changes it
        q = min(candidates, key=lambda j: (len(where[j]), j))
        pivots.append((p, q, pivot_row[q]))
        for i in _unit_step(rows, where, p, q):
            if rows[i]:
                heapq.heappush(heap, (len(rows[i]), i))
    return pivots


def _eliminate(rows, cleared=frozenset()):
    """Unit-pivot elimination of sparse rows less the rows ``cleared``:
    ``_peel``, then ``_unit_pivots`` on the dict rows of the core.  Returns
    the pivots as (row, column, unit) and the residual rows, which have no
    unit entry, as {row: {column: entry}}, in the caller's row numbers."""
    peeled, core = _peel(rows, cleared)
    work, where = _indexed([rows[i] for i in core])
    pivots = peeled + [(core[p], q, u) for p, q, u in _unit_pivots(work, where)]
    return pivots, {core[i]: row for i, row in enumerate(work) if row}


def _divisors_and_pivots(rows, cleared=frozenset()):
    """Nonzero invariant factors of a sparse integer matrix less the rows
    ``cleared``, and the columns of its unit pivots: ``_eliminate``, then
    ``smith_normal_form`` on the compacted residual block."""
    pivots, residual = _eliminate(rows, cleared)
    cols = sorted({j for row in residual.values() for j in row})
    block = [[row.get(j, 0) for j in cols] for row in residual.values()]
    rest = smith_normal_form(block).diagonal() if block else []
    return [1] * len(pivots) + [d for d in rest if d], {q for _, q, _ in pivots}


# ------------------------------------------------------------ Hermite form


def _echelon(gens):
    """Column echelon form of the lattice the generators span: a basis of
    sparse columns sorted by index, each column's first pair its pivot, a
    positive leading entry, with the pivots increasing from column to
    column.  ``column_hermite`` without the back-reduction.

    The columns are {index: entry} dicts, bucketed by their leading index.
    Bucket by bucket, the columns leading there are reduced modulo the one
    with the smallest leading entry until one is left; the others move on
    to the bucket of their new leading index.  The pivot rows and pivot
    entries of an echelon basis are those of the Hermite form.
    """
    buckets = {}
    for g in gens:
        if g:
            c = dict(g)
            buckets.setdefault(min(c), []).append(c)
    H = []
    while buckets:
        r = min(buckets)
        here = buckets.pop(r)
        while len(here) > 1:
            u = min(here, key=lambda c: (abs(c[r]), len(c)))
            left = [u]
            for c in here:
                if c is not u:
                    _sub_multiple(c, c[r] // u[r], u.items())
                    if r in c:
                        left.append(c)
                    elif c:
                        buckets.setdefault(min(c), []).append(c)
            here = left
        base = here[0]
        if base[r] < 0:
            base = {i: -x for i, x in base.items()}
        H.append(sorted(base.items()))
    return H


def column_hermite(gens):
    """Canonical column Hermite form of the lattice the generators span.

    Returns the Hermite basis as sparse columns sorted by index: each
    column's first pair is its pivot, a positive leading entry, and the
    pivots increase from column to column; every column's entries at the
    later pivots are reduced into [0, pivot).

    Each column of ``_echelon`` is reduced modulo the echelon columns after
    it.  The Hermite form of a lattice is unique, so the order of the
    echelon steps does not show in it.
    """
    H = _echelon(gens)
    return [hermite_reduce(H[j + 1:], c) for j, c in enumerate(H)]


def _sub_multiple(c, q, u):
    """c -= q * u for a sparse {index: entry} column c and (index, entry)
    pairs u, in place."""
    for i, x in u:
        y = c.get(i, 0) - q * x
        if y:
            c[i] = y
        else:
            del c[i]


def echelon_coordinates(basis, vectors):
    """Sparse coordinates of each sparse vector in the echelon basis
    ``basis``, or None for a vector outside its lattice.  A lattice
    vector's least index is the pivot of its first column with a nonzero
    coordinate, so each vector is read from its least index up."""
    column_at = {col[0][0]: j for j, col in enumerate(basis)}
    out = []
    for v in vectors:
        v = dict(v)
        coords = []
        while v and (j := column_at.get(min(v))) is not None:
            p, pivot = basis[j][0]
            q, r = divmod(v[p], pivot)
            if r:
                break
            coords.append((j, q))
            _sub_multiple(v, q, basis[j])
        out.append(None if v else coords)
    return out


def hermite_reduce(basis, v):
    """Canonical representative of the sparse vector v modulo the lattice
    of ``basis``, sorted by index: its entry at every pivot p lies in
    [0, pivot).

    ``basis`` may be any echelon basis with positive pivots in increasing
    order: ``echelon_basis``, or the Hermite basis of ``column_hermite``.
    A later column is zero at every earlier pivot, so one pass in pivot
    order leaves each reduced entry as it is; the pivot entries are those
    of the Hermite form, and a lattice vector with every pivot entry in
    (-pivot, pivot) is zero, so the representative does not depend on the
    basis."""
    v = dict(v)
    for col in basis:
        p, pivot = col[0]
        q = v.get(p, 0) // pivot
        if q:
            _sub_multiple(v, q, col)
    return sorted(v.items())


# -------------------------------------------------- quotients, complements


OMEGA = "omega"  # marker for countably infinite rank


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    The free rank may be the marker ``"omega"`` for countably infinite,
    used only in symbolic reports about infinite buildings.
    """

    free: object = 0  # int or OMEGA
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates divisibility")

    def is_zero(self):
        return self.free == 0 and not self.torsion

    def is_free(self):
        return not self.torsion

    def __str__(self):
        parts = []
        if self.free == OMEGA:
            parts.append("Z^omega")
        elif self.free == 1:
            parts.append("Z")
        elif self.free:
            parts.append(f"Z^{self.free}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free_rank": self.free, "torsion": list(self.torsion)}

    def direct_sum(self, other):
        if self.free == OMEGA or other.free == OMEGA:
            free = OMEGA
        else:
            free = self.free + other.free
        return AbGroup(free, _merge_torsion(self.torsion, other.torsion))

    def tensor_free(self, rank):
        """Tensor with a free group of the given rank (int or omega)."""
        if rank == 0:
            return AbGroup()
        if rank == OMEGA:
            free = OMEGA if self.free != 0 else 0
            if self.torsion:
                raise ValueError("omega multiples of torsion are not representable")
            return AbGroup(free, ())
        free = OMEGA if self.free == OMEGA else self.free * rank
        # rank copies of a divisibility chain: each factor repeated rank times
        return AbGroup(free, tuple(d for d in self.torsion for _ in range(rank)))


def _merge_torsion(a, b):
    """The divisibility chain of Z/a_1 + ... + Z/b_1 + ...: each position
    is exchanged once with every later one for (gcd, lcm), since
    Z/x + Z/y = Z/gcd(x, y) + Z/lcm(x, y); afterwards each divides every
    later one.  The 1s are dropped."""
    d = [*a, *b]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


def quotient_structure(n, gens):
    """Structure of Z^n modulo the span of the sparse generators.

    The generators are the rows of the transpose of the matrix they form
    as columns, which has the same invariant factors.
    """
    _check_generators(n, gens)
    diag = _divisors_and_pivots(gens)[0]
    return AbGroup(n - len(diag), tuple(d for d in diag if d > 1))


def direct_complement(n, gens):
    """Sparse columns C with span(gens) + span(C) = Z^n as a direct sum.

    Requires the quotient Z^n / span(gens) to be torsion free.  The
    complement is deterministic: the tail columns of the inverse row
    transform of ``smith_normal_form`` of the matrix with the generators
    as columns supply the missing coordinate directions, and each one is
    reduced to its canonical representative modulo the lattice.

    ``_complement_tails`` finds the tails, and most often they are
    already canonical; then they are returned as they are.  Otherwise
    each one is reduced against ``_echelon``: one pass over an echelon
    basis gives the same representatives as one over the Hermite basis,
    so the back-reduction of ``column_hermite`` is not needed.
    """
    _check_generators(n, gens)
    tail, reduced = _complement_tails(n, gens)
    if reduced:
        return tail
    basis = _echelon(gens)
    return [hermite_reduce(basis, v) for v in tail]


def _complement_tails(n, gens):
    """The tails of ``direct_complement`` before reduction, and whether
    they are already canonical representatives.

    The Smith form is replayed on sparse rows, one per coordinate of Z^n:
    while its pivot (the first +-1 in row-major order over the current
    positions) is a unit, the step only swaps positions and clears the
    pivot column, so the tail columns of the inverse stay the unit vectors
    e_i of the rows at their positions.  At the first non-unit pivot the
    trailing block, in position order, goes to ``smith_normal_form``, and
    its tail columns are mapped back through the row positions.

    The tails are canonical when every pivot was found in the first
    nonzero row of its scan and no Smith form ran.  A zero row stays zero
    and the swaps move only zero rows, so the nonzero rows keep their
    index order.  Each pivot is then the first row outside the span of the
    earlier pivots, so the pivot rows are the first independent rows of
    the matrix.  Those are the pivot rows of its column Hermite form, so
    no tail index is a Hermite pivot, and ``hermite_reduce`` leaves every
    tail e_i as it is.

    Raises ``TorsionObstruction`` when the quotient has torsion.
    """
    transpose = [[] for _ in range(n)]
    for j, g in enumerate(gens):
        for i, x in g:
            transpose[i].append((j, x))
    rows, where = _indexed(transpose)
    m = len(gens)
    row_at = list(range(n))  # position -> row
    col_at = list(range(m))  # position -> column
    col_pos = list(range(m))  # column -> position
    t = 0
    snf = None
    in_order = True  # no nonzero row without a unit was passed over
    while t < min(n, m):
        found = None
        for i in range(t, n):
            row = rows[row_at[i]]
            if not row:
                continue
            units = [col_pos[j] for j, x in row.items() if x == 1 or x == -1]
            if units:
                found = (i, min(units))
                break
            in_order = False
        if found is None:
            if any(rows[row_at[i]] for i in range(t, n)):
                snf = smith_normal_form(
                    [[rows[row_at[i]].get(col_at[j], 0) for j in range(t, m)] for i in range(t, n)]
                )
            break
        pi, pj = found
        row_at[t], row_at[pi] = row_at[pi], row_at[t]
        col_at[t], col_at[pj] = col_at[pj], col_at[t]
        col_pos[col_at[t]], col_pos[col_at[pj]] = t, pj
        _unit_step(rows, where, row_at[t], col_at[t])
        t += 1
    if snf is None:
        return [[(row_at[i], 1)] for i in range(t, n)], in_order
    diag = [d for d in snf.diagonal() if d]
    torsion = tuple(d for d in diag if d > 1)
    if torsion:
        raise TorsionObstruction(
            f"quotient has invariant factors {list(torsion)}",
            AbGroup(n - t - len(diag), torsion),
        )
    tail = [
        sorted((row_at[t + i], x) for i, x in enumerate(col) if x)
        for col in list(zip(*snf.uinv))[len(diag):]
    ]
    return tail, False


def echelon_basis(n, gens):
    """``_echelon`` of sparse generators in Z^n, after refusing an index
    outside [0, n); its length is the rank of the lattice."""
    _check_generators(n, gens)
    return _echelon(gens)


def basis_quotient(n, basis, small):
    """Structure of L / span(small), for L the lattice in Z^n with the
    echelon basis ``basis`` of ``echelon_basis``; ``small`` must lie in L.
    """
    _check_generators(n, small)
    coords = echelon_coordinates(basis, small)
    if None in coords:
        raise ValueError("generator of the small module lies outside the big one")
    return quotient_structure(len(basis), coords)


# --------------------------------------------------------- cochain complexes


@dataclass
class CochainComplex:
    """Free cochain complex: per-degree ranks and sparse coboundaries.

    ``maps[k]`` sends degree k to degree k+1: dims[k+1] rows, each a list
    of (column, entry) pairs with columns below dims[k], nonzero entries
    and no column twice.  Degrees may be any integers (degree -1 appears
    for augmented complexes).
    """

    dims: dict
    maps: dict = field(default_factory=dict)

    def validate(self):
        for k, m in self.maps.items():
            n = self.dims.get(k, 0)
            if len(m) != self.dims.get(k + 1, 0):
                raise ValueError(f"map at degree {k} has {len(m)} rows")
            for row in m:
                if not all(0 <= j < n and x for j, x in row):
                    raise ValueError(f"map at degree {k} has a zero or stray entry")
            _check_distinct(m, f"map at degree {k}, row")
        # d^{k+1} d^k = 0, summed over the stored entries of each row
        for k, inner in self.maps.items():
            for row in self.maps.get(k + 1, ()):
                total = {}
                for mid, x in row:
                    for j, y in inner[mid]:
                        total[j] = total.get(j, 0) + x * y
                if any(total.values()):
                    raise ValueError(f"d^{k+1} d^{k} != 0")
        return self

    def euler_characteristic(self):
        return sum((-1) ** k * n for k, n in self.dims.items())

    def cohomology(self):
        """Kernel modulo image in every degree, as a GradedGroup.

        The maps are factored from the top degree down, each map less the
        rows the map above cleared: the unit-pivot columns of d^k are rows
        of d^{k-1}, and since d^k d^{k-1} = 0 with d^k unimodular on its
        pivot block, those rows lie in the span of the others.  The pivots
        ``_peel`` finds count among them: its block is triangular with a
        unit diagonal and the core rows are zero in its columns, so the
        pivot block stays unimodular.  The nonzero invariant factors of
        d^k give the rank leaving degree k and the rank and torsion
        entering k + 1.
        """
        nonzero = {}
        pivots = {}
        for k in sorted(self.maps, reverse=True):
            if self.dims.get(k, 0) > 0 and self.dims.get(k + 1, 0) > 0:
                nonzero[k], pivots[k] = _divisors_and_pivots(
                    self.maps[k], pivots.get(k + 1, frozenset())
                )
        out = {}
        for k in sorted(self.dims):
            n = self.dims[k]
            if n == 0:
                continue
            rank_out = len(nonzero.get(k, ()))
            incoming = nonzero.get(k - 1, ())
            torsion = tuple(d for d in incoming if d > 1)
            free = n - rank_out - len(incoming)
            if free < 0:
                # d^k d^{k-1} = 0 bounds the two ranks by n: a cheap
                # check on every complex, short of ``validate``
                raise ValueError(
                    f"degree {k} has rank {n} but the maps in and out of it have "
                    f"rank {len(incoming)} + {rank_out}: not a cochain complex"
                )
            if free or torsion:
                out[k] = AbGroup(free, torsion)
        return GradedGroup(out)


@dataclass(frozen=True)
class GradedGroup:
    """Finitely many abelian groups indexed by degree; zeros are omitted."""

    groups: dict  # degree -> AbGroup

    def __post_init__(self):
        object.__setattr__(
            self, "groups", {k: g for k, g in self.groups.items() if not g.is_zero()}
        )

    def __getitem__(self, k):
        return self.groups.get(k, AbGroup())

    def __bool__(self):
        return bool(self.groups)

    def degrees(self):
        return sorted(self.groups)

    def top_degree(self):
        return max(self.groups) if self.groups else None

    def is_free(self):
        return all(g.is_free() for g in self.groups.values())

    def direct_sum(self, other):
        out = dict(self.groups)
        for k, g in other.groups.items():
            out[k] = out.get(k, AbGroup()).direct_sum(g)
        return GradedGroup(out)

    def tensor_free(self, rank):
        return GradedGroup({k: g.tensor_free(rank) for k, g in self.groups.items()})

    def euler_characteristic(self):
        return sum((-1) ** k * g.free for k, g in self.groups.items())

    def __str__(self):
        if not self.groups:
            return "0"
        return "; ".join(f"H^{k} = {self.groups[k]}" for k in self.degrees())

    def to_json(self):
        return {str(k): self.groups[k].to_json() for k in self.degrees()}
