"""Coxeter matrices, sphericity and the poset of spherical subsets.

A Coxeter matrix over a generator list S assigns to each unordered pair
{s, t} a label m(s, t) that is an integer >= 2 or infinity (stored as
None); diagonal entries are implicitly 1.  A subset T of S is *spherical*
when the group it generates is finite.

Two independent finiteness oracles are provided:

* ``is_spherical`` splits T into irreducible components and matches each
  component's labelled diagram against the classification of finite
  diagrams (A, B, D, E6/E7/E8, F4, H3, H4 and the dihedral I2(m)).  It is
  exact for every label, including m >= 7.  The same match gives the
  degrees of each finite component (``coxeter_degrees``), hence its
  Poincare polynomial.
* ``cosine_gram_definite`` checks positive definiteness of the matrix with
  unit diagonal and off-diagonal entries -cos(pi/m) by Sylvester's
  criterion in Q(sqrt2, sqrt3, sqrt5), restricted to labels in
  {2, 3, 4, 5, 6, infinity}.  The leading minors are taken by prefix
  recursion (T is definite iff T[:-1] is and det G_T > 0).

Both read T through one key, ``CoxeterMatrix.pattern(T)``: the number of
generators of T and their labels in generator order.  Each oracle decides
a key once, so subsets and matrices that share a label pattern share the
classification and the field arithmetic.  The key itself is recomputed on
every call, and a matrix holds no per-instance state for it: the oracles
meet many fresh matrices, and a per-matrix table of keys raised the peak
memory of the benchmark's 4,666 rank-4 matrices by 28 % (33.1 MB to
42.5 MB).  Below three generators the key costs at most one lookup.

The two must agree wherever both apply; the test suite sweeps this.  One
walk over the spherical subsets (``_proposals``) serves ``spherical_poset``
and ``complexes.metric_flag_check``, which compares the oracles on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import isqrt

from .qfield import QF, SUPPORTED_LABELS, ZERO, four_cos_int

INF = None  # label for m = infinity


class CoxeterError(ValueError):
    """Raised for malformed Coxeter matrix input."""


@dataclass(frozen=True, eq=False)  # compared by identity; ``same_type`` compares values
class CoxeterMatrix:
    """Symmetric matrix of labels m(s, t) over an ordered generator list."""

    labels: tuple
    entries: dict  # frozenset({s,t}) -> int | None

    def __post_init__(self):
        if not self.labels:
            raise CoxeterError("empty generator list")
        gens = set(self.labels)
        if len(gens) != len(self.labels):
            raise CoxeterError("duplicate generator label")
        for pair, m in self.entries.items():
            if not pair <= gens:
                raise CoxeterError(f"unknown label in pair {sorted(pair)}")
            if len(pair) != 2:
                raise CoxeterError("entries must be keyed by unordered pairs")
            if m is not INF and (not isinstance(m, int) or m < 2):
                raise CoxeterError(f"label m={m} must be an integer >= 2 or infinity")

    def m(self, s, t):
        if s == t:
            return 1
        return self.entries.get(frozenset((s, t)), 2)

    def index(self, s):
        return self.labels.index(s)

    def same_type(self, other):
        """Same generators in the same order, with the same m(s, t)."""
        return self.labels == other.labels and all(
            self.m(s, t) == other.m(s, t) for s in self.labels for t in self.labels
        )

    def sorted_subset(self, T):
        return tuple(sorted(T, key=self.index))

    def pattern(self, T):
        """The key of every subset question: ``(n, labels)`` for the n
        distinct generators of T in generator order, with labels listing
        m(T[i], T[j]) for j < i, row by row.  Sphericity, the degrees and
        the Gram minors depend on T only through this key.

        The key is computed afresh on each call and nothing is kept on the
        matrix: a per-matrix table of keys raised the peak memory of the
        benchmark's infinite-types workload, with its 4,666 rank-4
        matrices, from 33.1 MB to 42.5 MB.  Below three generators the key
        costs at most one lookup in ``entries``; a label is symmetric, so a
        pair needs no ordering.

        >>> B3 = CoxeterMatrix(("s", "t", "u"), {frozenset("st"): 4, frozenset("tu"): 3})
        >>> B3.pattern(()), B3.pattern("s")
        ((0, ()), (1, ()))
        >>> B3.pattern("ts"), B3.pattern(("u", "s", "u"))
        ((2, (4,)), (2, (2,)))
        >>> B3.pattern("utss")
        (3, (4, 2, 3))
        >>> B3.pattern("sz")
        Traceback (most recent call last):
        ...
        coxtop.coxmatrix.CoxeterError: subset ['s', 'z'] not contained in the generators
        """
        T = frozenset(T)
        n = len(T)
        if n == 2:
            m = self.entries.get(T, 2)
            if m != 2 or T.issubset(self.labels):  # entries hold only generator pairs
                return 2, (m,)
        elif n < 2:
            if T.issubset(self.labels):
                return n, ()
        else:
            backwards = [s for s in reversed(self.labels) if s in T]
            if len(backwards) == n:
                # The pairs of T backwards, in combinations order, are the
                # pairs (T[i], T[j]), j < i, row by row, in reverse.
                pairs = map(frozenset, combinations(backwards, 2))
                return n, tuple(map(self.entries.get, pairs, repeat(2)))[::-1]
        raise CoxeterError(f"subset {sorted(T)} not contained in the generators")

    def components(self, T):
        """Irreducible components of T: s, t connected iff m(s,t) != 2."""
        table = _local_table(*self.pattern(T))
        gens = self.sorted_subset(set(T))
        return [tuple(gens[i] for i in comp) for comp in _components(table)]

    def to_text(self):
        lines = ["gens " + " ".join(self.labels)]
        for s, t in combinations(self.labels, 2):
            m = self.m(s, t)
            if m != 2:
                lines.append(f"{s} {t} {'inf' if m is INF else m}")
        return "\n".join(lines) + "\n"


def parse_coxeter_matrix(text):
    """Parse the line-oriented matrix format.

    First non-comment line: ``gens <name>...``.  Then ``<name> <name> <m>``
    with m a decimal integer >= 2 or the token ``inf``.  ``#`` starts a
    comment.  Unlisted pairs default to 2 (absent diagram edge).
    """
    labels = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if labels is None:
            if parts[0] != "gens" or len(parts) < 2:
                raise CoxeterError(f"line {lineno}: expected 'gens <name>...'")
            labels = tuple(parts[1:])
            continue
        if len(parts) != 3:
            raise CoxeterError(f"line {lineno}: expected '<name> <name> <m>'")
        s, t, mtok = parts
        for name in (s, t):
            if name not in labels:
                raise CoxeterError(f"line {lineno}: unknown label {name!r}")
        if s == t:
            raise CoxeterError(f"line {lineno}: diagonal entries are fixed at 1")
        if mtok == "inf":
            m = INF
        else:
            try:
                m = int(mtok)
            except ValueError:
                raise CoxeterError(f"line {lineno}: bad label {mtok!r}") from None
            if m < 2:
                raise CoxeterError(f"line {lineno}: off-diagonal entry {m} < 2")
        key = frozenset((s, t))
        if key in entries and entries[key] != m:
            raise CoxeterError(f"line {lineno}: conflicting duplicate for {s},{t}")
        entries[key] = m
    if labels is None:
        raise CoxeterError("no 'gens' line found")
    return CoxeterMatrix(labels, entries)


def _irreducible_degrees(table, comp):
    """Degrees of the finite irreducible group on a connected diagram, or
    None when the group is infinite (classification of connected labelled
    diagrams of finite type).  ``table[s][t]`` is m(s, t) on the local
    generators 0..n-1 of a key (``_local_table``).

    The Poincare polynomial is the product of [d]_t = 1 + t + ... + t^(d-1)
    over the degrees d, so the group order is their product and the length
    of the longest element is the sum of d - 1.
    """
    n = len(comp)
    if n == 1:
        return (2,)
    pairs = [(s, t, table[s][t]) for s, t in combinations(comp, 2)]
    if any(m is INF for _, _, m in pairs):
        return None
    if n == 2:
        return (2, pairs[0][2])  # I2(m), m finite
    edges = [(s, t, m) for s, t, m in pairs if m >= 3]
    if len(edges) != n - 1:
        return None  # connected with a cycle, or disconnected (impossible here)
    deg = {s: 0 for s in comp}
    for s, t, _ in edges:
        deg[s] += 1
        deg[t] += 1
    big = [(s, t, m) for s, t, m in edges if m >= 4]
    branch = [s for s in comp if deg[s] >= 3]
    if len(big) >= 2 or any(deg[s] >= 4 for s in comp) or len(branch) >= 2:
        return None
    if not big:
        if not branch:
            return tuple(range(2, n + 2))  # type A_n
        # Tree with a single degree-3 vertex: arm lengths decide D/E.
        arms = sorted(_arm_lengths(edges, branch[0]))
        if arms[0] == 1 and arms[1] == 1:
            return (*range(2, 2 * n - 1, 2), n)  # type D_n
        return _E_DEGREES.get(tuple(arms))
    if branch:
        return None
    # A path with exactly one label >= 4.
    (s, t, m) = big[0]
    at_end = deg[s] == 1 or deg[t] == 1
    if m == 4:
        if at_end:
            return tuple(range(2, 2 * n + 1, 2))  # type B_n
        return (2, 6, 8, 12) if n == 4 else None  # F4: the middle edge of a 4-chain
    if m == 5 and at_end:
        return _H_DEGREES.get(n)
    return None  # m >= 6 has no finite type of rank >= 3


_E_DEGREES = {
    (1, 2, 2): (2, 5, 6, 8, 9, 12),
    (1, 2, 3): (2, 6, 8, 10, 12, 14, 18),
    (1, 2, 4): (2, 8, 12, 14, 18, 20, 24, 30),
}
_H_DEGREES = {3: (2, 6, 10), 4: (2, 12, 20, 30)}


def _arm_lengths(edges, center):
    adj = {}
    for s, t, _ in edges:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, []).append(s)
    lengths = []
    for start in adj[center]:
        ln = 1
        prev, cur = center, start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    return lengths


def _local_table(n, labels):
    """The full matrix of m(i, j) on the local generators 0..n-1 of the
    key ``(n, labels)``."""
    table = [[1] * n for _ in range(n)]
    it = iter(labels)
    for i in range(n):
        for j in range(i):
            table[i][j] = table[j][i] = next(it)
    return table


def _components(table):
    """Irreducible components of the local generators, each an increasing
    list, ordered by their least member."""
    n = len(table)
    seen = set()
    comps = []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        comp = []
        stack = [root]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if v not in seen and table[u][v] != 2:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


@lru_cache(maxsize=1 << 16)  # the 6^6 rank-4 sweep has 46,656 four-generator keys
def _pattern_degrees(n, labels):
    """Sorted degrees of the group with key ``(n, labels)`` (see
    ``CoxeterMatrix.pattern``), or None when it is infinite."""
    table = _local_table(n, labels)
    out = []
    for comp in _components(table):
        degrees = _irreducible_degrees(table, comp)
        if degrees is None:
            return None
        out.extend(degrees)
    return tuple(sorted(out))


def is_spherical(mat, T):
    """True iff the subgroup generated by T is finite."""
    return _pattern_degrees(*mat.pattern(T)) is not None


def coxeter_degrees(mat, T):
    """Sorted degrees of the finite group generated by a spherical T: one
    per generator, read off the classification of its components."""
    degrees = _pattern_degrees(*mat.pattern(T))
    if degrees is None:
        raise CoxeterError(f"subset {list(mat.sorted_subset(set(T)))} is not spherical")
    return degrees


@dataclass(frozen=True)
class SphericalPoset:
    """All spherical subsets, ordered by inclusion."""

    matrix: CoxeterMatrix
    members: tuple  # frozensets, sorted by (size, label indices)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.members))

    def __contains__(self, T):
        return frozenset(T) in self._member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def max_cardinality(self):
        return len(self.members[-1])

    def supersets(self, T, strict=False):
        T = frozenset(T)
        return [U for U in self.members if T < U or (not strict and T == U)]

    def to_json(self):
        return [sorted(T, key=self.matrix.index) for T in self.members]


def _proposals(labels, members):
    """Each member T of ``members``, in order, extended by each generator
    s after T's last one, as (T, s).  ``members`` starts as [frozenset()],
    and the caller appends T | {s} when it is spherical, so the walk goes
    on through what it finds.  U is proposed only from U less its last
    generator, so at most once."""
    position = {s: i for i, s in enumerate(labels)}
    for T in members:
        for s in labels[max(map(position.__getitem__, T), default=-1) + 1 :]:
            yield T, s


def spherical_poset(mat):
    """All spherical subsets, by one walk with one ``is_spherical`` question
    per proposal.  Nothing is missed: sphericity is inherited by subsets,
    so a spherical U is reached from U less its last generator.  No sort
    is needed: the walk proposes the sets of each size in lexicographic
    order of their generator indices, all before any larger set."""
    members = [frozenset()]
    for T, s in _proposals(mat.labels, members):
        U = T | {s}
        if is_spherical(mat, U):
            members.append(U)
    return SphericalPoset(mat, tuple(members))


def cosine_gram_definite(mat, T):
    """Positive definiteness of the cosine Gram matrix on T, exactly.

    The matrix has unit diagonal and off-diagonal -cos(pi/m(s,t)), with
    the value -1 at infinite labels.  Scaling by 4 keeps every entry an
    integer vector over the field basis, so the minor signs are computed
    in pure integer arithmetic.  The answer depends only on the labels,
    so it is decided once per label pattern.
    """
    # Outside the try: CoxeterError is a ValueError, and an unknown
    # generator must keep its own message.
    _, labels = mat.pattern(T)
    try:
        return _gram_pattern_definite(labels)
    except ValueError:  # a label outside the exact-arithmetic set
        for s, t in combinations(mat.sorted_subset(set(T)), 2):
            if mat.m(s, t) not in SUPPORTED_LABELS:
                raise CoxeterError(
                    f"label m({s},{t})={mat.m(s, t)} outside the exact-arithmetic set"
                ) from None
        raise


# The entries of 4 times the Gram matrix: 4 on the diagonal and
# -4cos(pi/m) off it.
_FOUR = QF.from_int(4)
_MINUS_FOUR_COS = {m: -four_cos_int(m) for m in SUPPORTED_LABELS}


@lru_cache(maxsize=1 << 16)  # the rank-4 sweep has 46,880 patterns
def _gram_pattern_definite(pattern):
    """Sylvester's criterion by prefix recursion: the Gram matrix on
    T[:n] is definite iff the one on T[:n-1] is and its determinant is
    positive.  ``pattern`` lists m(T[i], T[j]) for j < i, row by row, so
    the pattern of T[:n-1] is a prefix of it.

    Every label is checked before the prefix is decided, so a pattern
    with an unsupported label raises even where its prefix is not
    definite; ``lru_cache`` keeps no exception, so no such pattern is
    ever a cache hit."""
    if not SUPPORTED_LABELS.issuperset(pattern):
        raise ValueError(f"label pattern {pattern} leaves the exact-arithmetic set")
    n = (1 + isqrt(1 + 8 * len(pattern))) // 2
    if n <= 1:
        return True
    if not _gram_pattern_definite(pattern[: len(pattern) - (n - 1)]):
        return False
    rows = [[_FOUR] * n for _ in range(n)]
    labels = iter(pattern)
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = _MINUS_FOUR_COS[next(labels)]
    return _det_expand(rows).sign() > 0


def _det_expand(mat):
    """Determinant by expansion along row 0."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = ZERO
    for j in range(n):
        a = mat[0][j]
        if a.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = a * _det_expand(minor)
        total = total - term if j % 2 else total + term
    return total
