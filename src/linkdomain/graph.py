"""Connectivity graph on candidates.

Two candidates are connected (strong) when one vote ranks a first and b
second and another vote ranks b first and a second; weakly connected when
a single vote puts the pair in the top two positions in either order. The
weak rule is a documented convention behind Mode.WEAK, not a certified
equivalent of any external definition. Linkedness of an election depends
only on this graph, so everything downstream consumes it.
"""

from bisect import bisect_left
from enum import Enum
from itertools import accumulate, chain, islice, repeat
from operator import eq, sub
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # the recognizer runs without the election model
    from .model import Election, ProfileScan

Edge = tuple[int, int]


class Mode(str, Enum):
    STRONG = "strong"
    WEAK = "weak"


class ConnectivityGraph:
    """Immutable undirected graph on vertices 0..m-1, no self-loops.

    Four flat tuples, built once in the constructor, are the graph. The
    adjacency is in CSR form: row v of `indices` is
    indices[indptr[v]:indptr[v + 1]], ascending and free of duplicates, and
    the rows are symmetric. The seed lists `seed_u` and `seed_v` hold each
    edge's lower and higher end, in ascending edge order: each row u is cut
    where u would go, and the entries above the cut, row by row, are the
    edges (u, w) with u < w. An edge given more than once shows on the
    seed lists as a seed equal to the one before it, and only then are the
    rows rebuilt without repeats and cut again. csr_arrays() and
    seed_arrays() return the stored tuples; neighbors(), degree() and
    has_edge() read the rows. `edges`, the pairs (u, v) with u < v in
    ascending order, is built from the seed lists on each access and not
    kept, so the graph holds nothing but `m` and the four tuples.
    Vertex ids are stored as plain ints, one object per vertex made
    together when the graph is built, and every tuple above refers to
    those: the graph keeps none of the caller's objects, so input given as
    bools or other int-like values comes back as plain ints, and a vertex
    that ends many edges is read from one place in memory. Edges are
    checked in input order, and the first bad one raises ValueError: a
    self-loop, or an int id below 0 or of m or more. Only a negative id is
    compared; an id of m or more is refused by the failed list lookup, so
    a non-integer id that is not below 0 raises the lookup's TypeError.
    Equality compares the vertex count and the seed lists.
    """

    __slots__ = ("m", "_indptr", "_indices", "_seed_u", "_seed_v")

    def __init__(self, m: int, edges: Iterable[Edge]):
        if m < 1:
            raise ValueError("graph needs at least one vertex")
        ids = list(range(m))
        rows: list[list[int]] = list(map(list, repeat((), m)))
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            # An id of m or more fails the lookups below, so only the lower
            # bound is compared here: a negative index would wrap around.
            if u < 0 or v < 0:
                raise ValueError(f"edge ({u}, {v}) outside 0..{m - 1}")
            try:
                rows[u].append(ids[v])
                rows[v].append(ids[u])
            except IndexError:
                raise ValueError(f"edge ({u}, {v}) outside 0..{m - 1}") from None
        any(map(list.sort, rows))  # any() only drives the sorts: list.sort returns None
        indptr, indices = _flat(rows)
        del rows
        seed_u, seed_v = _seeds(ids, indptr, indices)
        # Copies of an edge (u, w) sit next to each other in row u above the
        # cut, so a repeat is a seed whose two ends both equal the next
        # seed's. Otherwise two neighbouring seeds share a higher end only
        # across a row boundary, at most once per row, so the lower ends
        # are compared only where `same` marks equal higher ends.
        same = bytes(map(eq, seed_v, islice(seed_v, 1, None)))
        i = same.find(1)
        while i >= 0 and seed_u[i] != seed_u[i + 1]:
            i = same.find(1, i + 1)
        if i >= 0:
            indptr, indices = _flat([list(dict.fromkeys(indices[a:b])) for a, b in zip(indptr, islice(indptr, 1, None))])
            seed_u, seed_v = _seeds(ids, indptr, indices)
        self.m = m
        self._indptr = indptr
        self._indices = indices
        self._seed_u: tuple[int, ...] = seed_u
        self._seed_v: tuple[int, ...] = seed_v

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self._seed_u, self._seed_v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._indices[slice(*self._row(v))]

    def degree(self, v: int) -> int:
        start, stop = self._row(v)
        return stop - start

    def _row(self, v: int) -> tuple[int, int]:
        """Where row v starts and stops in indices; IndexError outside 0..m-1."""
        if not 0 <= v < self.m:
            raise IndexError(f"vertex {v} outside 0..{self.m - 1}")
        return self._indptr[v], self._indptr[v + 1]

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.m:
            return False
        hi = self._indptr[u + 1]
        i = bisect_left(self._indices, v, self._indptr[u], hi)
        return i < hi and self._indices[i] == v

    def csr_arrays(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The stored adjacency in CSR form (indptr, indices): the same two
        tuples on every call, so reading them costs nothing."""
        return self._indptr, self._indices

    def seed_arrays(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The stored seed lists (lower ends, higher ends), in ascending edge
        order: the same two tuples on every call, so reading them costs nothing."""
        return self._seed_u, self._seed_v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectivityGraph):
            return NotImplemented
        return (self.m, self._seed_u, self._seed_v) == (other.m, other._seed_u, other._seed_v)

    def __hash__(self) -> int:
        return hash((self.m, self._seed_u, self._seed_v))

    def __repr__(self) -> str:
        return f"ConnectivityGraph(m={self.m}, edges={len(self._seed_u)})"


def _flat(rows: list) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(indptr, indices): the rows laid end to end, and where each starts."""
    return tuple(accumulate(map(len, rows), initial=0)), tuple(chain.from_iterable(rows))


def _seeds(ids: list[int], indptr: tuple[int, ...], indices: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(seed_u, seed_v): each ascending row u cut where u would go, and the
    suffixes above the cuts chained, with u repeated once per entry; u is
    taken from `ids`, the graph's one int object per vertex. Only
    the per-row counts are kept, mostly small ints that CPython shares,
    rather than m absolute cut positions."""
    ends = indptr[1:]
    counts = list(map(sub, ends, map(bisect_left, repeat(indices), ids, indptr, ends)))
    seed_u = tuple(chain.from_iterable(map(repeat, ids, counts)))
    seed_v = tuple(chain.from_iterable(map(indices.__getitem__, map(slice, map(sub, ends, counts), ends))))
    return seed_u, seed_v


def build_graph(profile: "Election | ProfileScan", mode: Mode = Mode.STRONG) -> ConnectivityGraph:
    """Connectivity graph of an election under the given edge rule.

    Strong: edge {a, b} iff both (a, b) and (b, a) occur as top pairs.
    Weak: edge {a, b} iff at least one of them occurs.

    Reads only the candidate count and the set of top pairs, so vote order
    and multiplicities never matter, and a ProfileScan serves as well as an
    Election. O(n + m^2) regardless of how many votes there are. A
    one-candidate election has no top pairs and gives the one-vertex graph.
    Each edge is passed to the constructor once, so it never has to rebuild
    its rows for a pair seen in both orders.
    """
    pairs = profile.top_pairs
    if mode is Mode.STRONG:
        edges = [(a, b) for a, b in pairs if a < b and (b, a) in pairs]
    else:
        edges = {(min(a, b), max(a, b)) for a, b in pairs}
    return ConnectivityGraph(profile.m, edges)
