"""Connectivity graph on candidates.

Two candidates are connected (strong) when one vote ranks a first and b
second and another vote ranks b first and a second; weakly connected when
a single vote puts the pair in the top two positions in either order. The
weak rule is a documented convention behind Mode.WEAK, not a certified
equivalent of any external definition. Linkedness of an election depends
only on this graph, so everything downstream consumes it.
"""

from enum import Enum
from itertools import accumulate, chain
from typing import Iterable

from .errors import TooFewCandidates
from .model import Election, ProfileScan

Edge = tuple[int, int]


class Mode(str, Enum):
    STRONG = "strong"
    WEAK = "weak"


class ConnectivityGraph:
    """Immutable undirected graph on vertices 0..m-1, no self-loops.

    The adjacency is kept once, in CSR form: row v of `indices` is
    indices[indptr[v]:indptr[v + 1]], ascending and free of duplicates, and
    the rows are symmetric. Edges are normalized to (u, v) with u < v and
    kept in ascending order. `edges`, neighbors(), degree(), has_edge() and
    csr_arrays() read the graph. Equality compares the vertex count and
    edges (mode is provenance, not structure).
    """

    __slots__ = ("m", "mode", "edges", "_indptr", "_indices")

    def __init__(self, m: int, edges: Iterable[Edge], mode: Mode | None = None):
        if m < 1:
            raise ValueError("graph needs at least one vertex")
        rows: list[list[int]] = [[] for _ in range(m)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) outside 0..{m - 1}")
            rows[u].append(v)
            rows[v].append(u)
        # Rows are replaced one at a time rather than rebuilt as a new list,
        # and freed before `edges` is built: both keep the peak memory down.
        for v, row in enumerate(rows):
            if len(row) > 1:
                rows[v] = sorted(set(row))
        self.m = m
        self.mode = mode
        self._indptr: tuple[int, ...] = tuple(accumulate(map(len, rows), initial=0))
        self._indices: tuple[int, ...] = tuple(chain.from_iterable(rows))
        del rows
        # Rows are ascending, so the entries above u give u's edges in ascending order.
        self.edges: tuple[Edge, ...] = tuple((u, w) for u in range(m) for w in self.neighbors(u) if w > u)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        return self._indptr[v + 1] - self._indptr[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.m and v in self.neighbors(u)

    def csr_arrays(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The stored adjacency in CSR form (indptr, indices): the same two
        tuples on every call, so reading them costs nothing."""
        return self._indptr, self._indices

    def seed_arrays(self) -> tuple[list[int], list[int]]:
        """Edge endpoints as parallel lists (lower end, higher end), in
        ascending edge order; built from `edges` on each call, in O(|E|)."""
        return [u for u, _ in self.edges], [v for _, v in self.edges]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectivityGraph):
            return NotImplemented
        return self.m == other.m and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.m, self.edges))

    def __repr__(self) -> str:
        mode = f", mode={self.mode.value}" if self.mode else ""
        return f"ConnectivityGraph(m={self.m}, edges={len(self.edges)}{mode})"


def top_pair_set(election: Election) -> frozenset[tuple[int, int]]:
    """Ordered (first, second) pairs occurring in some vote; multiplicities collapse."""
    if election.m < 2:
        raise TooFewCandidates("top pairs need at least two candidates")
    return election.top_pairs


def build_graph(profile: Election | ProfileScan, mode: Mode = Mode.STRONG) -> ConnectivityGraph:
    """Connectivity graph of an election under the given edge rule.

    Strong: edge {a, b} iff both (a, b) and (b, a) occur as top pairs.
    Weak: edge {a, b} iff at least one of them occurs.

    Reads only the candidate count and the set of top pairs, so vote order
    and multiplicities never matter, and a ProfileScan serves as well as an
    Election. O(n + m^2) regardless of how many votes there are. A
    one-candidate election has no top pairs and gives the one-vertex graph.
    """
    pairs = profile.top_pairs
    if mode is Mode.STRONG:
        edges = [(a, b) for a, b in pairs if a < b and (b, a) in pairs]
    else:
        edges = [(min(a, b), max(a, b)) for a, b in pairs]
    return ConnectivityGraph(profile.m, edges, mode)
