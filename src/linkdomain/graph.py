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

    Adjacency lists are sorted and symmetric; edges are normalized to
    (u, v) with u < v and kept in ascending order. Equality compares the
    vertex count and edges (mode is provenance, not structure).
    """

    __slots__ = ("m", "mode", "edges", "adjacency")

    def __init__(self, m: int, edges: Iterable[Edge], mode: Mode | None = None):
        if m < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) outside 0..{m - 1}")
            normalized.add((u, v) if u < v else (v, u))
        self.m = m
        self.mode = mode
        self.edges: tuple[Edge, ...] = tuple(sorted(normalized))
        neighbors: list[list[int]] = [[] for _ in range(m)]
        # Ascending edges append each row's entries in ascending order.
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, neighbors))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.m and v in self.adjacency[u]

    def csr_arrays(self) -> tuple[list[int], list[int]]:
        """Adjacency in CSR form (indptr, indices) as lists, built on each call."""
        indptr = list(accumulate(map(len, self.adjacency), initial=0))
        return indptr, list(chain.from_iterable(self.adjacency))

    def seed_arrays(self) -> tuple[list[int], list[int]]:
        """Edge endpoints as parallel lists (lower end, higher end), in ascending edge order."""
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
