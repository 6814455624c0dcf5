"""Linked-order recognition.

An order (c_1, ..., c_m) of the candidates is linked when c_1 and c_2 are
connected and every c_i with i >= 3 is connected to at least two earlier
candidates. Recognition tries every edge as the first two entries and
grows the rest greedily: absorb any vertex with two absorbed neighbors
until stuck or done. If some seed covers everything the insertion order is
a valid witness; if every seed gets stuck, no order with that seed can
exist (the first outside vertex in any such order would need two neighbors
inside the stuck set, but stuck means nobody has two), so the election is
not linked. Non-edge seeds need not be tried: a linked order starting with
an unconnected pair is invalid outright.

The reached set of a seed does not depend on absorption order (absorbing a
vertex never lowers another vertex's count), so any tie-break gives the
same verdict. The seed sweep (linkdomain.kernels) absorbs first in, first
out, and greedy_closure runs its closure loop on one seed, so the witness
is greedy_closure(graph, s) for the first seed s whose closure covers.
"""

from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterator, Sequence

from . import kernels
from .errors import NotAPermutation, SeedNotEdge
from .graph import ConnectivityGraph, Edge, Mode, build_graph
from .record import Record

if TYPE_CHECKING:  # the recognizer runs without the election model
    from .model import Election

LinkedOrder = tuple[int, ...]


class StuckCertificate(Mapping):
    """Read-only map seed edge -> stuck reached set, proof of a NO verdict.

    A certificate holds the graph and the largest stuck-set size, and
    nothing per seed: len() is half the adjacency's length, max_stuck_size
    is stored, and iteration walks the graph's seed lists. A lookup by key
    ([], `in`, stuck_size()) turns the key's ends into ints and finds the
    seed by the graph's row search, has_edge, keeping nothing; it finds
    what a dict keyed by the seed edges would, so (1.0, 2.0) finds the
    seed (1, 2), (2, 1) finds nothing and an unhashable key raises
    TypeError. [] and stuck_size() recompute the stuck set by
    greedy_closure from the seed, never store it: a lookup costs m bytes
    plus the rows of the stuck set's vertices.
    """

    __slots__ = ("_graph", "_max_stuck_size")

    def __init__(self, graph: ConnectivityGraph, max_stuck_size: int):
        self._graph = graph
        self._max_stuck_size = max_stuck_size

    def _find(self, seed: object) -> Edge:
        """The seed edge equal to `seed`, as plain ints; KeyError if none is."""
        hash(seed)  # an unhashable key raises TypeError, as a dict lookup does
        if isinstance(seed, tuple) and len(seed) == 2:
            try:
                u, v = map(int, seed)
            except (TypeError, ValueError, OverflowError):  # an end with no int value: None, nan, inf
                raise KeyError(seed) from None
            # Equality decides, as in a dict: (0.5, 1) converts to (0, 1) but misses.
            if (u, v) == seed and u < v and self._graph.has_edge(u, v):
                return u, v
        raise KeyError(seed)

    def __getitem__(self, seed: Edge) -> frozenset[int]:
        return frozenset(greedy_closure(self._graph, self._find(seed)))

    def __contains__(self, seed: object) -> bool:
        try:
            self._find(seed)
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[Edge]:
        return zip(*self._graph.seed_arrays())

    def __len__(self) -> int:
        return len(self._graph.csr_arrays()[1]) // 2

    def stuck_size(self, seed: Edge) -> int:
        return len(greedy_closure(self._graph, self._find(seed)))

    @property
    def max_stuck_size(self) -> int:
        return self._max_stuck_size


class RecognitionResult(Record):
    __slots__ = ("linked", "witness", "certificate")

    def __init__(
        self,
        linked: bool,
        witness: LinkedOrder | None = None,
        certificate: StuckCertificate | None = None,
    ):
        self._fill(linked, witness, certificate)

    @property
    def verdict(self) -> str:
        return "linked" if self.linked else "not-linked"


def greedy_closure(graph: ConnectivityGraph, seed: Edge) -> tuple[int, ...]:
    """Grow the seed edge by repeatedly absorbing a vertex with >= 2 absorbed neighbors.

    Returns the absorption order: the seed with its lower end first, then
    each vertex in the order it reached two absorbed neighbors, the
    absorbed vertices' rows read first in, first out and each ascending, as
    kernels.closure, the seed sweep's own loop, absorbs. The reached set is
    maximal and independent of that order; relabeling the graph gives
    another order. Costs m bytes of stamps plus the rows of the vertices
    absorbed. Raises SeedNotEdge when the seed pair is not an edge.
    """
    a, b = (seed[0], seed[1]) if seed[0] < seed[1] else (seed[1], seed[0])
    if not graph.has_edge(a, b):
        raise SeedNotEdge(f"seed ({a}, {b}) is not an edge")
    return tuple(kernels.closure(*graph.csr_arrays(), graph.m, a, b))


def verify_witness(graph: ConnectivityGraph, witness: Sequence[int]) -> bool:
    """Check the linked condition directly: first two adjacent, later entries
    adjacent to >= 2 predecessors. O(m + edges), independent of recognition.

    Raises NotAPermutation unless the witness holds each of the ints 0..m-1
    exactly once. Each entry's position goes into a position array; then one
    pass over the graph's seed lists counts every edge at its later end, and
    every entry from the third on needs a count of two.
    """
    order = tuple(witness)
    m = graph.m
    pos: list[int | None] = [None] * m
    try:
        # A negative id would index the position array from the end.
        valid = len(order) == m and min(order) >= 0
        if valid:
            for i, v in enumerate(order):
                pos[v] = i
    except (IndexError, TypeError):  # an id >= m, or an entry that is no int
        valid = False
    if not valid or None in pos:  # m entries that miss an id repeat one
        raise NotAPermutation(f"{order} is not a permutation of 0..{m - 1}")
    if m == 1:
        return True
    if not graph.has_edge(order[0], order[1]):
        return False
    seed_u, seed_v = graph.seed_arrays()
    earlier = [0] * m  # earlier[i]: neighbors of order[i] placed before it
    for pu, pv in zip(map(pos.__getitem__, seed_u), map(pos.__getitem__, seed_v)):
        earlier[pu if pu > pv else pv] += 1
    return min(earlier[2:], default=2) >= 2


def recognize(graph: ConnectivityGraph) -> RecognitionResult:
    """Decide whether the graph admits a linked order.

    Seeds are the edges in ascending order; the witness is the sweep's FIFO
    absorption order from the first (lexicographically smallest) seed whose
    closure covers all vertices, checked by verify_witness (a failed check,
    a bug, raises RuntimeError). On failure the certificate maps every seed
    edge to its stuck set. A single vertex is linked by convention (the
    conditions quantify over positions that do not exist); two vertices are
    linked iff they are connected.
    """
    if graph.m == 1:
        return RecognitionResult(linked=True, witness=(0,))

    seed_u, seed_v = graph.seed_arrays()
    sizes = [0] * len(seed_u)
    order = kernels.sweep_seeds(*graph.csr_arrays(), seed_u, seed_v, graph.m, sizes)

    if order is None:
        # The max is exact: a skipped seed reads 0, and its stuck set lies inside a run one's.
        certificate = StuckCertificate(graph, max(sizes, default=0))
        return RecognitionResult(linked=False, certificate=certificate)
    witness = tuple(order)
    del order, sizes  # the witness check needs neither
    if not verify_witness(graph, witness):
        raise RuntimeError("the seed sweep produced an invalid witness; this is a bug")
    return RecognitionResult(linked=True, witness=witness)


def recognize_election(election: "Election", mode: Mode = Mode.STRONG) -> RecognitionResult:
    """Build the connectivity graph for the mode and recognize it (a
    one-candidate election gives the one-vertex graph, linked by convention)."""
    return recognize(build_graph(election, mode))
