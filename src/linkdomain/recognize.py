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
same verdict. The seed sweep (linkdomain.kernels) and greedy_closure, the
reference closure, both absorb first in, first out, so the witness is
greedy_closure(graph, s) for the first seed s whose closure covers.
"""

from bisect import bisect_left, bisect_right
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

    A certificate holds the graph and the `sizes` list the seed sweep
    wrote, one entry per edge in seed order: the stuck-set size of a seed
    the sweep decided, 2 for one whose ends share no neighbor, wherever it
    lies, and 0 for one it skipped because it lies inside an earlier stuck
    set. Holding one costs that list and nothing more:
    len() and max_stuck_size answer from it, and iteration walks the
    graph's seed lists. A lookup by key ([], `in`, stuck_size()) finds the
    seed by bisecting those lists (seed_u ascending, seed_v ascending
    within each lower end) and keeps nothing; it finds what a dict keyed by
    the seed edges would, so (1.0, 2.0) finds the seed (1, 2) and an
    unhashable key raises TypeError. Stuck sets are recomputed on access
    by greedy_closure from the stored seed, never stored: a lookup costs
    m bytes plus the rows of the stuck set's vertices.
    stuck_size() answers from the stored entry, and recomputes the closure
    only for a skipped seed. max_stuck_size is exact from the run seeds
    alone, since a skipped seed's closure lies inside a run one.
    """

    __slots__ = ("_graph", "_sizes")

    def __init__(self, graph: ConnectivityGraph, sizes: Sequence[int]):
        self._graph = graph
        self._sizes = sizes

    def _find(self, seed: object) -> tuple[int, Edge]:
        """(position, stored edge) of the seed equal to `seed`; KeyError if none is."""
        hash(seed)  # an unhashable key raises TypeError, as a dict lookup does
        seed_u, seed_v = self._graph.seed_arrays()
        if isinstance(seed, tuple) and len(seed) == 2:
            u, v = seed
            try:
                lo = bisect_left(seed_u, u)
                i = bisect_left(seed_v, v, lo, bisect_right(seed_u, u, lo))
            except TypeError:  # an end that no int compares with
                raise KeyError(seed) from None
            # The bisects narrow the search; equality decides, as in a dict.
            if i < len(seed_u) and (edge := (seed_u[i], seed_v[i])) == seed:
                return i, edge
        raise KeyError(seed)

    def __getitem__(self, seed: Edge) -> frozenset[int]:
        return frozenset(greedy_closure(self._graph, self._find(seed)[1]))

    def __contains__(self, seed: object) -> bool:
        try:
            self._find(seed)
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[Edge]:
        return zip(*self._graph.seed_arrays())

    def __len__(self) -> int:
        return len(self._sizes)

    def stuck_size(self, seed: Edge) -> int:
        i, edge = self._find(seed)
        return self._sizes[i] or len(greedy_closure(self._graph, edge))

    @property
    def max_stuck_size(self) -> int:
        return max(self._sizes, default=0)


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
    absorbed vertices' rows read first in, first out and each ascending,
    which is the order the seed sweep absorbs in. The reached set is
    maximal and independent of that order; relabeling the graph gives
    another order. Costs m bytes of counts plus the rows of the vertices
    absorbed. Raises SeedNotEdge when the seed pair is not an edge.
    """
    a, b = (seed[0], seed[1]) if seed[0] < seed[1] else (seed[1], seed[0])
    if not graph.has_edge(a, b):
        raise SeedNotEdge(f"seed ({a}, {b}) is not an edge")
    count = bytearray(graph.m)  # absorbed neighbors, saturating at 2; members read 2
    count[a] = count[b] = 2
    order = [a, b]
    push = order.append
    for v in order:  # sees the vertices pushed while it runs
        for w in graph.neighbors(v):
            c = count[w]
            if not c:
                count[w] = 1
            elif c == 1:
                count[w] = 2
                push(w)
    return tuple(order)


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
        return RecognitionResult(linked=False, certificate=StuckCertificate(graph, sizes))
    witness = tuple(order)
    del order, sizes  # only a NO certificate keeps the sizes
    if not verify_witness(graph, witness):
        raise RuntimeError("the seed sweep produced an invalid witness; this is a bug")
    return RecognitionResult(linked=True, witness=witness)


def recognize_election(election: "Election", mode: Mode = Mode.STRONG) -> RecognitionResult:
    """Build the connectivity graph for the mode and recognize it (a
    one-candidate election gives the one-vertex graph, linked by convention)."""
    return recognize(build_graph(election, mode))
