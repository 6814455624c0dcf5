"""References that only the tests use, kept out of the shipped package.

fifo_closure is the 2-neighbor closure of one seed as its own first-in,
first-out loop over neighbors() with a count per vertex, so it shares no
code with kernels, whose closure greedy_closure and the seed sweep run; it
absorbs in the same order, so the tests compare orders, not only sets.
linked_via_all_pair_seeds re-implements the closure with a rescan loop and
seeds it from every vertex pair, so it shares nothing with recognize()
beyond the definition of a linked order.
"""

from itertools import combinations

from linkdomain import ConnectivityGraph


def fifo_closure(graph: ConnectivityGraph, seed: tuple[int, int]) -> tuple[int, ...]:
    """Absorption order of the closure of a seed edge: its lower end, its
    higher end, then each vertex as it reaches two absorbed neighbors, the
    absorbed vertices' rows read first in, first out and each ascending."""
    a, b = sorted(seed)
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


def linked_via_all_pair_seeds(graph: ConnectivityGraph) -> bool:
    """Seed every unordered vertex pair, as if none could be skipped.

    A pair's subinstance is a yes only when its closure covers everything
    AND the pair is an edge; a full flood from a non-edge seed (seed {a, b}
    on the path a-c-b, say) still yields an order whose first two entries
    are unconnected. Used to check that edge-only seeding loses nothing.
    """
    m = graph.m
    if m == 1:
        return True
    for a, b in combinations(range(m), 2):
        reached = {a, b}
        grew = True
        while grew:
            grew = False
            for v in range(m):
                if v not in reached and sum(w in reached for w in graph.neighbors(v)) >= 2:
                    reached.add(v)
                    grew = True
        if len(reached) == m and graph.has_edge(a, b):
            return True
    return False
