"""References that only the tests use, kept out of the shipped package.

linked_via_all_pair_seeds re-implements the 2-neighbor closure with a
rescan loop and seeds it from every vertex pair, so it shares nothing with
recognize() beyond the definition of a linked order.
"""

from itertools import combinations

from linkdomain import ConnectivityGraph


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
