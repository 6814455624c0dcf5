"""Brute-force references for small instances.

Independent of the production path on purpose: adjacency is re-derived as
bitmasks, orders are searched depth-first with each set of placed candidates
expanded at most once, and the all-pairs variant re-implements the closure
with a rescan loop. These exist to catch bugs in recognize(), so they share
nothing with it beyond the definition of a linked order.
"""

from itertools import combinations
from typing import Iterator

from .errors import InstanceTooLarge
from .graph import ConnectivityGraph

DEFAULT_CAP = 18


def brute_force_linked(
    graph: ConnectivityGraph, cap: int = DEFAULT_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search all candidate orders for a linked one.

    Returns (True, lexicographically first linked order) or (False, None).
    An order grows by any unplaced candidate with at least min(len(order), 2)
    placed neighbours, which is the definition applied position by position.
    Whether an order completes depends only on which candidates are placed,
    so a set found dead is never expanded again: at most 2^m * m steps. The
    search keeps its own stack, so it reaches any depth up to cap.
    """
    m = graph.m
    if m > cap:
        raise InstanceTooLarge(f"brute force capped at m <= {cap}, got {m}")

    masks = [0] * m
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    order: list[int] = []
    dead: set[int] = set()
    placed = 0
    tries = [0]  # per position being filled, the first candidate not yet tried there
    while len(order) < m:
        need = min(len(order), 2)
        c = tries[-1]
        while c < m and (placed >> c & 1 or (masks[c] & placed).bit_count() < need or placed | 1 << c in dead):
            c += 1
        if c < m:
            tries[-1] = c + 1
            tries.append(0)
            order.append(c)
            placed |= 1 << c
        else:  # no candidate completes this placed set
            dead.add(placed)
            tries.pop()
            if not order:
                return False, None
            placed ^= 1 << order.pop()
    return True, tuple(order)


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


def enumerate_graphs(m: int) -> Iterator[ConnectivityGraph]:
    """Every graph on m labeled vertices, one per edge-subset bitmask."""
    pairs = list(combinations(range(m), 2))
    for mask in range(1 << len(pairs)):
        yield ConnectivityGraph(m, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
