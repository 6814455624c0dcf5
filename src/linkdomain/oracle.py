"""Brute-force references for small instances.

Independent of the production path on purpose: adjacency is re-derived as
bitmasks, and orders are searched depth-first with each set of placed
candidates expanded at most once. The search exists to catch bugs in
recognize(), so it shares nothing with it beyond the definition of a
linked order.
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


def enumerate_graphs(m: int) -> Iterator[ConnectivityGraph]:
    """Every graph on m labeled vertices, one per edge-subset bitmask."""
    pairs = list(combinations(range(m), 2))
    for mask in range(1 << len(pairs)):
        yield ConnectivityGraph(m, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
