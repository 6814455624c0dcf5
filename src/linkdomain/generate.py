"""Deterministic election and graph generators for fixtures, tests, benchmarks.

All randomness flows through random.Random(seed) (the stdlib Mersenne
Twister, stable across Python releases), so the same arguments always
produce the same object.
"""

import random
from itertools import combinations
from typing import Sequence

from .graph import ConnectivityGraph
from .model import Election, election_from_ids


def gen_impartial_culture(m: int, n: int, seed: int = 0) -> Election:
    """n rankings drawn independently and uniformly at random over m candidates."""
    if m < 1:
        raise ValueError("need at least one candidate")
    if n < 0:
        raise ValueError("vote count must be non-negative")
    rng = random.Random(seed)
    votes = []
    for _ in range(n):
        ranking = list(range(m))
        rng.shuffle(ranking)
        votes.append((tuple(ranking), 1))
    return election_from_ids(votes, m)


def gen_edge_realizing(
    target: ConnectivityGraph, names: Sequence[str] | None = None
) -> Election:
    """Smallest natural profile whose strong connectivity graph is exactly `target`.

    Each edge {u, v} contributes the votes u>v>rest and v>u>rest (rest in
    ascending id order). Distinct edges contribute distinct ordered top
    pairs and a strong edge needs both directions, so no spurious edges
    can appear.
    """
    if target.m < 2:
        raise ValueError("edge-realizing profiles need at least two candidates")
    votes = []
    for u, v in target.edges:
        rest = tuple(w for w in range(target.m) if w not in (u, v))
        votes.append(((u, v) + rest, 1))
        votes.append(((v, u) + rest, 1))
    return election_from_ids(votes, target.m, names)


def gen_random_graph(m: int, edge_prob: float, seed: int = 0) -> ConnectivityGraph:
    """Erdos-Renyi G(m, p), deterministic per seed."""
    rng = random.Random(seed)
    edges = [pair for pair in combinations(range(m), 2) if rng.random() < edge_prob]
    return ConnectivityGraph(m, edges)


def gen_pendant_clique(m: int) -> ConnectivityGraph:
    """Dense NotLinked case for the seed sweep: a clique on m-1 vertices plus one pendant.

    Every closure absorbs at most the clique (the pendant keeps one
    neighbor), so every one of the ~m^2/2 seeds gets stuck and the answer
    is NotLinked. A sweep that ran every seed would pay for all of them;
    the seed sweep runs one, because seed (0, 1) sticks at the clique,
    which holds every later seed but the pendant edge, and that edge's ends
    share no neighbor. Used by the performance tests.
    """
    if m < 3:
        raise ValueError("pendant clique needs at least three vertices")
    edges = list(combinations(range(m - 1), 2))
    edges.append((0, m - 1))
    return ConnectivityGraph(m, edges)


def gen_linked_graph(m: int, extra_edges: int = 0, seed: int = 0) -> ConnectivityGraph:
    """A graph that is linked by construction, plus optional random extra edges.

    Visits the vertices in a random order, connecting the first two and
    every later vertex to two random predecessors; that order is a valid
    witness, and adding edges can never destroy it. Extra edges are drawn
    by rejection, in O(m + extra_edges); only when they are more than half
    of the missing edges are those listed and sampled instead.
    """
    if m < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    order = list(range(m))
    rng.shuffle(order)
    edges = {(min(order[0], order[1]), max(order[0], order[1]))}
    for i in range(2, m):
        for j in rng.sample(range(i), 2):
            u, v = order[i], order[j]
            edges.add((min(u, v), max(u, v)))
    missing = m * (m - 1) // 2 - len(edges)
    extra = min(extra_edges, missing)
    if extra > missing // 2:
        candidates = [pair for pair in combinations(range(m), 2) if pair not in edges]
        edges.update(rng.sample(candidates, extra))
    else:
        target = len(edges) + extra
        while len(edges) < target:
            u, v = rng.randrange(m), rng.randrange(m)
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return ConnectivityGraph(m, edges)
