"""The seed-sweep kernel contract in every degree regime, and its work on hub graphs.

The kernel returns the absorption order of the first covering seed, a
linked order, and writes the exact closure size of every seed it
decided. It takes the common-neighbor filter first, so a seed whose ends
share no neighbor reads 2 wherever it lies; a seed it skipped reads 0,
must have ends that share a neighbor, and must lie inside the stuck set
of an earlier seed it ran. A vertex is heavy when its degree is at least
kernels.heavy_cut(m), and the closure treats heavy and light vertices
differently, so each property runs on graphs that are all heavy, all
light, and mixed; the test checks from the degrees which one it got.
"""

import math
import random
import time
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    brute_force_linked,
    gen_pendant_clique,
    gen_random_graph,
    greedy_closure,
    kernels,
    recognize,
    verify_witness,
)
from linkdomain.oracle import DEFAULT_CAP

from references import fifo_closure
from strategies import graphs, graphs_with_edges


def run(g):
    """(index of the winning seed or -1, sizes); checks the returned order is a witness."""
    indptr, indices = g.csr_arrays()
    seed_u, seed_v = g.seed_arrays()
    sizes = [0] * len(g.edges)
    order = kernels.sweep_seeds(indptr, indices, seed_u, seed_v, g.m, sizes)
    if order is None:
        return -1, sizes
    winner = g.edges.index(tuple(order[:2]))
    assert verify_witness(g, order)
    assert sizes[winner] == g.m
    return winner, sizes


def share_a_neighbor(g, a: int, b: int) -> bool:
    return not set(g.neighbors(a)).isdisjoint(g.neighbors(b))


def heavy_vertices(g) -> list[int]:
    cut = kernels.heavy_cut(g.m)
    return [v for v in range(g.m) if g.degree(v) >= cut]


def assert_matches_ordered_closure(g) -> list[frozenset]:
    """Check the kernel contract against fifo_closure; returns the closures of the seeds run.

    The winner is the first covering seed, and the witness its closure in
    fifo_closure's order. A seed reads 2 exactly when its ends share no
    neighbor, since the filter runs before the subsumption test."""
    winner, sizes = run(g)
    stop = len(g.edges) if winner < 0 else winner + 1
    ran: list[tuple[int, frozenset]] = []
    for i in range(stop):
        a, b = g.edges[i]
        assert (sizes[i] == 2) == (not share_a_neighbor(g, a, b)), (i, sizes[i])
        if sizes[i]:
            order = fifo_closure(g, (a, b))
            closure = frozenset(order)
            assert sizes[i] == len(closure), (i, sizes[i], len(closure))
            assert (len(closure) == g.m) == (i == winner)
            if i == winner:
                assert recognize(g).witness == order
            ran.append((i, closure))
        else:
            # skipped: both ends inside the stuck set of an earlier seed that ran
            assert any(j < i and len(c) < g.m and a in c and b in c for j, c in ran), i
    return [c for _, c in ran]


@given(graphs_with_edges(max_m=9))
def test_pure_sweep_matches_ordered_closure(g):
    # Small graphs: every vertex with an edge is heavy.
    cut = kernels.heavy_cut(g.m)
    assert all(g.degree(v) >= cut for v in range(g.m) if g.degree(v))
    winner, sizes = run(g)
    closures = [frozenset(fifo_closure(g, seed)) for seed in g.edges]
    assert winner == next((i for i, c in enumerate(closures) if len(c) == g.m), -1)
    stop = len(g.edges) if winner < 0 else winner + 1
    for i in range(stop):
        assert (sizes[i] == 2) == (not share_a_neighbor(g, *g.edges[i]))
        if sizes[i]:
            assert sizes[i] == len(closures[i])
        else:
            assert any(
                sizes[j] and len(closures[j]) < g.m and closures[i] <= closures[j]
                for j in range(i)
            )


def _path_square(rng: random.Random, m: int) -> set[tuple[int, int]]:
    """Edges of the square of a random path: each vertex joins the two before
    it, so no degree exceeds 4. Each edge is left out with a probability drawn
    per graph, which cuts the run of triangles into stuck pieces; with none
    left out the graph is linked."""
    order = list(range(m))
    rng.shuffle(order)
    miss = rng.choice([0.0, 0.003, 0.02, 0.1])
    edges = set()
    for i in range(1, m):
        for j in range(max(0, i - 2), i):
            if rng.random() >= miss:
                edges.add((min(order[i], order[j]), max(order[i], order[j])))
    return edges


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pure_sweep_matches_ordered_closure_all_light(seed):
    rng = random.Random(seed)
    m = rng.randint(320, 383)  # heavy_cut 5, so degree 4 is light
    g = ConnectivityGraph(m, _path_square(rng, m))
    assert kernels.heavy_cut(m) == 5 and not heavy_vertices(g)
    assert_matches_ordered_closure(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pure_sweep_matches_ordered_closure_mixed(seed):
    rng = random.Random(seed)
    m = rng.randint(640, 760)  # heavy_cut 10 or 11
    edges = _path_square(rng, m)
    # A few hubs, each joined to a random sample: every other vertex gains at
    # most one edge per hub and stays light.
    hubs = rng.sample(range(m), rng.randint(1, 4))
    for hub in hubs:
        for v in rng.sample(range(m), rng.randint(kernels.heavy_cut(m) + 1, 60)):
            if v != hub:
                edges.add((min(hub, v), max(hub, v)))
    g = ConnectivityGraph(m, edges)
    heavy = heavy_vertices(g)
    assert heavy and set(heavy) <= set(hubs)
    assert any(g.degree(v) for v in range(m) if v not in heavy)
    assert_matches_ordered_closure(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 1.2))
def test_pure_sweep_matches_ordered_closure_gnp(seed, factor):
    # G(m, p) around the 2-neighbor percolation threshold 1 / sqrt(m log m).
    # With heavy_cut 6 a third to three quarters of the vertices are light,
    # so a lower end's light-light seeds reuse its row set between seeds
    # that are subsumed, filtered, or run through a closure.
    rng = random.Random(seed)
    m = rng.randint(384, 447)
    g = gen_random_graph(m, factor / math.sqrt(m * math.log(m)), seed)
    assert kernels.heavy_cut(m) == 6
    assert_matches_ordered_closure(g)


def hub_graph(m: int = 700) -> set[tuple[int, int]]:
    """Edges of a run of triangles on 1..m-1 with hub 0 joined to every
    seventh vertex: degree 99 at m = 700, the only heavy vertex."""
    edges = {(i, i + 1) for i in range(1, m - 1)} | {(i, i + 2) for i in range(1, m - 2)}
    return edges | {(0, v) for v in range(5, m, 7)}


def test_mixed_closures_absorb_heavy_and_light_vertices():
    # The mixed property above could in principle only ever meet stuck sets
    # that avoid the hubs; this fixed graph has a hub inside a run of
    # triangles, so seeds grow through both kinds of vertex.
    g = ConnectivityGraph(700, hub_graph() - {(300, 301), (300, 302), (299, 301)})
    assert heavy_vertices(g) == [0]
    closures = assert_matches_ordered_closure(g)
    assert any(0 in c and len(c) > 100 for c in closures)


def squared_path(m: int, seed: int) -> ConnectivityGraph:
    """The square of a path through 0..m-1 in a random order: linked, no degree above 4."""
    order = list(range(m))
    random.Random(seed).shuffle(order)
    return ConnectivityGraph(m, [(order[i], order[j]) for i in range(m) for j in (i + 1, i + 2) if j < m])


@pytest.mark.parametrize(
    "g, heavy",
    [(ConnectivityGraph(700, hub_graph()), [0]), (squared_path(320, seed=320), [])],
    ids=["hub_m700", "all_light_m320"],
)
def test_witness_is_the_closure_of_the_first_covering_seed(g, heavy):
    # Both graphs are linked. The hub graph's winning closure absorbs the
    # hub 13th, so its witness comes from both phases of the sweep, mostly
    # the bitset one; the squared path has no heavy vertex, so its witness
    # comes from the list loop alone.
    assert heavy_vertices(g) == heavy
    assert recognize(g).linked
    assert_matches_ordered_closure(g)


@pytest.mark.parametrize("m", [100, 300])
def test_pendant_clique_runs_two_seeds(monkeypatch, m):
    # Seed (0, 1) sticks at the whole clique, which holds every later seed
    # but the pendant edge (0, m-1); that one has no common neighbor and is
    # written as a stuck pair. Criterion 7 rests on this count, not on the clock.
    written = []
    sweep = kernels.sweep_seeds

    def recording_sweep(*args):
        written.append(args[5])  # sizes_out
        return sweep(*args)

    monkeypatch.setattr(kernels, "sweep_seeds", recording_sweep)
    g = gen_pendant_clique(m)
    result = recognize(g)
    assert not result.linked
    assert len(result.certificate) == len(g.edges)
    (sizes,) = written
    assert sorted(size for size in sizes if size) == [2, m - 1]


def test_filter_runs_before_the_subsumption_test():
    # Seed (0, 2) sticks at {0, 1, 2, 3, 4}. Seeds (1, 2) and (1, 4) lie
    # inside that set, but their ends share no neighbor, so the filter cuts
    # them and writes their exact size 2; (0, 3), (0, 4), (2, 3) and (3, 4)
    # pass the filter and are skipped as subsumed.
    g = ConnectivityGraph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)])
    assert run(g) == (-1, [5, 0, 0, 2, 2, 0, 0])
    assert_matches_ordered_closure(g)


def triangle_chain(k: int) -> ConnectivityGraph:
    """Triangles {2i, 2i+1, 2i+2} for i < k, each sharing one vertex with the next."""
    edges = [e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
    return ConnectivityGraph(2 * k + 1, edges)


@pytest.mark.parametrize("k, heavy", [(3, True), (200, False)], ids=["heavy_m7", "light_m401"])
def test_stuck_triangles_subsume_their_other_edges(k, heavy):
    # Every triangle is its own stuck set, and its first seed runs. The other
    # two edges pass the filter and must read 0: a triangle recorded with the
    # wrong keys would run them again, at their exact size 3, which the
    # size checks alone accept.
    g = triangle_chain(k)
    assert bool(heavy_vertices(g)) == heavy
    assert run(g) == (-1, [3, 0, 0] * k)
    assert_matches_ordered_closure(g)


def triangle_classes(g) -> tuple[set[tuple[int, int]], int]:
    """(the edges in a triangle, the number of triangle classes): a naive
    union-find that joins the three edges of each triangle."""
    parent = {e: e for e in g.edges}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    in_triangle = set()
    for a, b in g.edges:
        for c in set(g.neighbors(a)) & set(g.neighbors(b)):
            if c > b:  # each triangle a < b < c once
                root = find((a, b))
                parent[find((a, c))] = root
                parent[find((b, c))] = root
                in_triangle |= {(a, b), (a, c), (b, c)}
    return in_triangle, len({find(e) for e in in_triangle})


@settings(max_examples=200)
@given(graphs_with_edges(min_m=3, max_m=12))
def test_not_linked_sweep_runs_at_most_one_seed_per_triangle_class(g):
    # Only the filter writes 2, and it cuts exactly the edges in no
    # triangle; each other edge is run or skipped. A closure that holds an
    # edge holds its whole triangle class (the third vertex of a triangle
    # has two neighbours in it), and the stuck set it records subsumes the
    # class's later seeds.
    winner, sizes = run(g)
    assume(winner < 0)
    in_triangle, classes = triangle_classes(g)
    runs = sum(size > 2 for size in sizes)
    assert sizes.count(2) == len(g.edges) - len(in_triangle)
    assert sizes.count(0) + runs == len(in_triangle)
    assert runs <= classes


def tower(k: int) -> ConnectivityGraph:
    """The tower T_k: K4 on 0..3, then k levels x, y, z = 3i+1, 3i+2, 3i+3,
    each a triangle with edges xp, yp and zq to the level below, whose x
    and y are p and q (0 and 1 for the K4). Linked, with 2m - 2 edges."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    p, q = 0, 1
    for i in range(1, k + 1):
        x, y, z = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(x, y), (x, z), (y, z), (p, x), (p, y), (q, z)]
        p, q = x, y
    return ConnectivityGraph(3 * k + 4, edges)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 250])
def test_tower_runs_one_closure_per_level(k):
    # Seed (0, 1) sticks at the K4, and the seed from each level's x to the
    # next level's x covers every level up to the latter, then sticks below
    # the next: k + 1 closures of sizes 4, 7, ..., 3k + 4, whose sum is
    # quadratic in m although m + |E| is linear in k.
    g = tower(k)
    assert len(g.edges) == 2 * g.m - 2
    winner, sizes = run(g)
    xs = [0] + [3 * i + 1 for i in range(1, k + 1)]
    runs = [(g.edges[s], size) for s, size in enumerate(sizes) if size > 2]
    assert runs == [((0, 1), 4)] + [((xs[i - 1], xs[i]), 3 * i + 4) for i in range(1, k + 1)]
    assert winner == g.edges.index((xs[-2], xs[-1]))
    assert recognize(g).linked
    if g.m <= DEFAULT_CAP:
        assert brute_force_linked(g)[0]


def test_sweep_handles_no_seeds():
    g = ConnectivityGraph(3, [(0, 1)])
    indptr, indices = g.csr_arrays()
    assert kernels.sweep_seeds(indptr, indices, [], [], g.m, []) is None


def test_single_edge_wins_without_a_closure():
    g = ConnectivityGraph(2, [(0, 1)])
    assert run(g) == (0, [2])
    indptr, indices = g.csr_arrays()
    assert kernels.sweep_seeds(indptr, indices, [0], [1], g.m, [0]) == [0, 1]


def windmill2(k: int) -> ConnectivityGraph:
    """The two-hub windmill W2_k: triangles {r, a_i, b_i} plus an edge b_i - r'.

    2-connected and not linked; each closure C(r a_i) = {r, a_i, b_i} is its
    own stuck set, so no seed is subsumed by another's. Labels: r = 0,
    a_i = 2i + 1, b_i = 2i + 2, r' = 2k + 1.
    """
    r, r2 = 0, 2 * k + 1
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(r, a), (r, b), (a, b), (b, r2)]
    return ConnectivityGraph(2 * k + 2, edges)


def windmill_k4(k: int) -> ConnectivityGraph:
    """A windmill of K4 blades: {r, a_i, b_i, c_i} is a K4, and c_i - r' an edge.

    Not linked; each seed (r, a_i) sticks at its four-vertex blade, the
    hub r among them. Labels: r = 0, a_i = 3i + 1, b_i = 3i + 2,
    c_i = 3i + 3, r' = 3k + 1.
    """
    r, r2 = 0, 3 * k + 1
    edges = []
    for i in range(k):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(r, a), (r, b), (r, c), (a, b), (a, c), (b, c), (c, r2)]
    return ConnectivityGraph(3 * k + 2, edges)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@st.composite
def _block(draw, vertices: list[int]) -> set[tuple[int, int]]:
    """Random edges on `vertices` (four or more), then each vertex joined to
    others in the block until its degree within the block is at least 3."""
    pairs = [_pair(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))))
    for v in vertices:
        need = 3 - sum(v in e for e in edges)
        if need > 0:
            others = draw(st.permutations([w for w in vertices if w != v and _pair(v, w) not in edges]))
            edges.update(_pair(v, w) for w in others[:need])
    return edges


@st.composite
def no_heavy_graphs(draw) -> ConnectivityGraph:
    """Graphs with minimum degree >= 3 and m <= DEFAULT_CAP, from families that
    are mostly not linked:
    - blocks: two or three dense blocks, each joined to the graph before it
      at a single vertex, so every stuck set lies in one block;
    - tower: the tower T_k, k <= 4, less one edge whose ends keep degree 3;
    - windmill: a K4 windmill with 3 to 5 blades, plus up to two random edges;
    - nested: a dense core under one to four triangles, each triangle vertex
      joined to a random vertex of the triangle below (of the core, for the
      first), so a triangle's closure can take in all below it and the
      stuck sets nest.
    The vertices are relabeled at random, which reorders the seeds."""
    family = draw(st.sampled_from(["blocks", "tower", "windmill", "nested"]))
    if family == "blocks":
        m = draw(st.integers(4, 7))
        edges = draw(_block(list(range(m))))
        for _ in range(draw(st.integers(1, 2))):
            size = draw(st.integers(4, min(8, DEFAULT_CAP + 1 - m)))
            edges |= draw(_block([draw(st.integers(0, m - 1)), *range(m, m + size - 1)]))
            m += size - 1
    elif family == "tower":
        g = tower(draw(st.integers(1, 4)))
        removable = [(u, v) for u, v in g.edges if min(g.degree(u), g.degree(v)) >= 4]
        m, edges = g.m, set(g.edges) - {draw(st.sampled_from(removable))}
    elif family == "windmill":
        g = windmill_k4(draw(st.integers(3, 5)))
        pairs = [(u, v) for u in range(g.m) for v in range(u + 1, g.m)]
        m, edges = g.m, set(g.edges) | set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    else:
        m = draw(st.integers(4, 6))
        edges = draw(_block(list(range(m))))
        below = list(range(m))
        for _ in range(draw(st.integers(1, (DEFAULT_CAP - m) // 3))):
            x, y, z = m, m + 1, m + 2
            edges |= {(x, y), (x, z), (y, z)} | {_pair(v, draw(st.sampled_from(below))) for v in (x, y, z)}
            below, m = [x, y, z], m + 3
    sigma = draw(st.permutations(range(m)))
    return ConnectivityGraph(m, [(sigma[u], sigma[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(no_heavy_graphs())
def test_sweep_matches_the_oracle_on_no_heavy_families(g):
    # At m <= 18 heavy_cut is 1, so the plain sweep grows every seed by
    # bitmasks. Patched to m + 1 every vertex is light, and the list loop,
    # the row-set filter and the row-scan recording of stuck sets act; at
    # 4, the degree-3 vertices are light and the rest heavy, so closures
    # switch from the list loop to the bitset one. All three must give the
    # oracle's verdict and one witness.
    assert min(map(g.degree, range(g.m))) >= 3 and g.m <= DEFAULT_CAP
    linked, _ = brute_force_linked(g)
    results = [recognize(g)]
    for cut in (g.m + 1, 4):
        with patch.object(kernels, "heavy_cut", lambda m: cut):
            results.append(recognize(g))
    for result in results:
        assert result.linked == linked
    if linked:
        assert verify_witness(g, results[0].witness)
        assert {result.witness for result in results} == {results[0].witness}
    else:
        stuck = max(len(fifo_closure(g, seed)) for seed in g.edges)
        assert {result.certificate.max_stuck_size for result in results} == {stuck}


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(), no_heavy_graphs()))
def test_every_closure_the_library_returns_is_the_references(g):
    # greedy_closure and a certificate's lookups run kernels.closure, the
    # sweep's own list loop; fifo_closure shares no code with it.
    result = recognize(g)
    for seed in g.edges:
        order = fifo_closure(g, seed)
        assert greedy_closure(g, seed) == order
        if not result.linked:
            assert result.certificate[seed] == frozenset(order)


def complete_bipartite(n: int) -> ConnectivityGraph:
    return ConnectivityGraph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def _best_recognize_seconds(build, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        g = build()
        start = time.process_time()
        result = recognize(g)
        best = min(best, time.process_time() - start)
        assert not result.linked
    return best


def test_hub_families_envelope():
    # Before the degree split these took about 29 s and 0.75 s: every seed
    # scanned a hub's whole adjacency.
    w2 = _best_recognize_seconds(lambda: windmill2(8000), repeats=2)
    knn = _best_recognize_seconds(lambda: complete_bipartite(150))
    assert w2 < 1.0, f"W2 k=8000 took {w2:.3f} s"
    assert knn < 0.1, f"K150,150 took {knn:.3f} s"


class CountingList(list):
    """A list that counts the entries its __getitem__ returns."""

    read = 0

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.read += len(value) if isinstance(key, slice) else 1
        return value


def _entries_read(g: ConnectivityGraph) -> int:
    indptr, indices = g.csr_arrays()
    counting = CountingList(indices)
    seed_u, seed_v = g.seed_arrays()
    sizes = [0] * len(g.edges)
    assert kernels.sweep_seeds(indptr, counting, seed_u, seed_v, g.m, sizes) is None
    return counting.read


def test_windmill_adjacency_reads_grow_linearly():
    # A sweep that scans the hub r for every seed reads Θ(k²) entries: 64x
    # from k=1000 to k=8000. Masks keep it to the light ends and one read
    # of each heavy adjacency.
    small, large = _entries_read(windmill2(1000)), _entries_read(windmill2(8000))
    assert large <= 8 * small * 1.1, (small, large)


def test_k4_windmill_adjacency_reads_grow_linearly():
    # Here every stuck set holds the hub r and is larger than a triangle.
    # The sweep reads 55,000 and 440,000 entries at k=1000 and k=8000; a
    # sweep that recorded each stuck set by scanning its members' rows read
    # r's row once per blade, 3,055,000 and 192,440,000.
    small, large = _entries_read(windmill_k4(1000)), _entries_read(windmill_k4(8000))
    assert large <= 8 * small * 1.1, (small, large)


def test_filter_reads_each_lower_end_row_once():
    # A tree, so every seed is cut by the common-neighbor test. At m = 6400
    # (heavy_cut 100) the star centre 0 keeps 99 leaves and stays light, and
    # a pendant path hangs from each leaf. A filter that rebuilt the lower
    # end's row set for every seed would read row 0 once per leaf, 99 x 99
    # entries; built once per lower end, it reads each row of a lower end
    # once and each higher end's row once per seed.
    m = 6400
    cut = kernels.heavy_cut(m)
    edges = [(0, leaf) for leaf in range(1, cut)] + [(v - (cut - 1), v) for v in range(cut, m)]
    g = ConnectivityGraph(m, edges)
    assert not heavy_vertices(g) and g.degree(0) == cut - 1
    indptr, indices = g.csr_arrays()
    counting = CountingList(indices)
    seed_u, seed_v = g.seed_arrays()
    sizes = [0] * len(seed_u)
    assert kernels.sweep_seeds(indptr, counting, seed_u, seed_v, m, sizes) is None
    assert set(sizes) == {2}
    bound = sum(map(g.degree, set(seed_u))) + sum(map(g.degree, seed_v))
    assert counting.read <= bound, (counting.read, bound)
