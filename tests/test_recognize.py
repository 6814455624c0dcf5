import random
import sys
import tracemalloc
from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    Mode,
    NotAPermutation,
    SeedNotEdge,
    brute_force_linked,
    build_graph,
    gen_edge_realizing,
    gen_pendant_clique,
    greedy_closure,
    recognize,
    recognize_election,
    verify_witness,
)
from linkdomain.model import election_from_ids
from linkdomain.oracle import enumerate_graphs

from references import fifo_closure
from strategies import graphs, graphs_with_edges

K3 = ConnectivityGraph(3, [(0, 1), (0, 2), (1, 2)])
P3 = ConnectivityGraph(3, [(0, 1), (1, 2)])
C4 = ConnectivityGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def relabeled(g: ConnectivityGraph, rng: random.Random) -> tuple[list[int], ConnectivityGraph]:
    """(pi, h): a random permutation pi of 0..m-1, and g with each vertex v renamed pi[v]."""
    pi = list(range(g.m))
    rng.shuffle(pi)
    return pi, ConnectivityGraph(g.m, [(pi[u], pi[v]) for u, v in g.edges])


class TestGreedyClosure:
    def test_triangle_floods(self):
        assert greedy_closure(K3, (0, 1)) == (0, 1, 2)

    def test_path_sticks_at_seed(self):
        assert greedy_closure(P3, (0, 1)) == (0, 1)

    def test_four_cycle_sticks_at_seed(self):
        assert greedy_closure(C4, (0, 1)) == (0, 1)

    def test_seed_must_be_edge(self):
        with pytest.raises(SeedNotEdge):
            greedy_closure(P3, (0, 2))

    def test_seed_order_normalized(self):
        assert greedy_closure(K3, (1, 0))[:2] == (0, 1)

    def test_first_in_first_out(self):
        # 1's row brings in 4 and then 5; 4's row gives 2 and 3 one absorbed
        # neighbor each, and 5's row brings them in, in row order.
        g = ConnectivityGraph(6, [(0, 1), (0, 4), (1, 4), (0, 5), (1, 5), (4, 5), (2, 4), (2, 5), (3, 4), (3, 5)])
        assert greedy_closure(g, (0, 1)) == (0, 1, 4, 5, 2, 3)

    def test_memory_peak_of_one_closure(self):
        # Traced bytes allocated by one closure of a triangle inside a
        # 200,000-vertex graph. On CPython 3.11.7 the FIFO closure peaks at
        # 200,289, its m-byte count array; the heap-ordered one with two
        # per-vertex lists peaked at 3,200,624, and with them also returned
        # in a ClosureState at 6,401,200. The limit is 2 bytes per vertex:
        # an m-length list of ints made per closure breaks it.
        m = 200_000
        g = ConnectivityGraph(m, [(0, 1), (0, 2), (1, 2)])
        tracemalloc.start()
        try:
            order = greedy_closure(g, (0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m
        assert order == (0, 1, 2)

    @given(graphs_with_edges(), st.data())
    def test_state_invariants(self, g, data):
        seed = data.draw(st.sampled_from(g.edges))
        order = greedy_closure(g, seed)
        assert len(set(order)) == len(order)
        assert order[:2] == seed
        for i, v in enumerate(order[2:], start=2):
            prior = set(order[:i])
            assert sum(1 for w in g.neighbors(v) if w in prior) >= 2

    @given(graphs_with_edges(), st.data(), st.randoms(use_true_random=False))
    def test_reached_set_tie_break_independent(self, g, data, rng):
        # Relabeling the vertices changes the order in which rows are read.
        a, b = data.draw(st.sampled_from(g.edges))
        baseline = greedy_closure(g, (a, b))
        pi, h = relabeled(g, rng)
        assert frozenset(greedy_closure(h, (pi[a], pi[b]))) == {pi[v] for v in baseline}

    @given(graphs_with_edges(), st.data())
    def test_reached_set_is_maximal(self, g, data):
        seed = data.draw(st.sampled_from(g.edges))
        reached = frozenset(greedy_closure(g, seed))
        for v in range(g.m):
            if v not in reached:
                assert sum(1 for w in g.neighbors(v) if w in reached) < 2


class TestVerifyWitness:
    def test_triangle_order_valid(self):
        assert verify_witness(K3, (0, 1, 2)) is True

    def test_path_order_invalid(self):
        assert verify_witness(P3, (0, 1, 2)) is False

    def test_unconnected_first_pair_invalid(self):
        g = ConnectivityGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus {2,3}
        assert verify_witness(g, (2, 3, 0, 1)) is False

    def test_single_vertex_vacuous(self):
        assert verify_witness(ConnectivityGraph(1, []), (0,)) is True

    @pytest.mark.parametrize(
        "graph, witness",
        [(K3, w) for w in [(0, 1), (0, 1, 2, 0), (0, 1, 1), (0, 1, -1), (-3, 1, 2), (0, 1, 3), (0, 1, 2.0), (0, 1, "2")]]
        + [(ConnectivityGraph(1, []), w) for w in [(), (1,), (-1,), ("0",), (None,), (0, 0)]],
    )
    def test_not_a_permutation(self, graph, witness):
        # -1 and -3 would index the position array from the end, onto the
        # one slot left free (2 and 0), so they pass unless rejected.
        with pytest.raises(NotAPermutation):
            verify_witness(graph, witness)

    def test_swapping_two_entries_breaks_a_witness(self):
        # 0-1-2-3 with chords {0, 2} and {1, 3}: (0, 1, 2, 3) is linked, but
        # 3 moved before 2 has only one earlier neighbor, 1.
        g = ConnectivityGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
        assert verify_witness(g, (0, 1, 2, 3)) is True
        assert verify_witness(g, (0, 1, 3, 2)) is False

    @pytest.mark.parametrize("m", range(1, 6))
    def test_agrees_with_the_definition_on_all_small_graphs(self, m):
        for g in enumerate_graphs(m):
            edges = set(g.edges)
            for order in permutations(range(m)):
                linked = m == 1 or (
                    (min(order[:2]), max(order[:2])) in edges
                    and all(
                        sum((min(u, v), max(u, v)) in edges for u in order[:i]) >= 2
                        for i, v in enumerate(order)
                        if i >= 2
                    )
                )
                assert verify_witness(g, order) is linked, (g.edges, order)


class TestRecognize:
    def test_triangle(self):
        result = recognize(K3)
        assert result.linked
        assert result.witness == (0, 1, 2)
        assert result.certificate is None

    def test_path_not_linked(self):
        result = recognize(P3)
        assert not result.linked
        assert result.witness is None
        assert dict(result.certificate) == {
            (0, 1): frozenset({0, 1}),
            (1, 2): frozenset({1, 2}),
        }

    def test_two_vertices_with_edge(self):
        result = recognize(ConnectivityGraph(2, [(0, 1)]))
        assert result.linked
        assert result.witness == (0, 1)

    def test_two_vertices_without_edge(self):
        result = recognize(ConnectivityGraph(2, []))
        assert not result.linked
        assert len(result.certificate) == 0

    def test_single_vertex_linked_by_convention(self):
        result = recognize(ConnectivityGraph(1, []))
        assert result.linked
        assert result.witness == (0,)

    def test_witness_from_smallest_successful_seed(self):
        # 0 and 1 share no neighbor, so the lexicographically first seed
        # (0,1) sticks at {0,1}; the next seed (0,2) floods everything
        g = ConnectivityGraph(
            5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        )
        result = recognize(g)
        assert result.linked
        assert result.witness == (0, 2, 3, 4, 1)

    def test_witness_is_the_sweep_absorption_order(self):
        # Seed (0, 1) covers. FIFO absorbs 4 before 3: 1's row brings in 2
        # and 4, and 3 waits for 2's row. greedy_closure runs the sweep's
        # own loop on the seed, so it gives the same tuple.
        g = ConnectivityGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
        result = recognize(g)
        assert result.witness == (0, 1, 2, 4, 3)
        assert greedy_closure(g, (0, 1)) == (0, 1, 2, 4, 3)

    @given(graphs_with_edges())
    @example(ConnectivityGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)]))
    def test_witness_is_the_closure_of_the_first_covering_seed(self, g):
        # Small graphs: every vertex with an edge is heavy, so the sweep
        # grows each seed by bitmasks; tests/test_kernels.py checks light
        # and mixed graphs.
        covering = [seed for seed in g.edges if len(fifo_closure(g, seed)) == g.m]
        result = recognize(g)
        assert result.linked == bool(covering)
        if covering:
            assert result.witness == fifo_closure(g, covering[0])

    @given(graphs())
    def test_decides_without_the_reference_closure(self, g):
        def refuse(*args, **kwargs):
            raise AssertionError("recognize ran greedy_closure")

        with patch.object(sys.modules["linkdomain.recognize"], "greedy_closure", refuse):
            result = recognize(g)
            if result.linked:
                assert verify_witness(g, result.witness)
            else:
                assert result.certificate.max_stuck_size < g.m
        assert result.linked == brute_force_linked(g)[0]

    def test_certificate_mapping_interface(self):
        result = recognize(P3)
        cert = result.certificate
        assert set(cert) == {(0, 1), (1, 2)}
        assert cert.stuck_size((0, 1)) == 2
        assert cert.max_stuck_size == 2
        with pytest.raises(KeyError):
            cert[(0, 2)]

    @pytest.mark.usefixtures("seed_lists_refused_after_sweep")
    def test_certificate_answers_len_and_max_without_the_seed_lists(self):
        # The certificate keeps the largest stuck-set size and reads its
        # length from the adjacency; only iteration reads the seed lists.
        g = gen_pendant_clique(40)
        cert = recognize(g).certificate
        assert len(cert) == 39 * 38 // 2 + 1
        assert cert.max_stuck_size == 39

    @given(graphs(min_m=2))
    @example(ConnectivityGraph(4, [(0, 1), (0, 3), (1, 2), (2, 3)]))
    def test_certificate_matches_the_eager_map(self, g):
        # Every lookup answers as a dict keyed by the seed edges would: a
        # key finds a seed exactly when it equals and hashes as one, so
        # (0.0, 1.0) and (False, True) find (0, 1), and anything else misses.
        result = recognize(g)
        if result.linked:
            return
        cert = result.certificate
        eager = {seed: frozenset(fifo_closure(g, seed)) for seed in g.edges}
        assert len(cert) == len(eager)
        assert cert.max_stuck_size == max(map(len, eager.values()), default=0)
        assert list(cert) == list(eager)
        assert dict(cert) == eager
        m = g.m
        odd = [(0.0, 1.0), (0.5, 1), (float("nan"), 1), (False, True), (True, 2.0), ("0", "1"), (0, "1"),
               "01", None, (None, 1), (0,), (0, 1, 2), (-1, 0), (0, -1), (0, m), (m, m + 1), (m - 1, m),
               (10**30, 0), (0, 10**30), (-(10**30), 1)]
        for key in [(u, v) for u in range(m) for v in range(m)] + odd:
            assert (key in cert) == (key in eager), key
            assert cert.get(key, "miss") == eager.get(key, "miss"), key
            if key in eager:
                assert cert[key] == eager[key], key
                assert cert.stuck_size(key) == len(eager[key]), key
            else:
                with pytest.raises(KeyError):
                    cert[key]
                with pytest.raises(KeyError):
                    cert.stuck_size(key)
        for unhashable in ([0, 1], ([0], 1), {0: 1}):
            for lookup in (cert.__contains__, cert.__getitem__, cert.get, cert.stuck_size):
                with pytest.raises(TypeError):
                    lookup(unhashable)

    def test_not_linked_result_keeps_nothing_per_seed(self):
        # K_{300,300}, 90,000 seeds. The result keeps the graph it was given
        # and two counts: 140 traced bytes on CPython 3.10.13 to 3.13.0. A
        # certificate that kept the sweep's per-seed sizes kept 720,160. The
        # untraced first call fills the interpreter's per-code caches, which
        # a first call on 3.10 would otherwise count: 4,084 bytes.
        g = ConnectivityGraph(600, [(u, w) for u in range(300) for w in range(300, 600)])
        recognize(g)
        tracemalloc.start()
        try:
            result = recognize(g)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.linked
        assert len(result.certificate) == 90_000 and result.certificate.max_stuck_size == 2
        assert kept <= 4096

    def test_certificate_lookup_keeps_nothing(self):
        # K_{300,300}, 90,000 seeds, each stuck at its two ends. A lookup
        # finds the seed by has_edge and runs kernels.closure, and keeps 216
        # traced bytes on CPython 3.10.13 to 3.13.0 (one fresh process each),
        # the frozenset it returns; the certificate that built an edge ->
        # size dict on its first lookup kept 10,171,464. The untraced lookup
        # of another seed fills the interpreter's per-code caches, which a
        # first lookup would otherwise count: 3,288 bytes on 3.10.13.
        g = ConnectivityGraph(600, [(u, w) for u in range(300) for w in range(300, 600)])
        cert = recognize(g).certificate
        cert[(1, 301)]
        tracemalloc.start()
        try:
            stuck = cert[(0, 300)]
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stuck == {0, 300} and cert.stuck_size((299, 599)) == 2
        assert kept <= 4096

    @given(graphs())
    def test_verdict_matches_brute_force(self, g):
        assert recognize(g).linked == brute_force_linked(g)[0]

    @given(graphs())
    def test_witness_is_sound(self, g):
        result = recognize(g)
        if result.linked:
            assert verify_witness(g, result.witness)

    @given(graphs(min_m=2))
    def test_certificate_is_sound(self, g):
        result = recognize(g)
        if not result.linked:
            assert set(result.certificate) == set(g.edges)
            for seed, stuck in result.certificate.items():
                assert seed[0] in stuck and seed[1] in stuck
                assert len(stuck) < g.m
                assert len(stuck) == result.certificate.stuck_size(seed)
                for v in range(g.m):
                    if v not in stuck:
                        assert sum(1 for w in g.neighbors(v) if w in stuck) < 2

    @given(graphs(min_m=2), st.data())
    def test_linked_survives_extra_edges(self, g, data):
        result = recognize(g)
        if not result.linked:
            return
        all_pairs = [(u, v) for u in range(g.m) for v in range(u + 1, g.m)]
        extra = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=6))
        grown = ConnectivityGraph(g.m, list(g.edges) + extra)
        assert recognize(grown).linked

    @given(graphs(), st.data())
    def test_relabeling_equivariance(self, g, data):
        sigma = tuple(data.draw(st.permutations(range(g.m))))
        relabeled = ConnectivityGraph(g.m, [(sigma[u], sigma[v]) for u, v in g.edges])
        assert recognize(relabeled).linked == recognize(g).linked


class TestRecognizeElection:
    def test_all_triangle_edges_realized(self):
        votes = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)]
        e = election_from_ids([(v, 1) for v in votes], 3)
        assert recognize_election(e).linked

    def test_single_edge_not_linked(self):
        e = election_from_ids([((0, 1, 2), 1), ((1, 0, 2), 1)], 3)
        assert not recognize_election(e).linked

    def test_weak_mode_path_not_linked(self):
        e = election_from_ids([((0, 1, 2), 1), ((2, 1, 0), 1)], 3)
        result = recognize_election(e, Mode.WEAK)
        assert not result.linked

    def test_weak_mode_can_link_when_strong_does_not(self):
        votes = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        e = election_from_ids([(v, 1) for v in votes], 3)
        assert not recognize_election(e, Mode.STRONG).linked
        assert recognize_election(e, Mode.WEAK).linked

    def test_single_candidate(self):
        e = election_from_ids([((0,), 4)], 1)
        result = recognize_election(e)
        assert result.linked and result.witness == (0,)

    @given(graphs(min_m=2, max_m=6), st.randoms(use_true_random=False))
    def test_profile_independence(self, g, rng):
        e1 = gen_edge_realizing(g)
        votes = [(ranking, rng.randint(1, 4)) for ranking, _ in e1.votes]
        rng.shuffle(votes)
        e2 = election_from_ids(votes, g.m)
        r1 = recognize_election(e1)
        r2 = recognize_election(e2)
        assert (r1.linked, r1.witness) == (r2.linked, r2.witness)
        if not r1.linked:
            assert dict(r1.certificate) == dict(r2.certificate)


@settings(max_examples=30)
@given(graphs_with_edges(min_m=3, max_m=12), st.integers(0, 2**32 - 1))
def test_confluence_under_many_tie_breaks(g, seed):
    rng = random.Random(seed)
    for a, b in g.edges:
        baseline = greedy_closure(g, (a, b))
        for _ in range(5):
            pi, h = relabeled(g, rng)
            assert frozenset(greedy_closure(h, (pi[a], pi[b]))) == {pi[v] for v in baseline}
