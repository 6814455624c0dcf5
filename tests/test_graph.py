import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    Mode,
    TooFewCandidates,
    build_graph,
    export_dot,
    gen_linked_graph,
    recognize,
    top_pair_set,
)
from linkdomain.model import election_from_ids

from strategies import elections, graphs


def make(m, votes):
    return election_from_ids([(v, 1) for v in votes], m)


class TestTopPairSet:
    def test_pairs_collected(self):
        e = make(3, [(0, 1, 2), (1, 0, 2)])
        assert top_pair_set(e) == {(0, 1), (1, 0)}

    def test_multiplicities_collapse(self):
        e = election_from_ids([((0, 1, 2), 5)], 3)
        assert top_pair_set(e) == {(0, 1)}

    def test_no_votes(self):
        e = make(3, [])
        assert top_pair_set(e) == frozenset()

    def test_single_candidate_rejected(self):
        with pytest.raises(TooFewCandidates):
            top_pair_set(make(1, [(0,)]))


class TestBuildGraph:
    def test_strong_needs_both_directions(self):
        e = make(3, [(0, 1, 2), (1, 0, 2)])
        assert build_graph(e, Mode.STRONG).edges == ((0, 1),)

    def test_strong_one_direction_is_not_enough(self):
        e = make(3, [(0, 1, 2), (2, 1, 0)])
        assert build_graph(e, Mode.STRONG).edges == ()

    def test_weak_single_witness_suffices(self):
        e = make(3, [(0, 1, 2), (2, 1, 0)])
        assert build_graph(e, Mode.WEAK).edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_single_candidate_gives_one_vertex(self, mode):
        assert build_graph(make(1, [(0,)]), mode) == ConnectivityGraph(1, [])

    def test_mode_recorded(self):
        e = make(2, [(0, 1)])
        assert build_graph(e, Mode.WEAK).mode is Mode.WEAK

    @given(elections(min_m=2))
    def test_strong_subset_of_weak(self, e):
        strong = build_graph(e, Mode.STRONG)
        weak = build_graph(e, Mode.WEAK)
        assert set(strong.edges) <= set(weak.edges)

    @given(elections(min_m=2), st.randoms(use_true_random=False))
    def test_invariant_under_vote_order_and_multiplicity(self, e, rng):
        votes = [(ranking, rng.randint(1, 9)) for ranking, _ in e.votes]
        rng.shuffle(votes)
        shuffled = election_from_ids(votes, e.m)
        for mode in Mode:
            assert build_graph(shuffled, mode) == build_graph(e, mode)

    @given(elections(min_m=2), st.data())
    def test_adding_a_vote_never_removes_edges(self, e, data):
        extra = tuple(data.draw(st.permutations(range(e.m))))
        grown = election_from_ids(list(e.votes) + [(extra, 1)], e.m)
        for mode in Mode:
            assert set(build_graph(e, mode).edges) <= set(build_graph(grown, mode).edges)

    @given(elections(min_m=2), st.data())
    def test_relabeling_equivariance(self, e, data):
        sigma = tuple(data.draw(st.permutations(range(e.m))))
        relabeled = election_from_ids(
            [(tuple(sigma[c] for c in ranking), mult) for ranking, mult in e.votes], e.m
        )
        for mode in Mode:
            expected = {
                (min(sigma[u], sigma[v]), max(sigma[u], sigma[v]))
                for u, v in build_graph(e, mode).edges
            }
            assert set(build_graph(relabeled, mode).edges) == expected


class TestConnectivityGraph:
    def test_adjacency_symmetric_and_sorted(self):
        g = ConnectivityGraph(4, [(2, 0), (3, 0), (1, 0)])
        assert g.neighbors(0) == (1, 2, 3)
        assert all(g.neighbors(v) == (0,) for v in (1, 2, 3))
        assert [g.degree(v) for v in range(4)] == [3, 1, 1, 1]
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_duplicate_edges_collapse(self):
        g = ConnectivityGraph(2, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_row_boundary_is_not_a_repeat(self):
        # Row 0 ends with 2 and row 1 starts with 2: equal neighbours in
        # `indices` that belong to different rows must both stay.
        g = ConnectivityGraph(3, [(0, 2), (1, 2)])
        assert g.csr_arrays() == ((0, 1, 2, 4), (2, 2, 0, 1))
        assert g.edges == ((0, 2), (1, 2))

    def test_repeat_next_to_a_row_boundary_is_dropped(self):
        # The same boundary, with edge {1, 2} given twice: only the repeat goes.
        g = ConnectivityGraph(3, [(0, 2), (1, 2), (2, 1)])
        assert g.csr_arrays() == ((0, 1, 2, 4), (2, 2, 0, 1))
        assert g.seed_arrays() == ((0, 1), (2, 2))
        assert g == ConnectivityGraph(3, [(0, 2), (1, 2)])

    def test_edges_built_once(self):
        g = ConnectivityGraph(3, [(1, 2), (0, 1)])
        assert g.edges is g.edges
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(2, [(0, 2)])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(0, [])

    def test_equality_ignores_mode(self):
        a = ConnectivityGraph(3, [(0, 1)], Mode.STRONG)
        b = ConnectivityGraph(3, [(0, 1)])
        assert a == b

    @pytest.mark.parametrize("v", [-1, 3])
    def test_rows_reject_ids_outside_the_graph(self, v):
        g = ConnectivityGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(IndexError, match=f"vertex {v} outside 0..2"):
            g.degree(v)
        with pytest.raises(IndexError, match=f"vertex {v} outside 0..2"):
            g.neighbors(v)

    def test_has_edge_rejects_ids_outside_the_graph(self):
        # Vertex -1 would read row 2 if negative indexes wrapped around.
        g = ConnectivityGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        for u, v in [(-1, 0), (0, -1), (-3, 1), (3, 0), (0, 3), (10**9, 1), (1, 1), (-1, -1)]:
            assert g.has_edge(u, v) is False, (u, v)

    @given(graphs(), st.data())
    def test_has_edge_matches_edges(self, g, data):
        u = data.draw(st.integers(-g.m - 1, 2 * g.m))
        v = data.draw(st.integers(-g.m - 1, 2 * g.m))
        assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in set(g.edges))

    @given(graphs(), st.randoms(use_true_random=False))
    def test_rows_ascending_and_symmetric_for_any_edge_input(self, g, rng):
        given_edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        given_edges += rng.sample(given_edges, len(given_edges) // 2)  # duplicates
        rng.shuffle(given_edges)
        for edges in (given_edges, given_edges[::-1]):
            rebuilt = ConnectivityGraph(g.m, edges)
            assert rebuilt == g and hash(rebuilt) == hash(g) and repr(rebuilt) == repr(g)
            assert rebuilt.edges == g.edges
            indptr, indices = rebuilt.csr_arrays()
            seed_u, seed_v = rebuilt.seed_arrays()
            # Built once: every call hands back the same immutable tuples.
            for stored, again in zip((indptr, indices, seed_u, seed_v), rebuilt.csr_arrays() + rebuilt.seed_arrays()):
                assert again is stored and type(stored) is tuple
            assert tuple(zip(seed_u, seed_v)) == g.edges
            assert len(indptr) == g.m + 1 and indptr[0] == 0
            assert indptr[-1] == len(indices) == 2 * len(g.edges)
            rows = [indices[indptr[v] : indptr[v + 1]] for v in range(g.m)]
            for v, row in enumerate(rows):
                assert row == rebuilt.neighbors(v) and len(row) == rebuilt.degree(v)
                assert list(row) == sorted(set(row))
                assert all(v in rows[w] for w in row)
            assert rebuilt.edges == tuple((u, w) for u, row in enumerate(rows) for w in row if w > u)

    def test_memory_peak_of_build_and_recognize(self):
        # Traced bytes allocated while building and recognizing a linked
        # graph with 10,497 edges. On CPython 3.11 the build that keeps four
        # flat tuples and builds `edges` only on access peaks at 1,074,424;
        # the limit adds a 7 % margin. The build that also made an edge
        # tuple per edge peaked at 1,445,060. Catches `edges` being built on
        # the linked path, or a second copy of the adjacency.
        edges = list(gen_linked_graph(5000, 500, seed=1).edges)
        tracemalloc.start()
        try:
            result = recognize(ConnectivityGraph(5000, edges))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.linked
        assert peak <= 1_150_000


class TestExportDot:
    def test_single_edge(self):
        g = ConnectivityGraph(2, [(0, 1)])
        assert export_dot(g, ("a", "b")) == 'graph {\n  "a" -- "b";\n}\n'

    def test_edgeless_lists_vertices(self):
        g = ConnectivityGraph(2, [])
        assert export_dot(g, ("a", "b")) == 'graph {\n  "a";\n  "b";\n}\n'

    def test_triangle_edge_order(self):
        g = ConnectivityGraph(3, [(1, 2), (0, 2), (0, 1)])
        expected = 'graph {\n  "a" -- "b";\n  "a" -- "c";\n  "b" -- "c";\n}\n'
        assert export_dot(g, ("a", "b", "c")) == expected

    def test_quotes_escaped(self):
        g = ConnectivityGraph(1, [])
        assert export_dot(g, ('sa"id',)) == 'graph {\n  "sa\\"id";\n}\n'

    def test_name_count_checked(self):
        with pytest.raises(ValueError):
            export_dot(ConnectivityGraph(2, []), ("a",))
