import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    Mode,
    TooFewCandidates,
    build_graph,
    export_dot,
    top_pair_set,
)
from linkdomain.model import election_from_ids

from strategies import elections


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
        assert strong.edge_set <= weak.edge_set

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
            assert build_graph(e, mode).edge_set <= build_graph(grown, mode).edge_set

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
            assert build_graph(relabeled, mode).edge_set == expected


class TestConnectivityGraph:
    def test_adjacency_symmetric_and_sorted(self):
        g = ConnectivityGraph(4, [(2, 0), (3, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        assert all(0 in g.adjacency[v] for v in (1, 2, 3))
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_duplicate_edges_collapse(self):
        g = ConnectivityGraph(2, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

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

    def test_csr_matches_adjacency(self):
        g = ConnectivityGraph(4, [(0, 1), (1, 2), (0, 3)])
        indptr, indices = g.csr_arrays()
        for v in range(4):
            assert tuple(indices[indptr[v]:indptr[v + 1]]) == g.adjacency[v]


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
