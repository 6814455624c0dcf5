import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    Mode,
    build_graph,
    gen_edge_realizing,
    gen_impartial_culture,
    gen_linked_graph,
    gen_pendant_clique,
    gen_random_graph,
    recognize,
)

from strategies import graphs


class TestImpartialCulture:
    def test_no_votes(self):
        e = gen_impartial_culture(3, 0)
        assert e.votes == ()
        assert e.m == 3

    def test_single_candidate(self):
        e = gen_impartial_culture(1, 5, seed=1)
        assert e.n == 5
        assert all(ranking == (0,) for ranking, _ in e.votes)

    def test_deterministic_per_seed(self):
        assert gen_impartial_culture(5, 20, seed=7) == gen_impartial_culture(5, 20, seed=7)

    def test_seed_changes_output(self):
        assert gen_impartial_culture(6, 10, seed=0) != gen_impartial_culture(6, 10, seed=1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_impartial_culture(0, 1)
        with pytest.raises(ValueError):
            gen_impartial_culture(2, -1)


class TestEdgeRealizing:
    def test_single_edge(self):
        e = gen_edge_realizing(ConnectivityGraph(2, [(0, 1)]))
        assert [ranking for ranking, _ in e.votes] == [(0, 1), (1, 0)]

    def test_edgeless(self):
        e = gen_edge_realizing(ConnectivityGraph(3, []))
        assert e.votes == ()

    def test_path_round_trip(self):
        target = ConnectivityGraph(3, [(0, 1), (1, 2)])
        e = gen_edge_realizing(target)
        assert e.n == 4
        assert build_graph(e, Mode.STRONG) == target

    def test_rest_in_ascending_order(self):
        e = gen_edge_realizing(ConnectivityGraph(4, [(1, 2)]))
        assert [ranking for ranking, _ in e.votes] == [(1, 2, 0, 3), (2, 1, 0, 3)]

    def test_custom_names(self):
        e = gen_edge_realizing(ConnectivityGraph(2, [(0, 1)]), names=("x", "y"))
        assert e.names == ("x", "y")

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            gen_edge_realizing(ConnectivityGraph(1, []))

    @given(graphs(min_m=2, max_m=10))
    def test_round_trip_exact(self, g):
        assert build_graph(gen_edge_realizing(g), Mode.STRONG) == g


class TestRandomGraphs:
    def test_deterministic(self):
        assert gen_random_graph(8, 0.4, seed=3) == gen_random_graph(8, 0.4, seed=3)

    def test_probability_extremes(self):
        assert gen_random_graph(5, 0.0, seed=1).edges == ()
        assert len(gen_random_graph(5, 1.0, seed=1).edges) == 10


class TestPendantClique:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="pendant clique needs at least three vertices"):
            gen_pendant_clique(2)


class TestLinkedGraphs:
    def test_needs_two_vertices(self):
        with pytest.raises(ValueError, match="need at least two vertices"):
            gen_linked_graph(1)

    @given(st.integers(2, 12), st.integers(0, 5), st.integers(0, 1000))
    def test_always_linked(self, m, extra, seed):
        g = gen_linked_graph(m, extra_edges=extra, seed=seed)
        assert recognize(g).linked

    def test_deterministic(self):
        a = gen_linked_graph(9, extra_edges=3, seed=11)
        b = gen_linked_graph(9, extra_edges=3, seed=11)
        assert a == b

    @pytest.mark.parametrize("m, extra", [(50, 0), (50, 40), (8, 10), (8, 100)])
    def test_extra_edge_count(self, m, extra):
        # The build order gives 2m - 3 distinct edges; extras fill in up to K_m,
        # drawn by rejection (few) or from the listed non-edges (most or all).
        g = gen_linked_graph(m, extra_edges=extra, seed=5)
        assert len(g.edges) == min(2 * m - 3 + extra, m * (m - 1) // 2)

    def test_large_without_extras(self):
        # Listing the ~2 * 10^8 non-edges here would take minutes and gigabytes.
        g = gen_linked_graph(20_000, seed=1)
        assert len(g.edges) == 2 * 20_000 - 3
