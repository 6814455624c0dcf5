import time
from itertools import permutations

import pytest
from hypothesis import given

from linkdomain import (
    ConnectivityGraph,
    InstanceTooLarge,
    NotAPermutation,
    brute_force_linked,
    enumerate_graphs,
    gen_pendant_clique,
    linked_via_all_pair_seeds,
    recognize,
    verify_witness,
)
from linkdomain.oracle import DEFAULT_CAP

from strategies import graphs

K3 = ConnectivityGraph(3, [(0, 1), (0, 2), (1, 2)])
P3 = ConnectivityGraph(3, [(0, 1), (1, 2)])


class TestBruteForce:
    def test_triangle(self):
        assert brute_force_linked(K3) == (True, (0, 1, 2))

    def test_path(self):
        assert brute_force_linked(P3) == (False, None)

    def test_cap(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_linked(ConnectivityGraph(DEFAULT_CAP + 1, []))
        with pytest.raises(InstanceTooLarge):
            brute_force_linked(K3, cap=2)

    def test_single_vertex(self):
        assert brute_force_linked(ConnectivityGraph(1, [])) == (True, (0,))

    @given(graphs(max_m=5))
    def test_agrees_with_naive_enumeration(self, g):
        naive = next(
            (
                order
                for order in permutations(range(g.m))
                if verify_witness(g, order)
            ),
            None,
        )
        verdict, witness = brute_force_linked(g)
        assert verdict == (naive is not None)
        assert witness == naive  # both lexicographically first

    @given(graphs(max_m=12))
    def test_witness_passes_verification(self, g):
        verdict, witness = brute_force_linked(g)
        assert verdict == recognize(g).linked
        if verdict:
            assert verify_witness(g, witness)

    def test_pendant_clique_envelope(self):
        # Every order of the 13-clique is a linked prefix that the pendant
        # cannot complete: about 13! orders for a search that re-expands
        # them, 2^13 sets for one that remembers the dead ones.
        g = gen_pendant_clique(14)
        start = time.process_time()
        verdict = brute_force_linked(g)
        elapsed = time.process_time() - start
        assert verdict == (False, None)
        assert elapsed < 1.0, f"pendant clique m=14 took {elapsed:.3f} s"

    def test_deep_search_keeps_its_own_stack(self):
        # Every order places all 1,200 candidates, deeper than Python's
        # default recursion limit of 1,000 calls.
        m = 1200
        g = ConnectivityGraph(m, [(i, j) for i in range(m) for j in (i + 1, i + 2) if j < m])
        verdict, witness = brute_force_linked(g, cap=m)
        assert verdict
        assert witness == tuple(range(m))
        assert verify_witness(g, witness)


class TestAllPairSeeds:
    def test_path_floods_from_non_edge_but_is_not_linked(self):
        # seed {0,2} reaches everything on 0-1-2, yet the pair is no edge
        assert linked_via_all_pair_seeds(P3) is False

    def test_triangle(self):
        assert linked_via_all_pair_seeds(K3) is True

    @given(graphs())
    def test_matches_edge_only_seeding(self, g):
        assert linked_via_all_pair_seeds(g) == recognize(g).linked


def test_enumerate_graphs_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_exhaustive_small_agreement():
    for m in (1, 2, 3, 4):
        for g in enumerate_graphs(m):
            assert recognize(g).linked == brute_force_linked(g)[0]


def test_verify_witness_error_reused_by_oracle_rule():
    with pytest.raises(NotAPermutation):
        verify_witness(K3, (0, 2, 2))
