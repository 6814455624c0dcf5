import tracemalloc
from array import array
from itertools import chain, permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import linkdomain.graph

from linkdomain import (
    ConnectivityGraph,
    Mode,
    UnrepresentableName,
    build_graph,
    export_dot,
    gen_linked_graph,
    recognize,
    recognize_election,
)
from linkdomain.model import election_from_ids

from strategies import elections, graphs


def make(m, votes):
    return election_from_ids([(v, 1) for v in votes], m)


def reference_arrays(m, edges):
    """(indptr, indices) and (seed_u, seed_v) built the plain way, from sorted({(min, max)})."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    rows = [sorted([w for u, w in pairs if u == v] + [u for u, w in pairs if w == v]) for v in range(m)]
    indptr = tuple(sum(map(len, rows[:v])) for v in range(m + 1))
    indices = tuple(w for row in rows for w in row)
    return (indptr, indices), (tuple(u for u, _ in pairs), tuple(w for _, w in pairs))


def fresh_ints(edges):
    """The same edges as new int objects, one at each end of every edge, as
    read back from an array."""
    flat = array("i", chain.from_iterable(edges))
    return list(zip(flat[0::2], flat[1::2]))


@st.composite
def edge_lists(draw):
    """(m, edges) with m in 1..8: pairs in either orientation, each possibly
    given again the other way round or more than once, in any order; with
    few edges some vertices are left isolated."""
    m = draw(st.integers(1, 8))
    if m == 1:
        return m, []
    edges = draw(st.lists(st.sampled_from(list(permutations(range(m), 2))), max_size=2 * m))
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=len(edges)))]
    return m, draw(st.permutations(edges))


@pytest.fixture
def flat_calls(monkeypatch):
    """Counts the constructor's row layouts: one, plus one more when it
    rebuilds the rows without repeated edges."""
    calls = []
    flat = linkdomain.graph._flat

    def counted(rows):
        calls.append(len(rows))
        return flat(rows)

    monkeypatch.setattr(linkdomain.graph, "_flat", counted)
    return calls


class TestTopPairs:
    def test_pairs_collected(self):
        e = make(3, [(0, 1, 2), (1, 0, 2)])
        assert e.top_pairs == {(0, 1), (1, 0)}

    def test_multiplicities_collapse(self):
        e = election_from_ids([((0, 1, 2), 5), ((0, 1, 2), 2), ((0, 2, 1), 1)], 3)
        assert e.top_pairs == {(0, 1), (0, 2)}

    def test_no_votes(self):
        e = make(3, [])
        assert e.top_pairs == frozenset()

    def test_single_candidate_has_none(self):
        assert make(1, [(0,)]).top_pairs == frozenset()


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

    def test_weak_passes_each_edge_once(self, flat_calls):
        # Both pairs are top pairs in both orders; each edge still reaches
        # the constructor once, so its rows are never rebuilt.
        e = make(3, [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)])
        assert build_graph(e, Mode.WEAK).edges == ((0, 1), (1, 2))
        assert flat_calls == [3]

    def test_mode_given_by_its_value(self):
        # Mode is a str enum, so Mode.STRONG == "strong"; a mode tested by
        # identity built the weak graph for the string "strong".
        e = make(3, [(0, 1, 2), (1, 2, 0)])
        for mode in Mode:
            assert build_graph(e, mode.value) == build_graph(e, mode)
            assert recognize_election(e, mode.value) == recognize_election(e, mode)
        assert build_graph(e, "strong").edges == ()
        for bad in ("bogus", "Strong", None):
            with pytest.raises(ValueError):
                build_graph(e, bad)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_single_candidate_gives_one_vertex(self, mode):
        assert build_graph(make(1, [(0,)]), mode) == ConnectivityGraph(1, [])

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

    @given(edge_lists())
    @example((1, []))
    @example((2, [(1, 0)]))
    @example((2, [(1, 0), (0, 1), (1, 0)]))
    @example((6, [(0, 5), (1, 5), (1, 5)]))
    @example((3, [(True, False), (2, True), (False, 2), (True, 0)]))
    def test_arrays_match_a_naive_reference(self, case):
        m, edges = case
        g = ConnectivityGraph(m, edges)
        assert (g.csr_arrays(), g.seed_arrays()) == reference_arrays(m, edges)

    def test_repeat_check_compares_lower_ends(self, flat_calls):
        # Seeds (0, 5), (1, 5), (1, 5): the first two share a higher end
        # but not a lower one, so only the third seed is a repeat.
        g = ConnectivityGraph(6, [(0, 5), (1, 5), (1, 5)])
        assert g.csr_arrays() == ((0, 1, 2, 2, 2, 2, 4), (5, 5, 0, 1))
        assert g.seed_arrays() == ((0, 1), (5, 5))
        assert flat_calls == [6, 6]

    def test_repeat_found_past_several_row_boundaries(self, flat_calls):
        # Seeds (0, 5), (1, 5), (2, 5), (3, 5), (3, 5): equal higher ends at
        # three row boundaries before the one repeat.
        edges = [(0, 5), (1, 5), (2, 5), (3, 5), (3, 5)]
        g = ConnectivityGraph(6, edges)
        assert (g.csr_arrays(), g.seed_arrays()) == reference_arrays(6, edges)
        assert flat_calls == [6, 6]

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 5), (1, 5)],  # equal higher ends in neighbouring rows
            [(0, 2), (1, 2), (1, 3)],  # row 0 ends with 2 and row 1 starts with 2
            [(0, 1), (1, 2), (2, 3)],
            [(0, 5), (1, 5), (2, 5), (3, 5)],  # equal higher ends at three row boundaries
        ],
    )
    def test_rows_built_once_without_a_repeated_edge(self, flat_calls, edges):
        g = ConnectivityGraph(6, edges)
        assert (g.csr_arrays(), g.seed_arrays()) == reference_arrays(6, edges)
        assert flat_calls == [6]

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
            ([(0, 1), (1, 0), (0, 9), (2, 2)], "edge (0, 9) outside 0..2"),
            ([(2, 1), (-1, 1), (1, 1)], "edge (-1, 1) outside 0..2"),
            ([(3, 3), (0, 3)], "self-loop at vertex 3"),
            # Ids of m or more, at either end, after valid edges or first.
            ([(0, 1), (3, 0)], "edge (3, 0) outside 0..2"),
            ([(0, 3), (-1, 0)], "edge (0, 3) outside 0..2"),
            ([(10**30, 1)], f"edge ({10**30}, 1) outside 0..2"),
            ([(1, 2), (1, 10**30)], f"edge (1, {10**30}) outside 0..2"),
            ([(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)], "edge (2, 3) outside 0..2"),
            ([(True, False), (True, 3)], "edge (True, 3) outside 0..2"),
        ],
    )
    def test_first_bad_edge_in_input_order_names_the_error(self, edges, message):
        for given in (edges, (edge for edge in edges)):
            with pytest.raises(ValueError) as raised:
                ConnectivityGraph(3, given)
            assert str(raised.value) == message

    def test_index_error_from_the_edge_iterable_passes_through(self):
        def edges():
            yield 0, 1
            raise IndexError("from the caller")

        with pytest.raises(IndexError, match="from the caller"):
            ConnectivityGraph(3, edges())

    def test_edges_built_from_the_seed_lists(self):
        g = ConnectivityGraph(3, [(1, 2), (0, 1)])
        assert g.edges == ((0, 1), (1, 2)) == tuple(zip(*g.seed_arrays()))

    def test_reading_edges_keeps_nothing(self):
        # K_{100,100}: `edges` is a new tuple of 10,000 pairs on each
        # access, freed with it. What the trace still counts is the
        # interpreter's free list of 2-tuples, which takes up to 2,000 of
        # them: 111,944 bytes on CPython 3.11.7. The graph that kept `edges`
        # after the first access kept 528,152 here.
        g = ConnectivityGraph(200, [(u, w) for u in range(100) for w in range(100, 200)])
        tracemalloc.start()
        try:
            assert len(g.edges) == 10_000
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 150_000

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(2, [(0, 2)])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(0, [])

    def test_equal_only_to_a_graph_with_the_same_vertices_and_edges(self):
        g = ConnectivityGraph(3, [(0, 1)])
        assert g == ConnectivityGraph(3, [(1, 0)]) and hash(g) == hash(ConnectivityGraph(3, [(1, 0)]))
        assert g != ConnectivityGraph(4, [(0, 1)]) and g != ConnectivityGraph(3, [(0, 2)])
        assert g.__eq__((3, ((0,), (1,)))) is NotImplemented and g != (3, ((0,), (1,)))

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

    @pytest.mark.parametrize(
        "m, make_edges",
        [
            pytest.param(5000, lambda: fresh_ints(gen_linked_graph(5000, 500, seed=1).edges), id="fresh-ints"),
            # Bools are ints that compare equal to 0 and 1 but print and
            # serialize as False and True.
            pytest.param(3, lambda: [(False, True), (True, 2), (False, 2)], id="bools"),
        ],
    )
    def test_one_plain_int_object_per_vertex(self, m, make_edges):
        g = ConnectivityGraph(m, make_edges())
        witness = recognize(g).witness
        held = [*g.csr_arrays()[1], *chain.from_iterable(g.seed_arrays()), *chain.from_iterable(g.edges), *witness]
        assert len({id(x) for x in held}) == m
        assert all(type(x) is int for x in held)

    def test_memory_kept_after_the_edge_list_is_dropped(self):
        # Traced bytes still allocated once the caller has dropped the list
        # of fresh ints it built a linked graph from (5,000 vertices, 10,497
        # edges). The graph that holds one int of its own per vertex and
        # nothing but m and its four tuples keeps 798,128 on CPython 3.11.7,
        # 3.12.1 and 3.13.0 and 759,836 on 3.10.13, measured alone and under
        # pytest; one run of the whole suite on 3.11.7 read 804,664. With
        # slots for a mode and an edge cache it kept 16 bytes more. The
        # limit adds a 7 % margin to 804,728, the most 3.11 read under
        # pytest when the rows were made by a list comprehension. The graph
        # that held the caller's ints, up to two per edge, kept 1,402,432.
        # Catches the stored tuples pointing at the caller's objects again.
        linked = gen_linked_graph(5000, 500, seed=1).edges
        tracemalloc.start()
        try:
            edges = fresh_ints(linked)
            g = ConnectivityGraph(5000, edges)
            del edges
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.seed_arrays()[0]) == 10_497
        assert kept <= 861_000

    def test_memory_peak_of_build_and_recognize(self):
        # Traced bytes allocated while building and recognizing a linked
        # graph with 10,497 edges. The build that keeps four flat tuples and
        # builds `edges` only on access peaks while laying its rows end to
        # end: at 1,140,416 on CPython 3.11.7 (0.8 % under the limit),
        # 1,140,376 on 3.12.1 and 3.13.0 and 1,101,676 on 3.10.13, measured
        # alone and under pytest, 16 bytes under the graph that also had
        # slots for a mode and an edge cache. The sweep and the witness
        # check stay below that. The 4,440 bytes that graph read above the
        # 1,135,992 of 3.11 when a list comprehension made the empty rows
        # are the trace's accounting, not memory: the comprehension takes
        # up to 80 empty lists of 56 bytes from the interpreter's free
        # list, made before tracing started, where `list(map(list, ...))`
        # makes every row anew. The limit was set with a 7 % margin over
        # 1,074,424, when the tuples held the caller's ints and this trace
        # did not count them. The build that also made an edge tuple per
        # edge peaked at 1,445,060. Catches `edges` being built on the
        # linked path, or a second copy of the adjacency.
        edges = list(gen_linked_graph(5000, 500, seed=1).edges)
        tracemalloc.start()
        try:
            result = recognize(ConnectivityGraph(5000, edges))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.linked
        assert peak <= 1_150_000

    def test_memory_peak_of_building_a_dense_graph(self):
        # Traced bytes allocated while building K_{100,100} (10,000 edges).
        # On CPython 3.11 the build that cuts each sorted row at its owner
        # peaks at 390,144 (386,768 when a list comprehension made the
        # rows; see above); the limit adds a 7 % margin over 383,936. The
        # build that made an owner list and flags over all 2|E| adjacency
        # entries peaked at 546,361. Catches a list or copy the size of the
        # adjacency alive next to the sorted rows.
        edges = [(u, w) for u in range(100) for w in range(100, 200)]
        tracemalloc.start()
        try:
            g = ConnectivityGraph(200, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.seed_arrays()[0]) == 10_000
        assert peak <= 411_000


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

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\u2028b", "a\n"])
    def test_name_with_a_line_break_refused(self, name):
        # parse_graph splits lines at every break str.splitlines knows, so
        # such a name cannot be read back.
        g = ConnectivityGraph(2, [(0, 1)])
        with pytest.raises(UnrepresentableName, match="line break"):
            export_dot(g, [name, "c"])
