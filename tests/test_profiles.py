import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    InconsistentMetadata,
    InvalidElection,
    LinkDomainError,
    ProfileError,
    ProfileSyntaxError,
    UnrepresentableName,
    UnsupportedProfile,
    export_dot,
    parse_graph,
    parse_native,
    parse_preflib_soc,
    scan_profile,
    write_native,
)
from linkdomain.model import election_from_ids

from strategies import elections, graphs


class TestParseNative:
    def test_two_votes(self):
        e = parse_native("candidates: a, b\n1: a > b\n1: b > a")
        assert (e.m, e.n) == (2, 2)
        assert e.votes == (((0, 1), 1), ((1, 0), 1))

    def test_multiplicity_prefix(self):
        e = parse_native("candidates: a, b\n3: a > b")
        assert (e.m, e.n) == (2, 3)
        assert len(e.votes) == 1

    def test_missing_header(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_native("1: a > b")
        assert exc.value.line == 1

    def test_header_only(self):
        e = parse_native("candidates: a, b\n")
        assert (e.m, e.n) == (2, 0)

    def test_comments_and_blank_lines(self):
        e = parse_native("# hi\n\ncandidates: a, b\n\n# mid\n2: b > a\n")
        assert (e.m, e.n) == (2, 2)

    def test_empty_input(self):
        with pytest.raises(ProfileSyntaxError):
            parse_native("")

    def test_second_header_rejected(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_native("candidates: a, b\ncandidates: c, d\n")
        assert exc.value.line == 2

    def test_bad_multiplicity(self):
        with pytest.raises(ProfileSyntaxError):
            parse_native("candidates: a, b\nx: a > b\n")
        with pytest.raises(ProfileSyntaxError):
            parse_native("candidates: a, b\n0: a > b\n")

    def test_missing_colon(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_native("candidates: a, b\n1 a > b\n")
        assert exc.value.line == 2

    def test_validation_errors_propagate(self):
        with pytest.raises(InvalidElection):
            parse_native("candidates: a, b\n1: a > a\n")

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_native(b"candidates: a, b\n1: a \xff> b\n")
        assert exc.value.line == 2

    def test_bytes_input_ok(self):
        e = parse_native(b"candidates: a, b\n1: a > b\n")
        assert e.n == 1

    def test_multiplicity_too_long_for_int(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_native("candidates: a\n" + "1" * 5000 + ": a\n")
        assert (exc.value.line, exc.value.column) == (2, 1)
        assert "more than 4300 digits" in str(exc.value)

    def test_multiplicity_leading_zeros_do_not_count(self):
        e = parse_native("candidates: a\n" + "0" * 5000 + "3: a\n")
        assert e.n == 3


class TestParsePreflib:
    def test_minimal(self):
        e = parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n1: 1,2\n1: 2,1\n")
        assert (e.m, e.n) == (2, 2)
        assert e.names == ("1", "2")

    def test_multiplicity(self):
        e = parse_preflib_soc("# NUMBER ALTERNATIVES: 3\n2: 1,2,3\n")
        assert (e.m, e.n) == (3, 2)
        assert e.votes == (((0, 1, 2), 2),)

    def test_ties_rejected(self):
        with pytest.raises(UnsupportedProfile):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 3\n1: {1,2},3\n")

    def test_incomplete_order_rejected(self):
        with pytest.raises(UnsupportedProfile):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 3\n1: 1,2\n")

    def test_alternative_names_used(self):
        text = (
            "# NUMBER ALTERNATIVES: 2\n"
            "# ALTERNATIVE NAME 1: alice\n"
            "# ALTERNATIVE NAME 2: bob\n"
            "1: 2,1\n"
        )
        e = parse_preflib_soc(text)
        assert e.names == ("alice", "bob")
        assert e.votes == (((1, 0), 1),)

    def test_unknown_metadata_ignored(self):
        text = (
            "# FILE NAME: x.soc\n# TITLE: something\n# DATA TYPE: soc\n"
            "# NUMBER ALTERNATIVES: 2\n1: 1,2\n"
        )
        assert parse_preflib_soc(text).m == 2

    def test_missing_alternative_count(self):
        with pytest.raises(InconsistentMetadata):
            parse_preflib_soc("1: 1,2\n")

    def test_voter_count_checked_when_present(self):
        with pytest.raises(InconsistentMetadata):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 5\n1: 1,2\n")

    def test_voter_count_match_ok(self):
        e = parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 3\n2: 1,2\n1: 2,1\n")
        assert e.n == 3

    def test_id_out_of_range(self):
        with pytest.raises(InconsistentMetadata):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n1: 1,3\n")

    def test_name_index_out_of_range(self):
        with pytest.raises(InconsistentMetadata):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 9: x\n1: 1,2\n")

    def test_repeated_id_is_validation_error(self):
        with pytest.raises(InvalidElection):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n1: 1,1\n")

    def test_non_integer_id(self):
        with pytest.raises(ProfileSyntaxError):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 2\n1: 1,x\n")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n{big}: 2,1\n", ProfileSyntaxError),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n1: 2,{big}\n", InconsistentMetadata),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n1: 2,-{big}\n", InconsistentMetadata),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n# ALTERNATIVE NAME {big}: x\n", InconsistentMetadata),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n# NUMBER VOTERS: {big}\n", ProfileSyntaxError),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n# NUMBER VOTERS: +{big}\n", ProfileSyntaxError),
            ("# NUMBER ALTERNATIVES: 2\n1: 1,2\n# NUMBER VOTERS: -{big}\n", ProfileSyntaxError),
            ("# TITLE: t\n# NUMBER VOTERS: 1\n# NUMBER ALTERNATIVES: {big}\n", UnsupportedProfile),
            ("# TITLE: t\n# NUMBER VOTERS: 1\n# NUMBER ALTERNATIVES: +{big}\n", UnsupportedProfile),
            # a redeclaration is inconsistent however long the new value is
            ("# TITLE: t\n# NUMBER ALTERNATIVES: 2\n# NUMBER ALTERNATIVES: {big}\n", InconsistentMetadata),
            ("# TITLE: t\n# NUMBER ALTERNATIVES: 2\n# NUMBER ALTERNATIVES: -{big}\n", InconsistentMetadata),
        ],
    )
    def test_numbers_too_long_for_int_raise_with_their_line(self, text, error):
        with pytest.raises(error) as exc:
            parse_preflib_soc(text.format(big="7" * 5000))
        assert exc.value.line == 3
        assert "more than 4300 digits" in str(exc.value)

    @pytest.mark.parametrize(
        "value",
        ["\u0667" * 5000, "-" + "\u0667" * 5000, "1_" * 4400 + "1"],
        ids=["arabic", "signed-arabic", "grouped"],
    )
    def test_metadata_numbers_too_long_in_any_spelling(self, value):
        # int() reads these spellings too, and refuses them by length alone
        with pytest.raises(ProfileSyntaxError, match="NUMBER VOTERS has more than 4300 digits") as exc:
            parse_preflib_soc(f"# NUMBER ALTERNATIVES: 1\n1: 1\n# NUMBER VOTERS: {value}\n")
        assert exc.value.line == 3

    def test_metadata_numbers_read_like_int(self):
        e = parse_preflib_soc("# NUMBER ALTERNATIVES: +\u0662\n# NUMBER VOTERS: 0_0_3\n3: 1,2\n")
        assert (e.m, e.n) == (2, 3)

    def test_voter_total_too_long_to_print(self):
        big = "9" * 4300
        with pytest.raises(InconsistentMetadata, match="sum to more than 4300 digits"):
            parse_preflib_soc(f"# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 1\n{big}: 1,2\n{big}: 2,1\n")

    def test_long_numbers_with_leading_zeros_are_read(self):
        zeros = "0" * 5000
        e = parse_preflib_soc(
            f"# NUMBER ALTERNATIVES: {zeros}2\n# NUMBER VOTERS: {zeros}3\n"
            f"# ALTERNATIVE NAME {zeros}1: x\n{zeros}3: {zeros}1,2\n"
        )
        assert (e.m, e.n, e.names[0]) == (2, 3, "x")


class TestWriteNative:
    def test_exact_two_vote_output(self):
        e = parse_native("candidates: a, b\n1: a > b\n1: b > a")
        assert write_native(e) == "candidates: a, b\n1: a > b\n1: b > a\n"

    def test_exact_empty_votes_output(self):
        e = parse_native("candidates: a, b\n")
        assert write_native(e) == "candidates: a, b\n"

    def test_reserved_character_in_name(self):
        e = parse_preflib_soc(
            "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: x, the brave\n1: 1,2\n"
        )
        with pytest.raises(UnrepresentableName):
            write_native(e)

    @given(elections())
    def test_round_trip_identity(self, e):
        assert parse_native(write_native(e)) == e

    def test_round_trip_preserves_duplicate_vote_lines(self):
        e = election_from_ids([((0, 1), 1), ((0, 1), 2)], 2)
        assert parse_native(write_native(e)) == e


# str.splitlines breaks a line at each of these, so export_dot cannot write them in a name
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
DOT_NAMES = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=LINE_BREAKS), min_size=1)


def named_edges(graph, names):
    return {frozenset((names[u], names[v])) for u, v in graph.edges}


class TestParseGraph:
    def test_dot_keeps_declared_names_first_then_endpoints_in_order(self):
        text = 'graph {\n  "d" -- "b";\n  # note\n\n  "c";\n  "b" -- "a"\n  "c";\n}\n'
        graph, names = parse_graph(text)
        assert names == ("c", "d", "b", "a")
        assert graph == ConnectivityGraph(4, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("name", ["x--y", "a;b", 'say "hi"', "back\\slash", " two  spaces ", '\\"', "#", ""])
    def test_dot_name_survives_export(self, name):
        graph = ConnectivityGraph(3, [(0, 1)])
        names = (name, "x--y--z", "iso;")
        back, back_names = parse_graph(export_dot(graph, names))
        assert back_names == (names[2], names[0], names[1])
        assert named_edges(back, back_names) == named_edges(graph, names)

    @pytest.mark.parametrize(
        "body, message",
        [
            ('"a" -- "a";', 'self-loop at vertex "a"'),
            ('"a" -- "b" -- "c";', "expected '\"name\";' or '\"a\" -- \"b\";'"),
            ("a -- b;", "expected '\"name\";'"),
            ("a;", "expected '\"name\";'"),
            ('"a" -- b;', "expected '\"name\";'"),
            ('"a\\n";', "expected '\"name\";'"),
            ('"a"b";', "expected '\"name\";'"),
            ('"a";;', "expected '\"name\";'"),
            ("{", "expected '\"name\";'"),
            ("}", "expected '\"name\";'"),
        ],
    )
    def test_dot_rejects_other_lines_with_their_number(self, body, message):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse_graph(f'graph {{\n  "x" -- "y";\n\n  {body}\n}}\n')
        assert exc.value.line == 4
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ('graph G {\n"a";\n}\n', 1, "expected the header 'graph {'"),
            ('graph {\n"a";\n', 2, "expected '}' as the last line"),
            ('graph {\n"a";\n}\n"b";\n\n', 4, "expected '}' as the last line"),
            ("graph {\n}\n\n", 3, "DOT graph declares no vertices"),
            ("# nothing\n\n\n", 3, "no edges; cannot infer the vertex count"),
            ("", 1, "no edges; cannot infer the vertex count"),
        ],
    )
    def test_file_level_errors_carry_a_line(self, text, line, message):
        for data in (text, text.encode()):
            with pytest.raises(ProfileSyntaxError) as exc:
                parse_graph(data)
            assert exc.value.line == line
            assert message in str(exc.value)

    @given(graphs(max_m=8), st.lists(DOT_NAMES, min_size=8, max_size=8, unique=True))
    def test_dot_round_trip(self, graph, pool):
        names = tuple(pool[: graph.m])
        back, back_names = parse_graph(export_dot(graph, names).encode())
        assert sorted(back_names) == sorted(names)
        assert named_edges(back, back_names) == named_edges(graph, names)


@given(st.text(max_size=200))
def test_native_parser_total_on_text(text):
    try:
        parse_native(text)
    except LinkDomainError as exc:
        assert isinstance(exc, (ProfileError, InvalidElection))


@given(st.binary(max_size=200))
def test_both_parsers_total_on_bytes(data):
    for parser in (parse_native, parse_preflib_soc):
        try:
            parser(data)
        except LinkDomainError as exc:
            assert isinstance(exc, (ProfileError, InvalidElection))


BIG = "9" * 4301  # one digit more than int() converts
NATIVE_HEAD = "candidates: a, b\n1: a > b\n"
SOC_HEAD = "# NUMBER ALTERNATIVES: 2\n1: 1,2\n"


def test_errors_carry_line_numbers():
    cases = [
        ("native", "candidates: a, b\nbroken\n", "expected '<count>: <ranking>'", 2, 1),
        ("native", "candidates: a,,b\n", "empty candidate name in header", 1, None),
        ("soc", "# NUMBER ALTERNATIVES: 2\nbroken\n", "expected '<count>: <id>,<id>,...'", 2, 1),
        ("soc", "# NUMBER ALTERNATIVES: x\n", "NUMBER ALTERNATIVES is not an integer: 'x'", 1, None),
        # count fields: native points at the count, soc always at column 1
        ("native", f"{NATIVE_HEAD}  {BIG}: b > a\n", "multiplicity has more than 4300 digits", 3, 3),
        ("native", f"{NATIVE_HEAD}0: b > a\n", "multiplicity must be a positive integer, got '0'", 3, 1),
        ("native", f"{NATIVE_HEAD} \t 00: b > a\n", "multiplicity must be a positive integer, got '00'", 3, 4),
        ("soc", f"{SOC_HEAD}  {BIG}: 2,1\n", "vote count has more than 4300 digits", 3, 1),
        ("soc", f"{SOC_HEAD}0: 2,1\n", "vote count must be a positive integer, got '0'", 3, 1),
        ("soc", f"{SOC_HEAD} \t 00: 2,1\n", "vote count must be a positive integer, got '00'", 3, 1),
    ]
    for fmt, text, message, line, column in cases:
        parse = {"native": parse_native, "soc": parse_preflib_soc}[fmt]
        # the whole-text parser, then the streamed reader behind `check`
        for read in (lambda: parse(text), lambda: scan_profile(io.BytesIO(text.encode()), fmt)):
            with pytest.raises(ProfileSyntaxError) as exc:
                read()
            assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column), text[:40]


def test_scan_profile_refuses_other_formats():
    with pytest.raises(ValueError, match="unknown profile format 'csv': expected 'native' or 'soc'"):
        scan_profile(io.BytesIO(b"# NUMBER ALTERNATIVES: 2\n1: 1,2\n"), "csv")
