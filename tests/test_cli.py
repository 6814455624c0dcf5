import json
import sys

import pytest

from linkdomain import (
    ConnectivityGraph,
    ProfileSyntaxError,
    export_dot,
    gen_edge_realizing,
    write_native,
)
from linkdomain import LinkDomainError, cli, graphio, parse_native, parse_preflib_soc, profiles
from linkdomain.cli import main
from linkdomain.oracle import DEFAULT_CAP
from test_parser_parity import CORPUS

K3_PROFILE = (
    "candidates: a, b, c\n"
    "1: a > b > c\n1: b > a > c\n1: a > c > b\n1: c > a > b\n1: b > c > a\n1: c > b > a\n"
)
SINGLE_EDGE_PROFILE = "candidates: a, b, c\n1: a > b > c\n1: b > a > c\n"
SOC_PROFILE = "# NUMBER ALTERNATIVES: 2\n1: 1,2\n1: 2,1\n"


@pytest.fixture
def k3_path(tmp_path):
    path = tmp_path / "k3.profile"
    path.write_text(K3_PROFILE)
    return str(path)


@pytest.fixture
def one_path(tmp_path):
    path = tmp_path / "one.profile"
    path.write_text("candidates: a\n3: a\n")
    return str(path)


@pytest.fixture
def path_profile(tmp_path):
    path = tmp_path / "edge.profile"
    path.write_text(SINGLE_EDGE_PROFILE)
    return str(path)


class TestCheck:
    def test_linked_report(self, k3_path, capsys):
        assert main(["check", k3_path]) == 0
        out = capsys.readouterr().out
        assert "LINKED" in out
        assert "witness:    a > b > c" in out

    def test_not_linked_exit_code(self, path_profile, capsys):
        assert main(["check", path_profile]) == 1
        out = capsys.readouterr().out
        assert "NOT LINKED" in out
        assert "seeds tried: 1" in out

    @pytest.mark.usefixtures("seed_lists_refused_after_sweep")
    def test_not_linked_report_leaves_the_seed_lists_unread(self, path_profile, capsys):
        # "seeds tried" and "max stuck set size" come from the sizes the
        # sweep wrote, without reading the graph's seed lists.
        assert main(["check", path_profile]) == 1
        out = capsys.readouterr().out
        assert "seeds tried: 1\n" in out
        assert "max stuck set size: 2 of 3\n" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile"
        bad.write_text("1: a > b\n")
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_report_linked(self, k3_path, capsys):
        assert main(["check", k3_path, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        report = json.loads(out)
        assert list(report) == [
            "input", "mode", "m", "n", "edges", "verdict", "witness", "elapsed_ms",
        ]
        assert report["verdict"] == "linked"
        assert report["witness"] == ["a", "b", "c"]
        assert report["m"] == 3 and report["n"] == 6 and report["edges"] == 3

    def test_json_report_not_linked(self, path_profile, capsys):
        assert main(["check", path_profile, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not-linked"
        assert report["witness"] is None

    def test_weak_mode_flag(self, tmp_path, capsys):
        profile = tmp_path / "cycle.profile"
        profile.write_text("candidates: a, b, c\n1: a > b > c\n1: b > c > a\n1: c > a > b\n")
        assert main(["check", str(profile), "--mode", "strong"]) == 1
        assert main(["check", str(profile), "--mode", "weak"]) == 0
        assert "mode:       weak" in capsys.readouterr().out

    def test_graph_out(self, k3_path, tmp_path, capsys):
        dot_path = tmp_path / "graph.dot"
        assert main(["check", k3_path, "--graph-out", str(dot_path)]) == 0
        capsys.readouterr()
        expected = export_dot(
            ConnectivityGraph(3, [(0, 1), (0, 2), (1, 2)]), ("a", "b", "c")
        )
        assert dot_path.read_text() == expected

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--mode", "weak", "--witness"]])
    def test_report_leaves_the_edge_tuple_unbuilt(self, k3_path, path_profile, capsys, monkeypatch, flags):
        # The edge count comes from the stored adjacency; only --graph-out
        # reads `edges` (test_graph_out pins its DOT).
        def refuse(graph):
            raise AssertionError("built the edge tuple")

        monkeypatch.setattr(ConnectivityGraph, "edges", property(refuse))
        for path, code, edges in ((k3_path, 0, 3), (path_profile, 1, 1)):
            assert main(["check", path, *flags]) == code
            out = capsys.readouterr().out
            assert (f'"edges": {edges},' if "--json" in flags else f"edges:      {edges}\n") in out

    def test_witness_verification_flag(self, k3_path, capsys):
        assert main(["check", k3_path, "--witness"]) == 0
        assert "witness check: valid" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--witness"], ["--json"]])
    def test_invalid_witness_is_an_error_not_a_verdict(self, k3_path, capsys, monkeypatch, flags):
        # The package re-exports the function recognize, so the module is
        # reached through sys.modules.
        monkeypatch.setattr(sys.modules["linkdomain.recognize"], "verify_witness", lambda g, w: False)
        assert main(["check", k3_path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "invalid witness" in captured.err

    def test_soc_format(self, tmp_path, capsys):
        path = tmp_path / "p.soc"
        path.write_text(SOC_PROFILE)
        assert main(["check", str(path), "--format", "soc"]) == 0
        assert "LINKED" in capsys.readouterr().out

    def test_single_candidate_profile(self, one_path, capsys):
        assert main(["check", one_path, "--witness"]) == 0
        out = capsys.readouterr().out
        assert "witness:    a\nwitness check: valid\n" in out

    def test_single_candidate_json_and_dot(self, one_path, tmp_path, capsys):
        dot_path = tmp_path / "one.dot"
        assert main(["check", one_path, "--json", "--graph-out", str(dot_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["edges"] == 0 and report["witness"] == ["a"]
        assert dot_path.read_text() == 'graph {\n  "a";\n}\n'

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_vote_total_beyond_str_limit(self, tmp_path, capsys, flags):
        # Two lines of 4300 nines parse, but their sum has 4301 digits: more
        # than Python converts to text by default. Nothing may be written.
        path = tmp_path / "huge.profile"
        path.write_text("candidates: a, b\n" + ("9" * 4300 + ": a > b\n") * 2)
        dot_path = tmp_path / "huge.dot"
        assert main(["check", str(path), "--graph-out", str(dot_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: vote total has more than 4300 digits" in captured.err
        assert not dot_path.exists()


class TestGen:
    def test_ic_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.profile"
        out2 = tmp_path / "b.profile"
        argv = ["gen", "--model", "ic", "--candidates", "5", "--votes", "20", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().count("\n") == 21  # header + 20 votes

    def test_ic_zero_candidates(self, capsys):
        assert main(["gen", "--model", "ic", "--candidates", "0", "--votes", "1"]) == 2

    def test_ic_missing_flags(self, capsys):
        assert main(["gen", "--model", "ic", "--candidates", "3"]) == 2

    def test_ic_negative_votes(self, capsys):
        assert main(["gen", "--model", "ic", "--candidates", "3", "--votes", "-1"]) == 2
        assert capsys.readouterr().err == "error: --votes must be non-negative\n"

    def test_edges_from_edge_list(self, tmp_path, capsys):
        graph_file = tmp_path / "k2.edges"
        graph_file.write_text("0 1\n")
        assert main(["gen", "--model", "edges", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        expected = write_native(gen_edge_realizing(ConnectivityGraph(2, [(0, 1)])))
        assert out == expected

    def test_edges_from_dot_keeps_names(self, tmp_path, capsys):
        graph_file = tmp_path / "g.dot"
        graph_file.write_text('graph {\n  "left" -- "right";\n}\n')
        assert main(["gen", "--model", "edges", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "candidates: left, right"

    def test_edges_requires_graph(self, capsys):
        assert main(["gen", "--model", "edges"]) == 2

    def test_gen_check_pipeline(self, tmp_path, capsys):
        graph_file = tmp_path / "k3.edges"
        graph_file.write_text("0 1\n0 2\n1 2\n")
        profile = tmp_path / "k3.profile"
        assert main(["gen", "--model", "edges", "--graph", str(graph_file), "--out", str(profile)]) == 0
        assert main(["check", str(profile)]) == 0


class TestOracle:
    def test_agree_linked(self, k3_path, capsys):
        assert main(["oracle", k3_path]) == 0
        assert capsys.readouterr().out.strip() == "AGREE: linked"

    def test_agree_not_linked(self, path_profile, capsys):
        assert main(["oracle", path_profile]) == 0
        assert capsys.readouterr().out.strip() == "AGREE: not linked"

    def test_agree_single_candidate(self, one_path, capsys):
        assert main(["oracle", one_path]) == 0
        assert capsys.readouterr().out.strip() == "AGREE: linked"

    @pytest.mark.parametrize("fixture, says", [("k3_path", False), ("path_profile", True)])
    def test_disagreement_exits_3(self, request, monkeypatch, capsys, fixture, says):
        from linkdomain import oracle

        monkeypatch.setattr(oracle, "brute_force_linked", lambda graph, cap: (says, None))
        assert main(["oracle", request.getfixturevalue(fixture)]) == 3
        verdicts = ("not-linked", "linked") if says else ("linked", "not-linked")
        want = "DISAGREEMENT: recognize says {}, brute force says {}\n".format(*verdicts)
        assert capsys.readouterr().out == want

    def test_cap_exceeded(self, tmp_path, capsys):
        profile = tmp_path / "big.profile"
        assert main(["gen", "--model", "ic", "--candidates", "20", "--votes", "3",
                     "--out", str(profile)]) == 0
        assert main(["oracle", str(profile)]) == 2

    def test_soc_format(self, tmp_path, capsys):
        path = tmp_path / "p.soc"
        path.write_text(SOC_PROFILE)
        assert main(["oracle", str(path), "--format", "soc"]) == 0

    @pytest.mark.parametrize("fmt, head", [
        ("native", "candidates: " + ", ".join(f"c{i}" for i in range(19)) + "\n"),
        ("soc", "# NUMBER ALTERNATIVES: 19\n"),
    ])
    def test_cap_refuses_at_the_header(self, tmp_path, monkeypatch, capsys, fmt, head):
        """The cap error comes as soon as the header gives m: the malformed
        line after it is never checked, nor the invalid UTF-8 after that read."""
        monkeypatch.setattr(profiles, "_CHUNK_BYTES", 16)
        path = tmp_path / "p"
        path.write_bytes(head.encode() + b"no colon here\n" + b"\xff" * 64 + b"\n")
        assert main(["oracle", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == "error: profile has 19 candidates, oracle capped at 18\n"

    def test_cap_defaults_to_the_oracle_cap(self, tmp_path, capsys):
        from linkdomain.oracle import DEFAULT_CAP

        path = tmp_path / "p.soc"
        path.write_text(f"# NUMBER ALTERNATIVES: {DEFAULT_CAP + 1}\n")
        assert main(["oracle", str(path), "--format", "soc"]) == 2
        want = f"error: profile has {DEFAULT_CAP + 1} candidates, oracle capped at {DEFAULT_CAP}\n"
        assert capsys.readouterr().err == want

    def test_streams_the_profile_as_check_does(self, k3_path, tmp_path, monkeypatch, capsys):
        def whole_read(data):
            raise AssertionError("oracle read the whole profile into an Election")

        monkeypatch.setattr(cli, "parse_native", whole_read)
        monkeypatch.setattr(cli, "parse_preflib_soc", whole_read)
        soc = tmp_path / "p.soc"
        soc.write_text(SOC_PROFILE)
        assert main(["oracle", k3_path]) == 0
        assert main(["oracle", str(soc), "--format", "soc"]) == 0
        assert capsys.readouterr().out.splitlines() == ["AGREE: linked", "AGREE: linked"]


class TestCheckAndOracleReadAlike:
    """check and oracle read a profile through one path: the same error for
    the same file, and oracle's verdict is check's."""

    PARSE = {"native": parse_native, "soc": parse_preflib_soc}

    @pytest.mark.parametrize("fmt, data", [
        ("native", b"candidates: a, b\nx: a > b\n"),
        ("soc", b"# NUMBER ALTERNATIVES: 2\nx: 1,2\n"),
        ("native", b"candidates: a, b\n1: a > x\n2: b > a\n"),
        # the data line read alternative 1's default name, "1", so the
        # later declaration is refused at its line
        ("soc", b"# NUMBER ALTERNATIVES: 2\n1: 1,2\n# ALTERNATIVE NAME 1: x\n1: 2,1\n"),
        # the malformed line is in an earlier chunk than the invalid UTF-8,
        # which is reported all the same
        ("native", b"candidates: a, b\n1 a > b\n" + b"\xff" * 64 + b"\n"),
        ("soc", b"# NUMBER ALTERNATIVES: 2\n1 2\n" + b"\xff" * 64 + b"\n"),
    ])
    def test_the_same_error(self, tmp_path, monkeypatch, capsys, fmt, data):
        monkeypatch.setattr(profiles, "_CHUNK_BYTES", 16)
        path = tmp_path / "p"
        path.write_bytes(data)
        with pytest.raises(LinkDomainError) as parsed:
            self.PARSE[fmt](data)
        for command in ("check", "oracle"):
            assert main([command, str(path), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {parsed.value}\n"), command

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("fmt, text", CORPUS)
    def test_oracle_agrees_with_check_on_the_corpus(self, tmp_path, capsys, mode, fmt, text):
        path = tmp_path / "p"
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path), "--mode", mode, "--format", fmt, "--json"])
        checked = capsys.readouterr()
        if code != 2:
            assert json.loads(checked.out)["m"] <= DEFAULT_CAP
        oracle_code = main(["oracle", str(path), "--mode", mode, "--format", fmt])
        captured = capsys.readouterr()
        if code == 2:
            assert (oracle_code, captured.out, captured.err) == (2, "", checked.err)
        else:
            assert oracle_code == 0
            assert captured.out == ("AGREE: linked\n" if code == 0 else "AGREE: not linked\n")


class TestGraphFile:
    @pytest.fixture(autouse=True)
    def no_large_graph(self, monkeypatch):
        """A graph of more than a few vertices here means an id got past the
        bound: fail before its adjacency lists are allocated."""
        real = graphio.ConnectivityGraph

        def guarded(m, edges, *args):
            assert m <= 10, f"reader built a graph on {m} vertices"
            return real(m, edges, *args)

        monkeypatch.setattr(graphio, "ConnectivityGraph", guarded)

    def read(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        return graphio.parse_graph(path.read_bytes())

    def test_comments_blank_lines_and_leading_zeros(self, tmp_path):
        graph, names = self.read(tmp_path, "# a path\n\n0 1\n  1\t002  \n")
        assert graph == ConnectivityGraph(3, [(0, 1), (1, 2)])
        assert names == ("a", "b", "c")

    @pytest.mark.parametrize(
        "line",
        ["0 99999999999", "1000000 0", "0 " + "9" * 5000, "0 " + "0" * 5000 + "1000000"],
    )
    def test_oversized_id_is_rejected_with_its_line(self, tmp_path, line):
        with pytest.raises(ProfileSyntaxError) as exc:
            self.read(tmp_path, f"# header\n0 1\n{line}\n")
        assert exc.value.line == 3
        assert "beyond the supported 1000000 vertices" in str(exc.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1 2", "expected a 'u v' edge line"),
            ("0", "expected a 'u v' edge line"),
            ("0 x", "expected a 'u v' edge line"),
            ("-1 2", "expected a 'u v' edge line"),
            ("0 \u0661", "expected a 'u v' edge line"),
            ("0 \u00b2", "expected a 'u v' edge line"),
            ("2 2", "self-loop at vertex 2"),
        ],
    )
    def test_malformed_line_is_rejected_with_its_line(self, tmp_path, line, message):
        with pytest.raises(ProfileSyntaxError) as exc:
            self.read(tmp_path, f"0 1\n\n{line}\n1 2\n")
        assert exc.value.line == 3
        assert message in str(exc.value)

    def test_invalid_utf8_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"0 1\n# caf\xe9\n1 2\n")
        with pytest.raises(ProfileSyntaxError) as exc:
            graphio.parse_graph(path.read_bytes())
        assert exc.value.line == 2
        assert "invalid UTF-8" in str(exc.value)

    def test_gen_reports_the_line_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n0 99999999999\n")
        assert main(["gen", "--model", "edges", "--graph", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: vertex id 99999999999")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# only a comment\n\n", "error: line 2: no edges; cannot infer the vertex count"),
            ("graph {\n}\n", "error: line 2: DOT graph declares no vertices"),
            ('graph {\n  "a" -- "a";\n}\n', 'error: line 2: self-loop at vertex "a"'),
        ],
    )
    def test_gen_reports_empty_and_looped_graphs_with_their_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "g.dot"
        path.write_text(text)
        assert main(["gen", "--model", "edges", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_gen_reads_back_the_names_check_wrote(self, tmp_path, capsys):
        # "x--y" once read back as the two names '"x' and 'y" -- "b"'
        profile = tmp_path / "p.profile"
        profile.write_text('candidates: x--y, b, c "d\\\n1: x--y > b > c "d\\\n1: b > x--y > c "d\\\n')
        dot = tmp_path / "g.dot"
        assert main(["check", str(profile), "--graph-out", str(dot)]) == 1
        capsys.readouterr()
        assert main(["gen", "--model", "edges", "--graph", str(dot)]) == 0
        assert capsys.readouterr().out == (
            'candidates: c "d\\, x--y, b\n1: x--y > b > c "d\\\n1: b > x--y > c "d\\\n'
        )
