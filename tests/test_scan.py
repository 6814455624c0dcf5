"""scan_profile, the streamed reader behind `check`, against the whole-text
parsers: the same names, vote total and top pairs, or the same error, for
every chunk size down to one byte, and whether a list of lines goes through
the batch step or the line loop."""

import io
import os
import random
import re
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkdomain import (
    ConnectivityGraph,
    InconsistentMetadata,
    UnrepresentableName,
    UnsupportedProfile,
    export_dot,
    gen_edge_realizing,
    parse_native,
    parse_preflib_soc,
    profiles,
    scan_profile,
    write_native,
)
from linkdomain.cli import main
from test_parser_parity import CORPUS, NATIVE_POOL, SOC_POOL, mutated, native_tokens, outcome, soc_tokens

PARSE = {"native": parse_native, "soc": parse_preflib_soc}


def expected(fmt, data):
    def summary():
        e = PARSE[fmt](data)
        return e.names, e.n, e.top_pairs

    return outcome(summary)


def scanned(fmt, data, file=None):
    def summary():
        s = scan_profile(file or io.BytesIO(data), fmt)
        return s.names, s.n, s.top_pairs

    return outcome(summary)


def assert_scan_matches(monkeypatch, fmt, data, chunk_sizes=range(1, 8)):
    want = expected(fmt, data)
    for size in chunk_sizes:
        monkeypatch.setattr(profiles, "_CHUNK_BYTES", size)
        assert scanned(fmt, data) == want, f"chunk size {size}"


@pytest.mark.parametrize("fmt, text", CORPUS)
def test_corpus_matches_parsers_at_every_chunk_size(monkeypatch, fmt, text):
    assert_scan_matches(monkeypatch, fmt, text.encode("utf-8"))


@given(mutated(native_tokens(), NATIVE_POOL), st.integers(1, 7))
def test_native_matches_parser_on_mutated_profiles(text, size):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_scan_matches(monkeypatch, "native", text.encode("utf-8"), [size])


@given(mutated(soc_tokens(), SOC_POOL), st.integers(1, 7))
def test_soc_matches_parser_on_mutated_profiles(text, size):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_scan_matches(monkeypatch, "soc", text.encode("utf-8"), [size])


BOUNDARIES = [
    # a line ending or space that a chunk boundary can split
    ("native", b"candidates: a, b\r\n1: a > b\r\n\r\n2: b > a\r\n1 a > b\r\n"),
    ("native", b"candidates: a, b\x0c1: a > b\x0c\x0c1 a > b\n"),
    ("native", b"candidates: a, b\n1: a > b\n1 : b  >  a\n 3 :a>b\n1 a\n"),
    ("soc", b"# NUMBER ALTERNATIVES: 2\r\n1: 1,2\r\n\r\n1: 2 , 1\r\n1 2\r\n"),
    # multi-byte characters, split at every byte
    ("native", "candidates: é, €, 𝄞\n1: é > € > 𝄞\n2: € > é > 𝄞\n1: 𝄞 > x\n".encode("utf-8")),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: €𝄞\n1: 1,2\n١: 2,1\n".encode("utf-8")),
    # invalid UTF-8 in a later chunk, also after a line that fails to parse
    ("native", b"candidates: a, b\n1: a > b\n1: b > a\n1: a > \xff b\n"),
    ("native", b"candidates: a, b\n1 a > b\n1: b > a\n\xe2\x82\n"),
    ("native", b"1: a > b\n\n\n\xe2A"),
    ("soc", b"# NUMBER ALTERNATIVES: 2\n1: 1,3\n1: 2,1\n\xf0\x90\x80"),
    # a file whose only line breaks are one of the rarer kinds
    ("native", b"candidates: a, b\v1: a > b\v\v2: b > a\v1 a > b\v"),
    ("soc", b"# NUMBER ALTERNATIVES: 2\x1e1: 1,2\x1e\x1e1: 2,1\x1e1 2"),
    ("native", "candidates: é, b\x851: é > b\x85\x852: b > é\x851 é > b\x85".encode("utf-8")),
    ("soc", "# NUMBER ALTERNATIVES: 2\u20281: 1,2\u2028\u20281: 2,1\u20281 2\u2028".encode("utf-8")),
    # a '\r' that ends a 4-byte chunk, and the '\n' that starts the next,
    # are one line break: the error is on line 6, not 7
    ("native", b"#\r#\r\ncandidates: a, b\r1: a > b\r\n\r\n1 a > b\r"),
    # invalid UTF-8 right after a U+2028 break, and right before one
    ("native", "candidates: a, b\u20281: a > b\u2028".encode("utf-8") + b"\xff" + "\u20281: b > a\n".encode("utf-8")),
    ("native", "candidates: a, b\u2028".encode("utf-8") + b"1: a > b\xe2" + "\u2028\n".encode("utf-8")),
    # no trailing newline, and an empty file
    ("native", b"candidates: a, b\n1: a > b\n2: b > a"),
    ("soc", b"# NUMBER ALTERNATIVES: 2\n1: 1,2"),
    ("native", b""),
    ("soc", b""),
    ("native", b"\n\n\r"),
]


@pytest.mark.parametrize("fmt, data", BOUNDARIES)
def test_chunk_boundaries(monkeypatch, fmt, data):
    assert_scan_matches(monkeypatch, fmt, data, range(1, 8))


def test_invalid_utf8_in_a_later_chunk_keeps_its_line(monkeypatch):
    monkeypatch.setattr(profiles, "_CHUNK_BYTES", 4)
    data = b"candidates: a, b\n" + b"1: a > b\n" * 20 + b"1 a > b\n" + b"1: \xff\n"
    with pytest.raises(profiles.ProfileSyntaxError) as info:
        scan_profile(io.BytesIO(data), "native")
    assert str(info.value) == "line 23: invalid UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "fmt, data, summary",
    [
        ("soc", b"# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: 2\n# ALTERNATIVE NAME 2: 1\n1: 2,1\n",
         (("2", "1"), 1, {(1, 0)})),
        ("native", b"candidates: a, b\n2: b > a\n", (("a", "b"), 2, {(1, 0)})),
    ],
)
def test_a_pipe_is_read(fmt, data, summary):
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        assert not pipe.seekable()
        assert scanned(fmt, data, pipe) == expected(fmt, data) == ("ok", summary)


# Chunks of 64 bytes and 4 KiB give lists of a few and of a few hundred
# lines; the default gives lists of _BATCH_LINES lines.
BATCH_CHUNKS = [64, 4096, profiles._CHUNK_BYTES]


def _write_and_close(fd: int, data: bytes) -> None:
    with open(fd, "wb") as pipe:
        pipe.write(data)


def assert_soc_refused_at(monkeypatch, tmp_path, data: bytes, line: int, message: str) -> None:
    """parse_preflib_soc, and scan_profile at every BATCH_CHUNKS size from a
    file and from an os.pipe(), refuse the soc data with the same
    InconsistentMetadata at the same line."""
    want = (InconsistentMetadata, f"line {line}: {message}", line, None, [])
    assert outcome(parse_preflib_soc, data) == want
    path = tmp_path / "refused.soc"
    path.write_bytes(data)
    for size in BATCH_CHUNKS:
        monkeypatch.setattr(profiles, "_CHUNK_BYTES", size)
        with open(path, "rb") as file:
            assert outcome(scan_profile, file, "soc") == want, f"file, chunk size {size}"
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=_write_and_close, args=(write_end, data))
        writer.start()
        with open(read_end, "rb") as pipe:
            assert outcome(scan_profile, pipe, "soc") == want, f"pipe, chunk size {size}"
        writer.join(timeout=60)
        assert not writer.is_alive()


def _clean(fmt: str, m: int, lines: int, seed: int) -> tuple[list[str], list[str]]:
    """The head lines and the ranking lines of a valid profile over m candidates."""
    rng = random.Random(seed)
    return _written(fmt, m, [(rng.sample(range(m), m), rng.choice((1, 1, 2, 3))) for _ in range(lines)])


def _written(fmt: str, m: int, votes: list[tuple[list[int], int]]) -> tuple[list[str], list[str]]:
    """The head lines and the ranking lines of these (order, count) votes."""
    names = "abcd"[:m] if m <= 4 else [f"c{i}" for i in range(m)]
    if fmt == "native":
        head = ["candidates: " + ", ".join(names) + "\n"]
        body = [f"{mult}: " + " > ".join(names[c] for c in order) + "\n" for order, mult in votes]
    else:
        head = [f"# NUMBER ALTERNATIVES: {m}\n", f"# NUMBER VOTERS: {sum(mult for _, mult in votes)}\n"]
        head += [f"# ALTERNATIVE NAME {i + 1}: {name}\n" for i, name in enumerate(names)]
        body = [f"{mult}: " + ",".join(str(c + 1) for c in order) + "\n" for order, mult in votes]
    return head, body


@st.composite
def spliced(draw, fmt, pool):
    """A clean profile of 3,000 ranking lines with one of them mutated."""
    head, body = _clean(fmt, draw(st.integers(1, 4)), 3000, draw(st.integers(0, 2**16)))
    at = draw(st.integers(0, len(body) - 1))
    tokens = [t for t in re.split(r"(: | > |,|\n)", body[at]) if t]
    body[at] = draw(mutated(st.just(tokens), pool))
    return "".join(head + body).encode("utf-8")


@settings(max_examples=50)
@given(spliced("native", NATIVE_POOL))
def test_native_matches_parser_with_one_spliced_line(data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_scan_matches(monkeypatch, "native", data, BATCH_CHUNKS)


@settings(max_examples=50)
@given(spliced("soc", SOC_POOL))
def test_soc_matches_parser_with_one_spliced_line(data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_scan_matches(monkeypatch, "soc", data, BATCH_CHUNKS)


def _line_loop_spy(monkeypatch, fmt):
    """(reader, lines read before, list length) for each list the line loop reads."""
    reader = profiles._NativeReader if fmt == "native" else profiles._SocReader
    seen = []
    lines = reader.lines

    def spy(self, batch):
        seen.append((self, self.line_no, len(batch)))
        return lines(self, batch)

    monkeypatch.setattr(reader, "lines", spy)
    return seen


@pytest.mark.parametrize("fmt", ["native", "soc"])
@pytest.mark.parametrize("m", [2, 20, profiles._BATCH_MAX_M, profiles._BATCH_MAX_M + 1])
@pytest.mark.parametrize("weighted", [False, True])
def test_batch_step_takes_every_list_after_the_first(monkeypatch, fmt, m, weighted):
    head, body = _clean(fmt, m, 2000, 0)
    if weighted:  # no count twice, so the count cache never hits
        body = [f"{k + 7}:{line.partition(':')[2]}" for k, line in enumerate(body)]
        head = [line for line in head if "VOTERS" not in line]
    data = "".join(head + body).encode()
    want = expected(fmt, data)
    seen = _line_loop_spy(monkeypatch, fmt)
    assert scanned(fmt, data) == want
    if m <= profiles._BATCH_MAX_M:
        assert [entry[1] for entry in seen] == [0]  # the first list, which holds the header
    else:
        assert sum(size for _, _, size in seen) == len(head) + len(body)


def test_names_with_colons_scan_as_parsed():
    """A ranking line over names that hold ':' holds more than one ':', so
    its list goes to the line loop, which splits it at its first ':'."""
    rng = random.Random(5)
    names = ["a:b", "c d", "e", "f::g"]
    body = [f"{rng.choice((1, 2, 13))}: " + " > ".join(rng.sample(names, 4)) + "\n" for _ in range(2000)]
    data = ("candidates: " + ", ".join(names) + "\n" + "".join(body)).encode()
    want = expected("native", data)
    assert want[0] == "ok"
    assert scanned("native", data) == want


@pytest.mark.parametrize("tail", ["# ALTERNATIVE NAME 1: z\n", "# NUMBER VOTERS: 1\n"])
def test_soc_state_carries_across_accepted_lists(monkeypatch, tmp_path, tail):
    head, body = _clean("soc", 3, 3000, 1)
    head = [line for line in head if "VOTERS" not in line and "NAME 1:" not in line]
    data = "".join(head + body[:2500] + [tail] + body[2500:]).encode()
    want = expected("soc", data)
    seen = _line_loop_spy(monkeypatch, "soc")
    assert scanned("soc", data) == want
    assert sum(size for _, _, size in seen) < 3000  # the batch step read the lists between
    total = sum(int(line.partition(":")[0]) for line in body)
    line, message = {
        # the 2,500 data lines before it read 1 as alternative 1's name
        "# ALTERNATIVE NAME 1: z\n": (len(head) + 2501, "ALTERNATIVE NAME 1 declared after a data line"),
        "# NUMBER VOTERS: 1\n": (len(head) + 3001, f"NUMBER VOTERS is 1 but data lines sum to {total}"),
    }[tail]
    assert want[1] == f"line {line}: {message}"
    if "NAME" in tail:
        assert_soc_refused_at(monkeypatch, tmp_path, data, line, message)


SOC_3 = "# NUMBER ALTERNATIVES: 3\n", "1: 1,2,3\n2: 2,3,1\n1: 3,1,2\n"


@pytest.mark.parametrize("name", ["# ALTERNATIVE NAME 1: 1\n", "# ALTERNATIVE NAME 03:  3\n"])
def test_a_late_name_equal_to_the_default_is_not_read_again(name):
    """Every data line before it read that name already, so the file reads
    as with the name first."""
    head, body = SOC_3
    first, late = (head + name + body).encode(), (head + body + name).encode()
    want = expected("soc", first), scanned("soc", first)
    assert want[0][0] == "ok"
    assert (expected("soc", late), scanned("soc", late)) == want


@pytest.mark.parametrize(
    "data, line",
    [
        ((SOC_3[0] + SOC_3[1] + "# ALTERNATIVE NAME 1: 2\n# ALTERNATIVE NAME 2: 1\n").encode(), 5),
        (b"# NUMBER ALTERNATIVES: 2\n1: 1,2\n# ALTERNATIVE NAME 1: 2\n# ALTERNATIVE NAME 2: 1\n", 3),
    ],
    ids=["m3", "m2"],
)
def test_a_late_swap_of_names_is_refused(monkeypatch, tmp_path, data, line):
    """The data lines read alternative 1 by the name "1", so a later line
    may not rename it, though the same names before the data are valid."""
    assert_soc_refused_at(monkeypatch, tmp_path, data, line, "ALTERNATIVE NAME 1 declared after a data line")


def _around(head: str, clean: list[str], edge: str) -> bytes:
    """edge after 1,500 clean lines and before 500 more, so a list of
    _BATCH_LINES lines past the header holds it."""
    lines = [clean[i % len(clean)] for i in range(2000)]
    return "\n".join([head, *lines[:1500], edge, *lines[1500:]]).encode("utf-8") + b"\n"


NAMES_12 = ("candidates: 1, 2", ["1: 1 > 2", "2: 2 > 1"])
SPACED = ("candidates: a:b, c d, e", ["1: a:b > c d > e", "1: e > c d > a:b"])
C01 = ("candidates: c0, c1", ["1: c0 > c1", "3: c1 > c0"])
SOC5 = ("# NUMBER ALTERNATIVES: 5", ["1: 1,2,3,4,5", "2: 5,4,3,2,1"])
# names that hold, or are, a control character that breaks no line
NUL = ("candidates: a\x00b, c, \x00", ["1: a\x00b > c > \x00", "3: \x00 > c > a\x00b"])
EDGE_LINES = [
    ("native", *NAMES_12, "1: 2 > 1"),
    ("native", *NAMES_12, "1: 1 > 1"),
    ("native", *NAMES_12, "1: 2 > 12"),
    ("native", *SPACED, "2: c d > a:b > e"),
    ("native", *SPACED, "1: e > c > a:b"),
    ("native", *SPACED, "1: a:b > c d> e"),
    ("native", *C01, "1:c0 > c1"),
    ("native", *C01, "1:  c0 > c1"),
    ("native", *C01, "1: c0 >  c1"),
    ("native", *C01, "1: c0 > c1 "),
    ("native", *C01, "1: c0 > c1\t"),
    ("native", *C01, " 1: c0 > c1"),
    ("native", *C01, " "),
    ("native", *C01, "1: c0 > c1 > "),
    ("native", *C01, "0: c0 > c1"),
    ("native", *C01, "007: c1 > c0"),
    ("native", *C01, "١: c1 > c0"),
    ("native", *C01, "1 : c1 > c0"),
    ("native", *C01, "9" * 4301 + ": c1 > c0"),
    ("native", *C01, "1: c0\n1: c1 > c0 > c1"),  # two wrong token counts that sum right
    ("native", *C01, "1: c1 > c0 > c1\n1: c0"),
    ("native", *C01, "1:: c0 > c1"),
    ("native", *C01, ": c0 > c1"),
    ("native", *C01, "5\nc0 > c1:3: c1 > c0"),  # no ':' and two, whose fields pair up as count and text
    # two ':' next to none, either way round: 3k fields, with the markers out of place
    ("native", *C01, "1: c0 > c1:2\n c1 > c0"),
    ("native", *C01, "c1 > c0\n1:2: c0 > c1"),
    ("native", *C01, "1:2: c1 > c0\n3"),
    ("native", *C01, "1: c0 > c1:3:1: c1 > c0"),  # four ':': five fields, the markers in place
    ("native", *C01, "1: c0 > c1:"),
    ("native", *NUL, "2: c > a\x00b > \x00"),
    ("native", *NUL, "1: c\x00 > a\x00b > \x00"),
    ("native", *NUL, "1: c > a\x00b\n1: \x00 > c > a\x00b > \x00"),
    ("native", "candidates: a>b, c", ["1: a>b > c"], "1: c > a>b"),
    ("native", "candidates: a", ["1: a", "2: a"], "3: a"),
    ("native", "candidates: a", ["1: a", "2: a"], "1: a > a"),
    ("soc", *SOC5, "1: 1, 5,2,3,4"),
    ("soc", *SOC5, "1: 1,1,2,3,4"),
    ("soc", *SOC5, "1: {1,2},3,4,5"),
    ("soc", *SOC5, "1:1,2,3,4,5"),
    ("soc", *SOC5, "1:  1,2,3,4,5"),
    ("soc", *SOC5, "1: 1,2,3,4,5 "),
    ("soc", *SOC5, "1: 1,2,3,4,05"),
    ("soc", *SOC5, "1: 1,2,3,4\n1: 5,4,3,2,1,5"),
    ("soc", *SOC5, "1: 5,4,3,2,1,5\n1: 1,2,3,4"),
    ("soc", *SOC5, "1:: 1,2,3,4,5"),
    ("soc", *SOC5, ": 1,2,3,4,5"),
    ("soc", *SOC5, "5\n1,2,3,4,5:3: 5,4,3,2,1"),
    ("soc", *SOC5, "1: 1,2,3,4,5:2\n 5,4,3,2,1"),
    ("soc", *SOC5, "5,4,3,2,1\n1:2: 1,2,3,4,5"),
    ("soc", *SOC5, "1:2: 5,4,3,2,1\n3"),
    ("soc", *SOC5, "1: 1,2,3,4,5:3:1: 5,4,3,2,1"),
    ("soc", *SOC5, "00: 1,2,3,4,5"),
    ("soc", *SOC5, "12345678901234567890: 5,4,3,2,1"),
    ("soc", "# NUMBER ALTERNATIVES: 2", ["1: 1,2", "1: 2,1"], "1: 2, 1"),
    ("soc", "# NUMBER ALTERNATIVES: 2", ["1: 1,2", "1: 2,1"], "1: 2,2"),
    ("soc", "# NUMBER ALTERNATIVES: 2", ["1: 1,2", "1: 2,1"], "1: 2\n1: 1,2,1"),
    ("soc", "# NUMBER ALTERNATIVES: 1", ["1: 1", "2: 1"], "3: 1"),
    ("soc", "# NUMBER ALTERNATIVES: 1", ["1: 1", "2: 1"], "1: 1,1"),
]


@pytest.mark.parametrize("fmt, head, clean, edge", EDGE_LINES)
def test_edge_lines_past_the_header_match_parser(monkeypatch, fmt, head, clean, edge):
    assert_scan_matches(monkeypatch, fmt, _around(head, clean, edge), BATCH_CHUNKS)


def _readers(monkeypatch) -> list:
    """Every reader made from now on, in the order they are made."""
    readers = []
    init = profiles._Reader.__init__

    def kept(reader):
        readers.append(reader)
        init(reader)

    monkeypatch.setattr(profiles._Reader, "__init__", kept)
    return readers


class _Lookups(dict):
    """A ranking cache that counts its lookups."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def _text_caches(monkeypatch) -> list:
    """(reader, its batch text cache, counting its lookups) for every reader
    made from now on, in the order they are made. The cache is kept here
    after its reader drops it."""
    caches = []
    init = profiles._Reader.__init__

    def counted(reader):
        init(reader)
        reader.texts = _Lookups()
        caches.append((reader, reader.texts))

    monkeypatch.setattr(profiles._Reader, "__init__", counted)
    return caches


def _cached_texts(monkeypatch, lines: list[str]) -> tuple[bool, list[str]]:
    """Whether the reader that scanned the native profile of these lines,
    with caches limited to 100 and lists cut every _BATCH_LINES lines, kept
    its batch text cache, and the texts that cache took."""
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 100)
    monkeypatch.setattr(profiles, "_CHUNK_BYTES", 1 << 22)  # one list of lines, cut every _BATCH_LINES
    data = ("\n".join(lines) + "\n").encode()
    want = expected("native", data)
    caches = _text_caches(monkeypatch)
    assert scanned("native", data) == want
    ((reader, cache),) = caches
    return reader.texts is cache, list(cache)


def test_text_cache_stops_growing_at_its_limit(monkeypatch):
    monkeypatch.setattr(profiles, "_BATCH_LINES", 60)
    header, *rankings = _no_repeat_profile(1000).decode().splitlines()
    # The line loop reads the header and 59 rankings. The cache holds fewer
    # than 100 texts before each of the next two lists of 60, which all
    # miss, so it takes both; then the next list finds it holding 120,
    # misses it throughout, and drops it, since it never hit.
    kept, cached = _cached_texts(monkeypatch, [header, *rankings])
    assert not kept
    assert cached == [line.partition(":")[2] for line in rankings[59:179]]


def test_text_cache_past_its_limit_takes_the_misses_of_a_list_with_a_hit(monkeypatch):
    header, *rankings = _no_repeat_profile(4000).decode().splitlines()
    # The line loop reads the header and 999 rankings, and the cache takes
    # the next 1,000, which all miss. Past its limit, it takes the 999
    # misses of the next list, which has one hit in the middle, and none of
    # the 1,000 lines after that, which all miss (nor of the last line,
    # which scan_profile reads as a list of its own).
    hit_list = [*rankings[1999:2498], rankings[999], *rankings[2498:2998]]
    lines = [header, *rankings[:1999], *hit_list, *rankings[2998:3999]]
    cached = rankings[999:2998]
    assert _cached_texts(monkeypatch, lines) == (True, [line.partition(":")[2] for line in cached])


def test_ranking_cache_stops_growing_after_misses_in_a_row(monkeypatch):
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 2)
    readers = _readers(monkeypatch)
    calls = []
    resolve = profiles.resolve_ranking
    monkeypatch.setattr(profiles, "resolve_ranking", lambda *args: calls.append(args[0]) or resolve(*args))
    # spaced texts always go through resolve_ranking when they miss the cache
    texts = ["a>b>c", "b>a>c", "c>b>a", "a>b>c", "c>b>a", "c>b>a", "a>b>c"]
    e = parse_native("candidates: a, b, c\n" + "".join(f"1: {t}\n" for t in texts))
    # the third miss finds the cache full before any hit and drops it, so
    # every later line is resolved again, its repeats too
    assert [",".join(r) for r in calls] == [text.replace(">", ",") for text in texts]
    (reader,) = readers
    assert reader.known is None
    assert len(e.votes) == len(texts)


A, B, C, D, E, F, G, H = "abcd", "bacd", "cbad", "dcba", "acbd", "bdca", "cadb", "dabc"


@pytest.mark.parametrize(
    "texts, cached",
    [
        # The first list fills the cache with a and b, then misses it on c
        # before any hit, which drops it: no later line is looked up.
        ([A, B, C, A, D, E, F, G, A, H], None),
        # The first list hits a before it fills the cache with a and b, so
        # the cache is kept. The second misses it on c and d, then hits a,
        # so it takes only e, the miss after its hit; the third takes only h.
        ([A, A, B, C, D, A, E, F, A, H], [A, B, E, H]),
    ],
    ids=["never_hit", "hit_first"],
)
def test_full_ranking_cache_takes_misses_only_after_a_hit_in_their_list(monkeypatch, texts, cached):
    # The parser reads lists of 4 lines, the header first.
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 2)
    monkeypatch.setattr(profiles, "_BATCH_LINES", 4)
    readers = _readers(monkeypatch)
    parsed = parse_native("candidates: a, b, c, d\n" + "".join(f"1: {'>'.join(t)}\n" for t in texts))
    (reader,) = readers
    if cached is None:
        assert reader.known is None
    else:
        assert [text.replace(">", "").strip() for text in reader.known] == cached
    assert len(parsed.votes) == len(texts)


@pytest.mark.parametrize(
    "parse, head, ranking",
    [(parse_native, "candidates: a\n", "a"), (parse_preflib_soc, "# NUMBER ALTERNATIVES: 1\n", "1")],
)
def test_count_cache_holds_at_most_its_limit(monkeypatch, parse, head, ranking):
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 100)
    readers = _readers(monkeypatch)
    # No count field repeats but one: its hit, past the limit, lets no
    # later field in.
    counts = [*range(1, 201), 1, *range(201, 301)]
    e = parse(head + "".join(f"{count}: {ranking}\n" for count in counts))
    (reader,) = readers
    assert list(reader.counts) == [str(count) for count in range(1, 101)]
    assert e.n == sum(counts)


def _no_repeat_votes(lines: int) -> list[tuple[list[int], int]]:
    """lines distinct orders of 12 candidates, each with count 1."""
    votes = []
    for k in range(lines):
        order, digits = list(range(12)), k
        for i in range(11, 0, -1):  # k's digits in the factorial base, as swaps
            digits, j = divmod(digits, i + 1)
            order[i], order[j] = order[j], order[i]
        votes.append((order, 1))
    return votes


def _no_repeat_profile(lines: int) -> bytes:
    """lines distinct rankings of 12 candidates, no ranking text twice."""
    head, body = _written("native", 12, _no_repeat_votes(lines))
    return "".join(head + body).encode()


def _cache_profile(fmt: str, kind: str) -> bytes:
    """A valid profile of 3,000 ranking lines whose texts or counts repeat
    or not, as kind says."""
    rng = random.Random(20)
    if kind == "repeating_m4":  # 24 orders
        votes = [(rng.sample(range(4), 4), rng.choice((1, 2, 3))) for _ in range(3000)]
    elif kind == "repeating_m8":  # 300 draws of 298 orders, each about 10 times
        pool = [rng.sample(range(8), 8) for _ in range(300)]
        votes = [(rng.choice(pool), rng.choice((1, 2, 3))) for _ in range(3000)]
    elif kind == "never_repeating":
        votes = _no_repeat_votes(3000)
    elif kind == "late_repeating":  # 2,000 orders, then the first 1,000 again: caches fill before a hit
        votes = _no_repeat_votes(2000)
        votes += votes[:1000]
    else:  # weighted: no count twice, over 120 orders
        votes = [(rng.sample(range(5), 5), k + 1) for k in range(3000)]
    head, body = _written(fmt, len(votes[0][0]), votes)
    return "".join(head + body).encode()


@pytest.mark.parametrize("kind", ["repeating_m4", "repeating_m8", "never_repeating", "late_repeating", "weighted"])
@pytest.mark.parametrize("fmt", ["native", "soc"])
@pytest.mark.parametrize("limit", [1, 7, 100, profiles._CACHE_LIMIT])
def test_results_never_depend_on_the_cache_state(monkeypatch, limit, fmt, kind):
    data = _cache_profile(fmt, kind)
    want = expected(fmt, data)  # with the default limit
    assert want[0] == "ok"
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", limit)
    assert expected(fmt, data) == want
    for size in BATCH_CHUNKS:
        monkeypatch.setattr(profiles, "_CHUNK_BYTES", size)
        assert scanned(fmt, data) == want, f"chunk size {size}"


@pytest.mark.parametrize("fmt", ["native", "soc"])
def test_a_text_cache_full_before_its_first_hit_is_looked_up_no_more(monkeypatch, fmt):
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 100)
    monkeypatch.setattr(profiles, "_BATCH_LINES", 100)
    # Past the line loop's first list, the batch step's first list of 100
    # fills the cache; the next misses it throughout and drops it, and no
    # later list makes a lookup.
    data, repeating = _cache_profile(fmt, "never_repeating"), _cache_profile(fmt, "repeating_m8")
    wants = expected(fmt, data), expected(fmt, repeating)
    caches = _text_caches(monkeypatch)
    assert scanned(fmt, data) == wants[0]
    ((reader, cache),) = caches
    assert reader.texts is None
    assert (cache.gets, len(cache)) == (200, 100)
    # Texts that repeat from the start keep their cache, which looks up
    # every line the batch step reads and ends up holding all 298 orders.
    caches.clear()
    seen = _line_loop_spy(monkeypatch, fmt)
    assert scanned(fmt, repeating) == wants[1]
    ((reader, cache),) = caches
    assert reader.texts is cache
    batched = repeating.splitlines()[sum(size for _, _, size in seen):]
    assert (cache.gets, len(cache)) == (len(batched), 298)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "\f", "\u2028"], ids=["LF", "CRLF", "CR", "FF", "LS"])
def test_scan_memory_is_bounded_by_chunks_not_file_size(tmp_path, monkeypatch, ending):
    # Chunk and cache are scaled down with the file: tracemalloc makes each
    # allocation about 20 times slower, so a file of realistic size is slow.
    # Every line break is a place to cut a chunk, so the bound holds for each.
    monkeypatch.setattr(profiles, "_CHUNK_BYTES", 1 << 13)
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 256)
    path = tmp_path / "big.profile"
    path.write_bytes(_no_repeat_profile(5_000).replace(b"\n", ending.encode()))

    def scan():
        with open(path, "rb") as file:
            assert scan_profile(file, "native").n == 5_000

    scan()  # first-call allocations are not the scan's
    scan_peak = _traced_peak(scan)
    parse_peak = _traced_peak(lambda: parse_native(path.read_bytes()))
    assert scan_peak < 2**19
    assert scan_peak < parse_peak / 4, (scan_peak, parse_peak)


class _Pipe:
    """A binary stream that cannot seek back, over bytes made before it is
    read. As from a pipe, each read gives new bytes."""

    def __init__(self, data: bytes) -> None:
        self.data, self.at = memoryview(data), 0

    def seekable(self) -> bool:
        return False

    def read(self, size: int = -1) -> bytes:
        start = self.at
        self.at = len(self.data) if size < 0 else min(start + size, len(self.data))
        return bytes(self.data[start:self.at])


def test_a_soc_pipe_is_scanned_in_the_memory_of_its_file(tmp_path, monkeypatch):
    # A soc pipe is streamed once, as its file is, so it takes no more
    # memory than the file and writes no temporary file, even when its
    # names are invalid and every order is resolved by name.
    monkeypatch.setattr(profiles, "_CHUNK_BYTES", 1 << 13)
    monkeypatch.setattr(profiles, "_CACHE_LIMIT", 256)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    head, body = _written("soc", 12, _no_repeat_votes(20_000))
    data = "".join(head + body).encode()
    path = tmp_path / "big.soc"
    path.write_bytes(data)

    def scan_file():
        with open(path, "rb") as file:
            assert scan_profile(file, "soc").n == 20_000

    def scan_pipe():
        assert scan_profile(_Pipe(data), "soc").n == 20_000

    scan_pipe()  # first-call allocations, such as imports, are not the scan's
    file_peak, pipe_peak = _traced_peak(scan_file), _traced_peak(scan_pipe)
    assert pipe_peak < file_peak + 4 * profiles._CHUNK_BYTES < len(data), (pipe_peak, file_peak, len(data))
    # alternatives 1 and 2 share a name, so every order records a violation
    shared = data.replace(b"# ALTERNATIVE NAME 2: c1\n", b"# ALTERNATIVE NAME 2: c0\n")
    assert shared != data
    want = expected("soc", shared)
    assert want[0] is profiles.InvalidElection
    assert scanned("soc", shared, _Pipe(shared)) == want
    assert not any(temp.iterdir())


@pytest.mark.parametrize(
    "read",
    [parse_preflib_soc, lambda data: scan_profile(io.BytesIO(data), "soc")],
    ids=["parse_preflib_soc", "scan_profile"],
)
def test_soc_token_map_waits_for_an_order_of_m_tokens(read):
    """An order far shorter than NUMBER ALTERNATIVES fails without the
    token map of every alternative being built."""

    def short_order():
        with pytest.raises(UnsupportedProfile) as info:
            read(b"# NUMBER ALTERNATIVES: 1000000\n1: 1,2\n")
        assert info.value.line == 2

    short_order()  # first-call allocations are not the read's
    assert _traced_peak(short_order) < 2**20


@pytest.mark.parametrize(
    "name, message",
    [
        ("", "empty or has surrounding whitespace"),
        (" pad", "empty or has surrounding whitespace"),
        ("pad ", "empty or has surrounding whitespace"),
        ("\tpad", "empty or has surrounding whitespace"),
        ("a\x0cb", "reserved character"),
        ("a\u2028b", "reserved character"),
        ("a\rb", "reserved character"),
    ],
)
def test_write_native_rejects_names_it_cannot_read_back(name, message):
    e = gen_edge_realizing(ConnectivityGraph(2, [(0, 1)]), (name, "b"))
    with pytest.raises(UnrepresentableName, match=message):
        write_native(e)


@pytest.mark.parametrize("name", ["", " pad "])
def test_gen_rejects_names_it_cannot_read_back(tmp_path, capsys, name):
    dot = tmp_path / "g.dot"
    dot.write_text(export_dot(ConnectivityGraph(3, [(0, 1), (1, 2)]), (name, "b", "c")))
    out = tmp_path / "g.profile"
    assert main(["gen", "--model", "edges", "--graph", str(dot), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty or has surrounding whitespace" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("fmt, data, m", [
    ("native", b"# c\ncandidates: a, b, c\n1: a > b > c\n", 3),
    ("soc", b"# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 1\n1: 1,2\n", 2),
])
def test_check_m_hears_the_declared_count_and_changes_nothing(fmt, data, m):
    heard = []
    assert scan_profile(io.BytesIO(data), fmt, check_m=heard.append) == scan_profile(io.BytesIO(data), fmt)
    assert heard == [m]
