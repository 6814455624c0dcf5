"""The one-pass parsers against reference_parsers, a verbatim copy of the
parsers and validate_election they replaced.

For every input both must return equal Elections, or raise the same
exception type with the same message, line, column and violation list.
Random text almost never reaches the ranking path, so the generated inputs
are valid profiles mutated a few tokens at a time.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_parsers as ref
from linkdomain import (
    UnknownCandidate,
    parse_native,
    parse_preflib_soc,
    profiles,
    validate_election,
)


def outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except Exception as exc:  # noqa: BLE001 - the outcome is whatever is raised
        violations = [(type(v), str(v)) for v in getattr(exc, "violations", ())]
        return (
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
            violations,
        )


def assert_same(parse, reference, *args):
    assert outcome(parse, *args) == outcome(reference, *args)


PARSERS = {
    "native": (parse_native, ref.parse_native),
    "soc": (parse_preflib_soc, ref.parse_preflib_soc),
}

# Tokens a mutation may write into a profile: names and ids in and out of
# range, non-canonical integers, separators, line breaks and metadata lines.
NATIVE_POOL = [
    "a", "b", "c", "d", "x", "a>b", "Mary Ann", "", " ", "\t", " > ", ">", ",", ", ", ":",
    "0", "01", " 1", "1 ", "2", "١", "-1", "\n", "\r\n", "\x0c", "\u2028", "#",
    "candidates:", "candidates: a, b", "{",
]
SOC_POOL = [
    "1", "2", "3", "4", "0", "01", " 1", "1 ", "-1", "١", "99", "x", "", " ", ",", ":",
    "{", "}", "\n", "\r\n", "\x0c", "\u2028", "# NUMBER VOTERS: 3", "# NUMBER ALTERNATIVES: 3",
    "# ALTERNATIVE NAME 1: b", "# ALTERNATIVE NAME 2: 1", "# ALTERNATIVE NAME 3:", "#",
    "# ALTERNATIVE NAME 1: 1", "# ALTERNATIVE NAME 2: 2",
]


@st.composite
def _votes(draw, m):
    # a few distinct orders, so that lines repeat and reach the cache
    orders = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    return draw(
        st.lists(st.tuples(st.sampled_from(orders), st.sampled_from([1, 1, 2, 3])), max_size=6)
    )


@st.composite
def native_tokens(draw):
    m = draw(st.integers(1, 4))
    pool = st.sampled_from(["a", "b", "c", "d", "Mary Ann", "a>b"])
    names = draw(st.lists(pool, min_size=m, max_size=m, unique=True))
    sep = draw(st.sampled_from([" > ", ">", " >  "]))
    tokens = ["candidates:", " "]
    for i, name in enumerate(names):
        tokens += [", "] * (i > 0) + [name]
    tokens.append("\n")
    for order, mult in draw(_votes(m)):
        tokens += [str(mult), ": "]
        for i, c in enumerate(order):
            tokens += [sep] * (i > 0) + [names[c]]
        tokens.append("\n")
    return tokens


@st.composite
def soc_tokens(draw):
    m = draw(st.integers(1, 4))
    votes = draw(_votes(m))
    head = [f"# NUMBER ALTERNATIVES: {m}\n"]
    if draw(st.booleans()):
        head.append(f"# NUMBER VOTERS: {sum(mult for _, mult in votes)}\n")
    named = draw(st.lists(st.integers(1, m), unique=True, max_size=m))
    ids = [str(i) for i in range(1, m + 1)]  # a name may be an id: the alternative's own, or another's
    head += [f"# ALTERNATIVE NAME {i}: {draw(st.sampled_from([chr(ord('a') + i - 1), *ids]))}\n" for i in named]
    tokens = []
    for order, mult in votes:
        tokens += [str(mult), ": "]
        for i, c in enumerate(order):
            tokens += [","] * (i > 0) + [str(c + 1)]
        tokens.append("\n")
    # metadata may also follow the data lines
    cut = draw(st.integers(0, len(head)))
    return head[:cut] + tokens + head[cut:]


@st.composite
def mutated(draw, tokens, pool):
    tokens = list(draw(tokens))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.integers(0, 4))
        i = draw(st.integers(0, len(tokens)))
        if op == 0 and i < len(tokens):
            tokens[i] = draw(st.sampled_from(pool))
        elif op == 1:
            tokens.insert(i, draw(st.sampled_from(pool)))
        elif op == 2 and i < len(tokens):
            del tokens[i]
        elif op == 3 and i < len(tokens):
            tokens.insert(i, tokens[i])
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            i = min(i, len(tokens) - 1)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


@given(mutated(native_tokens(), NATIVE_POOL))
def test_native_matches_reference_on_mutated_profiles(text):
    assert_same(parse_native, ref.parse_native, text)


@given(mutated(soc_tokens(), SOC_POOL))
def test_soc_matches_reference_on_mutated_profiles(text):
    assert_same(parse_preflib_soc, ref.parse_preflib_soc, text)


@given(
    st.lists(st.sampled_from(["a", "b", " a ", "c", "", " "]), max_size=4),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["a", "b", "c", " b", "z", ""]), max_size=4),
            st.integers(-1, 2),
        ),
        max_size=4,
    ),
)
def test_validate_election_matches_reference(names, rankings):
    assert_same(validate_election, ref.validate_election, names, rankings)


CORPUS = [
    # an unknown name on several lines: one violation each, with its vote number
    ("native", "candidates: a, b\n1: a > x\n2: b > a\n1: a > x\n1: x > b\n"),
    ("native", "candidates: a, a\n1: a > a\n1: a > b\n"),
    ("native", "candidates: a, b, a\n"),
    ("native", "candidates: a, b\n1: a > b\ncandidates: a, b\n"),
    ("native", "candidates: a, , b\n"),
    ("native", "candidates: a, b\n1: a > > b\n"),
    ("native", "candidates: a, b\n1: a > x\n1: a >\n"),
    ("native", "candidates: a, b\n1: > a > b\n"),
    ("native", "candidates: a, b\r\n1: a > b\r\n2: b > a\r\n"),
    ("native", "candidates: a, b\x0c1: a > b\u20282: b > a\x0c"),
    ("native", "candidates: a, b\n1: a > b\u2028x\n"),
    ("native", "candidates: a, b\n 1: a > b\n1 : b > a\n1\t: a > b\n"),
    ("native", "candidates: a, b\n01: a > b\n001: a > b\n"),
    ("native", "candidates: a, b\n1: a > b\n0: a > b\n"),
    ("native", "candidates: a, b\n1: a > x\n-1: a > b\n"),
    ("native", "candidates: a, b\n١: a > b\n"),
    ("native", "candidates: a, b\n: a > b\n"),
    ("native", "candidates: a>b, c\n1: a>b > c\n1: c > a>b\n"),
    ("native", "candidates: Mary Ann, Bob\n1: Mary Ann > Bob\n2: Bob>Mary Ann\n"),
    ("native", "candidates: a, b, c\n1:a>b>c\n1: a\t>\tb > c\n1:  a  >  b > c  \n"),
    ("native", "candidates: a, b\n1: a > b > a\n1: a\n1: a > b\n"),
    ("native", "candidates: a\n3: a\n1: a\n"),
    ("native", "# only a comment\n\n"),
    ("native", "1: a > b\n"),
    ("native", "x: a > b\n"),  # the missing header is reported before the count
    ("native", "candidates: a, b\n1 a > b\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 01,2\n1: ١,2\n1: 2,01\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,3\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 0,1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: -1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,x,3\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,2,3\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1, 2\n1: 1 ,2\n1:1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n{1: 1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1}: x\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1 2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n0: 1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n01: 1,2\n 2 : 2,1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 3\n1: 1,2\n1: 2,1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 2\n1: 1,1\n1: 2,1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,1\n1: 1,1\n1: 2,2\n"),
    ("soc", "# NUMBER VOTERS: x\n"),
    ("soc", "1: 1,2\n# NUMBER ALTERNATIVES: 2\n"),
    ("soc", "x: 1,2\n"),  # the count is reported before the undeclared NUMBER ALTERNATIVES
    ("soc", "# NUMBER ALTERNATIVES: 2\n# NUMBER ALTERNATIVES: 3\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\r\n1: 1,2\x0c1: 2,1\u20281: 1,2\r\n"),
    # a name declared after a data line that used the default name
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,2\n# ALTERNATIVE NAME 1: 2\n# ALTERNATIVE NAME 2: 1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n1: 1,2\n# ALTERNATIVE NAME 1: x\n1: 2,1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: 2\n1: 1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1:\n1: 1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME 1: b\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 3: c\n1: 1,2\n"),
    # every line is dropped for its violation, yet counts toward NUMBER VOTERS
    ("soc", "# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 3\n# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME 2: a\n1: 1,2\n2: 2,1\n"),
    # comments long enough that a list of 64-byte chunks holds one of them
    # alone, before the names: such a list fixes no name
    ("soc", "# NUMBER ALTERNATIVES: 3\n" + "# a comment that fills a chunk list alone\n" * 3
     + "# ALTERNATIVE NAME 1: c\n# ALTERNATIVE NAME 3: a\n1: 1,2,3\n2: 3,1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 1\n1: 1\n2: 1\n"),
    ("soc", "# NUMBER ALTERNATIVES: 0\n"),
    ("soc", "# NUMBER ALTERNATIVES: 0\n1: 1\n"),
    ("soc", "# NUMBER ALTERNATIVES: -2\n1: 1,2\n"),
    ("soc", "# NUMBER ALTERNATIVES: 2000000\n1: 1,2\n"),
    ("soc", ""),
]


@pytest.mark.parametrize("fmt, text", CORPUS)
def test_corpus_matches_reference(fmt, text):
    parse, reference = PARSERS[fmt]
    assert_same(parse, reference, text)
    assert_same(parse, reference, text.encode("utf-8"))


def test_invalid_utf8_matches_reference():
    for parse, reference in PARSERS.values():
        assert_same(parse, reference, b"candidates: a, b\n1: a \xff> b\n")


def test_unknown_name_is_reported_on_every_line():
    exc = outcome(parse_native, CORPUS[0][1])
    assert exc[4] == [
        (UnknownCandidate, "vote 1: unknown candidate 'x'"),
        (UnknownCandidate, "vote 3: unknown candidate 'x'"),
        (UnknownCandidate, "vote 4: unknown candidate 'x'"),
    ]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _repeats(head, rankings, mults=(1, 2)):
    """Three distinct ranking texts over 1000 lines."""
    lines = (f"{mults[i % len(mults)]}: {rankings[i % 3]}\n" for i in range(1000))
    return head + "".join(lines)


# Canonical texts resolve without the exact resolver. Texts with other
# spacing or with "01" for 1 go through it, once per distinct text.
NATIVE_HEAD = "candidates: a, b, c\n"
SOC_HEAD = "# NUMBER ALTERNATIVES: 3\n"
REPEATS = [
    (parse_native, "resolve_ranking", NATIVE_HEAD, ["a > b > c", "b > a > c", "c > b > a"], 0),
    (parse_native, "resolve_ranking", NATIVE_HEAD, ["a  > b > c", "b>a>c", "c > b\t> a"], 3),
    (parse_preflib_soc, "_soc_ids", SOC_HEAD, ["1,2,3", "2,1,3", "3,2,1"], 0),
    (parse_preflib_soc, "_soc_ids", SOC_HEAD, ["01,2,3", "2, 1,3", "3,2,١"], 3),
]


@pytest.mark.parametrize(
    "parse, resolver, head, rankings, exact_calls",
    REPEATS,
    ids=["native", "native-spaced", "soc", "soc-noncanonical"],
)
def test_each_distinct_ranking_is_resolved_once(
    monkeypatch, parse, resolver, head, rankings, exact_calls
):
    calls = _count_calls(monkeypatch, profiles, resolver)
    e = parse(_repeats(head, rankings))
    assert len(calls) == exact_calls
    assert len(e.votes) == 1000
    for i in range(3):
        assert all(e.votes[j][0] is e.votes[i][0] for j in range(i, 1000, 3))
    assert len({id(ranking) for ranking, _ in e.votes}) == 3
