"""Profile parsing and serialization.

Native format (line-oriented UTF-8, hand-writable):

    # comment
    candidates: a, b, c
    2: a > b > c
    1: c > b > a

Exactly one ``candidates:`` line, before any ranking line. Ranking lines
are ``<positive integer>: <name> (> <name>)*``. Surrounding whitespace is
ignored; blank lines are skipped.

PrefLib support covers strict complete orders (.soc style): ``#`` metadata
lines (``NUMBER ALTERNATIVES``, ``ALTERNATIVE NAME <i>`` and ``NUMBER
VOTERS`` are recognized, other keys ignored) followed by data lines
``<count>: <id>,<id>,...`` with 1-based alternative ids. Ties and
incomplete orders are rejected as UnsupportedProfile.

Graph files are read by parse_graph. Every reader accepts bytes or str,
raises only package errors, and gives every failure a line number.
"""

import re
import unicodedata
from itertools import chain
from typing import Sequence

from .errors import (
    InconsistentMetadata,
    ProfileSyntaxError,
    UnrepresentableName,
    UnsupportedProfile,
    Violation,
)
from .graph import ConnectivityGraph
from .model import Election, Vote, default_names, index_candidates, make_election, resolve_ranking
from .model import validate_election  # noqa: F401 - perfbench's trace hooks look it up here

MAX_DIGITS = 4300  # the longest decimal string int() converts by default
MAX_VERTICES = 1_000_000  # the most soc alternatives, or edge-list vertices, accepted

_RESERVED = (",", ">", "\n", "\r")

_HEADER_PREFIX = "candidates:"
_META_RE = re.compile(r"^#\s*([A-Z][A-Z ]*?)\s*(\d*)\s*:\s*(.*?)\s*$")
_INT_RE = re.compile(r"([+-]?)(\d+(?:_\d+)*)")  # what int() reads, once stripped
_DOT_NAME = r'"((?:[^"\\]|\\["\\])*)"'  # export_dot escapes exactly '"' and '\'
_DOT_LINE_RE = re.compile(rf"{_DOT_NAME}(?:\s*--\s*{_DOT_NAME})?\s*;?")


def _decode(text: str | bytes) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = text.count(b"\n", 0, exc.start) + 1
        raise ProfileSyntaxError(f"invalid UTF-8 ({exc.reason})", line=line) from None


def _decimal(digits: str) -> int | None:
    """The value of a string of decimal digits of any script, or None when it
    has more than MAX_DIGITS significant digits, where int() would raise
    ValueError."""
    if not digits.isascii():
        digits = "".join(str(unicodedata.decimal(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= MAX_DIGITS else None


def parse_native(text: str | bytes) -> Election:
    """Parse the native profile format into a validated Election.

    Each ranking line is resolved to candidate ids as it is read. A
    ranking written as write_native writes it, names joined by " > ", is
    split there and looked up name by name; any other goes through
    model.resolve_ranking. The ids of a valid ranking text are kept, so
    every later line with the same text skips the resolution and shares
    one tuple.
    """
    names: list[str] | None = None
    index: dict[str, int] = {}
    whole: dict[str, int] = {}  # the names a ranking split on " > " can match
    m = 0
    violations: list[Violation] = []
    votes: list[tuple[Vote, int]] = []
    rejected = 0  # ranking lines with violations; they keep their vote number
    known: dict[str, Vote] = {}  # ranking text -> ids of a valid ranking
    mults: dict[str, int] = {}  # count field -> multiplicity
    lines = _decode(text).splitlines()

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_HEADER_PREFIX):
            if names is not None:
                raise ProfileSyntaxError("second candidates: line", line=line_no, column=1)
            header = [part.strip() for part in line[len(_HEADER_PREFIX):].split(",")]
            if "" in header:
                raise ProfileSyntaxError("empty candidate name in header", line=line_no)
            names, index = index_candidates(header, violations)
            m = len(names)
            # A name with '>' is cut apart in every ranking, so none can be valid.
            whole = {} if any(">" in name for name in names) else index
            continue
        if names is None:
            raise ProfileSyntaxError(
                "ranking line before the candidates: header", line=line_no, column=1
            )
        count_part, sep, rest = line.partition(":")
        if not sep:
            raise ProfileSyntaxError("expected '<count>: <ranking>'", line=line_no, column=1)
        mult = mults.get(count_part)
        if mult is None:
            count_str = count_part.strip()
            mult = _decimal(count_str) if count_str.isascii() and count_str.isdigit() else 0
            if mult is None:
                raise ProfileSyntaxError(
                    f"multiplicity has more than {MAX_DIGITS} digits",
                    line=line_no,
                    column=_column(raw, count_str),
                )
            if mult < 1:
                raise ProfileSyntaxError(
                    f"multiplicity must be a positive integer, got {count_str!r}",
                    line=line_no,
                    column=_column(raw, count_str),
                )
            mults[count_part] = mult
        ids = known.get(rest)
        if ids is None:
            try:
                ids = tuple(map(whole.__getitem__, rest.lstrip().split(" > ")))
            except KeyError:
                pass
            if ids is None or len(ids) != m or len(set(ids)) != m:
                ranking = list(map(str.strip, rest.split(">")))
                if "" in ranking:
                    raise ProfileSyntaxError("empty candidate name in ranking", line=line_no)
                ids = resolve_ranking(ranking, index, m, len(votes) + rejected + 1, violations)
                if ids is None:
                    rejected += 1
                    continue
            known[rest] = ids
        votes.append((ids, mult))

    if names is None:
        raise ProfileSyntaxError("missing candidates: header", line=max(1, len(lines)))
    return make_election(names, votes, violations)


def _column(raw_line: str, token: str) -> int:
    pos = raw_line.find(token) if token else -1
    return pos + 1 if pos >= 0 else 1


def parse_preflib_soc(text: str | bytes) -> Election:
    """Parse a PrefLib strict-complete-orders file into a validated Election.

    Data lines are read into 0-based id tuples, shared between lines with
    the same order text. Names are matched only at the end, and only when
    they can change the outcome: a missing, empty or repeated name, an
    order that repeats an id, or a name declared after a data line that
    used the id's default name.
    """
    m: int | None = None
    declared_voters: int | None = None
    alt_names: dict[int, str] = {}
    named_after: dict[int, int] = {}  # alternative -> data lines read before its name
    rows: list[tuple[Vote, int]] = []
    repeats_an_id = False
    known: dict[str, Vote] = {}  # order text -> ids of a permutation
    tokens: dict[str, int] = {}  # "1".."m" -> 0..m-1, once a line has m ids
    counts: dict[str, int] = {}  # count field -> vote count
    total_votes = 0
    lines = _decode(text).splitlines()

    def require_m(line_no: int) -> int:
        if m is None:
            raise InconsistentMetadata("NUMBER ALTERNATIVES was never declared", line=line_no)
        return m

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _META_RE.match(line)
            if not match:
                continue  # free-form comment
            key, index, value = match.group(1).strip(), match.group(2), match.group(3)
            if key == "NUMBER ALTERNATIVES" and not index:
                declared = _meta_int(key, value, line_no)
                shown = f"a number of more than {MAX_DIGITS} digits" if declared is None else declared
                if m is not None and declared != m:
                    raise InconsistentMetadata(
                        f"NUMBER ALTERNATIVES redeclared as {shown}, was {m}", line=line_no
                    )
                if declared is None:
                    raise UnsupportedProfile(
                        f"NUMBER ALTERNATIVES is {shown}, beyond the supported size", line=line_no
                    )
                if declared > MAX_VERTICES:
                    raise UnsupportedProfile(
                        f"{declared} alternatives is beyond the supported size", line=line_no
                    )
                m = declared
            elif key == "ALTERNATIVE NAME" and index:
                idx = _decimal(index)
                if idx is None:
                    raise InconsistentMetadata(
                        f"ALTERNATIVE NAME index has more than {MAX_DIGITS} digits", line=line_no
                    )
                if idx in alt_names:
                    raise InconsistentMetadata(
                        f"ALTERNATIVE NAME {idx} declared twice", line=line_no
                    )
                alt_names[idx] = value
                named_after[idx] = len(rows)
            elif key == "NUMBER VOTERS" and not index:
                declared_voters = _meta_int(key, value, line_no)
                if declared_voters is None:
                    raise ProfileSyntaxError(
                        f"NUMBER VOTERS has more than {MAX_DIGITS} digits", line=line_no
                    )
            # every other key is forward-compatible metadata
            continue

        if "{" in line or "}" in line:
            raise UnsupportedProfile("orders with ties are not supported", line=line_no)
        count_part, sep, rest = line.partition(":")
        if not sep:
            raise ProfileSyntaxError("expected '<count>: <id>,<id>,...'", line=line_no, column=1)
        count = counts.get(count_part)
        if count is None:
            count_str = count_part.strip()
            count = _decimal(count_str) if count_str.isascii() and count_str.isdigit() else 0
            if count is None:
                raise ProfileSyntaxError(
                    f"vote count has more than {MAX_DIGITS} digits", line=line_no, column=1
                )
            if count < 1:
                raise ProfileSyntaxError(
                    f"vote count must be a positive integer, got {count_str!r}",
                    line=line_no,
                    column=1,
                )
            counts[count_part] = count
        alternatives = require_m(line_no)
        ids = known.get(rest)
        if ids is None:
            # lstrip takes the space after ':' off the first id; it changes no
            # token once stripped, which is all _soc_ids looks at
            parts = rest.lstrip().split(",")
            if len(parts) == alternatives:
                if not tokens:
                    tokens = {str(k): k - 1 for k in range(1, alternatives + 1)}
                try:
                    ids = tuple(map(tokens.__getitem__, parts))
                except KeyError:
                    pass
            if ids is None:
                ids = _soc_ids(parts, alternatives, line_no)
            if len(set(ids)) == alternatives:
                known[rest] = ids
            else:
                repeats_an_id = True
        total_votes += count
        rows.append((ids, count))

    eof = max(1, len(lines))
    alternatives = require_m(eof)
    for idx in alt_names:
        if not 1 <= idx <= alternatives:
            raise InconsistentMetadata(
                f"ALTERNATIVE NAME {idx} outside 1..{alternatives}", line=eof
            )
    if declared_voters is not None and declared_voters != total_votes:
        # counts of up to MAX_DIGITS digits can sum to one str() refuses
        total = total_votes if total_votes < 10**MAX_DIGITS else f"more than {MAX_DIGITS} digits"
        raise InconsistentMetadata(
            f"NUMBER VOTERS is {declared_voters} but data lines sum to {total}", line=eof
        )
    violations: list[Violation] = []
    names, index = index_candidates(
        [_alt_name(alt_names, i) for i in range(1, alternatives + 1)], violations
    )
    if not (violations or repeats_an_id or any(named_after.values())):
        # Every line named alternative a by names[a - 1], and the names are
        # distinct: each permutation resolves to itself.
        return make_election(names, rows, violations)

    def read_as(alt: int, vote_no: int) -> str:
        """The name alternative alt had when data line vote_no was read."""
        return alt_names[alt] if named_after.get(alt, vote_no) < vote_no else str(alt)

    votes: list[tuple[Vote, int]] = []
    for vote_no, (ids, count) in enumerate(rows, start=1):
        ranking = [read_as(a + 1, vote_no).strip() for a in ids]
        resolved = resolve_ranking(ranking, index, len(names), vote_no, violations)
        if resolved is not None:
            votes.append((resolved, count))
    return make_election(names, votes, violations)


def _meta_int(key: str, value: str, line_no: int) -> int | None:
    """A metadata value as int() reads it (a sign, then digits of any script,
    maybe grouped by underscores), or None when it has more than MAX_DIGITS
    significant digits, whatever its sign or script. ProfileSyntaxError for
    anything int() rejects."""
    match = _INT_RE.fullmatch(value.strip())
    if match is None:
        raise ProfileSyntaxError(f"{key} is not an integer: {value!r}", line=line_no)
    sign, digits = match.groups()
    number = _decimal(digits.replace("_", ""))
    return -number if number is not None and sign == "-" else number


def _soc_ids(parts: list[str], m: int, line_no: int) -> Vote:
    """0-based ids of the comma-split order of one data line.

    Raises, in this order: ProfileSyntaxError for the first token that is
    not an integer, UnsupportedProfile if there are not m ids, and
    InconsistentMetadata for the first id outside 1..m.
    """
    ids = []
    for token in parts:
        token = token.strip()
        if not re.fullmatch(r"-?\d+", token):
            raise ProfileSyntaxError(f"alternative id is not an integer: {token!r}", line=line_no)
        alt = _decimal(token.lstrip("-"))
        ids.append(-alt if alt is not None and token[0] == "-" else alt)
    if len(ids) != m:
        raise UnsupportedProfile(
            f"expected a complete order over {m} alternatives, got {len(ids)}", line=line_no
        )
    for alt in ids:
        if alt is None:
            raise InconsistentMetadata(
                f"alternative id of more than {MAX_DIGITS} digits outside 1..{m}", line=line_no
            )
        if not 1 <= alt <= m:
            raise InconsistentMetadata(f"alternative id {alt} outside 1..{m}", line=line_no)
    return tuple(alt - 1 for alt in ids)


def _alt_name(alt_names: dict[int, str], idx: int) -> str:
    return alt_names.get(idx, str(idx))


def write_native(election: Election) -> str:
    """Serialize an Election to the native format; parse_native inverts this exactly."""
    for name in election.names:
        if any(ch in name for ch in _RESERVED):
            raise UnrepresentableName(
                f"candidate name {name!r} contains a reserved character (',', '>', newline)"
            )
    lines = ["candidates: " + ", ".join(election.names)]
    names = election.names
    for ranking, mult in election.votes:
        lines.append(f"{mult}: " + " > ".join(names[c] for c in ranking))
    return "\n".join(lines) + "\n"


def parse_graph(data: str | bytes) -> tuple[ConnectivityGraph, tuple[str, ...]]:
    """A graph and its vertex names from an edge list ('u v' lines, 0-based
    ids below MAX_VERTICES, named by default_names) or, when the first line
    starts with 'graph', from DOT. Blank and '#' lines are skipped. Every
    failure is a ProfileSyntaxError with its line (the last for a file with
    no edge or vertex), raised before any per-vertex storage is allocated."""
    lines = _decode(data).splitlines()
    body = [(no, line) for no, line in enumerate(map(str.strip, lines), start=1) if line and line[0] != "#"]
    eof = max(1, len(lines))
    if body and body[0][1].startswith("graph"):
        return _parse_dot(body, eof)

    edges = []
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ProfileSyntaxError(f"expected a 'u v' edge line, got {line!r}", line=line_no)
        ids = []
        for part in parts:
            digits = part.lstrip("0") or "0"
            # the length test keeps int() off ids too long to convert
            if len(digits) > len(str(MAX_VERTICES)) or int(digits) >= MAX_VERTICES:
                raise ProfileSyntaxError(
                    f"vertex id {part} is beyond the supported {MAX_VERTICES} vertices", line=line_no
                )
            ids.append(int(digits))
        u, v = ids
        if u == v:
            raise ProfileSyntaxError(f"self-loop at vertex {u}", line=line_no)
        edges.append((u, v))
    if not edges:
        raise ProfileSyntaxError("no edges; cannot infer the vertex count", line=eof)
    m = max(map(max, edges)) + 1
    return ConnectivityGraph(m, edges), default_names(m)


def _parse_dot(body: list[tuple[int, str]], eof: int) -> tuple[ConnectivityGraph, tuple[str, ...]]:
    """The inverse of export_dot. After the header 'graph {' each line is
    '"name";' or '"a" -- "b";' (the ';' optional) up to a final '}'. Names
    come declared vertices first, then edge endpoints as they appear."""
    if body[0][1] != "graph {":
        raise ProfileSyntaxError("expected the header 'graph {'", line=body[0][0])
    if body[-1][1] != "}":
        raise ProfileSyntaxError("expected '}' as the last line", line=body[-1][0])
    declared: list[str] = []
    pairs: list[tuple[str, str]] = []
    for line_no, line in body[1:-1]:
        match = _DOT_LINE_RE.fullmatch(line)
        if match is None:
            raise ProfileSyntaxError(f"expected '\"name\";' or '\"a\" -- \"b\";', got {line!r}", line=line_no)
        left, right = (re.sub(r'\\(["\\])', r"\1", name) if name else name for name in match.groups())
        if right is None:
            declared.append(left)
        elif left == right:
            raise ProfileSyntaxError(f"self-loop at vertex {_dot_quote(left)}", line=line_no)
        else:
            pairs.append((left, right))
    ids = {name: i for i, name in enumerate(dict.fromkeys(chain(declared, chain.from_iterable(pairs))))}
    if not ids:
        raise ProfileSyntaxError("DOT graph declares no vertices", line=eof)
    return ConnectivityGraph(len(ids), [(ids[a], ids[b]) for a, b in pairs]), tuple(ids)


def export_dot(graph: ConnectivityGraph, names: Sequence[str]) -> str:
    """Graphviz text for the graph: isolated vertices first, then edges
    ascending. parse_graph reads it back to the same names and named edges."""
    if len(names) != graph.m:
        raise ValueError(f"expected {graph.m} names, got {len(names)}")
    lines = ["graph {"]
    covered = {v for edge in graph.edges for v in edge}
    for v in range(graph.m):
        if v not in covered:
            lines.append(f"  {_dot_quote(names[v])};")
    for u, v in graph.edges:
        lines.append(f"  {_dot_quote(names[u])} -- {_dot_quote(names[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
