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
incomplete orders are rejected as UnsupportedProfile. The first data line
fixes the names, so a later ``ALTERNATIVE NAME <i>`` line is refused as
InconsistentMetadata unless its name is ``<i>``, the name the data lines read.

parse_native and parse_preflib_soc return the whole Election, read by one
line loop for both formats (lines()) in the lists scan_profile takes. A
format gives the loop only two steps: how it reads a line that is not a
ranking line (comments, the header, metadata), and how it reads a ranking
that is not written plainly.
scan_profile reads a profile file in chunks, each cut after its last line
break of one kind (_line_lists()), and keeps only what the connectivity
graph needs, so `check` runs in memory bounded by the candidate count
rather than the file size, from a file or a pipe. The reader checks the lines a
list at a time with C-level built-ins over whole lists (batch()): a join
with a "\n" marker after each line and a split at ':' give the count fields,
ranking texts and markers in turn, and a join with a marker after each text
and a split at the separator give every token in turn; a marker out of
place shows a line with other than one ':', or a text of the wrong length.
Every list that batch() cannot vouch for goes to the line loop, which alone
raises and records violations.

Every reader accepts bytes or str, raises only package errors, and gives
every failure a line number. Graph files, and writing profiles, are in
graphio.
"""

import re
from itertools import chain, compress
from operator import itemgetter, not_, sub
from typing import BinaryIO, Callable, Iterator

from .errors import (
    InconsistentMetadata,
    InvalidElection,
    ProfileError,
    ProfileSyntaxError,
    UnsupportedProfile,
    Violation,
)
from .model import Election, ProfileScan, Vote, index_candidates, make_election, resolve_ranking
from .model import validate_election  # noqa: F401 - perfbench's trace hooks look it up here

MAX_DIGITS = 4300  # the longest decimal string int() converts by default
MAX_VERTICES = 1_000_000  # the most soc alternatives, or edge-list vertices (graphio), accepted

_CHUNK_BYTES = 1 << 18  # scan_profile reads a file this many bytes at a time
# A reader cache's size limit. A ranking cache passes it only in a list that
# hit it, and a miss that finds one full before its first hit drops it for good.
_CACHE_LIMIT = 4096
_BATCH_LINES = 1000  # a reader's batch() takes at most this many lines at once
# and only up to this many candidates: its per-ranking bit sums and its
# m(m-1)-entry pair table grow with m^2, so the line loop wins from a few hundred on
_BATCH_MAX_M = 63

_HEADER_PREFIX = "candidates:"
_META_RE = re.compile(r"^#\s*([A-Z][A-Z ]*?)\s*(\d*)\s*:\s*(.*?)\s*$")
_INT_RE = re.compile(r"([+-]?)(\d+(?:_\d+)*)")  # what int() reads, once stripped


def _decode(text: str | bytes) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _invalid_utf8(exc, 0) from None


def _invalid_utf8(exc: UnicodeDecodeError, newlines: int) -> ProfileSyntaxError:
    """The error for a decoding failure in bytes that follow `newlines` line feeds."""
    line = newlines + exc.object.count(b"\n", 0, exc.start) + 1
    return ProfileSyntaxError(f"invalid UTF-8 ({exc.reason})", line=line)


# The line breaks str.splitlines() knows, in UTF-8, each with the end of the
# part of a chunk searched for it: a '\r' that ends a chunk may start
# '\r\n', so it is not a cut.
_BREAKS = [(b"\n", None), (b"\r", -1)] + [(c.encode(), None) for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]


def _cut(chunk: bytes) -> int:
    """The length of the chunk up to its last break of the first kind in
    _BREAKS that it holds, that break included, or 0 for none."""
    for brk, end in _BREAKS:
        at = chunk.rfind(brk, 0, end)
        if at >= 0:
            return at + len(brk)
    return 0


def _line_lists(file: BinaryIO) -> Iterator[list[str]]:
    """The lines of a binary UTF-8 file, as str.splitlines() gives them for
    the whole text, in lists of at most _BATCH_LINES. The file is read
    _CHUNK_BYTES at a time and cut where _cut() says. Every break is one
    ASCII byte or a whole character, so the bytes up to a cut decode and
    split on their own. A chunk without a break is held, so a line longer
    than a chunk costs linear time. Invalid UTF-8 fails with the line
    _decode gives for the whole file."""
    held: list[bytes] = []  # the bytes read since the last cut
    newlines = 0  # line feeds before them
    while True:
        data = file.read(_CHUNK_BYTES)
        cut = _cut(data)
        if data and not cut:  # no break: the line goes on in the next chunk
            held.append(data)
            continue
        held.append(data[:cut])
        piece = b"".join(held)
        held = [data[cut:]]
        try:
            lines = piece.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise _invalid_utf8(exc, newlines) from None
        newlines += piece.count(b"\n")
        yield from _lists(lines)
        if not data:
            return


def _lists(lines: list[str]) -> Iterator[list[str]]:
    """The lines in lists of at most _BATCH_LINES, as every reader takes them."""
    for start in range(0, len(lines), _BATCH_LINES):
        yield lines[start:start + _BATCH_LINES]


def _decimal(digits: str) -> int | None:
    """The value of a string of decimal digits of any script, or None when it
    has more than MAX_DIGITS significant digits, where int() would raise
    ValueError."""
    if not digits.isascii():
        import unicodedata  # here, so an ASCII profile never loads it

        digits = "".join(str(unicodedata.decimal(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= MAX_DIGITS else None


def _column(raw_line: str, token: str) -> int:
    pos = raw_line.find(token) if token else -1
    return pos + 1 if pos >= 0 else 1


class _Reader:
    """The line loop of one profile format, shared by its parse_* function
    and scan_profile. lines() runs it on one list of lines and yields the
    ids and count of each valid ranking line; batch() is scan_profile's
    faster step for the same lines. The loop's state lives on the reader,
    so each list goes on where the last one stopped. Once finish() has
    run, names and violations hold the candidate names and every validation
    failure, and votes the vote total.

    A subclass gives the two steps of lines() that differ between formats,
    other_line() and exact_ids(), and finish(); of its ranking lines the
    form, the separator of their tokens and the token -> id map; and of its
    count field the noun and the error column."""

    noun: str  # what a count field counts, in error messages
    form: str  # what follows the count field, in error messages
    sep: str  # what joins the tokens of a ranking text
    check_m: Callable[[int], object] | None = None  # called with m once a line gives it

    def __init__(self) -> None:
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.violations: list[Violation] = []
        self.m: int | None = None  # the candidate count, once read
        self.line_no = self.row_no = self.votes = 0  # lines, ranking lines and votes read
        self.tokens: dict[str, int] = {}  # token -> id, for the tokens of a plainly written ranking
        self.known: dict[str, Vote] | None = {}  # ranking text -> ids of a valid ranking
        self.counts: dict[str, int] = {}  # count field -> count
        self.texts: dict[str, int] | None = {}  # ranking text -> its code, (1 << first) - (1 << second) of its ids
        self.known_hit = self.texts_hit = False  # whether each ranking cache (None once dropped) has hit
        self.bits: dict[str, int] = {}  # batch()'s tokens, maybe after a space, -> 1 << id
        self.found: set[int] = set()  # the codes of the texts in the lists batch() vouched for

    def lines(self, lines: list[str]) -> Iterator[tuple[Vote, int]]:
        """Each non-blank line that other_line() does not take is a ranking
        line, '<count>:<text>'. A text written plainly, m tokens joined by
        sep, each in the token map, with m distinct ids, is looked up token
        by token; any other goes through exact_ids(), which raises for a
        malformed text and gives its ids, or None to drop the line. The ids
        of a text are cached, so a later line with the same text skips both
        and shares one tuple; the cache takes a new text while it holds
        fewer than _CACHE_LIMIT, or once the list has hit it. A miss that
        finds it full before it has ever hit drops it: no later line looks
        a text up or caches it."""
        m, tokens, known, counts, sep = self.m, self.tokens, self.known, self.counts, self.sep
        votes, line_no, hit = self.votes, self.line_no, False
        for line_no, raw in enumerate(lines, start=line_no + 1):
            line = raw.strip()
            if not line:
                continue
            if self.other_line(line, line_no):
                m = self.m  # which a header or metadata line may set
                continue
            count_part, colon, text = line.partition(":")
            if not colon:
                raise ProfileSyntaxError(f"expected '<count>: {self.form}'", line=line_no, column=1)
            count = counts.get(count_part) or self.read_count(count_part, raw, line_no)  # counts are >= 1
            self.row_no += 1  # on the reader, where both hooks read it
            votes += count  # a line dropped for a violation counts too, as NUMBER VOTERS counts it
            ids = known.get(text) if known else None
            if ids is None:
                parts = text.lstrip().split(sep)
                if len(parts) == m:
                    if not tokens:  # soc fixes its names and builds its map here, so never for a shorter text
                        tokens = self.token_ids()
                    try:
                        ids = tuple(map(tokens.__getitem__, parts))
                    except KeyError:
                        pass
                if ids is None or len(set(ids)) != m:
                    ids = self.exact_ids(text, line_no)
                    if ids is None:
                        continue
                if known is not None:
                    if hit or len(known) < _CACHE_LIMIT:
                        known[text] = ids
                    elif not self.known_hit:  # full before its first hit: dropped for good
                        known = self.known = None
            else:
                hit = True
            yield ids, count
        self.line_no, self.votes = line_no, votes
        self.known_hit = self.known_hit or hit

    def declare_m(self, m: int) -> None:
        """Records the candidate count a header or metadata line gives."""
        self.m = m
        if self.check_m is not None:
            self.check_m(m)

    def token_ids(self) -> dict[str, int]:
        """The token map, which a subclass may build on first use."""
        return self.tokens

    def read_count(self, field: str, raw: str, line_no: int) -> int:
        """The count of a count field that missed the cache: a positive
        integer of at most MAX_DIGITS ASCII digits, maybe with whitespace
        around it. The cache takes it while it holds fewer than _CACHE_LIMIT
        fields."""
        digits = field.strip()
        count = _decimal(digits) if digits.isascii() and digits.isdigit() else 0
        if not count:
            fault = (
                f"has more than {MAX_DIGITS} digits" if count is None else f"must be a positive integer, got {digits!r}"
            )
            raise ProfileSyntaxError(f"{self.noun} {fault}", line=line_no, column=self.count_column(raw, digits))
        if len(self.counts) < _CACHE_LIMIT:
            self.counts[field] = count
        return count

    def batch(self, lines: list[str]) -> bool:
        """Whether it vouches for a non-empty list of lines. If it does, the
        counters are advanced as lines() would advance them and the codes of
        the list's top pairs are in found; if not, the list is left to
        lines(). Once the candidate count (2 to _BATCH_MAX_M) and the token
        map are known, it takes C-level built-ins over whole lists instead of
        Python statements per line. It vouches for a list only when it can
        show that lines() accepts every line with the same ids:

        - each line is '<count>:<text>' with exactly one ':', which the k
          "\n" markers at every third place of the split show;
        - each count field is in the loop's cache or read_count() reads it;
        - each text is in the cache of texts seen valid, or is m
          tokens joined by sep, each in the token map (maybe after one
          space, as after ':' or after sep), with m distinct ids (see
          _codes()), which is the one rule checked here in bulk.

        No token ends with whitespace, so a line with trailing whitespace is
        never vouched for. The text cache follows the loop's rule, with the
        lookups of a whole list made before its misses are cached: once
        dropped, every text goes to _codes(). A cached text's code went into
        found when the text was cached, so only the misses add to it.
        lines() alone raises and records violations."""
        m, k = self.m, len(lines)
        if not self.bits:
            if m is None or not 1 < m <= _BATCH_MAX_M or not self.tokens:
                return False
            bits = {token: 1 << i for token, i in self.tokens.items()}
            self.bits = bits | {" " + token: bit for token, bit in bits.items()} | {"\n": 0}  # "\n": _codes's marker
        # The lines, each followed by a "\n" marker, split into count fields,
        # texts and markers in turn. A line holds no "\n", so a "\n" field
        # is a marker, and k of them at every third place show that each line
        # holds exactly one ':'.
        fields = ":\n:".join(lines).split(":")
        fields.append("\n")
        if len(fields) != 3 * k or fields[2::3].count("\n") != k:
            return False
        heads, texts = fields[::3], fields[1::3]
        counts = list(map(self.counts.get, heads))
        if not all(counts):
            try:  # the line loop raises the error, at its line
                counts = [count or self.read_count(head, head, 0) for count, head in zip(counts, heads)]
            except ProfileSyntaxError:
                return False
        cache = self.texts
        if cache is not None:
            codes = list(map(cache.get, texts))  # no code is 0: the top two ids differ
            hit = any(codes)
            self.texts_hit = self.texts_hit or hit
            texts = [] if all(codes) else list(compress(texts, map(not_, codes)))  # the misses
        if texts:
            codes = self._codes(texts)
            if codes is None:
                return False
            self.found.update(codes)
            if cache is not None:
                if hit or len(cache) < _CACHE_LIMIT:
                    cache.update(zip(texts, codes))
                elif not self.texts_hit:  # full before its first hit: dropped for good
                    self.texts = None
        self.line_no += k
        self.row_no += k
        self.votes += sum(counts)
        return True

    def _codes(self, texts: list[str]) -> list[int] | None:
        """(1 << first) - (1 << second) for the ids of each text, its code,
        or None unless every text is m tokens joined by sep, each in
        self.bits, with m distinct ids."""
        m, sep, k = self.m, self.sep, len(texts)
        # The texts, each followed by a "\n" marker, split into their tokens
        # and the markers in turn. A line holds no "\n", so a "\n" token is
        # a marker, and k of them at every (m+1)-th place show that each text
        # gives exactly m tokens and no separator straddles a text and its
        # marker.
        tokens = (sep + "\n" + sep).join(texts).split(sep)
        tokens.append("\n")
        if len(tokens) != k * (m + 1) or tokens[m::m + 1].count("\n") != k:
            return None
        try:
            bits = itemgetter(*tokens)(self.bits)  # a tuple: there are at least m + 1 > 2 tokens
        except KeyError:
            return None
        # m powers of two below 2**m, and the marker's 0, sum to 2**m - 1 only when they differ
        if list(map(sum, zip(*[iter(bits)] * (m + 1)))).count((1 << m) - 1) != k:
            return None
        return list(map(sub, bits[::m + 1], bits[1::m + 1]))


class _NativeReader(_Reader):
    """The native format's steps of the line loop. Its token map holds the
    names a ranking split on " > " can match, from the header on."""

    noun, form, sep = "multiplicity", "<ranking>", " > "
    count_column = staticmethod(_column)

    def other_line(self, line: str, line_no: int) -> bool:
        """Reads a comment or the header; raises for a ranking line before it."""
        if line.startswith("#"):
            return True
        if line.startswith(_HEADER_PREFIX):
            if self.m is not None:
                raise ProfileSyntaxError("second candidates: line", line=line_no, column=1)
            header = [part.strip() for part in line[len(_HEADER_PREFIX):].split(",")]
            if "" in header:
                raise ProfileSyntaxError("empty candidate name in header", line=line_no)
            self.names, self.index = index_candidates(header, self.violations)
            self.declare_m(len(self.names))
            # A name with '>' is cut apart in every ranking, so none can be valid.
            self.tokens = {} if any(">" in name for name in self.names) else self.index
            return True
        if self.m is None:
            raise ProfileSyntaxError(
                "ranking line before the candidates: header", line=line_no, column=1
            )
        return False

    def exact_ids(self, text: str, line_no: int) -> Vote | None:
        """The ids model.resolve_ranking gives the text, which records any violation."""
        ranking = list(map(str.strip, text.split(">")))
        if "" in ranking:
            raise ProfileSyntaxError("empty candidate name in ranking", line=line_no)
        return resolve_ranking(ranking, self.index, self.m, self.row_no, self.violations)

    def finish(self) -> None:
        if self.m is None:
            raise ProfileSyntaxError("missing candidates: header", line=max(1, self.line_no))


def parse_native(text: str | bytes) -> Election:
    """Parse the native profile format into a validated Election."""
    reader = _NativeReader()
    votes = list(chain.from_iterable(map(reader.lines, _lists(_decode(text).splitlines()))))
    reader.finish()
    return make_election(reader.names, votes, reader.violations)


class _SocReader(_Reader):
    """The PrefLib soc format's steps of the line loop. Its errors in a
    count field all point at column 1. Its names, and its token map, are
    fixed only once an order of m tokens needs them (token_ids()), so
    batch(), which needs the map, waits for the line loop's first data line."""

    noun, form, sep = "vote count", "<id>,<id>,...", ","
    count_column = staticmethod(lambda raw, digits: 1)

    def __init__(self) -> None:
        super().__init__()
        self.alt_names: dict[int, str] = {}
        self.declared_voters: int | None = None

    def token_ids(self) -> dict[str, int]:
        """Fixes the names on first use, at the first data line (or in
        finish(), for a file without one): each the declared name or else
        the id. The token map is "1".."m" -> 0..m-1 when the names are
        valid, so each order resolves to itself, and empty when they are
        not, so exact_ids() resolves every order by name."""
        if not self.names:
            m = self.m
            names = [self.alt_names.get(k, str(k)) for k in range(1, m + 1)]
            self.names, self.index = index_candidates(names, self.violations)
            self.tokens = {} if self.violations else {str(k): k - 1 for k in range(1, m + 1)}
        return self.tokens

    def other_line(self, line: str, line_no: int) -> bool:
        """Reads a comment or metadata line; raises for an order with ties.
        The metadata checks that need the whole file run in finish()."""
        if not line.startswith("#"):
            if "{" in line or "}" in line:
                raise UnsupportedProfile("orders with ties are not supported", line=line_no)
            return False
        match = _META_RE.match(line)
        if not match:
            return True  # free-form comment
        key, index, value = match.group(1).strip(), match.group(2), match.group(3)
        if key == "NUMBER ALTERNATIVES" and not index:
            declared = _meta_int(key, value, line_no)
            shown = f"a number of more than {MAX_DIGITS} digits" if declared is None else declared
            if self.m is not None and declared != self.m:
                raise InconsistentMetadata(
                    f"NUMBER ALTERNATIVES redeclared as {shown}, was {self.m}", line=line_no
                )
            if declared is None:
                raise UnsupportedProfile(
                    f"NUMBER ALTERNATIVES is {shown}, beyond the supported size", line=line_no
                )
            if declared > MAX_VERTICES:
                raise UnsupportedProfile(
                    f"{declared} alternatives is beyond the supported size", line=line_no
                )
            self.declare_m(declared)
        elif key == "ALTERNATIVE NAME" and index:
            idx = _decimal(index)
            if idx is None:
                raise InconsistentMetadata(
                    f"ALTERNATIVE NAME index has more than {MAX_DIGITS} digits", line=line_no
                )
            if idx in self.alt_names:
                raise InconsistentMetadata(
                    f"ALTERNATIVE NAME {idx} declared twice", line=line_no
                )
            if self.row_no and value != str(idx):  # the data lines read the name str(idx)
                raise InconsistentMetadata(
                    f"ALTERNATIVE NAME {idx} declared after a data line", line=line_no
                )
            self.alt_names[idx] = value
        elif key == "NUMBER VOTERS" and not index:
            declared_voters = _meta_int(key, value, line_no)
            if declared_voters is None:
                raise ProfileSyntaxError(
                    f"NUMBER VOTERS has more than {MAX_DIGITS} digits", line=line_no
                )
            self.declared_voters = declared_voters
        # every other key is forward-compatible metadata
        return True

    def exact_ids(self, text: str, line_no: int) -> Vote | None:
        """The ids _soc_ids reads from an order the token map refused. An
        order that repeats an id, or any order under invalid names, is
        resolved by name through model.resolve_ranking, which records any
        violation."""
        m = _require_m(self.m, line_no)
        ids = _soc_ids(text.split(","), m, line_no)
        if self.tokens and len(set(ids)) == m:  # valid names: the order resolves to itself
            return ids
        names = self.names
        return resolve_ranking([names[a] for a in ids], self.index, m, self.row_no, self.violations)

    def finish(self) -> None:
        """The checks that need the whole file, then the names."""
        eof = max(1, self.line_no)
        alternatives = _require_m(self.m, eof)
        for idx in self.alt_names:
            if not 1 <= idx <= alternatives:
                raise InconsistentMetadata(
                    f"ALTERNATIVE NAME {idx} outside 1..{alternatives}", line=eof
                )
        votes = self.votes
        if self.declared_voters is not None and self.declared_voters != votes:
            # counts of up to MAX_DIGITS digits can sum to one str() refuses
            total = votes if votes < 10**MAX_DIGITS else f"more than {MAX_DIGITS} digits"
            raise InconsistentMetadata(
                f"NUMBER VOTERS is {self.declared_voters} but data lines sum to {total}", line=eof
            )
        self.token_ids()


def _require_m(m: int | None, line_no: int) -> int:
    if m is None:
        raise InconsistentMetadata("NUMBER ALTERNATIVES was never declared", line=line_no)
    return m


def parse_preflib_soc(text: str | bytes) -> Election:
    """Parse a PrefLib strict-complete-orders file into a validated Election.

    The first data line fixes the names. Orders are matched by name only
    when that can change the outcome: under a missing, empty or repeated
    name, or for an order that repeats an id. Otherwise the names are
    distinct, so each order resolves to itself.
    """
    reader = _SocReader()
    rows = list(chain.from_iterable(map(reader.lines, _lists(_decode(text).splitlines()))))
    reader.finish()
    return make_election(reader.names, rows, reader.violations)


def scan_profile(
    file: BinaryIO, fmt: str = "native", check_m: Callable[[int], object] | None = None
) -> ProfileScan:
    """What `check` needs of a profile in the given format ("native" or
    "soc"): its names, vote total and top pairs, read from a binary file
    _CHUNK_BYTES at a time, each chunk cut after a line break.

    The lines are taken in lists of up to _BATCH_LINES (_line_lists()).
    Once the header (or NUMBER ALTERNATIVES) is read, with 2 to _BATCH_MAX_M
    candidates, a list of '<count>:<text>' lines with plainly written valid
    rankings gives the codes of its top pairs, and the reader its vote
    total, through the reader's batch() at once; the codes are mapped to
    pairs once, after the last list. Every other list goes through the line
    loop of parse_native or parse_preflib_soc, which decides every error, so
    this accepts exactly the profiles those accept, and fails on the others
    with the same error. Memory is O(m^2) plus the ranking caches, two
    chunks and the tokens of one list. A ranking cache that a miss finds
    full before its first hit is dropped; past _CACHE_LIMIT, one that has
    hit takes new rankings only in a list that hit it, so a few repeats
    among new rankings still grow it with the file (ROADMAP item 3).
    Either format is read once, from a file or a pipe. Any other fmt is a
    ValueError.
    check_m, if given, is called with the candidate count as soon as the
    header or NUMBER ALTERNATIVES line gives it, before any later line is
    checked, and may raise to stop the scan there.
    """
    if fmt == "native":
        reader = _NativeReader()
    elif fmt == "soc":
        reader = _SocReader()
    else:
        raise ValueError(f"unknown profile format {fmt!r}: expected 'native' or 'soc'")
    reader.check_m = check_m
    tops: set[tuple[int, ...]] = set()
    lists = _line_lists(file)
    try:
        for lines in lists:
            if not reader.batch(lines):
                tops.update(ids[:2] for ids, _ in reader.lines(lines))
        reader.finish()
    except ProfileError:
        for _ in lists:  # invalid UTF-8 anywhere fails first, as it does in parse_*
            pass
        raise
    if reader.found:  # batch()'s codes, each (1 << first) - (1 << second), mapped to pairs once
        m = reader.m
        pairs = {(1 << a) - (1 << b): (a, b) for a in range(m) for b in range(m) if a != b}
        tops.update(map(pairs.__getitem__, reader.found))
    if reader.violations:
        raise InvalidElection(reader.violations)
    return ProfileScan(tuple(reader.names), reader.votes, frozenset(tops) if len(reader.names) > 1 else frozenset())


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
