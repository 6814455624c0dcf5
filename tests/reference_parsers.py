"""Reference copy of the profile parsers and validate_election as they were
before ingest resolved rankings in one pass.

The functions below are kept verbatim (imports aside) so that
test_parser_parity.py can check that the one-pass parsers accept the same
language, build equal Elections and fail with the same errors, messages,
line and column numbers and violation lists. Do not edit them to follow the
program: they are the specification the program is checked against. One rule
was added on purpose, as the program's language changed: parse_preflib_soc
refuses an ALTERNATIVE NAME line after a data line unless its name is its id.
"""

import re
from typing import Iterable, Sequence

from linkdomain.errors import (
    DuplicateCandidateName,
    EmptyCandidateName,
    EmptyCandidateSet,
    IncompleteRanking,
    InconsistentMetadata,
    InvalidElection,
    NonPositiveMultiplicity,
    ProfileSyntaxError,
    UnknownCandidate,
    UnsupportedProfile,
    Violation,
)
from linkdomain.model import Election, Vote

_HEADER_PREFIX = "candidates:"
_META_RE = re.compile(r"^#\s*([A-Z][A-Z ]*?)\s*(\d*)\s*:\s*(.*?)\s*$")


def _decode(text: str | bytes) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = text.count(b"\n", 0, exc.start) + 1
        raise ProfileSyntaxError(f"invalid UTF-8 ({exc.reason})", line=line) from None


def parse_native(text: str | bytes) -> Election:
    """Parse the native profile format into a validated Election."""
    header: list[str] | None = None
    rankings: list[tuple[list[str], int]] = []
    lines = _decode(text).splitlines()

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_HEADER_PREFIX):
            if header is not None:
                raise ProfileSyntaxError("second candidates: line", line=line_no, column=1)
            header = [part.strip() for part in line[len(_HEADER_PREFIX):].split(",")]
            for part in header:
                if not part:
                    raise ProfileSyntaxError("empty candidate name in header", line=line_no)
            continue
        if header is None:
            raise ProfileSyntaxError(
                "ranking line before the candidates: header", line=line_no, column=1
            )
        count_part, sep, rest = line.partition(":")
        if not sep:
            raise ProfileSyntaxError("expected '<count>: <ranking>'", line=line_no, column=1)
        count_str = count_part.strip()
        if not (count_str.isascii() and count_str.isdigit()) or int(count_str) < 1:
            raise ProfileSyntaxError(
                f"multiplicity must be a positive integer, got {count_str!r}",
                line=line_no,
                column=_column(raw, count_str),
            )
        names = [part.strip() for part in rest.split(">")]
        for part in names:
            if not part:
                raise ProfileSyntaxError("empty candidate name in ranking", line=line_no)
        rankings.append((names, int(count_str)))

    if header is None:
        raise ProfileSyntaxError("missing candidates: header", line=max(1, len(lines)))
    return validate_election(header, rankings)


def _column(raw_line: str, token: str) -> int:
    pos = raw_line.find(token) if token else -1
    return pos + 1 if pos >= 0 else 1


def parse_preflib_soc(text: str | bytes) -> Election:
    """Parse a PrefLib strict-complete-orders file into a validated Election."""
    m: int | None = None
    declared_voters: int | None = None
    alt_names: dict[int, str] = {}
    rankings: list[tuple[list[str], int]] = []
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
                try:
                    declared = int(value)
                except ValueError:
                    raise ProfileSyntaxError(
                        f"NUMBER ALTERNATIVES is not an integer: {value!r}", line=line_no
                    ) from None
                if m is not None and declared != m:
                    raise InconsistentMetadata(
                        f"NUMBER ALTERNATIVES redeclared as {declared}, was {m}", line=line_no
                    )
                if declared > 1_000_000:
                    raise UnsupportedProfile(
                        f"{declared} alternatives is beyond the supported size", line=line_no
                    )
                m = declared
            elif key == "ALTERNATIVE NAME" and index:
                idx = int(index)
                if idx in alt_names:
                    raise InconsistentMetadata(
                        f"ALTERNATIVE NAME {idx} declared twice", line=line_no
                    )
                if rankings and value != str(idx):
                    raise InconsistentMetadata(
                        f"ALTERNATIVE NAME {idx} declared after a data line", line=line_no
                    )
                alt_names[idx] = value
            elif key == "NUMBER VOTERS" and not index:
                try:
                    declared_voters = int(value)
                except ValueError:
                    raise ProfileSyntaxError(
                        f"NUMBER VOTERS is not an integer: {value!r}", line=line_no
                    ) from None
            # every other key is forward-compatible metadata
            continue

        if "{" in line or "}" in line:
            raise UnsupportedProfile("orders with ties are not supported", line=line_no)
        count_part, sep, rest = line.partition(":")
        if not sep:
            raise ProfileSyntaxError("expected '<count>: <id>,<id>,...'", line=line_no, column=1)
        count_str = count_part.strip()
        if not (count_str.isascii() and count_str.isdigit()) or int(count_str) < 1:
            raise ProfileSyntaxError(
                f"vote count must be a positive integer, got {count_str!r}", line=line_no, column=1
            )
        alternatives = require_m(line_no)
        ids = []
        for token in rest.split(","):
            token = token.strip()
            if not re.fullmatch(r"-?\d+", token):
                raise ProfileSyntaxError(
                    f"alternative id is not an integer: {token!r}", line=line_no
                )
            ids.append(int(token))
        if len(ids) != alternatives:
            raise UnsupportedProfile(
                f"expected a complete order over {alternatives} alternatives, got {len(ids)}",
                line=line_no,
            )
        for alt in ids:
            if not 1 <= alt <= alternatives:
                raise InconsistentMetadata(
                    f"alternative id {alt} outside 1..{alternatives}", line=line_no
                )
        count = int(count_str)
        total_votes += count
        rankings.append(([_alt_name(alt_names, alt) for alt in ids], count))

    eof = max(1, len(lines))
    alternatives = require_m(eof)
    for idx in alt_names:
        if not 1 <= idx <= alternatives:
            raise InconsistentMetadata(
                f"ALTERNATIVE NAME {idx} outside 1..{alternatives}", line=eof
            )
    if declared_voters is not None and declared_voters != total_votes:
        raise InconsistentMetadata(
            f"NUMBER VOTERS is {declared_voters} but data lines sum to {total_votes}", line=eof
        )
    names = [_alt_name(alt_names, i) for i in range(1, alternatives + 1)]
    return validate_election(names, rankings)


def _alt_name(alt_names: dict[int, str], idx: int) -> str:
    return alt_names.get(idx, str(idx))


def validate_election(
    names: Iterable[str],
    rankings: Iterable[tuple[Sequence[str], int]],
) -> Election:
    """Build an Election from raw candidate names and name-based rankings.

    Args:
        names: candidate display names, in id order; surrounding whitespace
            is trimmed.
        rankings: (sequence of names most-preferred first, multiplicity)
            pairs.

    Returns:
        A well-formed Election.

    Raises:
        InvalidElection: listing every violation found
            (DuplicateCandidateName, UnknownCandidate, IncompleteRanking,
            EmptyCandidateSet, NonPositiveMultiplicity).
    """
    violations: list[Violation] = []

    trimmed = [str(name).strip() for name in names]
    if not trimmed:
        violations.append(EmptyCandidateSet("candidate set is empty"))
    seen: dict[str, int] = {}
    for i, name in enumerate(trimmed):
        if not name:
            violations.append(EmptyCandidateName(f"candidate {i} has an empty name"))
        elif name in seen:
            violations.append(DuplicateCandidateName(f"duplicate candidate name {name!r}"))
        else:
            seen[name] = i

    m = len(trimmed)
    votes: list[tuple[Vote, int]] = []
    for line_no, (raw_ranking, mult) in enumerate(rankings, start=1):
        if mult < 1:
            violations.append(
                NonPositiveMultiplicity(f"vote {line_no}: multiplicity {mult} is not positive")
            )
        ids: list[int] = []
        ok = True
        for raw in raw_ranking:
            name = str(raw).strip()
            cid = seen.get(name)
            if cid is None:
                violations.append(UnknownCandidate(f"vote {line_no}: unknown candidate {name!r}"))
                ok = False
            else:
                ids.append(cid)
        if ok and (len(ids) != m or len(set(ids)) != m):
            violations.append(
                IncompleteRanking(
                    f"vote {line_no}: ranking is not a permutation of the {m} candidates"
                )
            )
            ok = False
        if ok:
            votes.append((tuple(ids), mult))

    if violations:
        raise InvalidElection(violations)
    return Election(tuple(trimmed), tuple(votes))
