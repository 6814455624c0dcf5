"""Core election model: candidate names, votes, and validated elections.

Candidates are referenced internally by dense integer id (0..m-1), the
position of their display name; names appear only at I/O boundaries. A
vote is a complete strict ranking, stored as a tuple of candidate ids,
most-preferred first. Duplicate rankings are kept with an explicit
multiplicity instead of being expanded.
"""

from typing import Iterable, Sequence

from .errors import (
    DuplicateCandidateName,
    EmptyCandidateName,
    EmptyCandidateSet,
    IncompleteRanking,
    InvalidElection,
    NonPositiveMultiplicity,
    UnknownCandidate,
    Violation,
)
from .record import Record

Vote = tuple[int, ...]


class Election(Record):
    """Candidate names plus a multiset of complete strict rankings.

    names holds the display names in id order, so candidate i is names[i].
    votes holds (ranking, multiplicity) pairs in input order; the same
    ranking may appear on several lines. All types are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("names", "votes")

    def __init__(self, names: tuple[str, ...], votes: tuple[tuple[Vote, int], ...]):
        self._fill(names, votes)

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.votes)

    @property
    def top_pairs(self) -> frozenset[tuple[int, int]]:
        """Ordered (first, second) pairs occurring in some vote; none with one candidate."""
        return frozenset(ranking[:2] for ranking, _ in self.votes) if self.m > 1 else frozenset()


class ProfileScan(Record):
    """What profiles.scan_profile keeps of a valid profile: the candidate
    names, the vote total and the top pairs. The connectivity graph depends
    on nothing else, so build_graph accepts it in place of an Election."""

    __slots__ = ("names", "n", "top_pairs")

    def __init__(self, names: tuple[str, ...], n: int, top_pairs: frozenset[tuple[int, int]]):
        self._fill(names, n, top_pairs)

    @property
    def m(self) -> int:
        return len(self.names)


def default_names(m: int) -> tuple[str, ...]:
    """Deterministic display names: a..z, then aa, ab, ... (bijective base 26)."""
    names = []
    for i in range(m):
        k, chars = i + 1, []
        while k:
            k, r = divmod(k - 1, 26)
            chars.append(chr(ord("a") + r))
        names.append("".join(reversed(chars)))
    return tuple(names)


def validate_election(
    names: Iterable[str],
    rankings: Iterable[tuple[Sequence[str], int]],
) -> Election:
    """Build an Election from raw candidate names and name-based rankings.

    Args:
        names: candidate display names, in id order; surrounding whitespace
            is trimmed.
        rankings: (sequence of names most-preferred first, multiplicity)
            pairs; surrounding whitespace of each name is trimmed.

    Returns:
        A well-formed Election.

    Raises:
        InvalidElection: listing every violation found
            (DuplicateCandidateName, UnknownCandidate, IncompleteRanking,
            EmptyCandidateSet, NonPositiveMultiplicity).
    """
    violations: list[Violation] = []
    trimmed, index = index_candidates(names, violations)
    m = len(trimmed)
    votes: list[tuple[Vote, int]] = []
    for vote_no, (raw_ranking, mult) in enumerate(rankings, start=1):
        if mult < 1:
            violations.append(
                NonPositiveMultiplicity(f"vote {vote_no}: multiplicity {mult} is not positive")
            )
        ids = resolve_ranking(
            [str(raw).strip() for raw in raw_ranking], index, m, vote_no, violations
        )
        if ids is not None:
            votes.append((ids, mult))
    return make_election(trimmed, votes, violations)


def index_candidates(
    names: Iterable[str], violations: list[Violation]
) -> tuple[list[str], dict[str, int]]:
    """Trim the candidate names and map each to its id.

    Appends EmptyCandidateSet, EmptyCandidateName and DuplicateCandidateName
    violations. Empty names are left out of the index, and a repeated name
    keeps the id of its first occurrence.
    """
    trimmed = [str(name).strip() for name in names]
    if not trimmed:
        violations.append(EmptyCandidateSet("candidate set is empty"))
    index: dict[str, int] = {}
    for i, name in enumerate(trimmed):
        if not name:
            violations.append(EmptyCandidateName(f"candidate {i} has an empty name"))
        elif name in index:
            violations.append(DuplicateCandidateName(f"duplicate candidate name {name!r}"))
        else:
            index[name] = i
    return trimmed, index


def resolve_ranking(
    ranking: Sequence[str],
    index: dict[str, int],
    m: int,
    vote_no: int,
    violations: list[Violation],
) -> Vote | None:
    """Candidate ids of one ranking of trimmed names, most-preferred first.

    Returns None after appending the ranking's violations: one
    UnknownCandidate per name not in index, in order, or else an
    IncompleteRanking if the ids are not a permutation of 0..m-1. vote_no
    (1-based) numbers the messages.
    """
    ids: list[int] = []
    ok = True
    for name in ranking:
        cid = index.get(name)
        if cid is None:
            violations.append(UnknownCandidate(f"vote {vote_no}: unknown candidate {name!r}"))
            ok = False
        else:
            ids.append(cid)
    if ok and (len(ids) != m or len(set(ids)) != m):
        violations.append(
            IncompleteRanking(
                f"vote {vote_no}: ranking is not a permutation of the {m} candidates"
            )
        )
        ok = False
    return tuple(ids) if ok else None


def make_election(
    names: Sequence[str], votes: list[tuple[Vote, int]], violations: list[Violation]
) -> Election:
    """The Election of validated names and votes; InvalidElection if any violation was found."""
    if violations:
        raise InvalidElection(violations)
    return Election(tuple(names), tuple(votes))


def election_from_ids(
    votes: Iterable[tuple[Sequence[int], int]],
    m: int,
    names: Sequence[str] | None = None,
) -> Election:
    """Assemble an Election from id-based rankings (generator/test plumbing)."""
    name_list = tuple(names) if names is not None else default_names(m)
    if len(name_list) != m:
        raise ValueError(f"expected {m} names, got {len(name_list)}")
    packed: list[tuple[Vote, int]] = []
    for ranking, mult in votes:
        vote = tuple(ranking)
        if sorted(vote) != list(range(m)):
            raise InvalidElection(
                [IncompleteRanking(f"ranking {vote} is not a permutation of 0..{m - 1}")]
            )
        if mult < 1:
            raise InvalidElection(
                [NonPositiveMultiplicity(f"multiplicity {mult} is not positive")]
            )
        packed.append((vote, mult))
    return Election(name_list, tuple(packed))
