"""Exception hierarchy.

Everything raised on purpose by this package derives from LinkDomainError,
so callers (and the fuzz tests) can distinguish structured failures from
bugs. Profile parsers only ever raise ProfileError or InvalidElection.
"""


class LinkDomainError(Exception):
    """Base class for all linkdomain errors."""


class ProfileError(LinkDomainError):
    """A profile file could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class ProfileSyntaxError(ProfileError):
    """Input does not match the profile grammar."""


class UnsupportedProfile(ProfileError):
    """Syntactically valid PrefLib content outside the strict-complete subset (ties, short orders)."""


class InconsistentMetadata(ProfileError):
    """PrefLib metadata contradicts itself or the data lines."""


class Violation(LinkDomainError):
    """One validation failure; aggregated into InvalidElection."""


class DuplicateCandidateName(Violation):
    pass


class EmptyCandidateName(Violation):
    pass


class IncompleteRanking(Violation):
    """A vote is not a permutation of the candidate set (missing/repeated entries)."""


class UnknownCandidate(Violation):
    pass


class EmptyCandidateSet(Violation):
    pass


class NonPositiveMultiplicity(Violation):
    pass


class InvalidElection(LinkDomainError):
    """Raised by validate_election; lists every violation found, not just the first."""

    def __init__(self, violations: list[Violation]):
        self.violations = tuple(violations)
        summary = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid election ({len(self.violations)} violation(s)): {summary}")


class UnrepresentableName(LinkDomainError):
    """Candidate name the native format cannot carry: it contains a character
    the grammar reserves (',', '>', newline), is empty, or has surrounding
    whitespace, which the parser trims; or a vertex name with a line break,
    which DOT text cannot carry."""


class SeedNotEdge(LinkDomainError):
    """Closure seeds must be edges of the graph."""


class NotAPermutation(LinkDomainError):
    """A claimed order is not a permutation of the vertex set."""


class InstanceTooLarge(LinkDomainError):
    """Instance exceeds the brute-force size cap."""
