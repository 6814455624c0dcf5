"""linkdomain: decide whether a preference profile is a linked domain.

An election is linked when its candidates admit an order whose first two
members are connected (two votes swap them across the top two positions)
and every later member is connected to at least two earlier ones.
recognize_election answers in polynomial time and returns either a
verifiable witness order or, per seed edge, the stuck set that proves no
order with that seed exists.
"""

from . import kernels
from .errors import (
    DuplicateCandidateName,
    EmptyCandidateName,
    EmptyCandidateSet,
    IncompleteRanking,
    InconsistentMetadata,
    InstanceTooLarge,
    InvalidElection,
    LinkDomainError,
    NonPositiveMultiplicity,
    NotAPermutation,
    ProfileError,
    ProfileSyntaxError,
    SeedNotEdge,
    UnknownCandidate,
    UnrepresentableName,
    UnsupportedProfile,
    Violation,
)
from .graph import ConnectivityGraph, Mode, build_graph
from .recognize import (
    LinkedOrder,
    RecognitionResult,
    StuckCertificate,
    greedy_closure,
    recognize,
    recognize_election,
    verify_witness,
)

__version__ = "0.1.0"

# The package imports the recognizer. The profile readers and the election
# model, which check imports through cli, and the generators, the
# brute-force oracle and the graph-file readers and writers, which serve
# tests, fixtures, the gen and oracle commands and check's --graph-out, are
# imported on first access.
_LAZY = {
    "parse_native": "profiles",
    "parse_preflib_soc": "profiles",
    "scan_profile": "profiles",
    "Election": "model",
    "ProfileScan": "model",
    "Vote": "model",
    "default_names": "model",
    "validate_election": "model",
    "export_dot": "graphio",
    "parse_graph": "graphio",
    "write_native": "graphio",
    "gen_edge_realizing": "generate",
    "gen_impartial_culture": "generate",
    "gen_linked_graph": "generate",
    "gen_pendant_clique": "generate",
    "gen_random_graph": "generate",
    "brute_force_linked": "oracle",
    "enumerate_graphs": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ConnectivityGraph",
    "DuplicateCandidateName",
    "Election",
    "EmptyCandidateName",
    "EmptyCandidateSet",
    "IncompleteRanking",
    "InconsistentMetadata",
    "InstanceTooLarge",
    "InvalidElection",
    "LinkDomainError",
    "LinkedOrder",
    "Mode",
    "NonPositiveMultiplicity",
    "NotAPermutation",
    "ProfileError",
    "ProfileScan",
    "ProfileSyntaxError",
    "RecognitionResult",
    "SeedNotEdge",
    "StuckCertificate",
    "UnknownCandidate",
    "UnrepresentableName",
    "UnsupportedProfile",
    "Violation",
    "Vote",
    "brute_force_linked",
    "build_graph",
    "default_names",
    "enumerate_graphs",
    "export_dot",
    "gen_edge_realizing",
    "gen_impartial_culture",
    "gen_linked_graph",
    "gen_pendant_clique",
    "gen_random_graph",
    "greedy_closure",
    "kernels",
    "parse_graph",
    "parse_native",
    "parse_preflib_soc",
    "recognize",
    "recognize_election",
    "scan_profile",
    "validate_election",
    "verify_witness",
    "write_native",
]
