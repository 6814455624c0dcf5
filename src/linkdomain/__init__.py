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
    TooFewCandidates,
    UnknownCandidate,
    UnrepresentableName,
    UnsupportedProfile,
    Violation,
)
from .generate import (
    gen_edge_realizing,
    gen_impartial_culture,
    gen_linked_graph,
    gen_pendant_clique,
    gen_random_graph,
)
from .graph import ConnectivityGraph, Mode, build_graph, top_pair_set
from .model import Candidate, Election, ProfileScan, Vote, default_names, top_two, validate_election
from .oracle import brute_force_linked, enumerate_graphs, linked_via_all_pair_seeds
from .profiles import export_dot, parse_graph, parse_native, parse_preflib_soc, scan_profile, write_native
from .recognize import (
    ClosureState,
    LinkedOrder,
    RecognitionResult,
    StuckCertificate,
    greedy_closure,
    recognize,
    recognize_election,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "ClosureState",
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
    "TooFewCandidates",
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
    "linked_via_all_pair_seeds",
    "parse_graph",
    "parse_native",
    "parse_preflib_soc",
    "recognize",
    "recognize_election",
    "scan_profile",
    "top_pair_set",
    "top_two",
    "validate_election",
    "verify_witness",
    "write_native",
]
