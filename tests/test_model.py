import copy
import importlib
import pickle

import pytest
from hypothesis import given

from linkdomain import (
    ConnectivityGraph,
    DuplicateCandidateName,
    Election,
    EmptyCandidateSet,
    IncompleteRanking,
    InvalidElection,
    NonPositiveMultiplicity,
    ProfileScan,
    RecognitionResult,
    UnknownCandidate,
    default_names,
    recognize,
    validate_election,
)
from linkdomain.model import election_from_ids

from strategies import elections


class TestValidateElection:
    def test_minimal_election(self):
        e = validate_election(["a", "b"], [(["a", "b"], 1), (["b", "a"], 1)])
        assert e.m == 2
        assert e.n == 2
        assert e.names == ("a", "b")
        assert e.votes == (((0, 1), 1), ((1, 0), 1))

    def test_multiplicities_accumulate_in_n(self):
        e = validate_election(["a", "b"], [(["a", "b"], 3)])
        assert e.n == 3
        assert e.votes == (((0, 1), 3),)

    def test_incomplete_ranking(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "b", "c"], [(["a", "b"], 1)])
        assert any(isinstance(v, IncompleteRanking) for v in exc.value.violations)

    def test_repeated_candidate_in_vote(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "b"], [(["a", "a"], 1)])
        assert any(isinstance(v, IncompleteRanking) for v in exc.value.violations)

    def test_duplicate_candidate_name(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "a"], [])
        assert any(isinstance(v, DuplicateCandidateName) for v in exc.value.violations)

    def test_names_trimmed_before_uniqueness(self):
        with pytest.raises(InvalidElection):
            validate_election(["a", " a "], [])

    def test_unknown_candidate(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "b"], [(["a", "z"], 1)])
        assert any(isinstance(v, UnknownCandidate) for v in exc.value.violations)

    def test_empty_candidate_set(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election([], [])
        assert any(isinstance(v, EmptyCandidateSet) for v in exc.value.violations)

    def test_zero_multiplicity(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "b"], [(["a", "b"], 0)])
        assert any(isinstance(v, NonPositiveMultiplicity) for v in exc.value.violations)

    def test_all_violations_reported_at_once(self):
        with pytest.raises(InvalidElection) as exc:
            validate_election(["a", "a"], [(["a"], 1), (["a", "z"], 1)])
        kinds = {type(v) for v in exc.value.violations}
        assert DuplicateCandidateName in kinds
        assert len(exc.value.violations) >= 2

    def test_no_votes_is_fine(self):
        e = validate_election(["a", "b"], [])
        assert e.n == 0


@given(elections())
def test_every_vote_is_a_permutation(e):
    for ranking, mult in e.votes:
        assert sorted(ranking) == list(range(e.m))
        assert mult >= 1


def test_default_names_first_letters():
    assert default_names(3) == ("a", "b", "c")


def test_default_names_roll_over_past_z():
    names = default_names(30)
    assert names[25] == "z"
    assert names[26] == "aa"
    assert len(set(names)) == 30


def test_election_from_ids_rejects_non_permutation():
    with pytest.raises(InvalidElection):
        election_from_ids([((0, 0), 1)], 2)


def test_election_from_ids_rejects_a_wrong_number_of_names():
    with pytest.raises(ValueError, match="expected 3 names, got 2"):
        election_from_ids([], 3, ["a", "b"])


def test_election_from_ids_rejects_a_zero_multiplicity():
    with pytest.raises(InvalidElection) as exc:
        election_from_ids([((1, 0), 0)], 2)
    assert [type(v) for v in exc.value.violations] == [NonPositiveMultiplicity]


def test_election_keeps_the_names_it_is_given():
    e = election_from_ids([((1, 0), 2)], 2, ["x", "y"])
    assert e == Election(("x", "y"), (((1, 0), 2),))
    assert (e.names, e.m, e.n) == (("x", "y"), 2, 2)


class TestRecordValues:
    """The package's record types are immutable values: equal and hashed by
    their fields, only within one class, with a dataclass-style repr."""
    RECORDS = [
        (Election(("a", "b"), ()), Election(names=("a", "b"), votes=()), Election(("b", "a"), ()),
         "Election(names=('a', 'b'), votes=())"),
        (Election(("a",), (((0,), 2),)),
         Election(votes=(((0,), 2),), names=("a",)),
         Election(("a",), (((0,), 3),)),
         "Election(names=('a',), votes=(((0,), 2),))"),
        (ProfileScan(("a", "b"), 2, frozenset({(0, 1)})),
         ProfileScan(names=("a", "b"), n=2, top_pairs=frozenset({(0, 1)})),
         ProfileScan(("a", "b"), 3, frozenset({(0, 1)})),
         "ProfileScan(names=('a', 'b'), n=2, top_pairs=frozenset({(0, 1)}))"),
        (RecognitionResult(True, (0, 1)), RecognitionResult(linked=True, witness=(0, 1), certificate=None),
         RecognitionResult(True, (1, 0)),
         "RecognitionResult(linked=True, witness=(0, 1), certificate=None)"),
    ]

    @pytest.mark.parametrize("record, same, other, text", RECORDS)
    def test_value_semantics(self, record, same, other, text):
        fields = tuple(getattr(record, name) for name in type(record).__match_args__)
        assert record == same and hash(record) == hash(same) == hash(fields)
        assert record != other and record != fields
        assert repr(record) == repr(same) == text
        assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record
        for name in type(record).__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_only_the_same_class_is_equal(self):
        class Named(Election):
            pass

        assert Named(("a",), ()) != Election(("a",), ())
        assert Named(("a",), ()) == Named(("a",), ())

    def test_not_linked_result_is_unhashable_and_compares_stuck_sets(self, monkeypatch):
        # The certificate is a Mapping, so it has no hash, and == compares
        # two certificates as mappings: every stuck set, on both sides, is
        # recomputed by greedy_closure.
        module = importlib.import_module("linkdomain.recognize")
        closure = module.greedy_closure
        calls = []

        def counted(graph, seed):
            calls.append(seed)
            return closure(graph, seed)

        path = [(0, 1), (1, 2)]
        result = recognize(ConnectivityGraph(3, path))
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)
        monkeypatch.setattr(module, "greedy_closure", counted)
        assert result == recognize(ConnectivityGraph(3, path))
        assert calls == path * 2
        assert result != recognize(ConnectivityGraph(3, [(0, 2), (1, 2)]))

    def test_defaults_and_patterns(self):
        result = RecognitionResult(linked=False)
        assert result == RecognitionResult(False, None, None)
        assert (result.witness, result.certificate, result.verdict) == (None, None, "not-linked")
        match Election(("c",), (((0,), 1),)):
            case Election(names, votes):
                assert (names, votes) == (("c",), (((0,), 1),))
        with pytest.raises(TypeError):
            Election(("c",))
