import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkdomain import (
    Candidate,
    DuplicateCandidateName,
    Election,
    EmptyCandidateSet,
    IncompleteRanking,
    InvalidElection,
    NonPositiveMultiplicity,
    ProfileScan,
    RecognitionResult,
    TooFewCandidates,
    UnknownCandidate,
    default_names,
    top_two,
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


class TestTopTwo:
    def test_plain(self):
        assert top_two((0, 1, 2)) == (0, 1)

    def test_other_order(self):
        assert top_two((2, 0, 1)) == (2, 0)

    def test_single_candidate(self):
        with pytest.raises(TooFewCandidates):
            top_two((0,))

    @given(st.permutations(range(5)))
    def test_tail_is_ignored(self, order):
        tail_reversed = tuple(order[:2]) + tuple(reversed(order[2:]))
        assert top_two(tuple(order)) == top_two(tail_reversed)


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


class TestRecordValues:
    """The package's record types are immutable values: equal and hashed by
    their fields, only within one class, with a dataclass-style repr."""
    RECORDS = [
        (Candidate(0, "a"), Candidate(id=0, name="a"), Candidate(1, "a"),
         "Candidate(id=0, name='a')"),
        (Election((Candidate(0, "a"),), (((0,), 2),)),
         Election(votes=(((0,), 2),), candidates=(Candidate(0, "a"),)),
         Election((Candidate(0, "a"),), (((0,), 3),)),
         "Election(candidates=(Candidate(id=0, name='a'),), votes=(((0,), 2),))"),
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
        class Named(Candidate):
            pass

        assert Named(0, "a") != Candidate(0, "a")
        assert Named(0, "a") == Named(0, "a")

    def test_defaults_and_patterns(self):
        result = RecognitionResult(linked=False)
        assert result == RecognitionResult(False, None, None)
        assert (result.witness, result.certificate, result.verdict) == (None, None, "not-linked")
        match Candidate(2, "c"):
            case Candidate(cid, name):
                assert (cid, name) == (2, "c")
        with pytest.raises(TypeError):
            Candidate(0)
