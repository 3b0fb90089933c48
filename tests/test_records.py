"""The parameter records: validated, immutable named tuples.

Every way to build a record runs its checks: the constructor, ``_make``,
``_replace``, ``pickle`` and ``copy``.  A record equals only a record of
its own type with the same values, and hashes like the tuple of them.
"""

import collections
import copy
import pickle

import pytest

from heunic import (
    Clausen3F2Params,
    ConfluentHeunParams,
    DomainError,
    FamilyParamsNeg,
    FamilyParamsPos,
    Gauss2F1Params,
    GeneralHeunParams,
    Mutation,
    SeriesOptions,
)

# each record: its fields and a valid value, and one field value it refuses
# (None: the record checks nothing)
RECORDS = {
    SeriesOptions: ({"max_terms": 500, "rel_tol": 1e-12}, {"rel_tol": 0.0}),
    GeneralHeunParams: ({"a": 0.5, "q": 1.0, "alpha": 2.0, "beta": 3.0, "gamma": 1.5,
                         "delta": 0.5}, {"a": 0.0}),
    ConfluentHeunParams: ({"p": 0.5, "gamma": 1.0, "delta": 1.0, "alpha": 0.5,
                           "sigma": 1.0}, {"p": 0.0}),
    FamilyParamsNeg: ({"n": 5, "theta": 0.3, "gamma": 1.5}, {"n": -1}),
    FamilyParamsPos: ({"n": 5, "theta": 0.3, "gamma": 2}, {"gamma": 6}),
    Gauss2F1Params: ({"a": 0.5, "b": 1.0, "c": 1.5}, {"c": -2.0}),
    Clausen3F2Params: ({"a1": 0.5, "a2": 1.0, "a3": 1.0, "b1": 1.5, "b2": 3.0},
                       {"b1": 0.0}),
    Mutation: ({"site": 4, "delta": -1}, None),
}
VALIDATED = [cls for cls, (_, bad) in RECORDS.items() if bad is not None]


def record(cls):
    return cls(**RECORDS[cls][0])


def unchecked(cls):
    """A record holding the refused value, built past its checks."""
    fields, bad = RECORDS[cls]
    return tuple.__new__(cls, tuple({**fields, **bad}.values()))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_fields_in_order(self, cls):
        fields = RECORDS[cls][0]
        assert cls._fields == tuple(fields)
        assert record(cls)._asdict() == fields

    def test_positional_and_keyword_construction_agree(self, cls):
        fields = RECORDS[cls][0]
        r = cls(*fields.values())
        assert r == record(cls)
        assert tuple(r) == tuple(fields.values())
        assert [getattr(r, name) for name in fields] == list(fields.values())

    def test_repr_names_every_field(self, cls):
        fields = RECORDS[cls][0]
        assert repr(record(cls)) == (
            f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")

    def test_assignment_raises_attribute_error(self, cls):
        r = record(cls)
        with pytest.raises(AttributeError):
            setattr(r, cls._fields[0], 1)
        with pytest.raises(AttributeError):
            r.no_such_field = 1

    def test_hash_and_equality_by_value(self, cls):
        r, twin = record(cls), record(cls)
        assert r == twin and not r != twin
        assert hash(r) == hash(twin) == hash(tuple(r))
        assert len({r, twin}) == 1

    def test_equal_only_to_its_own_type(self, cls):
        r = record(cls)
        plain = tuple(r)
        lookalike = collections.namedtuple(cls.__name__, cls._fields)(*r)
        assert not r == plain and not plain == r
        assert r != plain and plain != r
        assert not r == lookalike and r != lookalike
        assert len({r, plain}) == 2
        assert r != object()

    def test_copy_and_pickle_round_trip(self, cls):
        r = record(cls)
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and type(twin) is cls

    def test_make_and_replace_build_the_record(self, cls):
        r = record(cls)
        assert type(cls._make(r)) is cls and cls._make(r) == r
        first = cls._fields[0]
        assert r._replace(**{first: getattr(r, first)}) == r


def test_defaults():
    assert SeriesOptions() == SeriesOptions(10000, 1e-15)
    assert SeriesOptions(rel_tol=1e-9) == SeriesOptions(10000, 1e-9)
    assert Mutation(3) == Mutation(site=3) == Mutation(3, 1)


def test_records_of_equal_values_but_other_types_differ():
    neg, pos = FamilyParamsNeg(5, 0.3, 2), FamilyParamsPos(5, 0.3, 2)
    assert tuple(neg) == tuple(pos)
    assert neg != pos and not neg == pos
    assert len({neg, pos}) == 2


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda cls: cls.__name__)
class TestValidation:
    def test_constructor_refuses(self, cls):
        fields, bad = RECORDS[cls]
        with pytest.raises(DomainError):
            cls(**{**fields, **bad})
        with pytest.raises(DomainError):
            cls(*{**fields, **bad}.values())

    def test_make_refuses(self, cls):
        fields, bad = RECORDS[cls]
        with pytest.raises(DomainError):
            cls._make({**fields, **bad}.values())

    def test_replace_refuses(self, cls):
        with pytest.raises(DomainError):
            record(cls)._replace(**RECORDS[cls][1])

    def test_copy_and_pickle_refuse(self, cls):
        bad = unchecked(cls)
        payload = pickle.dumps(bad)
        with pytest.raises(DomainError):
            pickle.loads(payload)
        with pytest.raises(DomainError):
            copy.copy(bad)
        with pytest.raises(DomainError):
            copy.deepcopy(bad)


def test_replace_refuses_an_unknown_field():
    with pytest.raises(ValueError):
        SeriesOptions()._replace(max_term=5)
