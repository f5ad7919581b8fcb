"""The six record classes behave as values: construction by position and by
keyword, validation messages, equality and hashing by value, repr text, and
frozen fields (``CheckReport`` alone is mutable)."""

import pytest

from qtmoments.cards import CardArrangement
from qtmoments.cfrac import ContinuedFractionSpec
from qtmoments.fock import CheckReport, OperatorWord
from qtmoments.orthopoly import JacobiParams
from qtmoments.partitions import SetPartition, _statistics
from qtmoments.ring import LAMBDA, Q

WORD = OperatorWord("AC")
PART = SetPartition((0, 0))

#: (class, positional arguments, field names, repr text) per frozen class.
FROZEN = [
    (SetPartition, ((0, 1, 0),), ("rgs",), "SetPartition(rgs=(0, 1, 0))"),
    (OperatorWord, ("ASC",), ("letters",), "OperatorWord(letters='ASC')"),
    (CardArrangement, (WORD, ("C0", "A1_1"), LAMBDA, PART), ("word", "cards", "weight", "partition"),
     "CardArrangement(word=OperatorWord(letters='AC'), cards=('C0', 'A1_1'), "
     "weight=Poly(lambda), partition=SetPartition(rgs=(0, 0)))"),
    (JacobiParams, ("j", abs, len), ("name", "alpha", "omega"),
     f"JacobiParams(name='j', alpha={abs!r}, omega={len!r})"),
    (ContinuedFractionSpec, ((LAMBDA, Q), (Q,)), ("b", "lam"),
     "ContinuedFractionSpec(b=(Poly(lambda), Poly(q)), lam=(Poly(q),))"),
]


@pytest.mark.parametrize("cls, args, names, text", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_frozen_record(cls, args, names, text):
    record = cls(*args)
    assert record == cls(**dict(zip(names, args)))
    assert tuple(getattr(record, name) for name in names) == args
    assert repr(record) == text
    assert hash(record) == hash(cls(*args)) and len({record, cls(*args)}) == 1
    assert record != args and record != args[0] and record is not None
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
    assert tuple(getattr(record, name) for name in names) == args


#: The frozen classes with a tuple field.
TUPLE_HOLDERS = [row for row in FROZEN if tuple in map(type, row[1])]


@pytest.mark.parametrize("cls, args, names, text", TUPLE_HOLDERS,
                         ids=[row[0].__name__ for row in TUPLE_HOLDERS])
def test_frozen_record_built_from_lists_holds_tuples(cls, args, names, text):
    # a stored list would compare unequal, fail to hash and stay mutable
    record = cls(*(list(arg) if type(arg) is tuple else arg for arg in args))
    assert record == cls(*args) and hash(record) == hash(cls(*args))
    assert repr(record) == text


def test_frozen_records_differ_by_value():
    assert SetPartition((0, 1, 0)) != SetPartition((0, 1, 1))
    assert OperatorWord("AC") != OperatorWord("CA")
    assert OperatorWord("AC") != ("AC",)
    assert JacobiParams("j", abs, len) != JacobiParams("j", len, abs)
    assert ContinuedFractionSpec((Q,), ()) != ContinuedFractionSpec((LAMBDA,), ())
    assert CardArrangement(WORD, (), LAMBDA, PART) != CardArrangement(WORD, (), Q, PART)


@pytest.mark.parametrize("make, message", [
    (lambda: SetPartition((0, 2, 0)), r"^not a restricted growth string: \(0, 2, 0\)$"),
    (lambda: SetPartition(()), r"^a partition needs at least one element$"),
    (lambda: OperatorWord("AX"), r"^not a word over CANS: 'AX'$"),
    (lambda: OperatorWord(letters=None), r"^not a word over CANS: None$"),
    (lambda: ContinuedFractionSpec(b=(Q,), lam=(Q,)),
     r"^need exactly one more b entry than lam entries$"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_partition_statistics_are_cached_and_trusted():
    rgs = (0, 1, 0, 1)
    p = SetPartition(rgs)
    assert p.statistics == _statistics(rgs) and p.statistics is p.statistics
    trusted = SetPartition._trusted(rgs)
    assert trusted == p and hash(trusted) == hash(p) and repr(trusted) == repr(p)
    assert trusted.statistics == _statistics(rgs)
    assert SetPartition._trusted(rgs, ("given",)).statistics == ("given",)


def test_check_report_is_mutable_with_its_own_failures():
    a, b = CheckReport("a"), CheckReport(name="a")
    assert a == b and repr(a) == "CheckReport(name='a', checked=0, failures=[])"
    a.record(False, "broken")
    a.name = "renamed"
    assert repr(a) == "CheckReport(name='renamed', checked=1, failures=['broken'])"
    assert b.failures == [] and a != b
    assert CheckReport("c", 2, ["x"]) == CheckReport(name="c", checked=2, failures=["x"])
    with pytest.raises(TypeError):
        hash(a)
