"""Unit and property tests for sequence-number machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.routing.seqnum import (
    COUNTER_MAX,
    LabeledSeq,
    circular_geq,
    circular_greater,
)

# ----------------------------------------------------------------------
# LabeledSeq (LDR's timestamp+counter labels)
# ----------------------------------------------------------------------


def test_labeled_seq_ordering_by_counter():
    assert LabeledSeq(0, 1) > LabeledSeq(0, 0)
    assert LabeledSeq(0, 0) < LabeledSeq(0, 5)


def test_labeled_seq_timestamp_dominates():
    assert LabeledSeq(10.0, 0) > LabeledSeq(5.0, 999)


def test_labeled_seq_equality_and_hash():
    assert LabeledSeq(1.0, 2) == LabeledSeq(1.0, 2)
    assert hash(LabeledSeq(1.0, 2)) == hash(LabeledSeq(1.0, 2))
    assert LabeledSeq(1.0, 2) != LabeledSeq(1.0, 3)


def test_incremented_is_strictly_greater():
    seq = LabeledSeq(0.0, 0)
    nxt = seq.incremented(now=100.0)
    assert nxt > seq
    assert nxt.counter == 1


def test_increment_wraps_counter_with_fresh_timestamp():
    seq = LabeledSeq(0.0, COUNTER_MAX)
    nxt = seq.incremented(now=500.0)
    assert nxt.counter == 0
    assert nxt.timestamp == 500.0
    assert nxt > seq  # monotone across the wrap


def test_labeled_seq_is_immutable_increment():
    seq = LabeledSeq(0.0, 3)
    seq.incremented(now=1.0)
    assert seq.counter == 3


@given(
    ts=st.floats(0, 1e6),
    counter=st.integers(0, COUNTER_MAX),
    now=st.floats(1e6 + 1, 2e6),
)
def test_property_increment_monotone(ts, counter, now):
    """incremented() is strictly increasing as long as time moves forward."""
    seq = LabeledSeq(ts, counter)
    assert seq.incremented(now) > seq


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 100)),
                min_size=2, max_size=10))
def test_property_total_order(pairs):
    seqs = [LabeledSeq(ts, c) for ts, c in pairs]
    ordered = sorted(seqs)
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b


_ORDERINGS = (
    ("<", lambda a, b: a < b),
    ("<=", lambda a, b: a <= b),
    (">", lambda a, b: a > b),
    (">=", lambda a, b: a >= b),
    ("==", lambda a, b: a == b),
    ("!=", lambda a, b: a != b),
)


def _assert_orders_like_tuples(a, b):
    left, right = LabeledSeq(*a), LabeledSeq(*b)
    for name, op in _ORDERINGS:
        assert op(left, right) == op(a, b), (a, name, b)


@given(st.tuples(st.sampled_from([0.0, 1.5, 2.0]), st.integers(0, 3)),
       st.tuples(st.sampled_from([0.0, 1.5, 2.0]), st.integers(0, 3)))
def test_property_operators_match_tuple_order(a, b):
    # Few distinct values, so equal timestamps and equal labels are common.
    _assert_orders_like_tuples(a, b)


def test_operators_at_equal_timestamps():
    for a, b in (((3.0, 1), (3.0, 2)), ((3.0, 2), (3.0, 1)),
                 ((3.0, 2), (3.0, 2)), ((3.0, 9), (4.0, 0)),
                 ((0.0, 0), (-0.0, 0))):
        _assert_orders_like_tuples(a, b)


def test_foreign_operands_are_not_ordered():
    label = LabeledSeq(1.0, 2)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(label, name)((1.0, 2)) is NotImplemented
    for foreign in ((1.0, 2), 5, None, "x"):
        for _, op in _ORDERINGS[:4]:
            with pytest.raises(TypeError):
                op(label, foreign)
            with pytest.raises(TypeError):
                op(foreign, label)
        assert label != foreign
        assert not label == foreign


# ----------------------------------------------------------------------
# AODV circular 32-bit comparison
# ----------------------------------------------------------------------


def test_circular_greater_basic():
    assert circular_greater(5, 3)
    assert not circular_greater(3, 5)
    assert not circular_greater(4, 4)


def test_circular_greater_survives_rollover():
    top = 2 ** 32 - 1
    assert circular_greater(1, top)
    assert not circular_greater(top, 1)


def test_circular_geq():
    assert circular_geq(4, 4)
    assert circular_geq(5, 4)
    assert not circular_geq(4, 5)


@given(a=st.integers(0, 2 ** 32 - 1), b=st.integers(0, 2 ** 32 - 1))
def test_property_circular_antisymmetric(a, b):
    """For distinct values not exactly half the ring apart, exactly one of
    a>b, b>a holds."""
    if a == b:
        assert not circular_greater(a, b)
        assert not circular_greater(b, a)
    elif (a - b) % (2 ** 32) != 2 ** 31:
        assert circular_greater(a, b) != circular_greater(b, a)


@given(a=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2 ** 31 - 1))
def test_property_small_increments_are_fresher(a, k):
    assert circular_greater((a + k) % 2 ** 32, a)
