"""Tests for the two sorted endpoint lists an EndpointOrders keeps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.dstruct.endpoint_orders import EndpointOrders


class Item:
    """Every Item equals every other: only identity tells two apart."""

    def __init__(self, name=""):
        self.name = name

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


def names(items):
    return [item.name for item in items]


class TestBasics:
    def test_duplicates_keep_insertion_order(self):
        orders = EndpointOrders()
        orders.add(Item("first"), Interval(1.0, 2.0))
        orders.add(Item("second"), Interval(1.0, 2.0))
        orders.add(Item("zero"), Interval(0.0, 3.0))
        assert names(orders.by_lo) == ["zero", "first", "second"]
        assert names(orders.by_hi_desc) == ["zero", "first", "second"]

    def test_len_and_contains(self):
        orders = EndpointOrders()
        a, b, c = Item("a"), Item("b"), Item("c")
        orders.add(a, Interval(5.0, 5.0))
        orders.add(b, Interval(5.0, 5.0))
        orders.add(c, Interval(7.0, 8.0))
        assert len(orders) == 3
        orders.remove(b, Interval(5.0, 5.0))
        assert len(orders) == 2
        assert [x is b for x in orders.by_lo] == [False, False]
        assert [x is b for x in orders.by_hi_desc] == [False, False]


class TestRemove:
    def test_remove_one_duplicate(self):
        orders = EndpointOrders()
        orders.add(Item("x"), Interval(2.0, 2.0))
        orders.add(Item("y"), Interval(2.0, 2.0))
        orders.add(Item("z"), Interval(3.0, 3.0))
        orders.remove(orders.by_lo[0], Interval(2.0, 2.0))
        assert list(orders.lo_keys) == [2.0, 3.0]
        assert list(orders.neg_hi_keys) == [-3.0, -2.0]

    def test_remove_missing_raises(self):
        orders = EndpointOrders()
        orders.add(Item(), Interval(1.0, 1.0))
        with pytest.raises(ValueError):
            orders.remove(Item(), Interval(9.0, 9.0))
        assert len(orders) == 1

    def test_remove_by_identity_prefers_same_object(self):
        a = Item("a")
        b = Item("b")  # equal but distinct
        orders = EndpointOrders()
        orders.add(a, Interval(1.0, 1.0))
        orders.add(b, Interval(1.0, 1.0))
        orders.remove(b, Interval(1.0, 1.0))
        assert orders.by_lo[0] is a
        assert orders.by_hi_desc[0] is a


@given(
    st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 10))),
    st.lists(st.integers(0, 100)),
)
def test_matches_sorted_list_oracle(additions, removal_picks):
    orders = EndpointOrders()
    live = []
    for lo, width in additions:
        pair = (Item(), Interval(float(lo), float(lo + width)))
        orders.add(*pair)
        live.append(pair)
        assert list(orders.lo_keys) == sorted(iv.lo for __, iv in live)
        assert list(orders.neg_hi_keys) == sorted(-iv.hi for __, iv in live)
    for pick in removal_picks:
        if not live:
            break
        orders.remove(*live.pop(pick % len(live)))
        assert list(orders.lo_keys) == sorted(iv.lo for __, iv in live)
        assert list(orders.neg_hi_keys) == sorted(-iv.hi for __, iv in live)
