"""Property test for EndpointOrders, a stabbing group's two endpoint orders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.dstruct.endpoint_orders import EndpointOrders


class Item:
    """Every Item equals every other: only identity tells two apart."""

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


def columns(orders):
    return (
        [id(item) for item in orders.by_lo], list(orders.lo_keys), list(orders.hi_by_lo),
        [id(item) for item in orders.by_hi_desc], list(orders.neg_hi_keys),
        list(orders.lo_by_hi),
    )


def check(orders, live):
    """``live`` holds (item, interval) pairs in insertion order."""
    by_lo = sorted(live, key=lambda pair: pair[1].lo)  # sorted() is stable
    by_hi_desc = sorted(live, key=lambda pair: -pair[1].hi)
    assert len(orders) == len(live)
    assert [id(item) for item in orders.by_lo] == [id(item) for item, __ in by_lo]
    assert [id(item) for item in orders.by_hi_desc] == [id(item) for item, __ in by_hi_desc]
    assert list(orders.lo_keys) == [interval.lo for __, interval in by_lo]
    assert list(orders.hi_by_lo) == [interval.hi for __, interval in by_lo]
    assert list(orders.neg_hi_keys) == [-interval.hi for __, interval in by_hi_desc]
    assert list(orders.lo_by_hi) == [interval.lo for __, interval in by_hi_desc]


endpoint = st.integers(0, 4).map(float)
op = st.one_of(
    st.tuples(st.just("add"), endpoint, endpoint),
    st.tuples(st.just("add_same"), st.integers(0, 50)),  # a live item's interval
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("remove_absent"), endpoint, endpoint),
    st.tuples(st.just("remove_wrong_hi"), st.integers(0, 50)),
)


def expect_refused(orders, item, interval):
    before = columns(orders)
    with pytest.raises(ValueError):
        orders.remove(item, interval)
    assert columns(orders) == before


@given(st.lists(op, max_size=60))
def test_matches_stable_sort_of_live_items(ops):
    orders = EndpointOrders()
    live = []
    for kind, *args in ops:
        if kind in ("add", "remove_absent"):
            a, b = args
            pair = (Item(), Interval(min(a, b), max(a, b)))
            if kind == "remove_absent":
                expect_refused(orders, *pair)
                continue
        elif not live:
            continue
        elif kind == "add_same":
            pair = (Item(), live[args[0] % len(live)][1])
        elif kind == "remove_wrong_hi":
            item, held = live[args[0] % len(live)]
            expect_refused(orders, item, Interval(held.lo, held.hi + 1.0))
            continue
        else:  # remove
            orders.remove(*live.pop(args[0] % len(live)))
            check(orders, live)
            continue
        orders.add(*pair)
        live.append(pair)
        check(orders, live)
