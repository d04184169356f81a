"""Tests for the treap (split/join balanced BST with bottom-up aggregates)
--- the per-group structure of the Appendix B algorithm."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dstruct.treap import Treap


def make_treap(seed=1, **kwargs):
    return Treap(rng=random.Random(seed), **kwargs)


class TestOrdering:
    def test_insert_iterates_in_key_order(self):
        t = make_treap()
        for key in [5, 1, 3, 2, 4]:
            t.insert(key, f"v{key}")
        assert [k for k, __ in t.items()] == [1, 2, 3, 4, 5]

    def test_duplicate_keys_allowed(self):
        t = make_treap()
        t.insert(1, "a")
        t.insert(1, "b")
        assert len(t) == 2
        assert sorted(t.items_values()) == ["a", "b"]

    def test_min_max(self):
        t = make_treap()
        for key in [7, 2, 9]:
            t.insert(key, key)
        assert t.min_key() == 2
        assert t.max_key() == 9
        assert t.min_value() == 2

    def test_empty_min_raises(self):
        with pytest.raises(IndexError):
            make_treap().min_key()


class TestRemove:
    def test_remove_returns_value(self):
        t = make_treap()
        t.insert(1, "x")
        assert t.remove(1) == "x"
        assert len(t) == 0

    def test_remove_missing_raises(self):
        t = make_treap()
        t.insert(1, "x")
        with pytest.raises(KeyError):
            t.remove(2)

    def test_remove_with_match(self):
        t = make_treap()
        t.insert(1, "a")
        t.insert(1, "b")
        assert t.remove(1, match=lambda v: v == "b") == "b"
        assert list(t.items_values()) == ["a"]

    def test_remove_no_match_raises(self):
        t = make_treap()
        t.insert(1, "a")
        with pytest.raises(KeyError):
            t.remove(1, match=lambda v: v == "zzz")


class TestSplitJoin:
    def test_split_after_equal(self):
        t = make_treap()
        for key in range(10):
            t.insert(key, key)
        prefix = t.split(4)
        assert [k for k, __ in prefix.items()] == [0, 1, 2, 3, 4]
        assert [k for k, __ in t.items()] == [5, 6, 7, 8, 9]

    def test_split_before_equal(self):
        t = make_treap()
        for key in [1, 2, 2, 3]:
            t.insert(key, key)
        prefix = t.split(2, after_equal=False)
        assert [k for k, __ in prefix.items()] == [1]
        assert [k for k, __ in t.items()] == [2, 2, 3]

    def test_join(self):
        a = make_treap()
        b = make_treap(seed=2)
        for key in [1, 2]:
            a.insert(key, key)
        for key in [3, 4]:
            b.insert(key, key)
        a.join(b)
        assert [k for k, __ in a.items()] == [1, 2, 3, 4]
        assert len(b) == 0

    def test_join_order_violation_rejected(self):
        a = make_treap()
        b = make_treap(seed=2)
        a.insert(5, 5)
        b.insert(1, 1)
        with pytest.raises(ValueError):
            a.join(b)

    def test_join_with_empty(self):
        a = make_treap()
        a.insert(1, 1)
        a.join(make_treap(seed=3))
        assert len(a) == 1

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60), st.integers(0, 100))
    @settings(max_examples=60)
    def test_split_join_roundtrip(self, keys, split_key):
        t = make_treap()
        for key in keys:
            t.insert(key, key)
        prefix = t.split(split_key)
        assert all(k <= split_key for k, __ in prefix.items())
        assert all(k > split_key for k, __ in t.items())
        prefix.join(t)
        assert [k for k, __ in prefix.items()] == sorted(keys)


class TestAggregate:
    def test_sum_aggregate(self):
        t = Treap(aggregate=(lambda v: v, lambda a, b: a + b), rng=random.Random(1))
        for value in [3, 1, 4, 1, 5]:
            t.insert(value, value)
        assert t.aggregate == 14
        t.remove(4)
        assert t.aggregate == 10

    def test_aggregate_none_when_empty(self):
        t = Treap(aggregate=(lambda v: v, lambda a, b: a + b))
        assert t.aggregate is None

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=50), st.integers(-60, 60))
    @settings(max_examples=60)
    def test_aggregate_survives_splits(self, values, split_key):
        t = Treap(aggregate=(lambda v: v, lambda a, b: a + b), rng=random.Random(7))
        for value in values:
            t.insert(value, value)
        prefix = t.split(split_key)
        left = [v for v in values if v <= split_key]
        right = [v for v in values if v > split_key]
        assert prefix.aggregate == (sum(left) if left else None)
        assert t.aggregate == (sum(right) if right else None)
