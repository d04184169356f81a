"""Tests for the B+ tree: ordering, duplicates, deletion rebalancing,
cursors, and the surrounding() primitive the SSI probes rely on."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dstruct.btree import BPlusTree


def build(keys, order=4):
    tree = BPlusTree(order)
    for key in keys:
        tree.insert(key, f"v{key}")
    return tree


class TestBasics:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(3)

    def test_insert_and_iterate_sorted(self):
        tree = build([5, 1, 9, 3, 7])
        assert [k for k, __ in tree.items()] == [1, 3, 5, 7, 9]

    def test_len_and_bool(self):
        tree = BPlusTree()
        assert not tree
        tree.insert(1, "x")
        assert len(tree) == 1 and tree

    def test_get_all_duplicates_in_insertion_order(self):
        tree = BPlusTree(4)
        for tag in ("first", "second", "third"):
            tree.insert(7, tag)
        tree.insert(5, "other")
        assert tree.get_all(7) == ["first", "second", "third"]
        assert tree.get_all(99) == []

    def test_many_duplicates_split_correctly(self):
        tree = BPlusTree(4)
        for i in range(50):
            tree.insert(1, i)
        tree.check_invariants()
        assert len(tree.get_all(1)) == 50

    def test_composite_tuple_keys(self):
        tree = BPlusTree(4)
        for b in range(5):
            for c in range(5):
                tree.insert((b, c), (b, c))
        assert [v for __, v in tree.irange((2, 1), (2, 3))] == [(2, 1), (2, 2), (2, 3)]
        # A 1-tuple is a prefix: smaller than any (b, c) with the same b.
        cur = tree.cursor_ge((3,))
        assert cur.key == (3, 0)


class TestCursors:
    def test_cursor_ge_exact_and_between(self):
        tree = build([10, 20, 30])
        assert tree.cursor_ge(20).key == 20
        assert tree.cursor_ge(15).key == 20
        assert tree.cursor_ge(31).valid is False
        assert tree.cursor_ge(-5).key == 10

    def test_cursor_le(self):
        tree = build([10, 20, 30])
        assert tree.cursor_le(20).key == 20
        assert tree.cursor_le(25).key == 20
        assert tree.cursor_le(5).valid is False
        assert tree.cursor_le(99).key == 30

    def test_cursor_walks_both_directions(self):
        tree = build(list(range(20)), order=4)
        cur = tree.cursor_ge(10)
        seen = [cur.key]
        while cur.advance():
            seen.append(cur.key)
        assert seen == list(range(10, 20))
        cur = tree.cursor_le(9)
        seen = [cur.key]
        while cur.retreat():
            seen.append(cur.key)
        assert seen == list(range(9, -1, -1))

    def test_cursor_first_and_clone(self):
        tree = build([3, 1, 2])
        cur = tree.cursor_first()
        clone = cur.clone()
        cur.advance()
        assert clone.key == 1 and cur.key == 2

    def test_empty_tree_cursors(self):
        tree = BPlusTree()
        assert not tree.cursor_first().valid
        assert not tree.cursor_ge(0).valid
        assert not tree.cursor_le(0).valid

    def test_surrounding(self):
        tree = build([10, 20, 30])
        pred, succ = tree.surrounding(15)
        assert pred.key == 10 and succ.key == 20
        pred, succ = tree.surrounding(20)
        # Exact match: succ lands on it, pred is the adjacent entry before.
        assert pred.key == 10 and succ.key == 20
        pred, succ = tree.surrounding(5)
        assert not pred.valid and succ.key == 10
        pred, succ = tree.surrounding(35)
        assert pred.key == 30 and not succ.valid

    def test_surrounding_with_duplicates(self):
        tree = BPlusTree(4)
        for tag in ["a", "b", "c"]:
            tree.insert(20, tag)
        tree.insert(10, "x")
        tree.insert(30, "y")
        pred, succ = tree.surrounding(20)
        # succ = first entry >= 20; pred = the entry immediately before it
        # (adjacent pair, as in the paper's probe).
        assert succ.key == 20 and succ.value == "a"
        assert pred.key == 10 and pred.value == "x"


class TestRemoval:
    def test_remove_returns_value(self):
        tree = build([1, 2, 3])
        assert tree.remove(2) == "v2"
        assert [k for k, __ in tree.items()] == [1, 3]

    def test_remove_missing_raises(self):
        tree = build([1])
        with pytest.raises(KeyError):
            tree.remove(9)

    def test_remove_specific_value_among_duplicates(self):
        tree = BPlusTree(4)
        payloads = [object() for __ in range(10)]
        for p in payloads:
            tree.insert(5, p)
        tree.remove(5, payloads[3])
        remaining = tree.get_all(5)
        assert payloads[3] not in remaining
        assert len(remaining) == 9

    def test_remove_all_then_reuse(self):
        tree = build(list(range(100)), order=4)
        for key in range(100):
            tree.remove(key)
            tree.check_invariants()
        assert len(tree) == 0
        tree.insert(42, "back")
        assert tree.get_all(42) == ["back"]

    def test_counters(self):
        tree = build(list(range(50)))
        tree.reset_counters()
        tree.cursor_ge(10)
        assert tree.probe_count == 1
        cur = tree.cursor_first()
        while cur.advance():
            pass
        assert tree.scan_steps == 50


@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=200),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_matches_sorted_oracle_under_mixed_updates(keys, data):
    tree = BPlusTree(4)
    oracle = []  # sorted list of keys
    for key in keys:
        tree.insert(key, key)
        bisect.insort(oracle, key)
    deletions = data.draw(st.integers(0, len(oracle)))
    for __ in range(deletions):
        idx = data.draw(st.integers(0, len(oracle) - 1))
        key = oracle.pop(idx)
        tree.remove(key)
    tree.check_invariants()
    assert [k for k, __ in tree.items()] == oracle
    for probe in data.draw(st.lists(st.integers(-5, 65), max_size=10)):
        ge = tree.cursor_ge(probe)
        le = tree.cursor_le(probe)
        succ_idx = bisect.bisect_left(oracle, probe)
        pred_idx = bisect.bisect_right(oracle, probe) - 1
        assert ge.valid == (succ_idx < len(oracle))
        if ge.valid:
            assert ge.key == oracle[succ_idx]
        assert le.valid == (pred_idx >= 0)
        if le.valid:
            assert le.key == oracle[pred_idx]


@given(st.integers(4, 64), st.lists(st.integers(0, 1000), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_invariants_across_orders(order, keys):
    tree = BPlusTree(order)
    for key in keys:
        tree.insert(key, key)
    tree.check_invariants()
    assert len(tree) == len(keys)
    assert [k for k, __ in tree.items()] == sorted(keys)


# Few distinct keys, so runs of equal keys straddle the order-4 leaves;
# 0.0 and -0.0 compare equal but must each keep their own sign.
SNAPSHOT_KEYS = st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, float("inf"), float("-inf")])


@given(st.lists(st.tuples(SNAPSHOT_KEYS, st.integers(0, 2)), max_size=120), st.data())
@settings(max_examples=80, deadline=None)
def test_flat_snapshot_is_a_fresh_copy_in_leaf_order(inserts, data):
    tree = BPlusTree(4)
    live = []  # (key, value) entries currently in the tree
    for key, tag in inserts:
        value = [tag]  # a fresh list: equal to, never identical with, others
        tree.insert(key, value)
        live.append((key, value))
        # Interleave removals: by identity, by an equal copy, or of any
        # entry under the key (value=None).
        if live and data.draw(st.booleans()):
            key, value = live[data.draw(st.integers(0, len(live) - 1))]
            how = data.draw(st.sampled_from(["identical", "equal", "any"]))
            removed = tree.remove(key, {"identical": value, "equal": list(value), "any": None}[how])
            del live[next(i for i, e in enumerate(live) if e[1] is removed)]
    keys, values = tree.flat_snapshot()
    items = list(tree.items())
    assert [repr(k) for k in keys] == [repr(k) for k, __ in items]
    assert len(values) == len(items) == len(live)
    assert all(got is want for got, (__, want) in zip(values, items))
    again = tree.flat_snapshot()
    assert again[0] is not keys and again[1] is not values
    tree.check_invariants()


def test_flat_snapshot_rejects_composite_keys():
    tree = BPlusTree(4)
    tree.insert((1.0, 2.0), "x")
    with pytest.raises(TypeError):
        tree.flat_snapshot()


def test_irange_bounds():
    tree = build(list(range(0, 100, 10)))
    assert [k for k, __ in tree.irange(25, 55)] == [30, 40, 50]
    assert [k for k, __ in tree.irange(None, 15)] == [0, 10]
    assert [k for k, __ in tree.irange(95, None)] == []
    assert [k for k, __ in tree.irange()] == list(range(0, 100, 10))


def height(tree):
    levels, node = 1, tree._root
    while hasattr(node, "children"):
        levels, node = levels + 1, node.children[0]
    return levels


def leaves(tree):
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    out = []
    while node is not None:
        out.append(node)
        node = node.next
    return out


class TestSingleDescent:
    """A write descends once; these are the cases where one leaf is not
    the whole story."""

    def test_removal_from_a_run_of_equal_keys_past_a_separator(self):
        tree = BPlusTree(4)
        payloads = [object() for __ in range(20)]
        tree.insert(1, "low")
        for p in payloads:
            tree.insert(5, p)
        tree.insert(9, "high")
        # The run of 5s spans several leaves; the last payload is not in
        # the first leaf a descent for 5 reaches.
        assert payloads[-1] not in leaves(tree)[0].values
        for p in reversed(payloads):
            assert tree.remove(5, p) is p
            tree.check_invariants()
        assert [v for __, v in tree.items()] == ["low", "high"]

    def test_removal_of_a_key_that_starts_the_next_leaf(self):
        # Ascending inserts split at the middle, so each separator is the
        # first key of its right leaf and a descent for it lands one leaf
        # to the left, where the key is not.
        tree = build(range(30))
        key = leaves(tree)[1].keys[0]
        assert key not in leaves(tree)[0].keys
        assert tree.remove(key) == f"v{key}"
        tree.check_invariants()
        assert [k for k, __ in tree.items()] == [k for k in range(30) if k != key]

    def test_removal_by_an_equal_value_prefers_the_identical_one(self):
        tree = BPlusTree(4)
        first, second, third = [1], [1], [2]
        for value in (first, second, third):
            tree.insert(7, value)
        assert tree.remove(7, [2]) is third  # equal, not identical
        assert tree.remove(7, second) is second  # identical beats an earlier equal
        assert tree.get_all(7) == [first] and tree.get_all(7)[0] is first
        with pytest.raises(KeyError):
            tree.remove(7, [3])
        tree.check_invariants()

    def test_underflow_cascades_to_a_root_collapse(self):
        tree = build(range(60))
        assert height(tree) >= 3
        heights = []
        for key in range(60):
            tree.remove(key)
            tree.check_invariants()  # every node but the root half full
            heights.append(height(tree))
        assert heights == sorted(heights, reverse=True) and heights[-1] == 1
        # A single removal took the tree down a level: merges ran up to
        # the root, which collapsed into its one remaining child.
        assert len(set(heights)) >= 3
