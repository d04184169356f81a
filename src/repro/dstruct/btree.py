"""An in-memory B+ tree with doubly-linked leaves.

This is the ordered-index substrate the paper assumes everywhere: the
``S(B)`` index probed by every band-join strategy, the composite ``S(B, C)``
index probed by SJ-SelectFirst and SJ-SSI, and the base-table indexes of the
experimental setup ("each table contains 100,000 tuples indexed by standard
B-trees").  The per-event processors walk it; the batch kernels read the
tables' sorted columns instead (:mod:`repro.engine.table`), which tests
check against :meth:`BPlusTree.flat_snapshot`.

Design notes
------------
* Keys may be any totally-ordered values, including tuples (composite keys).
  Duplicates are allowed; equal keys preserve insertion order.
* Leaves are doubly linked, so the SSI algorithms can "traverse the leaves of
  the B-tree in both directions starting from the point p_j + b" exactly as
  Section 3.1 describes, paying only for entries that contribute output.
* A :class:`Cursor` is a (leaf, slot) position supporting ``advance`` /
  ``retreat``; it is invalidated by structural updates (the engine never
  interleaves updates with an open scan).
* ``probe_count`` counts root-to-leaf descents and ``scan_steps`` counts leaf
  entries touched by cursors --- the ablation benchmarks use these to verify
  the output-sensitivity claims of Theorems 3 and 4 independently of timing
  noise.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Any, Generic, Iterator, List, Optional, Set, Tuple, TypeVar

V = TypeVar("V")

DEFAULT_ORDER = 64


class _Leaf(Generic[V]):
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[V] = []
        self.next: Optional["_Leaf[V]"] = None
        self.prev: Optional["_Leaf[V]"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # len(children) == len(keys) + 1; subtree children[i] holds keys
        # strictly less than keys[i] and >= keys[i-1].
        self.keys: List[Any] = []
        self.children: List[Any] = []


class Cursor(Generic[V]):
    """A position inside the leaf chain of a :class:`BPlusTree`.

    A cursor is *valid* when it points at an entry and *exhausted* once it
    walks off either end.  Cursors share their tree's ``scan_steps`` counter.
    """

    __slots__ = ("_tree", "_leaf", "_slot")

    def __init__(self, tree: "BPlusTree[V]", leaf: Optional[_Leaf[V]], slot: int):
        self._tree = tree
        self._leaf = leaf
        self._slot = slot

    @property
    def valid(self) -> bool:
        return self._leaf is not None

    @property
    def key(self) -> Any:
        assert self._leaf is not None, "cursor is exhausted"
        return self._leaf.keys[self._slot]

    @property
    def value(self) -> V:
        assert self._leaf is not None, "cursor is exhausted"
        return self._leaf.values[self._slot]

    def advance(self) -> bool:
        """Move to the next entry in key order; False when exhausted."""
        if self._leaf is None:
            return False
        self._tree.scan_steps += 1
        self._slot += 1
        if self._slot >= len(self._leaf.keys):
            self._leaf = self._leaf.next
            self._slot = 0
        return self._leaf is not None

    def retreat(self) -> bool:
        """Move to the previous entry in key order; False when exhausted."""
        if self._leaf is None:
            return False
        self._tree.scan_steps += 1
        self._slot -= 1
        if self._slot < 0:
            self._leaf = self._leaf.prev
            self._slot = len(self._leaf.keys) - 1 if self._leaf is not None else 0
        return self._leaf is not None

    def clone(self) -> "Cursor[V]":
        return Cursor(self._tree, self._leaf, self._slot)

    # -- bulk leaf walks ---------------------------------------------------
    #
    # The SSI result-enumeration step walks leaves outward from a probe
    # point collecting every contributing entry (Section 3.1 STEP 2).  These
    # collectors are the tight-loop equivalents of advance()/retreat() with
    # an inlined bound check; they do not move the cursor.

    def collect_forward_le(self, bound: Any) -> List[V]:
        """Values at and after this position while key <= bound."""
        out: List[V] = []
        leaf, slot = self._leaf, self._slot
        while leaf is not None:
            keys = leaf.keys
            values = leaf.values
            n = len(keys)
            while slot < n:
                if keys[slot] > bound:
                    self._tree.scan_steps += len(out) + 1
                    return out
                out.append(values[slot])
                slot += 1
            leaf = leaf.next
            slot = 0
        self._tree.scan_steps += len(out) + 1
        return out

    def collect_backward_ge(self, bound: Any) -> List[V]:
        """Values at and before this position while key >= bound, returned
        in ascending key order."""
        out: List[V] = []
        leaf, slot = self._leaf, self._slot
        while leaf is not None:
            keys = leaf.keys
            values = leaf.values
            while slot >= 0:
                if keys[slot] < bound:
                    self._tree.scan_steps += len(out) + 1
                    out.reverse()
                    return out
                out.append(values[slot])
                slot -= 1
            leaf = leaf.prev
            slot = len(leaf.keys) - 1 if leaf is not None else 0
        self._tree.scan_steps += len(out) + 1
        out.reverse()
        return out

    def collect_forward_prefix_le(self, prefix: Any, bound: Any) -> List[V]:
        """Composite-key walk: values while key == (prefix, c) with
        c <= bound."""
        out: List[V] = []
        leaf, slot = self._leaf, self._slot
        while leaf is not None:
            keys = leaf.keys
            values = leaf.values
            n = len(keys)
            while slot < n:
                key = keys[slot]
                if key[0] != prefix or key[1] > bound:
                    self._tree.scan_steps += len(out) + 1
                    return out
                out.append(values[slot])
                slot += 1
            leaf = leaf.next
            slot = 0
        self._tree.scan_steps += len(out) + 1
        return out

    def collect_backward_prefix_ge(self, prefix: Any, bound: Any) -> List[V]:
        """Composite-key walk backwards: values while key == (prefix, c)
        with c >= bound, returned in ascending key order."""
        out: List[V] = []
        leaf, slot = self._leaf, self._slot
        while leaf is not None:
            keys = leaf.keys
            values = leaf.values
            while slot >= 0:
                key = keys[slot]
                if key[0] != prefix or key[1] < bound:
                    self._tree.scan_steps += len(out) + 1
                    out.reverse()
                    return out
                out.append(values[slot])
                slot -= 1
            leaf = leaf.prev
            slot = len(leaf.keys) - 1 if leaf is not None else 0
        self._tree.scan_steps += len(out) + 1
        out.reverse()
        return out


class BPlusTree(Generic[V]):
    """B+ tree mapping totally-ordered keys to values, duplicates allowed."""

    __slots__ = (
        "_max_keys",
        "_min_keys",
        "_root",
        "_size",
        "probe_count",
        "scan_steps",
    )

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be >= 4")
        self._max_keys = order
        self._min_keys = order // 2
        self._root: Any = _Leaf()
        self._size = 0
        self.probe_count = 0
        self.scan_steps = 0

    # -- lookup ------------------------------------------------------------

    def _descend_left(self, key: Any) -> _Leaf[V]:
        """Leaf that would contain the first entry with key >= ``key``."""
        self.probe_count += 1
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_left(node.keys, key)
            node = node.children[idx]
        return node

    def _descend_right(self, key: Any) -> _Leaf[V]:
        """Leaf that would contain the last entry with key <= ``key``."""
        self.probe_count += 1
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def cursor_ge(self, key: Any) -> Cursor[V]:
        """Cursor at the first entry with key >= ``key`` (exhausted if none)."""
        leaf = self._descend_left(key)
        slot = bisect.bisect_left(leaf.keys, key)
        if slot == len(leaf.keys):
            return Cursor(self, leaf.next, 0)
        return Cursor(self, leaf, slot)

    def cursor_le(self, key: Any) -> Cursor[V]:
        """Cursor at the last entry with key <= ``key`` (exhausted if none)."""
        leaf = self._descend_right(key)
        slot = bisect.bisect_right(leaf.keys, key) - 1
        if slot < 0:
            prev = leaf.prev
            if prev is None:
                return Cursor(self, None, 0)
            return Cursor(self, prev, len(prev.keys) - 1)
        return Cursor(self, leaf, slot)

    def cursor_first(self) -> Cursor[V]:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        if not node.keys:
            return Cursor(self, None, 0)
        return Cursor(self, node, 0)

    def surrounding(self, key: Any) -> Tuple[Cursor[V], Cursor[V]]:
        """The two *adjacent* entries (pred, succ) surrounding ``key``.

        ``succ`` is the first entry with key >= ``key``; ``pred`` is the
        entry immediately before it (so when several entries equal ``key``,
        ``pred`` is the entry before the run, not its last element).  Either
        cursor may be exhausted at the ends of the tree.  This is the
        primitive the SSI probes use to locate s1 and s2 around each
        stabbing point; a single root-to-leaf descent serves both cursors.
        """
        succ = self.cursor_ge(key)
        if succ.valid:
            pred = succ.clone()
            pred.retreat()
        else:
            pred = self.cursor_le(key)
        return pred, succ

    def get_all(self, key: Any) -> List[V]:
        """All values stored under exactly ``key``, in insertion order."""
        out: List[V] = []
        cur = self.cursor_ge(key)
        while cur.valid and cur.key == key:
            out.append(cur.value)
            cur.advance()
        return out

    def range_values(self, lo: Any, hi: Any) -> List[V]:
        """All values with lo <= key <= hi, via one descent plus a tight
        leaf walk (the fast path for the per-query range scans of BJ-QOuter
        and SJ-SelectFirst)."""
        cur = self.cursor_ge(lo)
        if not cur.valid:
            return []
        return cur.collect_forward_le(hi)

    def irange(self, lo: Any = None, hi: Any = None) -> Iterator[Tuple[Any, V]]:
        """Iterate (key, value) with lo <= key <= hi (None = unbounded)."""
        cur = self.cursor_first() if lo is None else self.cursor_ge(lo)
        while cur.valid and (hi is None or cur.key <= hi):
            yield cur.key, cur.value
            cur.advance()

    def items(self) -> Iterator[Tuple[Any, V]]:
        return self.irange()

    def flat_snapshot(self) -> Tuple[array[float], List[V]]:
        """A sorted ``array('d')`` of the keys and the parallel value list,
        every entry in leaf-chain order: one walk of the leaves into fresh
        objects, so equal keys keep insertion order.  Float keys only.
        Tests check the tables' sorted columns against it."""
        entries = list(self.items())
        return array("d", [key for key, __ in entries]), [value for __, value in entries]

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Any, value: V) -> None:
        """Add an entry after every entry with an equal key: one descent,
        then splits upward along the path only as far as a node overflows."""
        node = self._root
        path: List[Tuple[_Internal, int]] = []
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        slot = bisect.bisect_right(node.keys, key)
        node.keys.insert(slot, key)
        node.values.insert(slot, value)
        if len(node.keys) > self._max_keys:
            right: Any
            sep, right = self._split_leaf(node)
            while path:
                parent, idx = path.pop()
                parent.keys.insert(idx, sep)
                parent.children.insert(idx + 1, right)
                if len(parent.keys) <= self._max_keys:
                    break
                sep, right = self._split_internal(parent)
            else:  # the root split
                new_root = _Internal()
                new_root.keys = [sep]
                new_root.children = [self._root, right]
                self._root = new_root
        self._size += 1

    def _split_leaf(self, leaf: _Leaf[V]) -> Tuple[Any, _Leaf[V]]:
        mid = len(leaf.keys) // 2
        right: _Leaf[V] = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        right.next = leaf.next
        right.prev = leaf
        if right.next is not None:
            right.next.prev = right
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        return sep, right

    # -- deletion ------------------------------------------------------------

    def remove(self, key: Any, value: Optional[V] = None) -> V:
        """Remove one entry with ``key`` (matching ``value`` if given).

        Values are matched with ``is`` first, then ``==``, leaf by leaf in
        key order.  Returns the removed value; raises KeyError when no entry
        matches.

        One descent to the first leaf that can hold ``key``, then
        rebalancing upward along the path only as far as a node underflows.
        Only when the entry is not in that leaf and the run of equal keys
        may continue past it (it crosses a separator) does the removal fall
        back to searching every candidate subtree.
        """
        node = self._root
        path: List[Tuple[_Internal, int]] = []
        while isinstance(node, _Internal):
            idx = bisect.bisect_left(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        found = self._find_entry(node, key, value)
        if found is not None:
            node.keys.pop(found)
            removed = node.values.pop(found)
            min_keys = self._min_keys
            while path:
                parent, idx = path.pop()
                if len(parent.children[idx].keys) >= min_keys:
                    break
                self._rebalance_child(parent, idx)
        elif node.next is not None and node.keys[-1] <= key:
            removed = self._remove(self._root, key, value)
        else:
            removed = _MISSING
        if removed is _MISSING:
            raise KeyError(key)
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
        self._size -= 1
        return removed  # type: ignore[return-value]

    def _remove(self, node: Any, key: Any, value: Optional[V]) -> Any:
        if isinstance(node, _Leaf):
            slot = self._find_entry(node, key, value)
            if slot is None:
                return _MISSING
            node.keys.pop(slot)
            return node.values.pop(slot)
        idx = bisect.bisect_left(node.keys, key)
        # Equal keys may live in children[idx] .. children[bisect_right];
        # try each candidate subtree until the entry is found.
        hi = bisect.bisect_right(node.keys, key)
        removed = _MISSING
        child_idx = idx
        for child_idx in range(idx, hi + 1):
            removed = self._remove(node.children[child_idx], key, value)
            if removed is not _MISSING:
                break
        if removed is _MISSING:
            return _MISSING
        self._rebalance_child(node, child_idx)
        return removed

    def _find_entry(self, leaf: _Leaf[V], key: Any, value: Optional[V]) -> Optional[int]:
        slot = bisect.bisect_left(leaf.keys, key)
        first_eq: Optional[int] = None
        while slot < len(leaf.keys) and leaf.keys[slot] == key:
            if value is None or leaf.values[slot] is value:
                return slot
            if first_eq is None and leaf.values[slot] == value:
                first_eq = slot
            slot += 1
        return first_eq

    def _rebalance_child(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        if self._entry_count(child) >= self._min_keys:
            return
        left_sib = parent.children[idx - 1] if idx > 0 else None
        right_sib = parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        if left_sib is not None and self._entry_count(left_sib) > self._min_keys:
            self._borrow_from_left(parent, idx)
        elif right_sib is not None and self._entry_count(right_sib) > self._min_keys:
            self._borrow_from_right(parent, idx)
        elif left_sib is not None:
            self._merge_children(parent, idx - 1)
        elif right_sib is not None:
            self._merge_children(parent, idx)

    @staticmethod
    def _entry_count(node: Any) -> int:
        return len(node.keys)

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        left = parent.children[idx - 1]
        if isinstance(child, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        right = parent.children[idx + 1]
        if isinstance(child, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge_children(self, parent: _Internal, idx: int) -> None:
        """Merge children[idx+1] into children[idx]."""
        left = parent.children[idx]
        right = parent.children[idx + 1]
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            if right.next is not None:
                right.next.prev = left
        else:
            left.keys.append(parent.keys[idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(idx)
        parent.children.pop(idx + 1)

    # -- misc ----------------------------------------------------------------

    def reset_counters(self) -> None:
        self.probe_count = 0
        self.scan_steps = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def check_invariants(self) -> None:
        """Validate structural invariants (tests only; O(n))."""
        leaves: List[_Leaf[V]] = []

        def _walk(node: Any, lo: Any, hi: Any, depth: int) -> int:
            # Every node but the root is at least half full (a removal
            # stops rebalancing at the first node that is); an internal
            # root has two children or more.
            assert depth == 0 or len(node.keys) >= self._min_keys, "underfull node"
            assert depth > 0 or isinstance(node, _Leaf) or len(node.children) >= 2, (
                "root with one child"
            )
            if isinstance(node, _Leaf):
                # Duplicates may straddle separators, so bounds are inclusive
                # on both sides.
                for k in node.keys:
                    assert (lo is None or lo <= k) and (hi is None or k <= hi), "leaf key out of range"
                assert node.keys == sorted(node.keys)
                leaves.append(node)
                return depth
            assert len(node.children) == len(node.keys) + 1
            assert node.keys == sorted(node.keys)
            depths: Set[int] = set()
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                depths.add(_walk(child, bounds[i], bounds[i + 1], depth + 1))
            assert len(depths) == 1, "unbalanced B+ tree"
            return depths.pop()

        _walk(self._root, None, None, 0)
        # Leaf chain must visit every leaf in key order, doubly linked.
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        chain: List[_Leaf[V]] = []
        prev = None
        while node is not None:
            assert node.prev is prev
            chain.append(node)
            prev = node
            node = node.next
        assert chain == leaves, "leaf chain disagrees with tree order"
        total = sum(len(leaf.keys) for leaf in leaves)
        assert total == self._size, f"size mismatch: {total} != {self._size}"


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
