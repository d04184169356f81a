"""A treap (randomized balanced BST) supporting SPLIT and JOIN.

The refined stabbing-partition algorithm of Appendix B stores the intervals
of each group in a height-balanced tree that supports each of INSERT, DELETE,
SPLIT and JOIN in O(log n) time, ordered by left endpoint, and augmented so
that every subtree knows the common intersection of the intervals it holds
(the root therefore knows the group's common intersection).  The paper cites
Tarjan's height-balanced trees; a treap gives the same expected bounds with a
far simpler implementation and is what we use.

The treap is generic: nodes carry an arbitrary ``value`` and are ordered by a
``key`` that is fixed at insertion time.  An optional *aggregate* combines
values bottom-up; the refined algorithm supplies the interval-intersection
aggregate (``repro.core.refined_partition``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("key", "value", "priority", "left", "right", "size", "agg")

    def __init__(self, key: Any, value: V, priority: float):
        self.key = key
        self.value = value
        self.priority = priority
        self.left: Optional["_Node[V]"] = None
        self.right: Optional["_Node[V]"] = None
        self.size = 1
        self.agg: Any = None


class Treap(Generic[V]):
    """Treap ordered by key; duplicate keys allowed (stable ordering).

    Parameters
    ----------
    aggregate:
        Optional pair ``(lift, combine)``: ``lift(value)`` maps a stored value
        to an aggregate and ``combine(a, b)`` merges two aggregates.  The
        aggregate of a subtree is ``combine`` folded over its values in order.
    rng:
        Random generator for priorities; pass a seeded ``random.Random`` for
        deterministic shapes in tests.
    """

    __slots__ = ("_root", "_rng", "_lift", "_combine")

    def __init__(
        self,
        *,
        aggregate: Optional[Tuple[Callable[[V], Any], Callable[[Any, Any], Any]]] = None,
        rng: Optional[random.Random] = None,
    ):
        self._root: Optional[_Node[V]] = None
        self._rng = rng if rng is not None else random.Random()
        self._lift: Optional[Callable[[V], Any]]
        self._combine: Optional[Callable[[Any, Any], Any]]
        if aggregate is not None:
            self._lift, self._combine = aggregate
        else:
            self._lift = None
            self._combine = None

    # -- node bookkeeping -------------------------------------------------

    def _pull(self, node: _Node[V]) -> None:
        node.size = 1
        agg = self._lift(node.value) if self._lift else None
        if node.left is not None:
            node.size += node.left.size
            if self._combine:
                agg = self._combine(node.left.agg, agg)
        if node.right is not None:
            node.size += node.right.size
            if self._combine:
                agg = self._combine(agg, node.right.agg)
        node.agg = agg

    def _merge(self, a: Optional[_Node[V]], b: Optional[_Node[V]]) -> Optional[_Node[V]]:
        """Join two treaps where every key in ``a`` <= every key in ``b``."""
        if a is None:
            return b
        if b is None:
            return a
        if a.priority > b.priority:
            a.right = self._merge(a.right, b)
            self._pull(a)
            return a
        b.left = self._merge(a, b.left)
        self._pull(b)
        return b

    def _split(
        self, node: Optional[_Node[V]], key: Any, *, after_equal: bool
    ) -> Tuple[Optional[_Node[V]], Optional[_Node[V]]]:
        """Split into (keys that go left, keys that go right) around ``key``.

        With ``after_equal=True`` items whose key equals ``key`` go to the
        left part (split point is *after* equal keys); otherwise they go
        right.
        """
        if node is None:
            return None, None
        goes_left = node.key <= key if after_equal else node.key < key
        if goes_left:
            left, right = self._split(node.right, key, after_equal=after_equal)
            node.right = left
            self._pull(node)
            return node, right
        left, right = self._split(node.left, key, after_equal=after_equal)
        node.left = right
        self._pull(node)
        return left, node

    # -- public API --------------------------------------------------------

    def insert(self, key: Any, value: V) -> None:
        """Insert in O(log n) expected time."""
        node = _Node(key, value, self._rng.random())
        if self._lift:
            node.agg = self._lift(value)
        left, right = self._split(self._root, key, after_equal=True)
        self._root = self._merge(self._merge(left, node), right)

    def remove(self, key: Any, match: Optional[Callable[[V], bool]] = None) -> V:
        """Remove and return one item with the given key.

        If ``match`` is given, the first in-order item with that key for which
        ``match(value)`` is true is removed.  Raises KeyError if absent.
        """

        def _remove(node: Optional[_Node[V]]) -> Tuple[Optional[_Node[V]], Optional[V]]:
            if node is None:
                return None, None
            if key < node.key:
                node.left, removed = _remove(node.left)
            elif node.key < key:
                node.right, removed = _remove(node.right)
            else:
                # Equal keys may appear in the left subtree too; search
                # in-order so ``match`` semantics are deterministic.
                node.left, removed = _remove(node.left)
                if removed is None:
                    if match is None or match(node.value):
                        return self._merge(node.left, node.right), node.value
                    node.right, removed = _remove(node.right)
            if removed is not None:
                self._pull(node)
            return node, removed

        self._root, removed = _remove(self._root)
        if removed is None:
            raise KeyError(key)
        return removed

    def split(self, key: Any, *, after_equal: bool = True) -> "Treap[V]":
        """Split off and return the prefix of items with key <= ``key``
        (or < ``key`` when ``after_equal=False``); self keeps the rest.
        """
        left, right = self._split(self._root, key, after_equal=after_equal)
        prefix = self._spawn()
        prefix._root = left
        self._root = right
        return prefix

    def join(self, other: "Treap[V]") -> None:
        """Absorb ``other`` (all of whose keys must be >= self's keys)."""
        if self._root is not None and other._root is not None:
            if self.max_key() > other.min_key():
                raise ValueError("join requires self's keys <= other's keys")
        self._root = self._merge(self._root, other._root)
        other._root = None

    def min_key(self) -> Any:
        node = self._require_root()
        while node.left is not None:
            node = node.left
        return node.key

    def max_key(self) -> Any:
        node = self._require_root()
        while node.right is not None:
            node = node.right
        return node.key

    def min_value(self) -> V:
        node = self._require_root()
        while node.left is not None:
            node = node.left
        return node.value

    @property
    def aggregate(self) -> Any:
        """Aggregate over the whole tree (None when empty or not configured)."""
        return self._root.agg if self._root is not None else None

    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    def __iter__(self) -> Iterator[V]:
        yield from self.items_values()

    def items(self) -> Iterator[Tuple[Any, V]]:
        stack: List[_Node[V]] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def items_values(self) -> Iterator[V]:
        for __, value in self.items():
            yield value

    def _require_root(self) -> _Node[V]:
        if self._root is None:
            raise IndexError("empty treap")
        return self._root

    def _spawn(self) -> "Treap[V]":
        clone = Treap.__new__(type(self))
        clone._root = None
        clone._rng = self._rng
        clone._lift = self._lift
        clone._combine = self._combine
        return clone
