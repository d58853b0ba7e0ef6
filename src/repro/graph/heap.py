"""An addressable binary min-heap with decrease-key.

Dijkstra and Prim both want a priority queue that supports lowering the
priority of an element already in the queue.  This indexed heap keeps a
position map so that ``decrease_key`` is a true ``O(log n)`` operation and
the queue never holds stale entries.

Its users are the dict :func:`~repro.graph.shortest_paths.dijkstra` oracle,
:func:`~repro.graph.mst.prim_mst` and the exact Steiner solver's
relaxation.  For them the standard-library ``heapq`` with lazy deletion is
unsuitable: this heap's sift order decides which of several equal
priorities pops first, which decides parents and attachments among cost
ties, and the flat replicas reproduce that order comparison for comparison
(:func:`~repro.graph.steiner.prim_closure`, the combination evaluator, and
the CSR kernel's tie fallback).  The CSR kernel's own fast path does run on
``heapq``: it hands every search with a tied pop to its replica (see
:mod:`repro.graph.csr`).
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)


class IndexedHeap(Generic[K]):
    """A binary min-heap keyed by arbitrary hashable items.

    >>> heap = IndexedHeap()
    >>> heap.push("a", 3.0)
    >>> heap.push("b", 1.0)
    >>> heap.decrease_key("a", 0.5)
    >>> heap.pop()
    ('a', 0.5)
    >>> heap.pop()
    ('b', 1.0)
    """

    __slots__ = ("_entries", "_position")

    def __init__(self) -> None:
        self._entries: List[Tuple[float, K]] = []
        self._position: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._position

    def priority(self, key: K) -> float:
        """Return the current priority of ``key``."""
        return self._entries[self._position[key]][0]

    def push(self, key: K, priority: float) -> None:
        """Insert ``key`` with ``priority``; ``key`` must not be present."""
        if key in self._position:
            raise KeyError(f"{key!r} already in heap")
        self._entries.append((priority, key))
        self._position[key] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def decrease_key(self, key: K, priority: float) -> None:
        """Lower the priority of ``key``; raises if it would increase."""
        index = self._position[key]
        current, _ = self._entries[index]
        if priority > current:
            raise ValueError(
                f"cannot increase priority of {key!r} from {current} to {priority}"
            )
        self._entries[index] = (priority, key)
        self._sift_up(index)

    def push_or_decrease(self, key: K, priority: float) -> bool:
        """Insert ``key`` or lower its priority, whichever applies.

        Returns ``True`` if the heap changed (new key, or a strictly lower
        priority), which is exactly the "edge relaxed" signal Dijkstra needs.
        """
        if key not in self._position:
            self.push(key, priority)
            return True
        if priority < self.priority(key):
            self.decrease_key(key, priority)
            return True
        return False

    def pop(self) -> Tuple[K, float]:
        """Remove and return the ``(key, priority)`` pair with minimum priority."""
        if not self._entries:
            raise IndexError("pop from empty heap")
        priority, key = self._entries[0]
        last = self._entries.pop()
        del self._position[key]
        if self._entries:
            self._entries[0] = last
            self._position[last[1]] = 0
            self._sift_down(0)
        return key, priority

    def peek(self) -> Tuple[K, float]:
        """Return (without removing) the minimum ``(key, priority)`` pair."""
        if not self._entries:
            raise IndexError("peek at empty heap")
        priority, key = self._entries[0]
        return key, priority

    # ------------------------------------------------------------------
    # internal sifting
    # ------------------------------------------------------------------
    def _sift_up(self, index: int) -> None:
        entries, position = self._entries, self._position
        item = entries[index]
        while index > 0:
            parent = (index - 1) >> 1
            if entries[parent][0] <= item[0]:
                break
            entries[index] = entries[parent]
            position[entries[index][1]] = index
            index = parent
        entries[index] = item
        position[item[1]] = index

    def _sift_down(self, index: int) -> None:
        entries, position = self._entries, self._position
        size = len(entries)
        item = entries[index]
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size and entries[right][0] < entries[child][0]:
                child = right
            if entries[child][0] >= item[0]:
                break
            entries[index] = entries[child]
            position[entries[index][1]] = index
            index = child
        entries[index] = item
        position[item[1]] = index
