"""The interface queue: :class:`DropTailQueue` is the standard bounded
FIFO in front of the MAC.
"""

from collections import deque


class DropTailQueue:
    """Bounded FIFO; arrivals beyond ``capacity`` are dropped."""

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._items = deque()
        self.drops = 0

    def __len__(self):
        return len(self._items)

    def push(self, item):
        """Enqueue; returns False (and counts a drop) when full."""
        if len(self._items) >= self.capacity:
            self.drops += 1
            return False
        self._items.append(item)
        return True

    def pop(self):
        return self._items.popleft() if self._items else None

    def clear(self):
        """Drop everything (a crashed node's interface queue is lost)."""
        removed = list(self._items)
        self._items.clear()
        return removed
