"""Queue backend: broker-style named FIFO queues beside the contract records.

Contract records live in the memory backend's locked dict, so ``put`` is
insert-only and reads by key never consume anything. The enqueue/dequeue
extension exposes arbitrary named queues ("client-0", ...) with blocking,
at-most-once consumption; contract records never enter them.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..errors import DequeueTimeout
from ..store import ModelRecord
from .memory import MemoryStore


class QueueStore(MemoryStore):
    def __init__(self, namespace: str):
        super().__init__(namespace)
        self._not_empty = threading.Condition(self._lock)
        self._queues: dict[str, deque[ModelRecord]] = {}

    def _queue(self, name: str) -> deque:
        return self._queues.setdefault(name, deque())

    # --- broker extension ---------------------------------------------

    def enqueue(self, queue_name: str, record: ModelRecord) -> None:
        """Append a message to a named queue (auto-created)."""
        with self._not_empty:
            self._queue(queue_name).append(record)
            self._not_empty.notify_all()

    def dequeue(self, queue_name: str, timeout_ms: float) -> ModelRecord:
        """Pop the oldest message, blocking up to ``timeout_ms``.

        Each message is delivered to exactly one consumer. Raises
        DequeueTimeout once the deadline passes with the queue still empty.
        """
        deadline = time.monotonic() + timeout_ms / 1000.0
        with self._not_empty:
            q = self._queue(queue_name)
            while not q:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DequeueTimeout(
                        f"queue {queue_name!r} empty after {timeout_ms} ms"
                    )
                self._not_empty.wait(remaining)
            return q.popleft()
