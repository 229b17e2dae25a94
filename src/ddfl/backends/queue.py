"""Queue backend: the memory backend's contract under the ``queue`` kind.

Records live in the memory backend's locked dicts, and a round's global
retires its client records there too. The kind exists because the round
benchmark and config files name it.
"""

from .memory import MemoryStore


class QueueStore(MemoryStore):
    pass
