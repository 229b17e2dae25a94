"""Embedded storage backends implementing the ModelStore contract.

Each backend models one database family by its dominant latency
characteristic: RAM (memory), disk files (filesystem), and an indexed SQL
table (relational). The queue kind keeps its records in the memory
backend's dicts; it exists because the round benchmark and config files
name it.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import ValidationError
from ..store import ModelStore, check_namespace


class BackendKind(enum.Enum):
    MEMORY = "memory"
    FILESYSTEM = "filesystem"
    QUEUE = "queue"
    RELATIONAL = "relational"

    @classmethod
    def parse(cls, name: str) -> "BackendKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(f"unknown backend {name!r}; valid kinds: {valid}") from None


# Backends that keep state on disk and therefore need a root_path.
DISK_BACKENDS = frozenset({BackendKind.FILESYSTEM, BackendKind.RELATIONAL})


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind
    root_path: Path | None = None
    namespace: str = "default"
    fsync: bool = False

    def __post_init__(self):
        check_namespace(self.namespace)
        if self.root_path is not None:
            object.__setattr__(self, "root_path", Path(self.root_path))
        if self.kind in DISK_BACKENDS and self.root_path is None:
            raise ValidationError(f"backend {self.kind.value} requires a root_path")


def fresh_namespace(cfg: BackendConfig, label: str) -> BackendConfig:
    """``cfg`` in a new namespace, so repeated runs over one root never share keys."""
    return replace(cfg, namespace=f"{cfg.namespace}-{label}-{os.urandom(4).hex()}")


def open_backend(cfg: BackendConfig) -> ModelStore:
    """Construct a ModelStore for the configured backend.

    Disk backends require ``root_path`` to already exist; they create their
    own files underneath it but never the root itself, and refuse a missing
    root with BackendUnavailableError.
    """
    if cfg.kind is BackendKind.MEMORY:
        from .memory import MemoryStore

        return MemoryStore(cfg.namespace)
    if cfg.kind is BackendKind.FILESYSTEM:
        from .filesystem import FilesystemStore

        return FilesystemStore(cfg.root_path, cfg.namespace, fsync=cfg.fsync)
    if cfg.kind is BackendKind.QUEUE:
        from .queue import QueueStore

        return QueueStore(cfg.namespace)
    from .relational import RelationalStore

    return RelationalStore(cfg.root_path, cfg.namespace, fsync=cfg.fsync)


__all__ = [
    "BackendConfig",
    "BackendKind",
    "DISK_BACKENDS",
    "fresh_namespace",
    "open_backend",
]
