"""Datasets: synthetic Gaussian blobs, IDX ingestion, an experiment's row layout, IID splits."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, ValidationError

if TYPE_CHECKING:
    from .orchestrator import ExperimentConfig

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# Share of an IDX dataset's rows held out as the test set.
IDX_TEST_FRACTION = 0.2

# Blob geometry: unit-variance centers, cluster spread tuned so that a small
# shard underfits measurably while the full dataset does not.
_CENTER_STD = 1.0
_CLUSTER_STD = 1.6


@dataclass(frozen=True, eq=False)
class Dataset:
    """An (n, d) float32 feature matrix with integer class labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        # Views (reshape makes one too), so freezing them leaves the caller's arrays writable.
        features = np.ascontiguousarray(self.features, dtype=np.float32).view()
        labels = np.ascontiguousarray(self.labels, dtype=np.int64).reshape(-1)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if self.num_classes < 2:
            raise ValidationError("num_classes must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValidationError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        # min and max propagate NaN, so no n x d bool mask is needed.
        if features.size and not (
            np.isfinite(features.min()) and np.isfinite(features.max())
        ):
            raise ValidationError("features must be finite")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", int(self.num_classes))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-blob dataset: n training samples, plus a held-out test set."""

    n: int
    d: int
    k: int
    test_n: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 2 or self.test_n < 0:
            raise ValidationError(
                "synthetic dataset needs n >= 1, d >= 1, k >= 2 and test_n >= 0, got "
                f"n={self.n}, d={self.d}, k={self.k}, test_n={self.test_n}"
            )

    def resolved_test_n(self) -> int:
        return self.test_n if self.test_n > 0 else max(self.k, self.n // 4)


@dataclass(frozen=True)
class IdxSpec:
    """IDX file pair; a seeded ``IDX_TEST_FRACTION`` of the rows becomes the test set."""

    images: Path
    labels: Path


def _near_equal_counts(n: int, k: int) -> list[int]:
    # First n % k groups get one extra sample.
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def _permute_rows(a: np.ndarray, order: np.ndarray) -> None:
    """Set ``a`` to ``a[order]`` in place, holding one spare row.

    ``order`` must be a permutation of ``range(len(a))``. Each cycle of it
    is followed from its first row, which waits in the spare row until the
    cycle closes.
    """
    order = order.tolist()
    done = bytearray(len(order))
    spare = np.empty_like(a[:1])
    for start, src in enumerate(order):
        if done[start] or src == start:
            continue
        spare[0] = a[start]
        dst = start
        while src != start:
            a[dst] = a[src]
            done[dst] = 1
            dst, src = src, order[src]
        a[dst] = spare[0]
        done[dst] = 1


# Rows per float64 draw: a class block is drawn and offset in chunks this
# size, so the float64 scratch stays small next to the float32 matrix.
# Generator.normal consumes its stream element by element, so chunking does
# not change a bit of the output.
_DRAW_ROWS = 256


def _draw_synthetic(
    n: int, d: int, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``generate_synthetic(n, d, k, seed)``, before its shuffle.

    Returns the float32 feature matrix in class order, its labels, and the
    shuffle order; ``features[order]`` and ``labels[order]`` are the
    generated dataset.
    """
    if k < 2:
        raise ValidationError("need at least 2 classes")
    if d < 1:
        raise ValidationError("need at least 1 feature dimension")
    if n < k:
        raise ValidationError(f"need at least one sample per class: n={n} < k={k}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, _CENTER_STD, size=(k, d))
    features = np.empty((n, d), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    offset = 0
    for cls, count in enumerate(_near_equal_counts(n, k)):
        labels[offset : offset + count] = cls
        for start in range(offset, offset + count, _DRAW_ROWS):
            rows = min(_DRAW_ROWS, offset + count - start)
            block = rng.normal(0.0, _CLUSTER_STD, size=(rows, d))
            block += centers[cls]
            features[start : start + rows] = block
            # Free this chunk before the next one is drawn.
            del block
        offset += count
    return features, labels, rng.permutation(n)


def generate_synthetic(n: int, d: int, k: int, seed: int) -> Dataset:
    """Deterministic k-cluster Gaussian blobs with near-equal class counts.

    Rows are drawn by ``_draw_synthetic`` from one PRNG seeded with ``seed``,
    then shuffled in place so classes are interleaved; the float32 feature
    matrix is the only n x d array generation holds.
    """
    features, labels, order = _draw_synthetic(n, d, k, seed)
    _permute_rows(features, order)
    return Dataset(features, labels[order], k)


def partition(data: Dataset, n_clients: int) -> list[Dataset]:
    """IID split into contiguous row slices whose sizes differ by at most 1.

    Shards are views of ``data``'s rows, so the split copies nothing; rows
    are not shuffled, so ``data`` must already be in random order (as
    ``build_datasets`` lays it out).
    """
    n = len(data)
    if n_clients < 1:
        raise ValidationError("n_clients must be at least 1")
    if n_clients > n:
        raise ValidationError(f"cannot split {n} samples across {n_clients} clients")
    shards = []
    offset = 0
    for size in _near_equal_counts(n, n_clients):
        rows = slice(offset, offset + size)
        shards.append(Dataset(data.features[rows], data.labels[rows], data.num_classes))
        offset += size
    return shards


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-family IDX image/label file pair.

    Pixels are scaled to [0, 1] by dividing by 255 and flattened row-major,
    so n images of r x c pixels become an (n, r*c) matrix.
    """
    return Dataset(*_read_idx(images_path, labels_path))


def _read_idx_file(path, magic: int) -> np.ndarray:
    """The uint8 array an IDX file at ``path`` holds, shaped as its header says.

    ``magic`` is the file's expected first u32; its low byte is the number
    of big-endian u32 dimensions that follow it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    ndim = magic & 0xFF
    header = 4 * (1 + ndim)
    found = int.from_bytes(blob[:4], "big")
    if len(blob) >= 4 and found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    if len(blob) < header:
        raise FormatError(
            f"{path}: truncated at byte {len(blob)}, needed u32 at offset {len(blob) // 4 * 4}"
        )
    shape = struct.unpack_from(f">{ndim}I", blob, 4)
    size = header + math.prod(shape)
    if len(blob) != size:
        raise FormatError(
            f"{path}: expected {size} bytes, got {len(blob)} "
            f"(truncation detected at byte {min(len(blob), size)})"
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(shape)


def _read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray, int]:
    """``load_idx``'s writable float32 features, labels and class count."""
    pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC).astype(np.int64)
    n_images, rows, cols = pixels.shape
    if n_images != len(labels):
        raise FormatError(
            f"image count {n_images} ({images_path}, byte 4) does not match "
            f"label count {len(labels)} ({labels_path}, byte 4)"
        )
    features = pixels.reshape(n_images, rows * cols).astype(np.float32)
    np.divide(features, np.float32(255.0), out=features)
    num_classes = max(2, int(labels.max()) + 1) if len(labels) else 2
    return features, labels, num_classes


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair described by the experiment config.

    The source's float32 matrix is permuted in place once, into the order
    ``[train rows shuffled by default_rng(cfg.seed).permutation | test rows]``,
    so both sets, and the shards ``partition(train, cfg.n_clients)`` makes,
    are views of it: client c holds the rows that shuffle deals it.
    """
    spec = cfg.dataset
    if isinstance(spec, SyntheticSpec):
        # generate_synthetic's rows would be features[order], the first n of
        # them train; the layout composes that shuffle with the split's.
        n_rows = spec.n + spec.resolved_test_n()
        features, labels, order = _draw_synthetic(n_rows, spec.d, spec.k, cfg.seed)
        num_classes, train_rows, test_rows = spec.k, order[: spec.n], order[spec.n :]
    else:
        features, labels, num_classes = _read_idx(spec.images, spec.labels)
        holdout = max(1, int(len(labels) * IDX_TEST_FRACTION))
        order = np.random.default_rng(cfg.seed).permutation(len(labels))
        train_rows, test_rows = order[holdout:], order[:holdout]
    n = len(train_rows)
    split = np.random.default_rng(cfg.seed).permutation(n)
    order = np.concatenate([train_rows[split], test_rows])
    _permute_rows(features, order)
    labels = labels[order]
    train = Dataset(features[:n], labels[:n], num_classes)
    return train, Dataset(features[n:], labels[n:], num_classes)
