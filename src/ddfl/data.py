"""Datasets: synthetic Gaussian blobs, IDX ingestion, IID splits."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

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
        features = np.ascontiguousarray(self.features, dtype=np.float32)
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

    Cluster centers and sample noise are drawn from a single PRNG seeded
    with ``seed``, then rows are shuffled so classes are interleaved. Each
    class block is drawn and offset by its center in float64, a few hundred
    rows at a time, then stored in the float32 feature matrix, so no float64
    copy of the whole matrix is ever held. The shuffle permutes that
    matrix's rows in place, so it is the only n x d matrix generation holds.
    """
    features, labels, order = _draw_synthetic(n, d, k, seed)
    _permute_rows(features, order)
    return Dataset(features, labels[order], k)


def _lay_out(
    features: np.ndarray, labels: np.ndarray, num_classes: int,
    train_rows: np.ndarray, test_rows: np.ndarray, seed: int,
) -> tuple[Dataset, Dataset]:
    """Permute ``features`` in place into the (train, test) row layout; return both.

    The order is ``[train_rows shuffled by default_rng(seed).permutation | test_rows]``,
    so the view ``partition`` gives client c holds the rows that shuffle deals it.
    """
    split = np.random.default_rng(seed).permutation(len(train_rows))
    order = np.concatenate([train_rows[split], test_rows])
    _permute_rows(features, order)
    labels = labels[order]
    n = len(train_rows)
    train = Dataset(features[:n], labels[:n], num_classes)
    return train, Dataset(features[n:], labels[n:], num_classes)


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


def _read_be_u32(blob: bytes, offset: int, path: str) -> int:
    if len(blob) < offset + 4:
        raise FormatError(f"{path}: truncated at byte {len(blob)}, needed u32 at offset {offset}")
    return struct.unpack_from(">I", blob, offset)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-family IDX image/label file pair.

    Pixels are scaled to [0, 1] by dividing by 255 and flattened row-major,
    so n images of r x c pixels become an (n, r*c) matrix.
    """
    return Dataset(*_read_idx(images_path, labels_path))


def _read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray, int]:
    """``load_idx``'s writable float32 features, labels and class count."""
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_blob = fh.read()

    magic = _read_be_u32(img_blob, 0, str(images_path))
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: bad magic 0x{magic:08x} at byte 0, "
            f"expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    n_images = _read_be_u32(img_blob, 4, str(images_path))
    rows = _read_be_u32(img_blob, 8, str(images_path))
    cols = _read_be_u32(img_blob, 12, str(images_path))
    pixel_bytes = n_images * rows * cols
    if len(img_blob) != 16 + pixel_bytes:
        raise FormatError(
            f"{images_path}: expected {16 + pixel_bytes} bytes, got {len(img_blob)} "
            f"(truncation detected at byte {min(len(img_blob), 16 + pixel_bytes)})"
        )

    magic = _read_be_u32(lbl_blob, 0, str(labels_path))
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: bad magic 0x{magic:08x} at byte 0, "
            f"expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    n_labels = _read_be_u32(lbl_blob, 4, str(labels_path))
    if len(lbl_blob) != 8 + n_labels:
        raise FormatError(
            f"{labels_path}: expected {8 + n_labels} bytes, got {len(lbl_blob)} "
            f"(truncation detected at byte {min(len(lbl_blob), 8 + n_labels)})"
        )
    if n_images != n_labels:
        raise FormatError(
            f"image count {n_images} ({images_path}, byte 4) does not match "
            f"label count {n_labels} ({labels_path}, byte 4)"
        )

    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n_images, rows * cols)
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8).astype(np.int64)
    features = pixels.astype(np.float32)
    np.divide(features, np.float32(255.0), out=features)
    num_classes = max(2, int(labels.max()) + 1) if n_labels else 2
    return features, labels, num_classes
