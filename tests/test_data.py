import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfl.data import Dataset, _permute_rows, generate_synthetic, load_idx, partition
from ddfl.errors import FormatError, ValidationError


def test_synthetic_counts_balanced():
    data = generate_synthetic(100, 5, 4, seed=0)
    counts = np.bincount(data.labels, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]


def test_synthetic_counts_uneven():
    data = generate_synthetic(10, 2, 3, seed=0)
    counts = sorted(np.bincount(data.labels, minlength=3).tolist(), reverse=True)
    assert counts == [4, 3, 3]


def test_synthetic_deterministic():
    a = generate_synthetic(50, 3, 2, seed=11)
    b = generate_synthetic(50, 3, 2, seed=11)
    assert a == b
    assert a != generate_synthetic(50, 3, 2, seed=12)


@pytest.mark.parametrize("n,d,k", [(1, 3, 2), (5, 0, 2), (5, 3, 1)])
def test_synthetic_invalid_sizes(n, d, k):
    with pytest.raises(ValidationError):
        generate_synthetic(n, d, k, seed=0)


def test_dataset_validation():
    x = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(ValidationError):
        Dataset(x, np.array([0, 1]), 2)  # label count mismatch
    with pytest.raises(ValidationError):
        Dataset(x, np.array([0, 1, 2]), 2)  # label out of range
    with pytest.raises(ValidationError):
        Dataset(x, np.array([0, 1, 0]), 1)  # too few classes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 3)])
def test_dataset_rejects_a_single_non_finite_value(bad, where):
    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    x[where] = bad
    with pytest.raises(ValidationError, match="finite"):
        Dataset(x, np.array([0, 1, 0]), 2)


def test_dataset_accepts_an_empty_matrix():
    data = Dataset(np.empty((0, 3), dtype=np.float32), np.empty(0, dtype=np.int64), 2)
    assert len(data) == 0
    assert data.dim == 3


@st.composite
def permutation_cases(draw):
    """One n-cycle, or a random permutation of the rows outside a random fixed set."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # i -> i + shift (mod n) with shift coprime to n is one n-cycle.
        shift = draw(st.sampled_from([s for s in range(1, n) if math.gcd(s, n) == 1] or [0]))
        order = [(i + shift) % n for i in range(n)]
    else:
        fixed = draw(st.sets(st.integers(0, n - 1)))
        moving = [i for i in range(n) if i not in fixed]
        order = list(range(n))
        for i, j in zip(moving, draw(st.permutations(moving))):
            order[i] = j
    return np.array(order, dtype=np.int64), draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(case=permutation_cases())
@example(case=(np.array([0]), 3))
@example(case=(np.arange(6), 2))
@example(case=(np.array([2, 1, 0]), 1))
def test_permute_rows_in_place_equals_gather(case):
    order, d = case
    n = len(order)
    a = np.arange(n * d, dtype=np.float32).reshape(n, d)
    want = a[order]
    buffer = a.ctypes.data
    _permute_rows(a, order)
    assert a.ctypes.data == buffer
    assert np.array_equal(a, want)


def test_partition_sizes():
    data = generate_synthetic(10, 2, 2, seed=0)
    assert [len(s) for s in partition(data, 2)] == [5, 5]
    assert [len(s) for s in partition(data, 3)] == [4, 3, 3]


def test_partition_conserves_samples():
    data = generate_synthetic(101, 3, 4, seed=5)
    shards = partition(data, 7)
    rows = np.concatenate([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    original = np.concatenate([data.features, data.labels[:, None].astype(np.float32)], axis=1)
    recombined = np.concatenate([rows, labels[:, None].astype(np.float32)], axis=1)
    order_a = np.lexsort(original.T)
    order_b = np.lexsort(recombined.T)
    assert np.array_equal(original[order_a], recombined[order_b])


def test_partition_too_many_clients():
    data = generate_synthetic(5, 2, 2, seed=0)
    with pytest.raises(ValidationError):
        partition(data, 6)


# --- IDX fixtures ----------------------------------------------------------

def write_idx_pair(tmp_path, pixels, labels, rows, cols):
    """Independent IDX writer: big-endian magics and dims, raw u8 payload."""
    n = len(labels)
    images = tmp_path / "images.idx"
    labels_file = tmp_path / "labels.idx"
    images.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels)
    )
    labels_file.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return images, labels_file


def test_idx_scaling_rule(tmp_path):
    images, labels = write_idx_pair(tmp_path, [0, 255, 128, 64], [1, 0], rows=1, cols=2)
    data = load_idx(images, labels)
    expected = np.array([0, 255, 128, 64], dtype=np.float32) / np.float32(255.0)
    assert np.array_equal(data.features.reshape(-1), expected)
    assert data.labels.tolist() == [1, 0]
    assert data.features.shape == (2, 2)


def test_idx_features_bitwise_equal_the_scaling_rule(tmp_path):
    pixels = np.arange(256, dtype=np.uint8)
    images, labels = write_idx_pair(tmp_path, pixels.tolist(), [0] * 16, rows=4, cols=4)
    data = load_idx(images, labels)
    want = (pixels.astype(np.float32) / np.float32(255.0)).reshape(16, 16)
    assert data.features.dtype == np.float32
    assert data.features.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


def test_idx_count_mismatch(tmp_path):
    images, _ = write_idx_pair(tmp_path, list(range(10)), [0] * 10, rows=1, cols=1)
    bad_labels = tmp_path / "bad_labels.idx"
    bad_labels.write_bytes(struct.pack(">II", 0x00000801, 9) + bytes(9))
    with pytest.raises(FormatError, match="count"):
        load_idx(images, bad_labels)


def test_idx_bad_magic(tmp_path):
    images, labels = write_idx_pair(tmp_path, [0], [0], rows=1, cols=1)
    corrupted = tmp_path / "corrupt.idx"
    corrupted.write_bytes(b"\xde\xad\xbe\xef" + images.read_bytes()[4:])
    with pytest.raises(FormatError, match="magic"):
        load_idx(corrupted, labels)


def test_idx_truncated(tmp_path):
    images, labels = write_idx_pair(tmp_path, [7] * 4, [0, 1], rows=2, cols=1)
    truncated = tmp_path / "short.idx"
    truncated.write_bytes(images.read_bytes()[:-2])
    with pytest.raises(FormatError, match="byte"):
        load_idx(truncated, labels)


def test_idx_header_shape(tmp_path):
    # 3 images of 4x2 pixels -> (3, 8) matrix
    images, labels = write_idx_pair(tmp_path, list(range(24)), [0, 1, 1], rows=4, cols=2)
    data = load_idx(images, labels)
    assert data.features.shape == (3, 8)
    # row-major flattening: first image is pixels 0..7 in order
    assert np.array_equal(
        data.features[0], np.arange(8, dtype=np.float32) / np.float32(255.0)
    )
