#!/usr/bin/env python3
"""Federated training on an IDX (MNIST-family) image/label file pair.

The script writes a small IDX pair of 8x8 images into its own temporary
directory: each of four classes lights one quadrant, over pixel noise.
An experiment then reads the pair, holds out a seeded fifth of the images
as the test set, and deals the rest to four clients, who train for two
rounds through a filesystem store in the same directory. Everything the
script writes is removed when it ends.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

import ddfl
from ddfl.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from ddfl.orchestrator import build_datasets

N_IMAGES, SIDE, CLASSES = 400, 8, 4


def write_idx_pair(directory: Path) -> tuple[Path, Path]:
    """An IDX image file and label file of N_IMAGES noisy quadrant images."""
    rng = np.random.default_rng(5)
    labels = np.arange(N_IMAGES, dtype=np.uint8) % CLASSES
    images = rng.integers(0, 200, size=(N_IMAGES, SIDE, SIDE))
    half = SIDE // 2
    for i, label in enumerate(labels):
        row, col = divmod(int(label), 2)
        images[i, row * half : (row + 1) * half, col * half : (col + 1) * half] += 55
    images_path, labels_path = directory / "images.idx", directory / "labels.idx"
    # Big-endian magic and sizes, then one unsigned byte per pixel or label.
    images_path.write_bytes(
        struct.pack(">IIII", IDX_IMAGES_MAGIC, N_IMAGES, SIDE, SIDE)
        + images.astype(np.uint8).tobytes()
    )
    labels_path.write_bytes(
        struct.pack(">II", IDX_LABELS_MAGIC, N_IMAGES) + labels.tobytes()
    )
    return images_path, labels_path


with tempfile.TemporaryDirectory(prefix="ddfl-idx-") as tmp:
    workdir = Path(tmp)
    images, labels = write_idx_pair(workdir)
    store_root = workdir / "store"
    store_root.mkdir()
    cfg = ddfl.ExperimentConfig(
        n_clients=4,
        rounds=2,
        train=ddfl.TrainConfig(learning_rate=0.2, epochs=1, batch_size=16, seed=2),
        backend=ddfl.BackendConfig(kind=ddfl.BackendKind.FILESYSTEM, root_path=store_root),
        group_key=ddfl.generate_key(rng_seed=2),
        dataset=ddfl.IdxSpec(images, labels),
        seed=2,
    )

    full = ddfl.load_idx(images, labels)
    train, test = build_datasets(cfg)
    print(f"{len(full)} images of {full.dim} pixels, {full.num_classes} classes")
    print(f"train {len(train)} rows over {cfg.n_clients} clients, test {len(test)} rows")

    print("round  accuracy")
    for outcome in ddfl.run_experiment(cfg):
        print(f"{outcome.round:5d}  {outcome.global_accuracy:.4f}")

print("temporary files removed:", not workdir.exists())
