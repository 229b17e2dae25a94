"""Flat model parameters and their binary wire format.

A model is a stack of dense layers. Layer ``(rows, cols)`` owns
``rows * cols`` row-major weights followed by ``cols`` bias terms, all
float32, concatenated into one flat array. The wire format is:

    magic "DDFL" | version u8 (=1) | layer count u16 LE
    | per layer: rows u32 LE, cols u32 LE
    | param count u64 LE | values as f32 LE
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"DDFL"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sBH")
_LAYER = struct.Struct("<II")
_COUNT = struct.Struct("<Q")


def param_count_for(shapes) -> int:
    """Total parameter count for a list of (rows, cols) layers, biases included."""
    return sum(r * c + c for r, c in shapes)


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Immutable flat float32 parameter array plus per-layer shape metadata."""

    values: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        shapes = tuple((int(r), int(c)) for r, c in self.shapes)
        if not shapes:
            raise ValidationError("a model needs at least one layer")
        for r, c in shapes:
            if r < 1 or c < 1:
                raise ValidationError(f"layer dimensions must be >= 1, got ({r}, {c})")
        values = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        expected = param_count_for(shapes)
        if values.size != expected:
            raise ValidationError(
                f"shapes imply {expected} parameters but {values.size} values given"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("parameter values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shapes", shapes)

    @property
    def param_count(self) -> int:
        return int(self.values.size)

    def layer(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight matrix and bias vector views for one layer."""
        offset = 0
        for i, (r, c) in enumerate(self.shapes):
            if i == index:
                w = self.values[offset : offset + r * c].reshape(r, c)
                b = self.values[offset + r * c : offset + r * c + c]
                return w, b
            offset += r * c + c
        raise IndexError(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ParameterVector(shapes={self.shapes}, param_count={self.param_count})"


def init_model(layer_spec, seed: int) -> ParameterVector:
    """Build a model with seeded uniform(-0.1, 0.1) weights and zero biases.

    ``layer_spec`` is a list of (rows, cols) pairs; the draw order is fixed
    (weights layer by layer), so a given seed always yields the same vector.
    """
    shapes = tuple((int(r), int(c)) for r, c in layer_spec)
    if not shapes:
        raise ValidationError("layer_spec must not be empty")
    for r, c in shapes:
        if r < 1 or c < 1:
            raise ValidationError(f"layer dimensions must be >= 1, got ({r}, {c})")
    rng = np.random.default_rng(seed)
    chunks = []
    for r, c in shapes:
        chunks.append(rng.uniform(-0.1, 0.1, size=r * c).astype(np.float32))
        chunks.append(np.zeros(c, dtype=np.float32))
    return ParameterVector(np.concatenate(chunks), shapes)


def serialized_size(shapes) -> int:
    """Exact byte length serialize_params will produce for these layer shapes."""
    return (
        _HEADER.size
        + _LAYER.size * len(tuple(shapes))
        + _COUNT.size
        + 4 * param_count_for(shapes)
    )


def serialize_params(params: ParameterVector) -> bytes:
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(params.shapes))]
    for r, c in params.shapes:
        parts.append(_LAYER.pack(r, c))
    parts.append(_COUNT.pack(params.param_count))
    # join copies the values once; astype is a no-op on little-endian hosts.
    parts.append(params.values.astype("<f4", copy=False))
    return b"".join(parts)


def deserialize_params(blob: bytes) -> ParameterVector:
    """Inverse of serialize_params; rejects anything that is not a valid blob."""
    blob = bytes(blob)
    if len(blob) < _HEADER.size:
        raise FormatError(f"blob truncated at byte {len(blob)}: header needs {_HEADER.size} bytes")
    magic, version, layer_count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4")
    offset = _HEADER.size
    shapes = []
    for _ in range(layer_count):
        if len(blob) < offset + _LAYER.size:
            raise FormatError(f"blob truncated at byte {len(blob)} while reading layer shapes")
        r, c = _LAYER.unpack_from(blob, offset)
        shapes.append((r, c))
        offset += _LAYER.size
    if len(blob) < offset + _COUNT.size:
        raise FormatError(f"blob truncated at byte {len(blob)} while reading parameter count")
    (count,) = _COUNT.unpack_from(blob, offset)
    offset += _COUNT.size
    if count != param_count_for(shapes):
        raise FormatError(
            f"parameter count {count} at byte {offset - _COUNT.size} "
            f"does not match shapes {shapes}"
        )
    end = offset + 4 * count
    if len(blob) != end:
        raise FormatError(f"expected {end} bytes total, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    try:
        return ParameterVector(values, tuple(shapes))
    except ValidationError as exc:
        raise FormatError(f"decoded values are invalid: {exc}") from exc
