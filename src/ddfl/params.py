"""Flat model parameters and their binary wire format.

A model is one dense layer ``(rows, cols)``: ``rows * cols`` row-major
weights followed by ``cols`` bias terms, all float32, in one flat array.
That is the layer that ``ddfl.training`` fits. The wire format is:

    magic "DDFL" | version u8 (=1) | layer count u16 LE (=1)
    | rows u32 LE, cols u32 LE
    | param count u64 LE | values as f32 LE

A layer count other than 1 is a ``FormatError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"DDFL"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sBH")  # magic, version, layer count
_SHAPE = struct.Struct("<IIQ")  # rows, cols, param count


def _one_layer(shapes) -> tuple[int, int]:
    """The ``(rows, cols)`` of a one-layer shape list; anything else is invalid."""
    shapes = tuple(shapes)
    if len(shapes) != 1:
        raise ValidationError(f"a model is exactly one dense layer, got {len(shapes)} layers")
    rows, cols = map(int, shapes[0])
    if rows < 1 or cols < 1:
        raise ValidationError(f"layer dimensions must be >= 1, got ({rows}, {cols})")
    return rows, cols


def param_count_for(shapes) -> int:
    """Parameter count of a ``[(rows, cols)]`` model, biases included."""
    rows, cols = _one_layer(shapes)
    return rows * cols + cols


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Immutable flat float32 parameters of one dense layer, and its shape."""

    values: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        rows, cols = _one_layer(self.shapes)
        values = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        expected = rows * cols + cols
        if values.size != expected:
            raise ValidationError(
                f"shapes imply {expected} parameters but {values.size} values given"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("parameter values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shapes", ((rows, cols),))

    @property
    def param_count(self) -> int:
        return int(self.values.size)

    def layer(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight matrix and bias vector views of layer 0, the only layer."""
        if index != 0:
            raise IndexError(index)
        ((rows, cols),) = self.shapes
        split = rows * cols
        return self.values[:split].reshape(rows, cols), self.values[split:]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ParameterVector(shapes={self.shapes}, param_count={self.param_count})"


def init_model(layer_spec, seed: int) -> ParameterVector:
    """Build a model with seeded uniform(-0.1, 0.1) weights and zero biases.

    ``layer_spec`` is ``[(rows, cols)]``; the weights are drawn in one call,
    so a given seed always yields the same vector.
    """
    rows, cols = _one_layer(layer_spec)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.1, 0.1, size=rows * cols).astype(np.float32)
    return ParameterVector(
        np.concatenate([weights, np.zeros(cols, dtype=np.float32)]), ((rows, cols),)
    )


def serialized_size(shapes) -> int:
    """Exact byte length serialize_params will produce for a ``[(rows, cols)]`` model."""
    return _HEADER.size + _SHAPE.size + 4 * param_count_for(shapes)


def serialize_params(params: ParameterVector) -> bytes:
    ((rows, cols),) = params.shapes
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 1) + _SHAPE.pack(rows, cols, params.param_count)
    # join copies the values once; astype is a no-op on little-endian hosts.
    return b"".join((header, params.values.astype("<f4", copy=False)))


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
    if layer_count != 1:
        raise FormatError(f"layer count {layer_count} at byte 5, expected 1")
    offset = _HEADER.size + _SHAPE.size
    if len(blob) < offset:
        raise FormatError(f"blob truncated at byte {len(blob)} while reading the layer shape")
    rows, cols, count = _SHAPE.unpack_from(blob, _HEADER.size)
    if count != rows * cols + cols:
        raise FormatError(
            f"parameter count {count} at byte {_HEADER.size + 8} "
            f"does not match shape ({rows}, {cols})"
        )
    end = offset + 4 * count
    if len(blob) != end:
        raise FormatError(f"expected {end} bytes total, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    try:
        return ParameterVector(values, ((rows, cols),))
    except ValidationError as exc:
        raise FormatError(f"decoded values are invalid: {exc}") from exc
