import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfl.errors import FormatError, ValidationError
from ddfl.params import (
    ParameterVector,
    deserialize_params,
    init_model,
    param_count_for,
    serialize_params,
    serialized_size,
)


def test_init_model_deterministic():
    a = init_model([(4, 3)], seed=7)
    b = init_model([(4, 3)], seed=7)
    assert np.array_equal(a.values, b.values)
    assert a.values.tobytes() == b.values.tobytes()


def test_init_model_param_counts():
    assert init_model([(4, 3)], seed=0).param_count == 15  # 12 weights + 3 biases
    assert init_model([(784, 10)], seed=0).param_count == 7850


def test_init_model_weight_range_and_zero_biases():
    model = init_model([(50, 20)], seed=3)
    w, b = model.layer(0)
    assert np.all(np.abs(w) <= 0.1)
    assert np.all(b == 0.0)
    assert w.dtype == np.float32


def test_init_model_different_seeds_differ():
    assert init_model([(4, 3)], seed=1) != init_model([(4, 3)], seed=2)


@pytest.mark.parametrize("spec", [[], [(0, 3)], [(3, 0)]])
def test_init_model_invalid_spec(spec):
    with pytest.raises(ValidationError):
        init_model(spec, seed=0)


def test_parameter_vector_validation():
    with pytest.raises(ValidationError):
        ParameterVector(np.zeros(14, dtype=np.float32), ((4, 3),))  # needs 15
    with pytest.raises(ValidationError):
        ParameterVector(np.array([np.nan] * 15, dtype=np.float32), ((4, 3),))


def test_parameter_vector_immutable():
    model = init_model([(2, 2)], seed=0)
    with pytest.raises(ValueError):
        model.values[0] = 1.0


def test_serialized_length_formula():
    # 4 magic + 1 version + 2 layer count + 8 one layer + 8 count + 4 per value
    assert serialized_size([(784, 10)]) == 4 + 1 + 2 + 8 + 8 + 7850 * 4 == 31423
    model = init_model([(784, 10)], seed=0)
    assert len(serialize_params(model)) == 31423


def test_serialized_bytes_follow_wire_format():
    model = init_model([(3, 2), (2, 5)], seed=4)
    expected = (
        b"DDFL\x01\x02\x00"
        + (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
        + (2).to_bytes(4, "little") + (5).to_bytes(4, "little")
        + (model.param_count).to_bytes(8, "little")
        + b"".join(struct.pack("<f", v) for v in model.values.tolist())
    )
    assert serialize_params(model) == expected


def test_roundtrip_simple():
    model = init_model([(4, 3)], seed=9)
    again = deserialize_params(serialize_params(model))
    assert again == model
    assert again.values.tobytes() == model.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=param_count_for([(rows, cols)])).astype(np.float32)
    model = ParameterVector(values, ((rows, cols),))
    blob = serialize_params(model)
    assert len(blob) == serialized_size(model.shapes)
    assert deserialize_params(blob) == model


def test_flipped_magic_rejected():
    blob = bytearray(serialize_params(init_model([(4, 3)], seed=0)))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError, match="magic"):
        deserialize_params(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(serialize_params(init_model([(4, 3)], seed=0)))
    blob[4] = 9
    with pytest.raises(FormatError, match="version"):
        deserialize_params(bytes(blob))


def test_truncation_rejected():
    blob = serialize_params(init_model([(4, 3)], seed=0))
    for cut in (0, 3, 10, len(blob) - 1):
        with pytest.raises(FormatError):
            deserialize_params(blob[:cut])
    with pytest.raises(FormatError):
        deserialize_params(blob + b"\x00")


def test_count_mismatch_rejected():
    blob = bytearray(serialize_params(init_model([(4, 3)], seed=0)))
    blob[15] += 1  # low byte of the u64 param count
    with pytest.raises(FormatError, match="count"):
        deserialize_params(bytes(blob))
