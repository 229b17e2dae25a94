import base64
import binascii

import pytest
from cryptography.fernet import Fernet as ReferenceFernet
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfl.crypto import FernetKey, decrypt, encrypt, generate_key, token_length
from ddfl.errors import (
    AuthenticationError,
    ExpiredTokenError,
    InvalidToken,
    TokenFormatError,
    UnsupportedVersionError,
    ValidationError,
)
from ddfl.params import init_model, serialize_params

ZERO_KEY = FernetKey.from_bytes(bytes(32))

# Frozen from the reference implementation: zero key, timestamp 499162800,
# zero IV, plaintext b"hello".
KNOWN_TOKEN = (
    b"gAAAAAAdwJ6wAAAAAAAAAAAAAAAAAAAAAJg07VGMvI--"
    b"mvPG7LdeuMCmwRkC2rh4U6fX4LyziD8qZmL7VZZzF3C8uJKU8lpvuA=="
)


def reference_token(key: FernetKey, plaintext: bytes, timestamp: int, iv: bytes) -> bytes:
    return ReferenceFernet(key.encoded().encode())._encrypt_from_parts(
        plaintext, timestamp, iv
    )


# --- keys --------------------------------------------------------------------

def test_key_encoding_roundtrip():
    key = generate_key(rng_seed=5)
    assert FernetKey.from_encoded(key.encoded()) == key
    assert len(base64.urlsafe_b64decode(key.encoded())) == 32


def test_seeded_key_deterministic():
    assert generate_key(rng_seed=3) == generate_key(rng_seed=3)
    assert generate_key(rng_seed=3) != generate_key(rng_seed=4)


def test_unseeded_keys_differ():
    assert generate_key() != generate_key()


def test_bad_key_material_rejected():
    with pytest.raises(ValidationError):
        FernetKey.from_bytes(bytes(31))
    with pytest.raises(ValidationError):
        FernetKey.from_encoded("not base64!!")


# --- interoperability with the reference implementation -----------------------

def test_known_token_frozen_value():
    token = encrypt(ZERO_KEY, b"hello", timestamp=499162800, iv=bytes(16))
    assert token == KNOWN_TOKEN


@pytest.mark.parametrize(
    "key_seed,plaintext,timestamp,iv_byte",
    [
        (0, b"hello", 499162800, 0x00),
        (1, b"", 0, 0x55),
        (2, b"x" * 16, 1_700_000_000, 0xAA),
        (3, bytes(range(256)), 2**32, 0x01),
    ],
)
def test_matches_reference_implementation(key_seed, plaintext, timestamp, iv_byte):
    key = generate_key(rng_seed=key_seed)
    iv = bytes([iv_byte]) * 16
    assert encrypt(key, plaintext, timestamp, iv) == reference_token(
        key, plaintext, timestamp, iv
    )


@pytest.mark.parametrize("length", range(49))
def test_matches_reference_for_every_padding_length(length):
    key = generate_key(rng_seed=length)
    plaintext = bytes((7 * i + length) % 256 for i in range(length))
    iv = bytes(range(16))
    expected = reference_token(key, plaintext, 1_234_567, iv)
    forms = [plaintext, bytearray(plaintext), memoryview(plaintext)]
    if length % 4 == 0:
        forms.append(memoryview(plaintext).cast("f"))
    for form in forms:
        assert encrypt(key, form, 1_234_567, iv) == expected
    assert decrypt(key, expected) == plaintext


def test_matches_reference_for_model_bound_blob():
    # The 8192x50 layer of the model-bound benchmark: a 1.6 MB blob.
    model = init_model([(8192, 50)], seed=0)
    blob = serialize_params(model)
    key = generate_key(rng_seed=21)
    iv = b"\x5a" * 16
    expected = reference_token(key, blob, 1_700_000_000, iv)
    for form in (blob, bytearray(blob), memoryview(blob)):
        assert encrypt(key, form, 1_700_000_000, iv) == expected
    plaintext = decrypt(key, expected)
    assert type(plaintext) is bytes
    assert plaintext == blob


def test_reference_can_decrypt_our_tokens():
    key = generate_key(rng_seed=11)
    token = encrypt(key, b"cross-check", timestamp=10_000, iv=b"\x42" * 16)
    assert ReferenceFernet(key.encoded().encode()).decrypt(token) == b"cross-check"


def test_we_can_decrypt_reference_tokens():
    key = generate_key(rng_seed=12)
    ref = ReferenceFernet(key.encoded().encode()).encrypt(b"other direction")
    assert decrypt(key, ref) == b"other direction"


# --- roundtrip + length properties --------------------------------------------

@settings(max_examples=120, deadline=None)
@given(data=st.binary(min_size=0, max_size=1000), seed=st.integers(0, 2**32))
def test_roundtrip_property(data, seed):
    key = generate_key(rng_seed=seed)
    token = encrypt(key, data, timestamp=1_000, iv=bytes(16))
    assert decrypt(key, token) == data
    assert len(token) == token_length(len(data))


def test_full_padding_block_for_block_sized_input():
    token = encrypt(ZERO_KEY, b"p" * 16, timestamp=0, iv=bytes(16))
    raw = base64.urlsafe_b64decode(token)
    ciphertext = raw[25:-32]
    assert len(ciphertext) == 32  # 16 data + one full PKCS7 block


def test_empty_plaintext_pads_one_block():
    token = encrypt(ZERO_KEY, b"", timestamp=0, iv=bytes(16))
    raw = base64.urlsafe_b64decode(token)
    assert len(raw[25:-32]) == 16


def test_string_token_accepted():
    key = generate_key(rng_seed=1)
    token = encrypt(key, b"abc")
    assert decrypt(key, token.decode("ascii")) == b"abc"


# --- rejection paths -----------------------------------------------------------

def test_wrong_key_fails_authentication():
    token = encrypt(generate_key(rng_seed=1), b"secret")
    with pytest.raises(AuthenticationError):
        decrypt(generate_key(rng_seed=2), token)


def test_flipped_ciphertext_bit_rejected():
    token = bytearray(encrypt(ZERO_KEY, b"payload", timestamp=0, iv=bytes(16)))
    # Flip one bit inside the ciphertext region of the decoded token. Byte 40
    # of the raw token is ciphertext; it lands past base64 position 53.
    position = 56
    token[position] = ord("A") if token[position] != ord("A") else ord("B")
    with pytest.raises(InvalidToken):
        decrypt(ZERO_KEY, bytes(token))


def test_every_single_byte_mutation_rejected():
    key = generate_key(rng_seed=9)
    token = encrypt(key, b"mutation sweep", timestamp=77, iv=b"\x07" * 16)
    for i in range(len(token)):
        for replacement in (b"A"[0], b"_"[0], b"="[0]):
            if token[i] == replacement:
                continue
            mutated = token[:i] + bytes([replacement]) + token[i + 1 :]
            with pytest.raises(InvalidToken):
                decrypt(key, mutated)


def test_wrong_version_rejected():
    raw = bytearray(base64.urlsafe_b64decode(encrypt(ZERO_KEY, b"v", timestamp=0, iv=bytes(16))))
    raw[0] = 0x81
    with pytest.raises(UnsupportedVersionError):
        decrypt(ZERO_KEY, base64.urlsafe_b64encode(bytes(raw)))


def test_bad_base64_rejected():
    with pytest.raises(TokenFormatError):
        decrypt(ZERO_KEY, b"!!!not-base64!!!")


def test_truncated_token_rejected():
    token = encrypt(ZERO_KEY, b"t", timestamp=0, iv=bytes(16))
    with pytest.raises(InvalidToken):
        decrypt(ZERO_KEY, token[: len(token) // 2])


def test_ttl_expiry():
    token = encrypt(ZERO_KEY, b"old", timestamp=0, iv=bytes(16))
    with pytest.raises(ExpiredTokenError):
        decrypt(ZERO_KEY, token, ttl=60, now=10**9)


def test_future_timestamp_rejected_with_ttl():
    token = encrypt(ZERO_KEY, b"future", timestamp=10_000, iv=bytes(16))
    with pytest.raises(ExpiredTokenError):
        decrypt(ZERO_KEY, token, ttl=60, now=10_000 - 61 - 60)


def test_clock_skew_allowance():
    token = encrypt(ZERO_KEY, b"skew", timestamp=1_059, iv=bytes(16))
    # 59 s in the future is inside the 60 s allowance.
    assert decrypt(ZERO_KEY, token, ttl=300, now=1_000) == b"skew"


def test_no_ttl_ignores_timestamp():
    token = encrypt(ZERO_KEY, b"timeless", timestamp=0, iv=bytes(16))
    assert decrypt(ZERO_KEY, token, ttl=None, now=10**9) == b"timeless"


def test_iv_must_be_16_bytes():
    with pytest.raises(ValidationError):
        encrypt(ZERO_KEY, b"x", timestamp=0, iv=b"\x00" * 15)


# --- canonical encoding ----------------------------------------------------------
# Each alias below decodes to the bytes of a valid token, so the HMAC alone
# would accept it; only the canonical-encoding check rejects it.

URLSAFE = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
ALIAS_KEY = generate_key(rng_seed=31)
# 121 decoded bytes, so the token ends in "==", and it holds both "-" and "_".
ALIAS_PLAINTEXT = b"alias" * 10
ALIAS_TOKEN = encrypt(ALIAS_KEY, ALIAS_PLAINTEXT, timestamp=1_000, iv=bytes(16))


def canonical(token: bytes) -> bool:
    """The reference rule: the token decodes and re-encodes to itself."""
    try:
        data = base64.urlsafe_b64decode(token)
    except (binascii.Error, ValueError):
        return False
    return base64.urlsafe_b64encode(data) == token


def stray_bits(token: bytes) -> bytes:
    symbol = URLSAFE.index(token[-3])
    return token[:-3] + bytes([URLSAFE[symbol ^ 1]]) + token[-2:]


def swap_first(token: bytes, old: bytes, new: bytes) -> bytes:
    assert old in token
    return token.replace(old, new, 1)


def insert_at(token: bytes, position: int, text: bytes) -> bytes:
    return token[:position] + text + token[position:]


@pytest.mark.parametrize(
    "alias",
    [
        stray_bits(ALIAS_TOKEN),
        swap_first(ALIAS_TOKEN, b"-", b"+"),
        swap_first(ALIAS_TOKEN, b"_", b"/"),
        insert_at(ALIAS_TOKEN, 40, b"\n"),
        insert_at(ALIAS_TOKEN, 40, b" "),
        insert_at(ALIAS_TOKEN, 40, b"    "),
        insert_at(ALIAS_TOKEN, 40, b"="),
        insert_at(ALIAS_TOKEN, 40, b"===="),
        ALIAS_TOKEN + b"=",
        ALIAS_TOKEN + b"====",
    ],
    ids=[
        "stray-bits-before-padding",
        "dash-as-plus",
        "underscore-as-slash",
        "inserted-newline",
        "inserted-space",
        "inserted-four-spaces",
        "pad-inside-body",
        "four-pads-inside-body",
        "extra-trailing-pad",
        "four-extra-trailing-pads",
    ],
)
def test_aliasing_tokens_rejected(alias):
    assert ALIAS_TOKEN.endswith(b"==")
    assert alias != ALIAS_TOKEN
    assert base64.urlsafe_b64decode(alias) == base64.urlsafe_b64decode(ALIAS_TOKEN)
    assert decrypt(ALIAS_KEY, ALIAS_TOKEN) == ALIAS_PLAINTEXT
    with pytest.raises(TokenFormatError):
        decrypt(ALIAS_KEY, alias)
    with pytest.raises(TokenFormatError):
        decrypt(ALIAS_KEY, alias.decode("ascii"))


def assert_format_error_iff_not_canonical(token: bytes):
    format_error = False
    try:
        decrypt(ALIAS_KEY, token)
    except TokenFormatError:
        format_error = True
    except InvalidToken:
        pass
    assert format_error is not canonical(token), token


SYMBOLS = st.sampled_from(list(URLSAFE + b"=+/\n !")).map(lambda b: bytes([b]))


@settings(max_examples=400, deadline=None)
@given(tail=st.lists(SYMBOLS, max_size=12).map(b"".join))
def test_short_tails_rejected_exactly_when_not_canonical(tail):
    # A real token's first 156 symbols decode to 117 bytes, so a canonical
    # candidate is long enough to reach the version and HMAC checks.
    assert_format_error_iff_not_canonical(ALIAS_TOKEN[:-8] + tail)


@settings(max_examples=400, deadline=None)
@given(
    edit=st.sampled_from(["insert", "delete", "replace"]),
    where=st.integers(0, len(ALIAS_TOKEN) - 1),
    symbol=SYMBOLS,
)
def test_single_edits_rejected_exactly_when_not_canonical(edit, where, symbol):
    if edit == "insert":
        token = insert_at(ALIAS_TOKEN, where, symbol)
    elif edit == "delete":
        token = ALIAS_TOKEN[:where] + ALIAS_TOKEN[where + 1 :]
    else:
        token = ALIAS_TOKEN[:where] + symbol + ALIAS_TOKEN[where + 1 :]
    assert_format_error_iff_not_canonical(token)


def test_canonical_check_on_every_last_quantum():
    # Every two-symbol and three-symbol ending, with its padding, after a
    # real token's body: only the canonical ones get past the format check.
    body = ALIAS_TOKEN[:-4]
    symbols = [bytes([b]) for b in URLSAFE + b"=+/"]
    for a in symbols:
        for b in symbols:
            assert_format_error_iff_not_canonical(body + a + b + b"==")
            for c in symbols:
                assert_format_error_iff_not_canonical(body + a + b + c + b"=")
