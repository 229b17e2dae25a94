"""Fernet authenticated symmetric encryption (token version 0x80).

Tokens are url-safe base64 over:

    0x80 | timestamp u64 BE seconds | IV 16 bytes
    | AES-128-CBC ciphertext (PKCS7, always padded)
    | HMAC-SHA256 tag over everything before it

The token layout, padding and MAC handling are implemented here; only
the raw AES block cipher comes from the ``cryptography`` package.
Timestamp and IV are injectable so tests can be deterministic; left unset
they fall back to the wall clock and OS entropy. ``decrypt`` reads no
timestamp: a global model must stay decryptable for a whole run.

``decrypt`` accepts a token only in the canonical encoding that
``encrypt`` writes, so that no two token strings decrypt to the same
bytes. Its decoder is strict and vectorized instead of lenient: it reads
the body two symbols per lookup in a table of all 65,536 byte pairs,
which rejects any byte outside the url-safe alphabet, and leaves only
the last 4 symbols to the stdlib; ``_decode_canonical`` says why that
accepts exactly the canonical encoding. Encoding stays with the stdlib,
which is faster there than numpy.
"""

from __future__ import annotations

import base64
import binascii
import hmac as hmac_mod
import os
import random
import time
from dataclasses import dataclass
from math import ceil

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import (
    AuthenticationError,
    TokenFormatError,
    UnsupportedVersionError,
    ValidationError,
)

TOKEN_VERSION = 0x80
_BLOCK = 16
# version + timestamp + IV + HMAC tag; ciphertext sits in between
_OVERHEAD = 1 + 8 + 16 + 32
_URLSAFE = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
# Marks a byte pair with a byte outside _URLSAFE; valid pairs hold 12 bits.
_BAD_PAIR = 0xFFFF
# Quanta that _decode_canonical maps per lookup: an index copy of 0.5 MB.
_DECODE_QUANTA = 1 << 15


def _pair_table() -> np.ndarray:
    """``table[c0 | c1 << 8]``: the 12 bits that symbols ``c0 c1`` encode.

    An entry is ``_BAD_PAIR`` when ``c0`` or ``c1`` is not in ``_URLSAFE``.
    """
    symbol = np.full(256, 64, dtype="<u2")  # 64: not a symbol
    symbol[np.frombuffer(_URLSAFE, np.uint8)] = np.arange(64)
    # Row c1, column c0, so the flat index is c0 | c1 << 8.
    first, second = symbol[np.newaxis, :], symbol[:, np.newaxis]
    valid = (first | second) < 64
    return np.where(valid, first << 6 | second, _BAD_PAIR).astype("<u2", copy=False).ravel()


_PAIRS = _pair_table()


@dataclass(frozen=True)
class FernetKey:
    """A 32-byte split key: 16 signing bytes then 16 encryption bytes."""

    signing_key: bytes
    encryption_key: bytes

    def __post_init__(self):
        if len(self.signing_key) != 16 or len(self.encryption_key) != 16:
            raise ValidationError("signing and encryption halves must each be 16 bytes")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FernetKey":
        if len(raw) != 32:
            raise ValidationError(f"key material must be 32 bytes, got {len(raw)}")
        return cls(raw[:16], raw[16:])

    @classmethod
    def from_encoded(cls, encoded: str | bytes) -> "FernetKey":
        try:
            if isinstance(encoded, str):
                encoded = encoded.encode("ascii")
            raw = base64.urlsafe_b64decode(encoded)
        except (binascii.Error, ValueError) as exc:
            raise ValidationError(f"key is not url-safe base64: {exc}") from exc
        key = cls.from_bytes(raw)
        # One spelling per key, as for tokens: the decoder also takes
        # trailing junk and the standard alphabet's '+' and '/'.
        if key.encoded().encode("ascii") != encoded:
            raise ValidationError("key is not in canonical url-safe base64")
        return key

    def encoded(self) -> str:
        return base64.urlsafe_b64encode(self.signing_key + self.encryption_key).decode("ascii")


def generate_key(rng_seed: int | None = None) -> FernetKey:
    """Fresh key from OS entropy, or from a seeded PRNG (test use only)."""
    if rng_seed is None:
        return FernetKey.from_bytes(os.urandom(32))
    # random.Random seeds from the absolute value, so -s would give s's key.
    if rng_seed < 0:
        raise ValidationError(f"rng_seed must be >= 0, got {rng_seed}")
    return FernetKey.from_bytes(random.Random(rng_seed).randbytes(32))


def token_length(plaintext_length: int) -> int:
    """Exact encoded token length for a plaintext of the given byte length."""
    raw = _OVERHEAD + _BLOCK * ((plaintext_length // _BLOCK) + 1)
    return 4 * ceil(raw / 3)


def encrypt(
    key: FernetKey,
    plaintext: bytes,
    timestamp: int | None = None,
    iv: bytes | None = None,
) -> bytes:
    """Produce a Fernet token for ``plaintext``.

    Any byte sequence is encryptable; the empty plaintext still yields one
    full padding block. The decoded token is built in one buffer: the
    whole blocks of ``plaintext`` are encrypted straight into it, then the
    last partial block with its PKCS7 padding, then the tag.
    """
    if timestamp is None:
        timestamp = int(time.time())
    if not (0 <= timestamp < 2**64):
        raise ValidationError("timestamp must fit in 64 unsigned bits")
    if iv is None:
        iv = os.urandom(16)
    if len(iv) != 16:
        raise ValidationError(f"IV must be exactly 16 bytes, got {len(iv)}")
    source = memoryview(plaintext).cast("B")
    whole = len(source) - len(source) % _BLOCK
    pad = _BLOCK - len(source) % _BLOCK
    raw = bytearray(_OVERHEAD + whole + _BLOCK)
    raw[0] = TOKEN_VERSION
    raw[1:9] = timestamp.to_bytes(8, "big")
    raw[9:25] = iv
    view = memoryview(raw)
    encryptor = Cipher(algorithms.AES(key.encryption_key), modes.CBC(iv)).encryptor()
    # update_into needs room for 15 bytes beyond its input; the tag's 32
    # bytes after the ciphertext provide it.
    encryptor.update_into(source[:whole], view[25:])
    encryptor.update_into(bytes(source[whole:]) + bytes([pad]) * pad, view[25 + whole :])
    encryptor.finalize()
    view[-32:] = hmac_mod.new(key.signing_key, view[:-32], "sha256").digest()
    return base64.urlsafe_b64encode(raw)


def _decode_canonical(token: bytes) -> memoryview:
    """Decode ``token``, accepting only the encoding ``encrypt`` writes.

    The canonical encoding of ``n`` bytes is ``4 * ceil(n / 3)`` symbols:
    one 4-symbol quantum per 3 bytes, the last quantum ending in ``=``
    padding, with zero bits before it, when ``n % 3`` is 1 or 2. Three
    checks accept exactly that encoding of the decoded bytes:

    - the length is a positive multiple of 4, so the token splits into
      quanta;
    - every body symbol (all but the last 4) is in ``_URLSAFE``. Each body
      quantum is then 4 symbols for 3 bytes, which have one encoding only,
      and no ``+``, ``/``, ``=``, whitespace or other byte sits in the body;
    - the last quantum re-encodes to itself after the stdlib decodes it to
      1 to 3 bytes. That rejects bad padding and stray bits before it.

    The body is read as little-endian symbol pairs, with no copy of the
    token, and mapped through ``_PAIRS``, whose one maximum rejects any pair
    with a byte outside the alphabet. The mapped pairs, viewed as one
    ``first | second << 16`` word per quantum, are split into 3 bytes with
    shifts. The body is mapped ``_DECODE_QUANTA`` quanta at a time, since
    the lookup copies its indices as ``intp``, 4 times the bytes it reads.
    The decoded bytes come back as a writable view of one array.
    """
    if not token or len(token) % 4:
        raise TokenFormatError(f"token length {len(token)} is not a positive multiple of 4")
    pairs = np.frombuffer(token, "<u2", count=len(token) // 2 - 2)
    body = len(pairs) // 2 * 3
    # Room for the longest tail; the view returned ends at the real one.
    data = np.empty(body + 3, np.uint8)
    for start in range(0, len(pairs), 2 * _DECODE_QUANTA):
        mapped = _PAIRS.take(pairs[start : start + 2 * _DECODE_QUANTA])
        if mapped.max() == _BAD_PAIR:
            raise TokenFormatError("token body is not url-safe base64")
        words = mapped.view("<u4")
        quanta = data[start // 2 * 3 : (start // 2 + len(words)) * 3].reshape(-1, 3)
        # A quantum's 24 bits are first << 12 | second, so its bytes are
        # first >> 4, (first & 0xF) << 4 | second >> 8 and second & 0xFF. Row
        # i of word_bytes holds the little-endian bytes of words[i]; the
        # unsafe casts keep the low 8 bits of each shifted word.
        word_bytes = mapped.view(np.uint8).reshape(-1, 4)
        np.right_shift(words, 4, out=quanta[:, 0], casting="unsafe")
        np.left_shift(words, 4, out=quanta[:, 1], casting="unsafe")
        quanta[:, 1] |= word_bytes[:, 3]
        quanta[:, 2] = word_bytes[:, 2]
    last = token[-4:]
    try:
        tail = base64.urlsafe_b64decode(last)
    except (binascii.Error, ValueError) as exc:
        raise TokenFormatError(f"token is not url-safe base64: {exc}") from exc
    if base64.urlsafe_b64encode(tail) != last:
        raise TokenFormatError("token is not canonical base64")
    view = memoryview(data)[: body + len(tail)]
    view[body:] = tail
    return view


def decrypt(key: FernetKey, token: bytes | str) -> bytes:
    """Verify and decrypt a token, returning the original plaintext.

    A token that is not the canonical url-safe base64 of its bytes raises
    ``TokenFormatError`` (see ``_decode_canonical``), even when those
    bytes would pass the HMAC. The HMAC is checked (constant time) before
    any decryption.
    """
    if isinstance(token, str):
        try:
            token = token.encode("ascii")
        except UnicodeEncodeError as exc:
            raise TokenFormatError(f"token is not ASCII: {exc}") from exc
    data = _decode_canonical(token)
    if len(data) < _OVERHEAD + _BLOCK:
        raise TokenFormatError(f"token too short: {len(data)} decoded bytes")
    if data[0] != TOKEN_VERSION:
        raise UnsupportedVersionError(f"unknown token version 0x{data[0]:02x}")
    tag = hmac_mod.new(key.signing_key, data[:-32], "sha256").digest()
    if not hmac_mod.compare_digest(tag, data[-32:]):
        raise AuthenticationError("HMAC verification failed")
    ciphertext = data[25:-32]
    if len(ciphertext) % _BLOCK:
        raise TokenFormatError("ciphertext length is not a multiple of 16")
    decryptor = Cipher(algorithms.AES(key.encryption_key), modes.CBC(data[9:25])).decryptor()
    # CBC decryption runs in place: OpenSSL accepts an output that starts
    # where its input does, and the verified tag after the ciphertext gives
    # update_into the 15 bytes of room beyond its input that it requires.
    end = 25 + decryptor.update_into(ciphertext, data[25:])
    decryptor.finalize()
    n = data[end - 1]
    if not 1 <= n <= _BLOCK or data[end - n : end] != bytes([n]) * n:
        raise TokenFormatError("invalid PKCS7 padding")
    return bytes(data[25 : end - n])
