"""Fernet authenticated symmetric encryption (token version 0x80).

Tokens are url-safe base64 over:

    0x80 | timestamp u64 BE seconds | IV 16 bytes
    | AES-128-CBC ciphertext (PKCS7, always padded)
    | HMAC-SHA256 tag over everything before it

The token layout, padding, MAC handling, and TTL rules are implemented
here; only the raw AES block cipher comes from the ``cryptography``
package. Timestamp and IV are injectable so tests can be deterministic;
left unset they fall back to the wall clock and OS entropy.

``decrypt`` accepts a token only in the canonical encoding that
``encrypt`` writes, so that no two token strings decrypt to the same
bytes. Instead of re-encoding the whole token, it checks that the token
has no ``+`` or ``/``, that its length is ``4 * ceil(n / 3)`` for its
``n`` decoded bytes, and that its last 4 symbols are the encoding of
the last 1 to 3 bytes; ``_decode_canonical`` says why that is enough.
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

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import (
    AuthenticationError,
    ExpiredTokenError,
    TokenFormatError,
    UnsupportedVersionError,
    ValidationError,
)

TOKEN_VERSION = 0x80
MAX_CLOCK_SKEW = 60
_BLOCK = 16
# version + timestamp + IV + HMAC tag; ciphertext sits in between
_OVERHEAD = 1 + 8 + 16 + 32


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
        if isinstance(encoded, str):
            encoded = encoded.encode("ascii")
        try:
            raw = base64.urlsafe_b64decode(encoded)
        except (binascii.Error, ValueError) as exc:
            raise ValidationError(f"key is not url-safe base64: {exc}") from exc
        return cls.from_bytes(raw)

    def encoded(self) -> str:
        return base64.urlsafe_b64encode(self.signing_key + self.encryption_key).decode("ascii")


def generate_key(rng_seed: int | None = None) -> FernetKey:
    """Fresh key from OS entropy, or from a seeded PRNG (test use only)."""
    if rng_seed is None:
        return FernetKey.from_bytes(os.urandom(32))
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


def _decode_canonical(token: bytes) -> bytes:
    """Decode ``token``, accepting only the encoding ``encrypt`` writes.

    The decoder is lenient: it skips bytes outside its alphabet (such as
    whitespace or a ``=`` inside the body), reads ``+`` and ``/`` as well
    as ``-`` and ``_``, ignores what follows complete padding, and drops
    the unused low bits of the last symbol before ``=``. Several strings
    can thus decode to the bytes of one valid token. Three checks, none of
    which re-encodes the whole token, accept exactly the canonical one:

    - no ``+`` and no ``/``, so every symbol the decoder used is url-safe;
    - ``len(token) == 4 * ceil(len(data) / 3)``, a multiple of 4. The
      decoder turns each 4 symbols into 3 bytes and a last 2 or 3 into 1
      or 2, and refuses a last 1. At this length it therefore used every
      symbol but as many as the canonical encoding has ``=`` at its end;
    - the last quantum of ``data`` re-encodes to the last 4 symbols. These
      then end in that many ``=``, which the decoder never uses, so the
      symbols it left unused are the trailing padding: no byte was skipped
      and no ``=`` sits in the body. It also rejects stray bits before the
      padding. Every other quantum is 4 symbols for 3 bytes, which have
      one encoding only.
    """
    try:
        data = base64.urlsafe_b64decode(token)
    except (binascii.Error, ValueError) as exc:
        raise TokenFormatError(f"token is not url-safe base64: {exc}") from exc
    if (
        b"+" in token
        or b"/" in token
        or len(token) != 4 * ceil(len(data) / 3)
        or base64.urlsafe_b64encode(data[-(len(data) % 3 or 3) :]) != token[-4:]
    ):
        raise TokenFormatError("token is not canonical base64")
    return data


def decrypt(
    key: FernetKey,
    token: bytes | str,
    ttl: int | None = None,
    now: int | None = None,
) -> bytes:
    """Verify and decrypt a token, returning the original plaintext.

    A token that is not the canonical url-safe base64 of its bytes raises
    ``TokenFormatError`` (see ``_decode_canonical``), even when those
    bytes would pass the HMAC. The HMAC is checked (constant time) before
    any decryption. With a ``ttl``, tokens older than ``ttl`` seconds or
    more than 60 s in the future are rejected.
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
    timestamp = int.from_bytes(data[1:9], "big")
    if ttl is not None:
        if now is None:
            now = int(time.time())
        if timestamp + ttl < now:
            raise ExpiredTokenError(f"token from {timestamp} expired at ttl={ttl}, now={now}")
        if timestamp > now + MAX_CLOCK_SKEW:
            raise ExpiredTokenError(f"token timestamp {timestamp} is too far in the future")
    view = memoryview(data)
    tag = hmac_mod.new(key.signing_key, view[:-32], "sha256").digest()
    if not hmac_mod.compare_digest(tag, data[-32:]):
        raise AuthenticationError("HMAC verification failed")
    ciphertext = view[25:-32]
    if len(ciphertext) % _BLOCK:
        raise TokenFormatError("ciphertext length is not a multiple of 16")
    decryptor = Cipher(algorithms.AES(key.encryption_key), modes.CBC(data[9:25])).decryptor()
    padded = bytearray(len(ciphertext) + _BLOCK - 1)
    end = decryptor.update_into(ciphertext, padded)
    decryptor.finalize()
    n = padded[end - 1]
    if not 1 <= n <= _BLOCK or padded[end - n : end] != bytes([n]) * n:
        raise TokenFormatError("invalid PKCS7 padding")
    return bytes(memoryview(padded)[: end - n])
