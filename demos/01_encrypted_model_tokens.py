#!/usr/bin/env python3
"""Every model that touches a store travels as an authenticated token.

This walk-through builds a key, encrypts a serialized model, shows the
token anatomy, and demonstrates that tampering or using the wrong key is
always detected. The token format interoperates with the widely used
`cryptography` package, which we use here as a cross-check.
"""

import base64

from cryptography.fernet import Fernet as ReferenceFernet

import ddfl

# A group key: 16 signing bytes + 16 encryption bytes, exchanged as
# url-safe base64 in config files. Seeded generation is for demos/tests;
# production callers omit the seed and get OS entropy.
key = ddfl.generate_key(rng_seed=42)
print("group key:", key.encoded())

model = ddfl.init_model([(8, 4)], seed=0)
blob = ddfl.serialize_params(model)
print(f"model: {model.param_count} parameters -> {len(blob)} serialized bytes")

token = ddfl.encrypt(key, blob)
print(f"token: {len(token)} bytes (predicted {ddfl.token_length(len(blob))})")

# Token anatomy: version byte, big-endian timestamp, IV, ciphertext, HMAC tag.
raw = base64.urlsafe_b64decode(token)
print("version byte:", hex(raw[0]))
print("timestamp:", int.from_bytes(raw[1:9], "big"))
print("IV:", raw[9:25].hex())
print("HMAC tag:", raw[-32:].hex()[:32], "...")

# Roundtrip restores the exact bytes, hence the exact model.
restored = ddfl.deserialize_params(ddfl.decrypt(key, token))
print("roundtrip bitwise equal:", restored == model)

# The reference implementation accepts our tokens and vice versa.
reference = ReferenceFernet(key.encoded().encode())
print("reference decrypts ours:", reference.decrypt(token) == blob)
print("we decrypt reference's:", ddfl.decrypt(key, reference.encrypt(blob)) == blob)

# Any tampering is rejected before decryption.
flipped = bytearray(token)
flipped[60] ^= 0x01
try:
    ddfl.decrypt(key, bytes(flipped))
except ddfl.InvalidToken as exc:
    print("tampered token rejected:", type(exc).__name__)

try:
    ddfl.decrypt(ddfl.generate_key(rng_seed=7), token)
except ddfl.AuthenticationError:
    print("wrong key rejected: AuthenticationError")
