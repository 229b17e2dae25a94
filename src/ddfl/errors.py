"""Exception hierarchy shared by all ddfl modules."""

from __future__ import annotations


class DDFLError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DDFLError, ValueError):
    """An argument or value violates a documented precondition."""


class NumericError(DDFLError):
    """Training produced a non-finite loss or parameter."""


class FormatError(DDFLError):
    """A binary payload (parameter blob, IDX file, record file) is malformed."""


class ConfigError(DDFLError):
    """A configuration file is malformed or names an invalid value."""


# --- encryption ------------------------------------------------------------

class InvalidToken(DDFLError):
    """An encrypted token was rejected. Subclasses say why."""


class TokenFormatError(InvalidToken):
    """Token is not canonical url-safe base64 or is structurally truncated."""


class UnsupportedVersionError(InvalidToken):
    """Token version byte is not the one this implementation speaks."""


class AuthenticationError(InvalidToken):
    """HMAC verification failed; the token was forged, corrupted, or uses a different key."""


# --- model store -----------------------------------------------------------

class StoreError(DDFLError):
    """Base class for model-store failures."""


class NotFoundError(StoreError):
    """No record is stored under the requested key."""


class DuplicateKeyError(StoreError):
    """A record is already stored under the key, or its round is closed.

    ``put`` is insert-only, and a round's global closes the round to
    client records.
    """


class BackendUnavailableError(StoreError):
    """The backend cannot be reached or its storage has gone away."""


class CorruptRecordError(StoreError):
    """A stored record cannot be decoded."""


# --- orchestration ---------------------------------------------------------

class BarrierTimeoutError(DDFLError):
    """The master read a round in which some of its clients had stored no model."""

    def __init__(self, round_number: int, missing_clients: list[int]):
        self.round_number = round_number
        self.missing_clients = list(missing_clients)
        super().__init__(f"round {round_number} is missing clients {self.missing_clients}")
