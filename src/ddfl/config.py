"""Line-oriented experiment config files: ``key = value``, ``#`` comments.

A ``#`` starts a comment only at the start of a line or after whitespace,
so ``root_path = runs/exp#3`` keeps its ``#``. The key set is closed: an
unknown key is an error naming the key and line number, as is a key set
twice, and missing required keys are reported by name. ``KEYS`` is the
one table of keys, ``read`` the one reader of a value, and ``load_config``
the one reader of a file for every command, so each key a file sets is
checked against its dataclass bound whichever command runs.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from .backends import BackendConfig, BackendKind
from .crypto import FernetKey, generate_key
from .data import IdxSpec, SyntheticSpec
from .errors import ConfigError, ValidationError
from .orchestrator import ExperimentConfig
from .training import TrainConfig

_REQUIRED = object()
_COMMENT = re.compile(r"(?:^|\s)#")
_BOOLEANS = dict.fromkeys(("true", "yes", "1", "on"), True)
_BOOLEANS.update(dict.fromkeys(("false", "no", "0", "off"), False))
# How each kind of value is read: what it must be, and the function that
# reads it (raising KeyError or ValueError on a bad value).
_KINDS = {
    "integer": ("an integer", int),
    "number": ("a number", float),
    "boolean": ("a boolean", lambda raw: _BOOLEANS[raw.lower()]),
    "path": ("a path", Path),
    "text": ("text", str),
}


class _Key(NamedTuple):
    kind: str
    default: object = _REQUIRED


_EXPERIMENT = {f.name: f.default for f in fields(ExperimentConfig)}
_BACKEND = {f.name: f.default for f in fields(BackendConfig)}

# Every config key, once: how its value is read, and its default. A default
# that a config dataclass also declares is read from it, as are the bounds.
KEYS = {
    "n_clients": _Key("integer"),
    "rounds": _Key("integer"),
    "learning_rate": _Key("number", 0.1),
    "epochs": _Key("integer", 1),
    "batch_size": _Key("integer", 32),
    "seed": _Key("integer", _EXPERIMENT["seed"]),
    "backend": _Key("text"),
    "root_path": _Key("path", None),
    "fsync": _Key("boolean", _BACKEND["fsync"]),
    "dataset": _Key("text"),
    "idx_images": _Key("path"),
    "idx_labels": _Key("path"),
    "group_key": _Key("text", None),
    "namespace": _Key("text", _BACKEND["namespace"]),
}


def parse_config_file(path) -> dict[str, str]:
    """Parse a config file into a raw key/value map of the keys it sets."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    lines = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{line_number}: key {key!r} has an empty value")
        if key in values:
            raise ConfigError(
                f"{path}:{line_number}: key {key!r} already set on line {lines[key]}"
            )
        values[key] = value
        lines[key] = line_number
    return values


def read(values: dict[str, str], key: str):
    """The value of ``key`` as its table entry reads it, or its default."""
    kind, default = KEYS[key]
    if key not in values:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = values[key]
    expected, reader = _KINDS[kind]
    try:
        return reader(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r} must be {expected}, got {raw!r}") from None


def parse_dataset_spec(value: str, values: dict[str, str]) -> SyntheticSpec | IdxSpec:
    if value == "idx":
        return IdxSpec(images=read(values, "idx_images"), labels=read(values, "idx_labels"))
    if value.startswith("synthetic:"):
        dims = value.removeprefix("synthetic:").split("x")
        if len(dims) != 3:
            raise ConfigError(
                f"dataset {value!r} must look like synthetic:<n>x<d>x<k>"
            )
        try:
            n, d, k = (int(part) for part in dims)
        except ValueError:
            raise ConfigError(f"dataset {value!r} has non-integer dimensions") from None
        try:
            return SyntheticSpec(n=n, d=d, k=k)
        except ValidationError as exc:
            raise ConfigError(f"key 'dataset': {exc}") from exc
    raise ConfigError(f"key 'dataset' must be 'synthetic:<n>x<d>x<k>' or 'idx', got {value!r}")


def backend_kinds(values: dict[str, str]) -> list[BackendKind]:
    """The backend selection: one kind, a comma list, or 'all'."""
    raw = read(values, "backend")
    if raw.strip().lower() == "all":
        return list(BackendKind)
    try:
        return [BackendKind.parse(part) for part in raw.split(",")]
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def backend_configs(values: dict[str, str]) -> list[BackendConfig]:
    """One BackendConfig per kind that ``backend`` names, in its order."""
    try:
        return [
            BackendConfig(
                kind=kind,
                root_path=read(values, "root_path"),
                namespace=read(values, "namespace"),
                fsync=read(values, "fsync"),
            )
            for kind in backend_kinds(values)
        ]
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def group_key_from(values: dict[str, str]) -> FernetKey:
    # Without an explicit key, derive one from the seed so repeated runs
    # of the same config can decrypt each other's stores.
    encoded = read(values, "group_key")
    if encoded is None:
        try:
            return generate_key(rng_seed=read(values, "seed"))
        except ValidationError as exc:
            raise ConfigError(f"key 'seed': {exc}") from exc
    try:
        return FernetKey.from_encoded(encoded)
    except ValidationError as exc:
        raise ConfigError(f"key 'group_key': {exc}") from exc


def experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """An ExperimentConfig over the first backend named; ConfigError names any bad key."""
    backend = backend_configs(values)[0]
    dataset = parse_dataset_spec(read(values, "dataset"), values)
    n_clients = read(values, "n_clients")
    # IDX sizes are known only once the files load.
    if isinstance(dataset, SyntheticSpec) and n_clients > dataset.n:
        raise ConfigError(
            f"key 'n_clients' ({n_clients}) exceeds the {dataset.n} samples in 'dataset'"
        )
    seed = read(values, "seed")
    try:
        train = TrainConfig(
            learning_rate=read(values, "learning_rate"),
            epochs=read(values, "epochs"),
            batch_size=read(values, "batch_size"),
            seed=seed,
        )
        return ExperimentConfig(
            n_clients=n_clients,
            rounds=read(values, "rounds"),
            train=train,
            backend=backend,
            group_key=group_key_from(values),
            dataset=dataset,
            seed=seed,
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> tuple[ExperimentConfig, list[BackendConfig]]:
    """Read a config file; raises ConfigError naming any bad key.

    Returns its experiment and one BackendConfig per kind that ``backend``
    names, the first of which is the experiment's.
    """
    values = parse_config_file(path)
    return experiment_config(values), backend_configs(values)
