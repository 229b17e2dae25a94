"""ddfl: federated learning whose only inter-node channel is a pluggable store.

Clients and the master never talk to each other directly; every model
travels encrypted through a storage middleware chosen at configuration
time (memory, filesystem, queue, or embedded relational). The package
also ships the benchmark harness used to compare those backends.
"""

from .backends import BackendConfig, BackendKind, open_backend
from .conformance import check_backend, run_suite
from .crypto import FernetKey, decrypt, encrypt, generate_key, token_length
from .data import Dataset, IdxSpec, SyntheticSpec, generate_synthetic, load_idx, partition
from .errors import (
    AuthenticationError,
    BackendUnavailableError,
    BarrierTimeoutError,
    ConfigError,
    CorruptRecordError,
    DDFLError,
    DuplicateKeyError,
    FormatError,
    InvalidToken,
    NotFoundError,
    NumericError,
    StoreError,
    TokenFormatError,
    UnsupportedVersionError,
    ValidationError,
)
from .orchestrator import (
    Aggregation,
    ExperimentConfig,
    RoundOutcome,
    aggregate,
    run_client_round,
    run_experiment,
    run_round,
)
from .params import (
    ParameterVector,
    deserialize_params,
    init_model,
    serialize_params,
    serialized_size,
)
from .report import MetricsReport
from .store import ModelRecord, ModelStore, StoreKey, global_key
from .training import EvalResult, TrainConfig, evaluate, local_train, loss_and_gradient

__version__ = "0.1.0"

__all__ = [
    "Aggregation",
    "AuthenticationError",
    "BackendConfig",
    "BackendKind",
    "BackendUnavailableError",
    "BarrierTimeoutError",
    "ConfigError",
    "CorruptRecordError",
    "DDFLError",
    "Dataset",
    "DuplicateKeyError",
    "EvalResult",
    "ExperimentConfig",
    "FernetKey",
    "FormatError",
    "IdxSpec",
    "InvalidToken",
    "MetricsReport",
    "ModelRecord",
    "ModelStore",
    "NotFoundError",
    "NumericError",
    "ParameterVector",
    "RoundOutcome",
    "StoreError",
    "StoreKey",
    "SyntheticSpec",
    "TokenFormatError",
    "TrainConfig",
    "UnsupportedVersionError",
    "ValidationError",
    "aggregate",
    "check_backend",
    "decrypt",
    "deserialize_params",
    "encrypt",
    "evaluate",
    "generate_key",
    "generate_synthetic",
    "global_key",
    "init_model",
    "load_idx",
    "local_train",
    "loss_and_gradient",
    "open_backend",
    "partition",
    "run_client_round",
    "run_experiment",
    "run_round",
    "run_suite",
    "serialize_params",
    "serialized_size",
    "token_length",
]
