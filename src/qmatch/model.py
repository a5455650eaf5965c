"""Trainable parameters and run configuration.

The model owns three parameter blocks: an amplitude lookup table, a
phase lookup table (both real, one row per vocabulary entry) and a set
of complex measurement vectors.  The real ablation pins phases and
measurement imaginary parts at zero; the global-mixture ablation swaps
the sliding-window softmax mixture for one uniform whole-sentence
mixture.

A ``TrainerConfig`` is checked once, when it is made (by the constructor,
``with_overrides``, ``from_dict`` or a grid combination), and is immutable
afterwards, so every config in hand is a valid one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from .embedding import Vocabulary, init_amplitudes_from_glove, init_phases
from .errors import ConfigError, DomainError, NumericError

LOCAL_MIXTURE = "local"
GLOBAL_MIXTURE = "global"

# How far a measurement row's norm may sit from 1 and still count as unit.
UNIT_NORM_ATOL = 1e-6


def _has_type(value, annotation: str) -> bool:
    """Whether a config value has its field's annotated type; a bool is no number."""
    if annotation == "tuple[int, ...]":
        return isinstance(value, (tuple, list)) and all(
            _has_type(v, "int") for v in value
        )
    kind = {"int": Integral, "float": Real, "bool": bool, "str": str}[annotation]
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@dataclass(frozen=True)
class TrainerConfig:
    embedding_dim: int = 50
    num_measurements: int = 50
    window_sizes: tuple[int, ...] = (1, 2, 3, 4)
    mixture: str = LOCAL_MIXTURE
    complex_valued: bool = True
    margin: float = 0.1
    learning_rate: float = 0.01
    l2_lambda: float = 1e-6
    batch_size: int = 16
    epochs: int = 20
    dropout_rate: float = 0.9
    optimizer: str = "sgd"
    max_sentence_len: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not _has_type(value := getattr(self, f.name), f.type):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # a list (from JSON or a grid pool) is kept as a tuple, so equal
        # configs compare and hash alike
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.num_measurements < 1:
            raise ConfigError(
                f"num_measurements must be >= 1, got {self.num_measurements}"
            )
        if self.mixture not in (LOCAL_MIXTURE, GLOBAL_MIXTURE):
            raise ConfigError(f"unknown mixture kind {self.mixture!r}")
        if self.mixture == LOCAL_MIXTURE:
            if not self.window_sizes:
                raise ConfigError("window_sizes must not be empty for local mixture")
            if any(w < 1 for w in self.window_sizes):
                raise ConfigError(f"window sizes must be >= 1, got {self.window_sizes}")
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be positive and finite, got {self.margin}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0 <= self.l2_lambda < math.inf:
            raise ConfigError(f"l2_lambda must be >= 0 and finite, got {self.l2_lambda}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.max_sentence_len < 1:
            raise ConfigError(
                f"max_sentence_len must be >= 1, got {self.max_sentence_len}"
            )

    @property
    def keep_probability(self) -> float:
        """1 - ``dropout_rate``."""
        return 1.0 - self.dropout_rate

    @property
    def representation_len(self) -> int:
        if self.mixture == GLOBAL_MIXTURE:
            return self.num_measurements
        return self.num_measurements * len(self.window_sizes)

    def with_overrides(self, **kwargs) -> "TrainerConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainerConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be an object, got {type(data).__name__}")
        kwargs = dict(data)
        # stored configs carry the retired keep-probability switch
        if kwargs.pop("dropout_is_keep_prob", False):
            keep = kwargs.get("dropout_rate", cls.dropout_rate)
            kwargs["dropout_rate"] = 1.0 - keep if _has_type(keep, "float") else keep
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass
class ParameterSet:
    """All trainable state: amplitude rows, phase rows, measurement rows."""

    amplitude: np.ndarray   # (|V|, n) float64
    phase: np.ndarray       # (|V|, n) float64
    measurements: np.ndarray  # (k, n) complex128, unit rows

    @property
    def vocab_size(self) -> int:
        return self.amplitude.shape[0]

    @property
    def dim(self) -> int:
        return self.amplitude.shape[1]

    @property
    def k(self) -> int:
        return self.measurements.shape[0]

    def check_finite(self, rows: np.ndarray | None = None) -> None:
        """Raise NumericError naming the first block holding NaN or inf.
        With ``rows``, only those amplitude and phase rows are read."""
        for name in ("amplitude", "phase", "measurements"):
            block = getattr(self, name)
            if rows is not None and name != "measurements":
                block = block[rows]
            if not np.isfinite(block).all():
                raise NumericError(f"non-finite values in parameter block {name!r}")

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            amplitude=self.amplitude.copy(),
            phase=self.phase.copy(),
            measurements=self.measurements.copy(),
        )


def init_measurements(k: int, dim: int) -> np.ndarray:
    """(k, dim) real one-hot rows e_(i mod dim); orthogonal whenever k <= dim."""
    if k < 1 or dim < 1:
        raise DomainError(f"need k >= 1 and dim >= 1, got k={k}, dim={dim}")
    vectors = np.zeros((k, dim), dtype=np.complex128)
    vectors[np.arange(k), np.arange(k) % dim] = 1.0
    return vectors


@dataclass
class GradientSet:
    """Loss gradients matching ParameterSet; measurement grads are packed
    complex (real part = d/d Re, imaginary part = d/d Im).  Amplitude and
    phase grads cover the vocabulary rows ``rows`` (ascending)."""

    d_amplitude: np.ndarray
    d_phase: np.ndarray
    d_measurements: np.ndarray
    rows: np.ndarray

    def scale_(self, factor: float) -> None:
        self.d_amplitude *= factor
        self.d_phase *= factor
        self.d_measurements *= factor


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent deterministic RNG streams derived from one run seed, at
    fixed spawn offsets, so a purpose's draws never depend on another's."""
    children = np.random.SeedSequence(seed).spawn(4)
    return {
        "amplitude": np.random.default_rng(children[0]),
        "phase": np.random.default_rng(children[1]),
        "dropout": np.random.default_rng(children[2]),
        "sampling": np.random.default_rng(children[3]),
    }


def init_parameters(
    vocab: Vocabulary, config: TrainerConfig, pretrained: dict | None = None
) -> ParameterSet:
    """Fresh parameters: pretrained-or-random amplitudes, uniform phases
    (zero in the real ablation), one-hot measurement rows."""
    streams = seed_streams(config.seed)
    amplitude = init_amplitudes_from_glove(
        vocab,
        dim=config.embedding_dim,
        seed=streams["amplitude"].integers(2**32),
        pretrained=pretrained,
    )
    if config.complex_valued:
        phase = init_phases(
            len(vocab),
            config.embedding_dim,
            seed=streams["phase"].integers(2**32),
        )
    else:
        phase = np.zeros((len(vocab), config.embedding_dim))
    measurements = init_measurements(config.num_measurements, config.embedding_dim)
    return ParameterSet(amplitude=amplitude, phase=phase, measurements=measurements)
