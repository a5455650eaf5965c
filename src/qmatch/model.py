"""Trainable parameters and run configuration.

The model owns three parameter blocks: an amplitude lookup table, a
phase lookup table (both real, one row per vocabulary entry) and a set
of complex measurement vectors.  The real ablation pins phases and
measurement imaginary parts at zero; the global-mixture ablation swaps
the sliding-window softmax mixture for one uniform whole-sentence
mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .embedding import Vocabulary, init_amplitudes_from_glove, init_phases
from .errors import ConfigError, NumericError
from .measurement import MeasurementSet, init_measurements

LOCAL_MIXTURE = "local"
GLOBAL_MIXTURE = "global"

# Fixed spawn offsets for the per-purpose RNG streams of one run seed.
_STREAM_AMPLITUDE = 0
_STREAM_PHASE = 1
_STREAM_DROPOUT = 2
_STREAM_SAMPLING = 3


@dataclass
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
    dropout_is_keep_prob: bool = False
    optimizer: str = "sgd"
    max_sentence_len: int = 40
    seed: int = 0

    def validate(self) -> None:
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
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        self.keep_probability  # raises ConfigError on a bad dropout_rate
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.max_sentence_len < 1:
            raise ConfigError(
                f"max_sentence_len must be >= 1, got {self.max_sentence_len}"
            )

    @property
    def keep_probability(self) -> float:
        """``dropout_rate`` read as a drop or a keep probability (per
        ``dropout_is_keep_prob``), returned as the keep probability."""
        rate = self.dropout_rate
        if self.dropout_is_keep_prob:
            if not 0.0 < rate <= 1.0:
                raise ConfigError(f"keep probability must be in (0, 1], got {rate}")
            return rate
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"drop probability must be in [0, 1), got {rate}")
        return 1.0 - rate

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
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "window_sizes" in kwargs:
            kwargs["window_sizes"] = tuple(int(w) for w in kwargs["window_sizes"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


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

    def measurement_set(self) -> MeasurementSet:
        return MeasurementSet(self.measurements)

    def check_finite(self) -> None:
        """Raise NumericError naming the first block holding NaN or inf."""
        for name in ("amplitude", "phase", "measurements"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"non-finite values in parameter block {name!r}")

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            amplitude=self.amplitude.copy(),
            phase=self.phase.copy(),
            measurements=self.measurements.copy(),
        )


@dataclass
class GradientSet:
    """Loss gradients matching ParameterSet; measurement grads are packed
    complex (real part = d/d Re, imaginary part = d/d Im).  Amplitude and
    phase grads cover the vocabulary rows ``rows`` (ascending), or every
    row when ``rows`` is None."""

    d_amplitude: np.ndarray
    d_phase: np.ndarray
    d_measurements: np.ndarray
    rows: np.ndarray | None = None

    def row_index(self) -> np.ndarray | slice:
        """Index of the covered rows into a vocabulary-sized table."""
        return slice(None) if self.rows is None else self.rows

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "GradientSet":
        return cls(
            d_amplitude=np.zeros_like(params.amplitude),
            d_phase=np.zeros_like(params.phase),
            d_measurements=np.zeros_like(params.measurements),
        )

    def scale_(self, factor: float) -> None:
        self.d_amplitude *= factor
        self.d_phase *= factor
        self.d_measurements *= factor


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent deterministic RNG streams derived from one run seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    return {
        "amplitude": np.random.default_rng(children[_STREAM_AMPLITUDE]),
        "phase": np.random.default_rng(children[_STREAM_PHASE]),
        "dropout": np.random.default_rng(children[_STREAM_DROPOUT]),
        "sampling": np.random.default_rng(children[_STREAM_SAMPLING]),
    }


def init_parameters(
    vocab: Vocabulary, config: TrainerConfig, glove_path: str | None = None
) -> ParameterSet:
    """Fresh parameters: pretrained-or-random amplitudes, uniform phases
    (zero in the real ablation), one-hot measurement rows."""
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    amplitude = init_amplitudes_from_glove(
        vocab,
        dim=config.embedding_dim,
        seed=np.random.default_rng(seeds[_STREAM_AMPLITUDE]).integers(2**32),
        glove_path=glove_path,
    )
    if config.complex_valued:
        phase = init_phases(
            len(vocab),
            config.embedding_dim,
            seed=np.random.default_rng(seeds[_STREAM_PHASE]).integers(2**32),
        )
    else:
        phase = np.zeros((len(vocab), config.embedding_dim))
    mset = init_measurements(config.num_measurements, config.embedding_dim)
    return ParameterSet(amplitude=amplitude, phase=phase, measurements=mset.vectors)
