"""Training loop: SGD (or Adam) on the triplet hinge loss.

Every epoch resamples triplets, shuffles them, averages gradients over
each batch (one batched forward and backward pass) and applies one
optimizer step.  The optimizers see real coordinates only, a complex
measurement entry being its real and its imaginary part: SGD steps the
batch's touched rows, Adam runs one update rule over every block.  L2
decay applies to the amplitude table and to nothing else, and both
optimizers decay every row on every step: SGD multiplies the whole table
by f = 1 - lr * l2_lambda in place before it steps the touched rows.
Measurement rows live on the unit sphere via projected gradient: step
first, then ``_project`` divides each row by its norm and checks the
stepped rows are finite; each epoch end checks every row.  After each
epoch the model is scored on the dev split; the best-dev parameters are
retained with their dev report (the initial parameters' report when no
epoch runs), so no caller scores them again.  Ids come from
``Vocabulary.encode_text``, once per text; pretrained vectors come in read.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .data import QADataset, build_vocab, sample_triplets
from .embedding import ZERO_NORM, Vocabulary, row_norms
from .errors import ConfigError, DataError, DomainError
from .evaluation import MetricReport, evaluate, require_questions
from .gradients import batch_grad
from .model import (
    GradientSet,
    ParameterSet,
    TrainerConfig,
    init_parameters,
    seed_streams,
)

LogFn = Callable[[dict], None]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _project(params: ParameterSet, rows: np.ndarray | None = None) -> None:
    """Pull the measurement rows back onto the unit sphere, then fail
    loudly on a non-finite block (in the amplitude and phase ``rows``
    only, when given)."""
    norms = row_norms(params.measurements)
    if np.any(norms < ZERO_NORM):
        raise DomainError("cannot renormalize a zero measurement vector")
    params.measurements /= norms[:, None]
    params.check_finite(rows)


def sgd_step(params: ParameterSet, grads: GradientSet, config: TrainerConfig) -> None:
    """One projected SGD step in place: every amplitude row decays by
    f = 1 - lr * l2_lambda, then the batch's rows step by ``-lr * g``."""
    lr = config.learning_rate
    rows = grads.rows
    params.amplitude *= 1.0 - lr * config.l2_lambda
    params.amplitude[rows] -= lr * grads.d_amplitude
    params.phase[rows] -= lr * grads.d_phase
    params.measurements -= lr * grads.d_measurements
    _project(params, rows)


def _coordinates(params: ParameterSet) -> list[np.ndarray]:
    """The trainable blocks as real coordinates: amplitude, phase and the
    measurements' (k, 2n) view of interleaved real and imaginary parts.
    A view, not a copy, so a step written into it lands on ``params``."""
    return [params.amplitude, params.phase, params.measurements.view(np.float64)]


@dataclass
class AdamState:
    """First and second moments, one (m, v) pair per block of
    ``_coordinates``: real and imaginary parts are separate coordinates."""

    moments: list[tuple[np.ndarray, np.ndarray]]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "AdamState":
        return cls([(np.zeros_like(x), np.zeros_like(x)) for x in _coordinates(params)])


def adam_step(
    params: ParameterSet,
    grads: GradientSet,
    config: TrainerConfig,
    state: AdamState,
) -> None:
    """Adam on every real coordinate, with the same L2-on-amplitudes and
    unit-row projection as ``sgd_step``; every row is checked on every
    step."""
    state.step += 1
    t = state.step
    lr = config.learning_rate
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    # the moments decay on every row, so the gradients are made dense
    d_amplitude = config.l2_lambda * params.amplitude
    d_amplitude[grads.rows] += grads.d_amplitude
    d_phase = np.zeros_like(params.phase)
    d_phase[grads.rows] = grads.d_phase
    d_meas = np.ascontiguousarray(grads.d_measurements, np.complex128).view(np.float64)
    blocks = zip(_coordinates(params), (d_amplitude, d_phase, d_meas))
    for (theta, g), (m, v) in zip(blocks, state.moments):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    _project(params)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    dev_map: float | None
    dev_mrr: float | None


@dataclass
class TrainResult:
    params: ParameterSet                 # best dev MAP (or final without dev)
    final_params: ParameterSet
    vocab: Vocabulary
    config: TrainerConfig
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_report: MetricReport | None = None   # dev report of params

    @property
    def best_dev_map(self) -> float | None:
        return None if self.best_report is None else self.best_report.map


def require_triplets(dataset: QADataset) -> None:
    """``require_questions``, and then a DataError naming the split unless
    some question has a positive and a negative answer: without one, every
    epoch would draw no triplet and train nothing."""
    require_questions(dataset, "train on")
    if not any(q.positives() and q.negatives() for q in dataset.questions):
        raise DataError(f"split {dataset.split!r} has no question with both a "
                        "positive and a negative answer to train on")


def train(
    train_set: QADataset,
    dev_set: QADataset | None,
    config: TrainerConfig,
    vocab: Vocabulary | None = None,
    pretrained: dict[str, np.ndarray] | None = None,
    log_fn: LogFn | None = None,
) -> TrainResult:
    """Full training run; deterministic for a fixed config/seed/data.
    ``pretrained`` maps tokens to amplitude vectors (``read_glove_vectors``).
    A ``dev_set`` with no question, or a ``train_set`` with no triplet
    (``require_triplets``), is a DataError before the first epoch."""
    require_triplets(train_set)
    if dev_set is not None:
        require_questions(dev_set)
    if vocab is None:
        vocab = build_vocab([train_set])
    params = init_parameters(vocab, config, pretrained=pretrained)
    streams = seed_streams(config.seed)
    sampling = streams["sampling"]
    dropout = streams["dropout"]
    # looked up per call, so a wrapper set on the module by name sees each step
    if config.optimizer == "adam":
        step = functools.partial(adam_step, state=AdamState.zeros_like(params))
    else:
        step = sgd_step

    best_params: ParameterSet | None = None
    best_report: MetricReport | None = None
    best_epoch = 0
    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        epoch_seed = int(sampling.integers(0, 2**63))
        triplets = [tuple(vocab.encode_text(t.token_text) for t in triplet)
                    for triplet in sample_triplets(train_set, epoch_seed)]
        order = sampling.permutation(len(triplets))
        losses = []
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [triplets[idx] for idx in order[start : start + config.batch_size]]
            batch_losses, grads = batch_grad(batch, params, config, dropout)
            batch_loss = 0.0
            for loss in batch_losses:
                batch_loss += loss
            grads.scale_(1.0 / len(batch))
            batch_loss /= len(batch)
            step(params, grads, config)
            losses.append(batch_loss)
            if log_fn is not None:
                log_fn(
                    {
                        "kind": "batch",
                        "epoch": epoch,
                        "batch": batch_no,
                        "loss": batch_loss,
                    }
                )

        params.check_finite()
        mean_loss = float(np.mean(losses))
        dev_map = dev_mrr = None
        if dev_set is not None:
            report = evaluate(params, dev_set, config, vocab)
            dev_map, dev_mrr = report.map, report.mrr
            if best_report is None or dev_map > best_report.map:
                best_report, best_params, best_epoch = report, params.copy(), epoch
        record = EpochRecord(
            epoch=epoch, mean_loss=mean_loss, dev_map=dev_map, dev_mrr=dev_mrr
        )
        history.append(record)
        if log_fn is not None:
            log_fn({"kind": "epoch", **asdict(record)})

    if best_params is None:   # no dev split, or no epoch ran
        best_params = params.copy()
        best_epoch = len(history)
        if dev_set is not None:
            best_report = evaluate(best_params, dev_set, config, vocab)
    return TrainResult(
        params=best_params,
        final_params=params,
        vocab=vocab,
        config=config,
        history=history,
        best_epoch=best_epoch,
        best_report=best_report,
    )


# Hyperparameter pools from the reference training protocol.
DEFAULT_GRID_POOLS: dict[str, list] = {
    "learning_rate": [0.01, 0.05, 0.1],
    "l2_lambda": [1e-5, 1e-6, 1e-7, 1e-8],
    "batch_size": [8, 16, 32],
    "num_measurements": [50, 100, 300, 500],
}


def enumerate_grid(
    base_config: TrainerConfig, pools: dict[str, list]
) -> list[TrainerConfig]:
    """Cartesian product of the pools, in deterministic pool-key order.
    Each pool is a non-empty list of values for one config field.  Every
    combination is built, and so checked, before this returns."""
    names = {f.name for f in fields(TrainerConfig)}
    for key, pool in pools.items():
        if not isinstance(pool, list):
            raise ConfigError(f"grid pool {key!r} is not a list")
        if not pool:
            raise ConfigError(f"grid pool {key!r} is empty")
        if key not in names:
            raise ConfigError(f"grid pool {key!r} is not a config field")
    keys = list(pools)
    configs = []
    for combo in itertools.product(*(pools[k] for k in keys)):
        configs.append(base_config.with_overrides(**dict(zip(keys, combo))))
    return configs
