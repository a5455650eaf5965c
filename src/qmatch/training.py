"""Training loop: SGD (or Adam) on the triplet hinge loss.

Every epoch resamples triplets, shuffles them, averages gradients over
each batch (one batched forward and backward pass) and applies one
optimizer step.  Measurement rows live on the unit sphere via projected
gradient: step first, renormalize after.  L2 decay applies to the
amplitude table only.  After each epoch the model is scored on the dev
split; the best-dev parameters are retained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import QADataset, Triplet, build_vocab, sample_triplets
from .embedding import Vocabulary
from .errors import ConfigError
from .evaluation import MetricReport, evaluate
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


def sgd_step(params: ParameterSet, grads: GradientSet, config: TrainerConfig) -> None:
    """One projected SGD step in place; L2 decay on amplitudes only."""
    lr = config.learning_rate
    rows = grads.row_index()
    step = config.l2_lambda * params.amplitude    # the decay touches every row
    step[rows] += grads.d_amplitude
    step *= lr
    params.amplitude -= step
    params.phase[rows] -= lr * grads.d_phase
    params.measurements -= lr * grads.d_measurements
    mset = params.measurement_set()
    mset.renormalize()
    params.measurements = mset.vectors
    params.check_finite()


@dataclass
class AdamState:
    m_amplitude: np.ndarray
    v_amplitude: np.ndarray
    m_phase: np.ndarray
    v_phase: np.ndarray
    m_meas: np.ndarray      # complex: first moments of re/im packed
    v_meas: np.ndarray      # float: second moments of re and im summed... kept split
    v_meas_im: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "AdamState":
        return cls(
            m_amplitude=np.zeros_like(params.amplitude),
            v_amplitude=np.zeros_like(params.amplitude),
            m_phase=np.zeros_like(params.phase),
            v_phase=np.zeros_like(params.phase),
            m_meas=np.zeros_like(params.measurements),
            v_meas=np.zeros(params.measurements.shape),
            v_meas_im=np.zeros(params.measurements.shape),
        )


def adam_step(
    params: ParameterSet,
    grads: GradientSet,
    config: TrainerConfig,
    state: AdamState,
) -> None:
    """Adam with the same L2-on-amplitudes and unit-row projection."""
    state.step += 1
    t = state.step
    lr = config.learning_rate
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    def update(theta, g, m, v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)

    # the moments decay on every row, so the gradients are made dense
    rows = grads.row_index()
    d_amplitude = np.zeros_like(params.amplitude)
    d_amplitude[rows] = grads.d_amplitude
    d_phase = np.zeros_like(params.phase)
    d_phase[rows] = grads.d_phase
    update(
        params.amplitude,
        d_amplitude + config.l2_lambda * params.amplitude,
        state.m_amplitude,
        state.v_amplitude,
    )
    update(params.phase, d_phase, state.m_phase, state.v_phase)
    # complex block: real and imaginary parts are independent coordinates
    g_re, g_im = grads.d_measurements.real, grads.d_measurements.imag
    state.m_meas = b1 * state.m_meas + (1 - b1) * grads.d_measurements
    state.v_meas = b2 * state.v_meas + (1 - b2) * g_re * g_re
    state.v_meas_im = b2 * state.v_meas_im + (1 - b2) * g_im * g_im
    step_re = (state.m_meas.real / corr1) / (np.sqrt(state.v_meas / corr2) + ADAM_EPS)
    step_im = (state.m_meas.imag / corr1) / (np.sqrt(state.v_meas_im / corr2) + ADAM_EPS)
    params.measurements -= lr * (step_re + 1j * step_im)

    mset = params.measurement_set()
    mset.renormalize()
    params.measurements = mset.vectors
    params.check_finite()


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
    best_dev_map: float | None = None


def _encode_triplets(
    triplets: list[Triplet], vocab: Vocabulary, ids: dict[tuple[str, ...], np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each triplet's token ids.  ``ids`` keeps every text's ids for the
    whole run, so a text is encoded once per ``train()``, not once per
    triplet per epoch; the arrays are shared and must not be written."""

    def encode(tokens: list[str]) -> np.ndarray:
        key = tuple(tokens)
        found = ids.get(key)
        if found is None:
            found = ids[key] = vocab.encode(tokens)
        return found

    return [(encode(t.question), encode(t.positive), encode(t.negative))
            for t in triplets]


def train(
    train_set: QADataset,
    dev_set: QADataset | None,
    config: TrainerConfig,
    vocab: Vocabulary | None = None,
    glove_path: str | None = None,
    log_fn: LogFn | None = None,
) -> TrainResult:
    """Full training run; deterministic for a fixed config/seed/data."""
    config.validate()
    if vocab is None:
        vocab = build_vocab([train_set])
    params = init_parameters(vocab, config, glove_path=glove_path)
    streams = seed_streams(config.seed)
    sampling = streams["sampling"]
    dropout = streams["dropout"]
    adam = AdamState.zeros_like(params) if config.optimizer == "adam" else None

    best_params = params.copy()
    best_map: float | None = None
    best_epoch = 0
    history: list[EpochRecord] = []
    encoded: dict[tuple[str, ...], np.ndarray] = {}

    for epoch in range(1, config.epochs + 1):
        epoch_seed = int(sampling.integers(0, 2**63))
        triplets = _encode_triplets(
            sample_triplets(train_set, epoch_seed), vocab, encoded
        )
        order = sampling.permutation(len(triplets))
        losses = []
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start : start + config.batch_size]
            batch_losses, grads = batch_grad(
                [triplets[idx] for idx in batch], params, config, train=True,
                rng=dropout,
            )
            batch_loss = 0.0
            for loss in batch_losses:
                batch_loss += loss
            grads.scale_(1.0 / len(batch))
            batch_loss /= len(batch)
            if adam is None:
                sgd_step(params, grads, config)
            else:
                adam_step(params, grads, config, adam)
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

        mean_loss = float(np.mean(losses)) if losses else 0.0
        dev_map = dev_mrr = None
        if dev_set is not None:
            report = evaluate(params, dev_set, config, vocab)
            dev_map, dev_mrr = report.map, report.mrr
            if best_map is None or dev_map > best_map:
                best_map = dev_map
                best_params = params.copy()
                best_epoch = epoch
        record = EpochRecord(
            epoch=epoch, mean_loss=mean_loss, dev_map=dev_map, dev_mrr=dev_mrr
        )
        history.append(record)
        if log_fn is not None:
            log_fn(
                {
                    "kind": "epoch",
                    "epoch": epoch,
                    "mean_loss": mean_loss,
                    "dev_map": dev_map,
                    "dev_mrr": dev_mrr,
                }
            )

    if dev_set is None:
        best_params = params.copy()
        best_epoch = len(history)
    return TrainResult(
        params=best_params,
        final_params=params,
        vocab=vocab,
        config=config,
        history=history,
        best_epoch=best_epoch,
        best_dev_map=best_map,
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
    """Cartesian product of the pools, in deterministic pool-key order."""
    for key in pools:
        if not pools[key]:
            raise ConfigError(f"grid pool {key!r} is empty")
        if not hasattr(base_config, key):
            raise ConfigError(f"grid pool {key!r} is not a config field")
    keys = list(pools)
    configs = []
    for combo in itertools.product(*(pools[k] for k in keys)):
        configs.append(base_config.with_overrides(**dict(zip(keys, combo))))
    return configs


@dataclass
class GridRow:
    config: TrainerConfig
    dev_map: float
    dev_mrr: float


@dataclass
class GridResult:
    best: TrainResult
    best_row: GridRow
    rows: list[GridRow]


def grid_search(
    train_set: QADataset,
    dev_set: QADataset,
    base_config: TrainerConfig,
    pools: dict[str, list] | None = None,
    vocab: Vocabulary | None = None,
    glove_path: str | None = None,
    log_fn: LogFn | None = None,
) -> GridResult:
    """Train once per pool combination and keep the best dev MAP.

    Enumeration order is deterministic; the first run of a tied dev MAP
    wins.
    """
    pools = DEFAULT_GRID_POOLS if pools is None else pools
    if vocab is None:
        vocab = build_vocab([train_set])
    best: TrainResult | None = None
    best_row: GridRow | None = None
    rows: list[GridRow] = []
    for i, cfg in enumerate(enumerate_grid(base_config, pools)):
        result = train(train_set, dev_set, cfg, vocab=vocab, glove_path=glove_path)
        dev_map = result.best_dev_map if result.best_dev_map is not None else 0.0
        dev_mrr = 0.0
        for rec in result.history:
            if rec.epoch == result.best_epoch and rec.dev_mrr is not None:
                dev_mrr = rec.dev_mrr
        row = GridRow(config=cfg, dev_map=dev_map, dev_mrr=dev_mrr)
        rows.append(row)
        if log_fn is not None:
            log_fn(
                {
                    "kind": "grid",
                    "run": i,
                    "dev_map": dev_map,
                    "dev_mrr": dev_mrr,
                    "config": cfg.to_dict(),
                }
            )
        if best_row is None or dev_map > best_row.dev_map:
            best = result
            best_row = row
    assert best is not None and best_row is not None
    return GridResult(best=best, best_row=best_row, rows=rows)
