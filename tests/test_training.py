"""Optimizer arithmetic, training-loop determinism and grid enumeration."""

import numpy as np
import pytest

from qmatch.errors import ConfigError, NumericError
from qmatch.evaluation import evaluate
from qmatch.model import GradientSet, ParameterSet, TrainerConfig
from qmatch.synthetic import toy_corpus
from qmatch.training import (
    DEFAULT_GRID_POOLS,
    AdamState,
    adam_step,
    enumerate_grid,
    grid_search,
    sgd_step,
    train,
)


def hand_params():
    """Three rows (pad/unk/word), two dimensions, one measurement."""
    return ParameterSet(
        amplitude=np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 1.0]]),
        phase=np.array([[0.3, 0.0], [0.1, 0.2], [0.0, 0.4]]),
        measurements=np.array([[0.6 + 0.0j, 0.8j]]),
    )


def hand_grads(params):
    grads = GradientSet.zeros_like(params)
    grads.d_amplitude[0, 0] = 0.5
    grads.d_phase[0, 0] = 0.2
    grads.d_measurements[0, 0] = 0.1 + 0.0j
    return grads


def params_bytes(params):
    return (
        params.amplitude.tobytes()
        + params.phase.tobytes()
        + params.measurements.tobytes()
    )


# ---------------------------------------------------------------------------
# SGD


def test_sgd_step_on_touched_rows_equals_dense_step():
    params = hand_params()
    dense = hand_grads(params)
    dense.d_amplitude[2] = [0.25, -0.125]
    dense.d_phase[2, 1] = 0.5
    sparse = GradientSet(
        d_amplitude=dense.d_amplitude[[0, 2]],
        d_phase=dense.d_phase[[0, 2]],
        d_measurements=dense.d_measurements.copy(),
        rows=np.array([0, 2]),
    )
    config = TrainerConfig(learning_rate=0.1, l2_lambda=0.01)
    a, b = hand_params(), hand_params()
    sgd_step(a, dense, config)
    sgd_step(b, sparse, config)
    assert params_bytes(a) == params_bytes(b)
    a, b = hand_params(), hand_params()
    adam_step(a, dense, config, AdamState.zeros_like(a))
    adam_step(b, sparse, config, AdamState.zeros_like(b))
    assert params_bytes(a) == params_bytes(b)


def test_sgd_step_arithmetic_by_hand():
    params = hand_params()
    config = TrainerConfig(learning_rate=0.1, l2_lambda=0.01)
    sgd_step(params, hand_grads(params), config)
    # amplitude[0,0]: 1.0 - 0.1 * (0.5 + 0.01 * 1.0) = 0.949
    assert params.amplitude[0, 0] == pytest.approx(0.949, abs=1e-15)
    # decayed but gradient-free: 2.0 * (1 - 0.1 * 0.01) = 1.998
    assert params.amplitude[0, 1] == pytest.approx(1.998, abs=1e-15)
    # phase has no decay: 0.3 - 0.1 * 0.2 = 0.28
    assert params.phase[0, 0] == pytest.approx(0.28, abs=1e-15)
    assert params.phase[1, 1] == 0.2
    # measurement row steps to [0.59, 0.8j] and is pulled back to unit norm
    expected = np.array([0.59, 0.8j]) / np.sqrt(0.59**2 + 0.8**2)
    np.testing.assert_allclose(params.measurements[0], expected, atol=1e-15)


def test_sgd_l2_decay_touches_only_amplitudes():
    params = hand_params()
    before_phase = params.phase.copy()
    before_meas = params.measurements.copy()
    config = TrainerConfig(learning_rate=0.2, l2_lambda=0.1)
    sgd_step(params, GradientSet.zeros_like(params), config)
    np.testing.assert_array_equal(params.phase, before_phase)
    np.testing.assert_allclose(params.measurements, before_meas, atol=1e-15)
    np.testing.assert_allclose(
        params.amplitude, hand_params().amplitude * (1.0 - 0.2 * 0.1), atol=1e-15
    )


def test_sgd_keeps_measurement_rows_unit_norm():
    rng = np.random.default_rng(4)
    params = hand_params()
    grads = GradientSet.zeros_like(params)
    grads.d_measurements = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
    sgd_step(params, grads, TrainerConfig(learning_rate=0.5))
    np.testing.assert_allclose(
        np.linalg.norm(params.measurements, axis=1), 1.0, atol=1e-12
    )


def test_sgd_rejects_nonfinite_updates():
    params = hand_params()
    grads = hand_grads(params)
    grads.d_amplitude[0, 0] = np.inf
    with pytest.raises(NumericError, match="amplitude"):
        sgd_step(params, grads, TrainerConfig())


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_moves_by_learning_rate():
    # with fresh state the bias corrections cancel and the step is
    # lr * g / (|g| + eps) = roughly lr * sign(g)
    params = hand_params()
    config = TrainerConfig(learning_rate=0.01, l2_lambda=0.0, optimizer="adam")
    state = AdamState.zeros_like(params)
    grads = hand_grads(params)
    adam_step(params, grads, config, state)
    assert state.step == 1
    assert params.amplitude[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)
    assert params.amplitude[2, 1] == 1.0  # zero gradient, zero decay
    assert params.phase[0, 0] == pytest.approx(0.3 - 0.01, abs=1e-6)
    np.testing.assert_allclose(
        np.linalg.norm(params.measurements, axis=1), 1.0, atol=1e-12
    )


def test_adam_accumulates_moments():
    params = hand_params()
    config = TrainerConfig(learning_rate=0.01, l2_lambda=0.0, optimizer="adam")
    state = AdamState.zeros_like(params)
    grads = hand_grads(params)
    adam_step(params, grads, config, state)
    adam_step(params, grads, config, state)
    assert state.step == 2
    # m = (1 - b1) * g * (1 + b1) after two equal gradients
    assert state.m_amplitude[0, 0] == pytest.approx(0.1 * 0.5 * 1.9, rel=1e-12)
    assert state.v_amplitude[0, 0] == pytest.approx(0.001 * 0.25 * 1.999, rel=1e-9)


def test_adam_splits_second_moments_by_component():
    params = hand_params()
    state = AdamState.zeros_like(params)
    grads = GradientSet.zeros_like(params)
    grads.d_measurements[0, 0] = 0.0 + 0.4j  # purely imaginary gradient
    adam_step(params, grads, TrainerConfig(optimizer="adam"), state)
    assert state.v_meas[0, 0] == 0.0
    assert state.v_meas_im[0, 0] > 0.0


# ---------------------------------------------------------------------------
# training loop


def small_config(**overrides):
    base = dict(
        embedding_dim=8,
        num_measurements=6,
        window_sizes=(1, 2),
        learning_rate=0.1,
        l2_lambda=1e-7,
        batch_size=8,
        epochs=20,
        dropout_rate=0.0,
        seed=3,
    )
    base.update(overrides)
    return TrainerConfig(**base)


def test_train_memorizes_separable_toy_corpus():
    ds = toy_corpus(num_questions=4)
    result = train(ds, ds, small_config())
    assert result.best_dev_map == 1.0
    report = evaluate(result.params, ds, result.config, result.vocab)
    assert report.map == 1.0 and report.mrr == 1.0
    # the loss actually fell while it learned
    assert result.history[-1].mean_loss < result.history[0].mean_loss


def test_train_is_deterministic_to_the_byte():
    ds = toy_corpus(num_questions=3)
    config = small_config(epochs=3)
    a = train(ds, ds, config)
    b = train(ds, ds, config)
    assert params_bytes(a.final_params) == params_bytes(b.final_params)
    assert [r.mean_loss for r in a.history] == [r.mean_loss for r in b.history]
    c = train(ds, ds, small_config(epochs=3, seed=4))
    assert params_bytes(a.final_params) != params_bytes(c.final_params)


def test_train_returns_snapshot_of_best_dev_epoch():
    ds = toy_corpus(num_questions=4)
    result = train(ds, ds, small_config(epochs=6))
    maps = [r.dev_map for r in result.history]
    assert result.best_dev_map == max(maps)
    # first epoch attaining the maximum wins
    assert result.best_epoch == maps.index(max(maps)) + 1
    report = evaluate(result.params, ds, result.config, result.vocab)
    assert report.map == result.best_dev_map


def test_train_without_dev_set_keeps_final_parameters():
    ds = toy_corpus(num_questions=2)
    result = train(ds, None, small_config(epochs=2))
    assert result.best_dev_map is None
    assert params_bytes(result.params) == params_bytes(result.final_params)
    assert all(r.dev_map is None for r in result.history)


def test_train_emits_batch_and_epoch_records():
    ds = toy_corpus(num_questions=2)
    records = []
    train(ds, ds, small_config(epochs=2, batch_size=2), log_fn=records.append)
    kinds = {r["kind"] for r in records}
    assert kinds == {"batch", "epoch"}
    epochs = [r for r in records if r["kind"] == "epoch"]
    assert [r["epoch"] for r in epochs] == [1, 2]
    assert all(np.isfinite(r["loss"]) for r in records if r["kind"] == "batch")


def test_train_adam_also_learns_toy_corpus():
    ds = toy_corpus(num_questions=2)
    result = train(ds, ds, small_config(optimizer="adam", learning_rate=0.05))
    assert result.best_dev_map == 1.0


# ---------------------------------------------------------------------------
# grid search


def test_enumerate_grid_is_a_cartesian_product_in_key_order():
    base = small_config()
    configs = enumerate_grid(
        base, {"learning_rate": [0.1, 0.2], "batch_size": [4, 8]}
    )
    combos = [(c.learning_rate, c.batch_size) for c in configs]
    assert combos == [(0.1, 4), (0.1, 8), (0.2, 4), (0.2, 8)]
    assert all(c.embedding_dim == base.embedding_dim for c in configs)


def test_default_grid_has_144_combinations():
    assert len(enumerate_grid(small_config(), DEFAULT_GRID_POOLS)) == 3 * 4 * 3 * 4


def test_enumerate_grid_rejects_bad_pools():
    with pytest.raises(ConfigError, match="empty"):
        enumerate_grid(small_config(), {"learning_rate": []})
    with pytest.raises(ConfigError, match="not a config field"):
        enumerate_grid(small_config(), {"momentum": [0.9]})


def test_grid_search_first_of_tied_runs_wins():
    ds = toy_corpus(num_questions=2)
    result = grid_search(
        ds, ds, small_config(epochs=2), pools={"learning_rate": [0.08, 0.08]}
    )
    assert len(result.rows) == 2
    assert result.rows[0].dev_map == result.rows[1].dev_map
    assert result.best_row is result.rows[0]


def test_grid_search_reports_every_run():
    ds = toy_corpus(num_questions=2)
    records = []
    result = grid_search(
        ds,
        ds,
        small_config(epochs=2),
        pools={"learning_rate": [0.05, 0.1], "batch_size": [4]},
        log_fn=records.append,
    )
    grid_records = [r for r in records if r["kind"] == "grid"]
    assert [r["run"] for r in grid_records] == [0, 1]
    assert len(result.rows) == 2
    assert result.best_row.dev_map == max(r.dev_map for r in result.rows)
