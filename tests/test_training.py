"""Optimizer arithmetic, training-loop determinism and grid enumeration."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmatch.data import QADataset, QuestionGroup
from qmatch.embedding import Vocabulary
from qmatch.errors import ConfigError, DataError, NumericError
from qmatch.evaluation import evaluate
from qmatch.model import GradientSet, ParameterSet, TrainerConfig, init_parameters
from qmatch import training
from qmatch.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_GRID_POOLS,
    AdamState,
    adam_step,
    enumerate_grid,
    sgd_step,
    train,
)
from synthetic import topic_corpus, toy_corpus


def hand_params():
    """Three rows (pad/unk/word), two dimensions, one measurement."""
    return ParameterSet(
        amplitude=np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 1.0]]),
        phase=np.array([[0.3, 0.0], [0.1, 0.2], [0.0, 0.4]]),
        measurements=np.array([[0.6 + 0.0j, 0.8j]]),
    )


def zero_grads(params):
    """A gradient set of zeros over every vocabulary row."""
    return GradientSet(
        d_amplitude=np.zeros_like(params.amplitude),
        d_phase=np.zeros_like(params.phase),
        d_measurements=np.zeros_like(params.measurements),
        rows=np.arange(params.vocab_size),
    )


def hand_grads(params):
    grads = zero_grads(params)
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
    # row 1 decays in both, with or without its zero gradient row
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
    sgd_step(params, zero_grads(params), config)
    np.testing.assert_array_equal(params.phase, before_phase)
    np.testing.assert_allclose(params.measurements, before_meas, atol=1e-15)
    np.testing.assert_allclose(
        params.amplitude, hand_params().amplitude * (1.0 - 0.2 * 0.1), atol=1e-15
    )


def test_sgd_keeps_measurement_rows_unit_norm():
    rng = np.random.default_rng(4)
    params = hand_params()
    grads = zero_grads(params)
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


def test_sgd_steps_equal_a_dense_decay_reference():
    # every row decays on every step, the rows a step skips included
    rng = np.random.default_rng(6)
    vocab_size, dim = 9, 3
    start = ParameterSet(
        amplitude=rng.normal(size=(vocab_size, dim)),
        phase=rng.normal(size=(vocab_size, dim)),
        measurements=np.array([[0.6 + 0.0j, 0.8j, 0.0]]),
    )
    config = TrainerConfig(learning_rate=0.1, l2_lambda=0.05)
    row_sets = [[0, 1], [2], [0, 5, 8], [], [1, 2, 3], [7], [0, 8], [4, 5]]
    steps = []
    for rows in row_sets:
        rows = np.array(rows, dtype=np.int64)
        steps.append(GradientSet(
            d_amplitude=rng.normal(size=(rows.size, dim)),
            d_phase=rng.normal(size=(rows.size, dim)),
            d_measurements=rng.normal(size=(1, dim)) + 1j * rng.normal(size=(1, dim)),
            rows=rows,
        ))

    stepped = start.copy()
    for grads in steps:
        sgd_step(stepped, grads, config)

    dense = start.copy()
    f = 1.0 - config.learning_rate * config.l2_lambda
    for grads in steps:
        g = np.zeros_like(dense.amplitude)
        g[grads.rows] = grads.d_amplitude
        dense.amplitude = dense.amplitude * f - config.learning_rate * g
        dense.phase[grads.rows] -= config.learning_rate * grads.d_phase
        dense.measurements -= config.learning_rate * grads.d_measurements
        dense.measurements /= np.linalg.norm(dense.measurements, axis=1)[:, None]

    np.testing.assert_array_equal(stepped.amplitude, dense.amplitude)
    np.testing.assert_array_equal(stepped.phase, dense.phase)
    np.testing.assert_array_equal(stepped.measurements, dense.measurements)
    # row 6 was never touched: it took one decay per step, eight in all
    untouched = start.amplitude[6].copy()
    for _ in steps:
        untouched *= f
    np.testing.assert_array_equal(stepped.amplitude[6], untouched)


def test_train_matches_a_dense_decay_run(monkeypatch):
    # every step decays the whole table, so dev evaluation and the returned
    # parameters read the dense decay, on rows the last batches skip too
    train_set, dev_set = topic_corpus(
        num_topics=2, train_questions=6, dev_questions=4, topic_words=10,
        filler_words=10,
    )
    config = small_config(epochs=2, l2_lambda=1e-3, batch_size=4)
    stepped = train(train_set, dev_set, config)

    def dense_step(params, grads, config):
        lr = config.learning_rate
        g = np.zeros_like(params.amplitude)
        g[grads.rows] = grads.d_amplitude
        f = 1.0 - lr * config.l2_lambda
        params.amplitude[...] = params.amplitude * f - lr * g
        params.phase[grads.rows] -= lr * grads.d_phase
        params.measurements -= lr * grads.d_measurements
        training._project(params)

    monkeypatch.setattr(training, "sgd_step", dense_step)
    dense = train(train_set, dev_set, config)
    for got, want in ((stepped.params, dense.params),
                      (stepped.final_params, dense.final_params)):
        np.testing.assert_array_equal(got.amplitude, want.amplitude)
        np.testing.assert_array_equal(got.phase, want.phase)
    assert [r.dev_map for r in stepped.history] == [r.dev_map for r in dense.history]


def test_sgd_step_checks_only_the_touched_rows():
    params = hand_params()
    params.amplitude[1, 0] = np.nan
    grads = GradientSet(
        d_amplitude=np.zeros((2, 2)),
        d_phase=np.zeros((2, 2)),
        d_measurements=np.zeros((1, 2), dtype=np.complex128),
        rows=np.array([0, 2]),
    )
    sgd_step(params, grads, TrainerConfig())
    with pytest.raises(NumericError, match="'amplitude'"):
        params.check_finite()


def test_train_epoch_end_check_finds_a_nan_in_an_untouched_row(monkeypatch):
    # the padding row is in no sentence, so no SGD step touches or checks it
    ds = toy_corpus(num_questions=3)
    real_init = training.init_parameters

    def planted(vocab, config, pretrained=None):
        params = real_init(vocab, config, pretrained=pretrained)
        params.amplitude[0, 1] = np.nan
        return params

    real_project = training._project
    checked = []

    def recording(params, rows=None):
        checked.append(rows)
        real_project(params, rows)

    monkeypatch.setattr(training, "init_parameters", planted)
    monkeypatch.setattr(training, "_project", recording)
    with pytest.raises(NumericError, match="'amplitude'"):
        train(ds, ds, small_config(epochs=2))
    assert checked and all(rows is not None and 0 not in rows for rows in checked)


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
    m_amplitude, v_amplitude = state.moments[0]
    assert m_amplitude[0, 0] == pytest.approx(0.1 * 0.5 * 1.9, rel=1e-12)
    assert v_amplitude[0, 0] == pytest.approx(0.001 * 0.25 * 1.999, rel=1e-9)


def test_adam_splits_second_moments_by_component():
    params = hand_params()
    state = AdamState.zeros_like(params)
    grads = zero_grads(params)
    grads.d_measurements[0, 0] = 0.0 + 0.4j  # purely imaginary gradient
    adam_step(params, grads, TrainerConfig(optimizer="adam"), state)
    _, v_meas = state.moments[2]  # entry (0, 0) is coordinates (0, 0) and (0, 1)
    assert v_meas[0, 0] == 0.0
    assert v_meas[0, 1] > 0.0


def test_adam_steps_real_and_imaginary_parts_as_separate_coordinates():
    params = hand_params()
    grads = zero_grads(params)
    grads.d_measurements[0] = [0.3 - 0.02j, -0.5j]
    config = TrainerConfig(learning_rate=0.05, l2_lambda=0.0, optimizer="adam")
    adam_step(params, grads, config, AdamState.zeros_like(params))

    def first_step(g):
        # one Adam step from zero moments, per real coordinate
        m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
        v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
        return 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    g = grads.d_measurements[0]
    start = hand_params().measurements[0]
    row = (start.real - first_step(g.real)) + 1j * (start.imag - first_step(g.imag))
    # the real part of entry 1 has no gradient and takes no step
    assert first_step(g.real)[1] == 0.0
    np.testing.assert_allclose(
        params.measurements[0], row / np.linalg.norm(row), rtol=0, atol=1e-15
    )


def test_adam_rejects_a_measurement_block_it_cannot_step_in_place():
    # Adam steps the measurements through their float64 view; a strided or
    # single-precision block has none and must raise, not be stepped as a
    # copy or reinterpreted
    config = TrainerConfig(optimizer="adam")
    for measurements in (
        np.array([[0.6, 0.0, 0.8j, 0.0]])[:, ::2],
        np.array([[0.6, 0.8j]], dtype=np.complex64),
    ):
        params = hand_params()
        params.measurements = measurements
        with pytest.raises(ValueError):
            state = AdamState.zeros_like(params)
            adam_step(params, zero_grads(params), config, state)


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


def test_train_encodes_each_text_once(monkeypatch):
    # the dev split holds the training questions and two more
    ds, dev = toy_corpus(num_questions=3), toy_corpus(num_questions=5)
    expected = train(ds, dev, small_config(epochs=4))
    calls = []
    original = Vocabulary.encode

    def counting(self, words):
        calls.append(tuple(words))
        return original(self, words)

    monkeypatch.setattr(Vocabulary, "encode", counting)
    result = train(ds, dev, small_config(epochs=4))
    # each training and dev text once over all epochs and dev passes
    texts = {tuple(text.token_text.split()) for split in (ds, dev)
             for q in split.questions for text in (q, *q.candidates)}
    assert sorted(calls) == sorted(texts)
    assert params_bytes(result.final_params) == params_bytes(expected.final_params)
    assert result.history == expected.history


def test_train_with_an_empty_dev_split_fails_before_its_first_epoch():
    records = []
    with pytest.raises(DataError, match="split 'dev' has no questions to evaluate"):
        train(toy_corpus(num_questions=2), QADataset(split="dev", questions=[]),
              small_config(epochs=2), log_fn=records.append)
    assert records == []


def test_train_with_an_empty_training_split_fails_before_its_first_epoch():
    records = []
    with pytest.raises(DataError, match="split 'train' has no questions to train on"):
        train(QADataset(split="train", questions=[]), toy_corpus(num_questions=2),
              small_config(epochs=2), log_fn=records.append)
    assert records == []


def test_train_on_a_split_with_no_triplet_fails_before_its_first_epoch():
    # no question has a negative answer, so no epoch could draw a triplet
    positives = QADataset(split="train", questions=[
        QuestionGroup(question_id=q.question_id, text=q.text, candidates=q.positives())
        for q in toy_corpus(num_questions=2).questions
    ])
    records = []
    with pytest.raises(DataError, match="split 'train' has no question with both a "
                                        "positive and a negative answer"):
        train(positives, toy_corpus(num_questions=2), small_config(epochs=2),
              log_fn=records.append)
    assert records == []


def test_training_under_dropout_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma, which shows in the benchmark's
    # peak RSS; the training path takes np.unique with return_inverse only
    scripts = str(Path(__file__).resolve().parents[1] / "scripts")
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {scripts!r})",
        "from synthetic import toy_corpus",
        "from qmatch.model import TrainerConfig",
        "from qmatch.training import train",
        "ds = toy_corpus(num_questions=4)",
        "config = TrainerConfig(embedding_dim=4, num_measurements=3, batch_size=4,",
        "                       epochs=1, dropout_rate=0.9, seed=3)",
        "train(ds, ds, config)",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_train_returns_snapshot_of_best_dev_epoch():
    ds = toy_corpus(num_questions=4)
    result = train(ds, ds, small_config(epochs=6))
    maps = [r.dev_map for r in result.history]
    assert result.best_dev_map == max(maps)
    # first epoch attaining the maximum wins
    assert result.best_epoch == maps.index(max(maps)) + 1
    report = evaluate(result.params, ds, result.config, result.vocab)
    assert report.map == result.best_dev_map
    assert report == result.best_report


def test_train_without_epochs_scores_the_initial_parameters():
    ds = toy_corpus(num_questions=3)
    config = small_config(epochs=0)
    result = train(ds, ds, config)
    assert result.history == [] and result.best_epoch == 0
    initial = init_parameters(result.vocab, config)
    assert params_bytes(result.params) == params_bytes(initial)
    assert result.best_report == evaluate(initial, ds, config, result.vocab)


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
    # a property is not a field, and a pool is a list, not one value or a
    # string to iterate
    with pytest.raises(ConfigError, match="not a config field"):
        enumerate_grid(small_config(), {"keep_probability": [0.5]})
    for pool in (0.1, "ab", (0.1, 0.2)):
        with pytest.raises(ConfigError, match="not a list"):
            enumerate_grid(small_config(), {"learning_rate": pool})
    # every combination is checked before the first run trains
    with pytest.raises(ConfigError, match="learning_rate must be positive and "
                       "finite, got -1.0"):
        enumerate_grid(small_config(), {"learning_rate": [0.1, -1.0]})
