import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch.embedding import Vocabulary
from qmatch.errors import DomainError, ShapeError
from qmatch.matcher import forward_batch
from qmatch.model import ParameterSet, TrainerConfig, init_measurements, init_parameters
from qmatch.reference import (
    global_mixture,
    local_mixture,
    measure_all,
    normalize_word,
    slide_windows,
)
from qmatch.training import _project

RNG = np.random.default_rng(20260814)


def random_density(dim, rng=RNG, words=3):
    states = [
        normalize_word(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for _ in range(words)
    ]
    return local_mixture(states)


def random_unit(dim, rng=RNG):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim, rng=RNG):
    # QR of a complex Gaussian matrix gives a Haar-ish orthonormal basis
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def measure(rho, v):
    """Born probability <v|rho|v> through a one-row measurement block."""
    return float(measure_all([rho], v[None, :])[0, 0])


# ------------------------------------------------------------------ measure


def test_measure_projector_onto_own_state():
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    rho = np.outer(e1, e1.conj())
    assert measure(rho, e1) == 1.0


def test_measure_maximally_mixed_state():
    for dim in (2, 3, 7):
        rho = np.eye(dim, dtype=complex) / dim
        v = random_unit(dim)
        assert abs(measure(rho, v) - 1.0 / dim) < 1e-12


def test_measure_orthonormal_basis_sums_to_one():
    for dim in (2, 4, 8):
        rho = random_density(dim)
        basis = random_unitary(dim)
        total = sum(measure(rho, basis[:, j]) for j in range(dim))
        assert abs(total - 1.0) < 1e-9


def test_measure_global_phase_invariance():
    rho = random_density(5)
    v = random_unit(5)
    for theta in (0.1, 1.0, 2.5, -np.pi / 3):
        assert abs(measure(rho, v) - measure(rho, np.exp(1j * theta) * v)) < 1e-12


def test_measure_rejects_non_unit_vector():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(DomainError, match="norm"):
        measure(rho, np.array([1.0, 1.0], dtype=complex))


def test_measure_rejects_shape_mismatch():
    rho = np.eye(3, dtype=complex) / 3
    with pytest.raises(ShapeError):
        measure(rho, np.array([1.0, 0.0], dtype=complex))


def test_measure_output_clamped_to_unit_interval():
    rho = random_density(4)
    for _ in range(50):
        p = measure(rho, random_unit(4))
        assert 0.0 <= p <= 1.0


# -------------------------------------------------------------- measure_all


def test_measure_all_single_element_matches_measure():
    rho = random_density(3)
    v = random_unit(3)
    p = measure_all([rho], v[None, :])
    assert p.shape == (1, 1)
    assert abs(p[0, 0] - np.vdot(v, rho @ v).real) < 1e-12


def test_measure_all_shape_contract():
    windows = [random_density(4) for _ in range(6)]
    vs = np.stack([random_unit(4) for _ in range(3)])
    assert measure_all(windows, vs).shape == (3, 6)


def test_measure_all_matches_elementwise_loop():
    windows = [random_density(3) for _ in range(5)]
    vs = np.stack([random_unit(3) for _ in range(4)])
    got = measure_all(windows, vs)
    for k in range(4):
        for j in range(5):
            born = np.vdot(vs[k], windows[j] @ vs[k]).real
            assert abs(got[k, j] - born) < 1e-12


def test_measure_all_rejects_dim_mismatch():
    windows = [random_density(3)]
    with pytest.raises(ShapeError):
        measure_all(windows, np.stack([random_unit(4)]))


def test_measure_all_rejects_a_measurement_block_that_is_not_2d():
    windows = [random_density(3)]
    with pytest.raises(ShapeError, match="2-D"):
        measure_all(windows, random_unit(3))


def test_measure_all_rejects_unnormalized_rows():
    windows = [random_density(3)]
    with pytest.raises(DomainError):
        measure_all(windows, np.stack([2.0 * random_unit(3)]))


def test_complete_orthonormal_set_columns_sum_to_one():
    for dim in (2, 5, 9):
        windows = [random_density(dim) for _ in range(4)]
        p = measure_all(windows, random_unitary(dim).T)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-8)


# ----------------------------------------------------------------- max_pool
# The factored pass pools each sentence's windows; BatchTape.winners names
# the winning window, which backward_batch routes the pooled gradient into.


def max_pool(p):
    """(values, winners) of a (k, L) probability table pooled over the L
    windows of one sentence, by the production tape's winner rule."""
    k, length = p.shape
    config = TrainerConfig(
        embedding_dim=2, num_measurements=k, window_sizes=(1,), dropout_rate=0.0
    )
    params = init_parameters(Vocabulary.from_tokens(["a"]), config)
    _, tape = forward_batch([np.full(length, 2)], params, config)
    tape = dataclasses.replace(tape, window_probs=p.T[:, None, :])
    winners = tape.winners(0)[0]
    return p[np.arange(k), winners], winners


def test_max_pool_direct_example():
    p = np.array([[0.1, 0.5, 0.2], [0.3, 0.3, 0.3]])
    values, winners = max_pool(p)
    np.testing.assert_allclose(values, [0.5, 0.3])
    assert winners.tolist() == [1, 0]  # tie in row 2 goes to the lowest index


def test_max_pool_single_column():
    p = np.array([[0.7], [0.2], [0.9]])
    values, winners = max_pool(p)
    np.testing.assert_allclose(values, [0.7, 0.2, 0.9])
    assert winners.tolist() == [0, 0, 0]


# ------------------------------------------------------------ initialization


def test_init_measurements_one_hot_rows():
    vs = init_measurements(3, 5)
    expected = np.zeros((3, 5))
    expected[0, 0] = expected[1, 1] = expected[2, 2] = 1.0
    np.testing.assert_array_equal(vs.real, expected)
    assert np.all(vs.imag == 0.0)


def test_init_measurements_orthogonal_when_k_le_dim():
    vs = init_measurements(5, 5)
    gram = vs @ vs.conj().T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-15)


def test_init_measurements_wraps_when_k_exceeds_dim():
    hot = init_measurements(7, 5).real.argmax(axis=1)
    assert hot.tolist() == [0, 1, 2, 3, 4, 0, 1]


def test_init_measurements_rejects_bad_sizes():
    for k, dim in ((0, 5), (3, 0)):
        with pytest.raises(DomainError):
            init_measurements(k, dim)


def project(measurements):
    """``measurements`` after training's projection step, which renormalises
    them in place."""
    dim = measurements.shape[1]
    params = ParameterSet(
        amplitude=np.ones((1, dim)), phase=np.zeros((1, dim)),
        measurements=measurements,
    )
    _project(params)
    assert params.measurements is measurements
    return measurements


def test_renormalize_restores_unit_rows():
    vs = project(init_measurements(4, 4) * 3.7 + 0.1j)
    np.testing.assert_allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-9)


def test_renormalize_keeps_bits_and_rescues_tiny_rows():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    vs = project(raw.copy())
    assert np.array_equal(vs, raw / np.linalg.norm(raw, axis=1)[:, None])
    # squares of a 1e-200 row underflow; the shared row norm rescales them
    np.testing.assert_allclose(project(1e-200 * raw), vs, rtol=1e-14)


def test_renormalize_rejects_zero_row():
    with pytest.raises(DomainError):
        project(np.zeros((2, 3), dtype=complex))


# -------------------------------------------------------- windowed pipeline


def test_windowed_probability_pipeline_end_to_end():
    rng = np.random.default_rng(99)
    sentence = [
        normalize_word(rng.normal(size=4) + 1j * rng.normal(size=4))
        for _ in range(6)
    ]
    windows = [local_mixture(w) for w in slide_windows(sentence, 3)]
    probs = measure_all(windows, init_measurements(4, 4))
    assert probs.shape == (4, 6)
    # complete orthonormal set: every window's outcome distribution sums to 1
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-8)
    pooled = probs.max(axis=1)
    assert np.all((pooled >= 0.0) & (pooled <= 1.0))


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=8),
    words=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_measure_in_unit_interval_property(dim, words, seed):
    rng = np.random.default_rng(seed)
    states = [
        normalize_word(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for _ in range(words)
    ]
    rho = global_mixture(states)
    p = measure(rho, random_unit(dim, rng))
    assert 0.0 <= p <= 1.0
