import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch.embedding import uniform_state
from qmatch.errors import ConfigError, DegenerateInputError
from qmatch.reference import (
    WordState,
    global_mixture,
    local_mixture,
    normalize_word,
    slide_windows,
    softmax_weights,
)

RNG = np.random.default_rng(20260814)


def random_states(count, dim, rng=RNG):
    out = []
    for _ in range(count):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(normalize_word(vec))
    return out


def mixture_loops(states, probs):
    # independent oracle: explicit sum of p_i |w_i><w_i| via np.outer
    dim = states[0].state.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for p, s in zip(probs, states):
        rho += p * np.outer(s.state, s.state.conj())
    return rho


# ----------------------------------------------------------------- windows


def test_slide_windows_unigram():
    wins = slide_windows(list("abcde"), 1)
    assert wins == [["a"], ["b"], ["c"], ["d"], ["e"]]


def test_slide_windows_trailing_truncation():
    wins = slide_windows(list("abc"), 3)
    assert [len(w) for w in wins] == [3, 2, 1]
    assert wins[0] == ["a", "b", "c"]
    assert wins[2] == ["c"]


def test_slide_windows_single_item_any_width():
    for width in (1, 2, 10):
        assert slide_windows(["x"], width) == [["x"]]


def test_slide_windows_count_always_equals_length():
    for length in range(1, 13):
        for width in range(1, 6):
            wins = slide_windows(list(range(length)), width)
            assert len(wins) == length
            # starts are consecutive, ends clipped at the sentence boundary
            for j, win in enumerate(wins):
                assert win == list(range(j, min(j + width, length)))


def test_slide_windows_rejects_bad_width():
    with pytest.raises(ConfigError):
        slide_windows([1, 2], 0)


def test_slide_windows_rejects_empty():
    with pytest.raises(DegenerateInputError):
        slide_windows([], 2)


# ----------------------------------------------------------------- softmax


def test_softmax_weights_of_constants_is_uniform():
    w = softmax_weights(np.array([3.3, 3.3, 3.3, 3.3]))
    np.testing.assert_allclose(w, 0.25)


def test_softmax_weights_sum_and_order():
    w = softmax_weights(np.array([1.0, 2.0, 0.5]))
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[1] > w[0] > w[2]


def test_softmax_weights_handles_huge_norms():
    w = softmax_weights(np.array([1000.0, 999.0]))
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(w[0] - expected) < 1e-12


def test_softmax_weights_shift_invariant():
    base = np.array([0.3, 1.7, 0.9])
    np.testing.assert_allclose(
        softmax_weights(base), softmax_weights(base + 123.0), atol=1e-12
    )


# ---------------------------------------------------------------- mixtures


def test_global_mixture_single_word_is_projector():
    state = normalize_word(np.array([1.0, 1j, 0.5]))
    rho = global_mixture([state])
    np.testing.assert_allclose(
        rho, np.outer(state.state, state.state.conj()), atol=1e-15
    )
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_global_mixture_orthogonal_onehots_is_classical():
    e0 = WordState(np.array([1.0, 0.0, 0.0], dtype=complex), 1.0)
    e1 = WordState(np.array([0.0, 1.0, 0.0], dtype=complex), 1.0)
    rho = global_mixture([e0, e1])
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0.0]), atol=1e-15)


def test_global_mixture_random_words_spectrum():
    states = random_states(5, 4)
    rho = global_mixture(states)
    eigs = np.linalg.eigvalsh(rho)
    assert np.all(eigs >= -1e-12)
    assert np.all(eigs <= 1.0 + 1e-12)
    assert abs(eigs.sum() - 1.0) < 1e-12


def test_global_mixture_matches_loop_oracle():
    states = random_states(7, 5)
    rho = global_mixture(states)
    oracle = mixture_loops(states, np.full(7, 1.0 / 7.0))
    np.testing.assert_allclose(rho, oracle, atol=1e-14)


def test_local_mixture_equal_weights_equals_global():
    states = [WordState(s.state, 1.25) for s in random_states(4, 3)]
    np.testing.assert_allclose(
        local_mixture(states), global_mixture(states), atol=1e-13
    )


def test_local_mixture_matches_loop_oracle():
    states = random_states(6, 4)
    weights = np.array([s.weight for s in states])
    rho = local_mixture(states)
    oracle = mixture_loops(states, softmax_weights(weights))
    np.testing.assert_allclose(rho, oracle, atol=1e-14)


def test_local_mixture_dominant_weight_recovers_projector():
    # weights (10, 0, 0) concentrate the softmax on the first word; with
    # mutually unbiased directions the residual Frobenius distance to the
    # dominant projector stays below 1e-4
    s1 = WordState(np.array([1.0, 0.0], dtype=complex), 10.0)
    s2 = WordState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2), 0.0)
    s3 = WordState(np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2), 0.0)
    rho = local_mixture([s1, s2, s3])
    target = np.outer(s1.state, s1.state.conj())
    assert np.linalg.norm(rho - target) < 1e-4
    # and the softmax weights themselves match the anchor values
    w = softmax_weights(np.array([10.0, 0.0, 0.0]))
    np.testing.assert_allclose(w, [0.99990, 0.00005, 0.00005], atol=1e-5)


def test_local_mixture_permutation_invariant():
    states = random_states(5, 3)
    rho1 = local_mixture(states)
    rho2 = local_mixture(states[::-1])
    np.testing.assert_allclose(rho1, rho2, atol=1e-13)


def test_mixture_of_onehot_words_is_diagonal():
    dim = 4
    states = [
        WordState(np.eye(dim, dtype=complex)[i], float(i + 1)) for i in (0, 2, 3)
    ]
    rho = local_mixture(states)
    off = rho - np.diag(np.diag(rho))
    assert np.linalg.norm(off) == 0.0
    diag = np.diag(rho).real
    assert np.all(diag >= 0.0)
    assert abs(diag.sum() - 1.0) < 1e-12


def test_empty_mixture_rejected():
    with pytest.raises(DegenerateInputError):
        global_mixture([])
    with pytest.raises(DegenerateInputError):
        local_mixture([])


# ------------------------------------------------- windowed invariant sweep


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=10),
    length=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_window_mixture_is_a_density_matrix(dim, length, width, seed):
    rng = np.random.default_rng(seed)
    sentence = random_states(length, dim, rng)
    for window in slide_windows(sentence, width):
        rho = local_mixture(window)
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert abs(np.trace(rho).imag) < 1e-12
        # PSD against the independent eigensolver
        assert np.linalg.eigvalsh(rho).min() >= -1e-8
