import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch import embedding, interpret, matcher
from qmatch.embedding import (
    DEGENERATE_WEIGHT,
    PAD_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    init_amplitudes_from_glove,
    init_phases,
    phase_factor,
    read_glove_vectors,
    tokenize,
    uniform_state,
)
from qmatch.errors import ParseError, ShapeError
from qmatch.model import TrainerConfig, init_parameters
from qmatch.reference import assemble_word_vector, normalize_word

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------- tokenize


def test_tokenize_lowercases_and_splits():
    assert tokenize("Who wrote Hamlet") == ["who", "wrote", "hamlet"]


def test_tokenize_strips_surrounding_punctuation():
    assert tokenize("What, then?  (Really!)") == ["what", "then", "really"]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("o'clock state-of-the-art") == ["o'clock", "state-of-the-art"]


def test_tokenize_drops_pure_punctuation_tokens():
    assert tokenize("wait -- what ???") == ["wait", "what"]


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == []
    assert tokenize("  \t \n ") == []


# --------------------------------------------------------------- vocabulary


def test_vocabulary_reserves_pad_and_unk():
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    assert vocab.tokens[0] == PAD_TOKEN
    assert vocab.tokens[1] == UNK_TOKEN
    assert vocab.encode(["alpha"]).tolist() == [2]
    assert len(vocab) == 4


def test_vocabulary_encode_decode_roundtrip():
    vocab = Vocabulary.from_tokens(["alpha", "beta", "gamma"])
    ids = vocab.encode(["beta", "alpha", "gamma"])
    assert [vocab.tokens[i] for i in ids] == ["beta", "alpha", "gamma"]


def test_vocabulary_unknown_words_map_to_unk():
    vocab = Vocabulary.from_tokens(["alpha"])
    ids = vocab.encode(["alpha", "omega"])
    assert ids.tolist() == [2, *vocab.encode([UNK_TOKEN])]


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary.from_tokens(["twice", "twice"])


def test_vocabulary_derives_its_index_from_its_tokens():
    vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN, "alpha"])
    assert vocab.encode([PAD_TOKEN, UNK_TOKEN, "alpha"]).tolist() == [0, 1, 2]
    assert vocab == Vocabulary.from_tokens(["alpha"])
    # an index that disagrees with the tokens cannot be passed in
    with pytest.raises(TypeError):
        Vocabulary([PAD_TOKEN, UNK_TOKEN, "alpha"], index={"alpha": 0})
    with pytest.raises(ValueError, match="does not start with <pad>, <unk>"):
        Vocabulary([UNK_TOKEN, PAD_TOKEN, "alpha"])


def test_a_vocabulary_cannot_change_after_it_is_made():
    vocab = Vocabulary.from_tokens(["alpha"])
    assert vocab.tokens == (PAD_TOKEN, UNK_TOKEN, "alpha")
    # an edit would leave the index and len() out of step with the tokens
    with pytest.raises(AttributeError):
        vocab.tokens.append("beta")
    with pytest.raises(dataclasses.FrozenInstanceError):
        vocab.tokens = (PAD_TOKEN, UNK_TOKEN, "beta")
    assert len(vocab) == 3 and vocab.encode(["alpha"]).tolist() == [2]
    assert hash(vocab) == hash(Vocabulary.from_tokens(["alpha"]))


@pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))])
def test_a_vocabulary_pickles_and_deep_copies(duplicate):
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    met = vocab.encode_text("beta omega")
    again = duplicate(vocab)
    assert again == vocab and hash(again) == hash(vocab)
    assert again.encode(vocab.tokens).tolist() == [0, 1, 2, 3]
    assert again.encode(["beta", "omega"]).tolist() == [3, 1]
    ids = again.encode_text("beta omega")
    assert ids is not met and ids.tolist() == met.tolist() == [3, 1]
    assert not ids.flags.writeable


def test_encode_text_encodes_a_text_once_and_read_only(monkeypatch):
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    calls = []
    original = Vocabulary.encode

    def counting(self, words):
        calls.append(words)
        return original(self, words)

    monkeypatch.setattr(Vocabulary, "encode", counting)
    for text in ("beta alpha omega", "alpha", "", "beta alpha omega"):
        ids = vocab.encode_text(text)
        np.testing.assert_array_equal(ids, original(vocab, text.split()))
        assert ids.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            ids[:1] = 0
    assert calls == [["beta", "alpha", "omega"], ["alpha"], []]
    assert vocab.encode_text("alpha") is vocab.encode_text("alpha")
    # the memo is not part of a vocabulary's value
    assert vocab == Vocabulary.from_tokens(["alpha", "beta"])


# -------------------------------------------------------------- word states


def test_assemble_word_vector_polar_combination():
    amp = np.array([1.0, 2.0])
    phase = np.array([0.0, math.pi / 2.0])
    vec = assemble_word_vector(amp, phase)
    np.testing.assert_allclose(vec, [1.0, 2.0j], atol=1e-15)


def test_assemble_word_vector_negative_amplitude_is_phase_flip():
    # a sign on the amplitude is the same as shifting the phase by pi
    v1 = assemble_word_vector(np.array([-1.0]), np.array([0.0]))
    v2 = assemble_word_vector(np.array([1.0]), np.array([math.pi]))
    assert abs(v1[0] - v2[0]) < 1e-15


def test_assemble_word_vector_shape_mismatch():
    with pytest.raises(ShapeError):
        assemble_word_vector(np.zeros(3), np.zeros(4))


def test_phase_factor_is_exp_i_phase_within_one_ulp():
    # the init range, and the wider one training can drift to
    phases = np.concatenate([RNG.uniform(-math.pi, math.pi, size=(500, 40)),
                             RNG.normal(scale=30.0, size=(500, 40))])
    got, want = phase_factor(phases), np.exp(1j * phases)
    assert got.shape == phases.shape and got.dtype == np.complex128
    np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
    np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


def test_phase_factor_passes_nan_through():
    got = phase_factor(np.array([[0.5, np.nan], [np.nan, -2.0]]))
    assert np.array_equal(np.isnan(got.real), [[False, True], [True, False]])
    assert np.array_equal(np.isnan(got.imag), [[False, True], [True, False]])


@pytest.mark.parametrize(
    "entry", ["forward_batch", "represent_groups", "measurement_neighbors"]
)
def test_each_word_stage_caller_reaches_phase_factor(entry, monkeypatch):
    vocab = Vocabulary.from_tokens(["a", "b", "c"])
    config = TrainerConfig(embedding_dim=4, num_measurements=3, window_sizes=(1, 2))
    params = init_parameters(vocab, config)
    seen = []

    def spy(phases):
        seen.append(phases)
        return phase_factor(phases)

    monkeypatch.setattr(matcher, "phase_factor", spy)
    monkeypatch.setattr(interpret, "phase_factor", spy)
    ids = np.array([4, 2, 3, 2])
    {
        "forward_batch": lambda: matcher.forward_batch([ids], params, config),
        "represent_groups": lambda: matcher.represent_groups([[ids]], params, config),
        "measurement_neighbors": lambda: interpret.measurement_neighbors(params, vocab),
    }[entry]()
    # each reads the phase rows of words 2, 3 and 4, once
    assert len(seen) == 1
    assert np.array_equal(seen[0], params.phase[2:5])


def test_uniform_state_is_unit_norm():
    for dim in (1, 2, 7, 50):
        s = uniform_state(dim)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        assert np.all(s == s[0])


def test_normalize_word_unit_norm_and_weight():
    vec = np.array([3.0, 4.0j])
    ws = normalize_word(vec)
    assert abs(ws.weight - 5.0) < 1e-12
    np.testing.assert_allclose(ws.state, [0.6, 0.8j], atol=1e-15)


def test_normalize_word_zero_vector_degenerates_to_uniform():
    ws = normalize_word(np.zeros(4, dtype=np.complex128))
    assert ws.weight == DEGENERATE_WEIGHT
    np.testing.assert_allclose(ws.state, uniform_state(4))


def test_normalize_word_rejects_empty():
    with pytest.raises(ShapeError):
        normalize_word(np.zeros(0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
    st.lists(
        st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
)
def test_normalize_word_always_unit(amps, phases):
    size = min(len(amps), len(phases))
    vec = assemble_word_vector(np.array(amps[:size]), np.array(phases[:size]))
    ws = normalize_word(vec)
    assert abs(np.linalg.norm(ws.state) - 1.0) < 1e-9
    assert ws.weight > 0.0


# ------------------------------------------------------------------- tables


def test_init_phases_range_and_determinism():
    a = init_phases(40, 8, seed=5)
    b = init_phases(40, 8, seed=5)
    c = init_phases(40, 8, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (40, 8)
    assert np.all(a >= -math.pi) and np.all(a < math.pi)


def test_read_glove_vectors(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 0.1 0.2 0.3\ndog -1.0 0.5 2.5\n")
    vecs = read_glove_vectors(str(path), 3)
    np.testing.assert_allclose(vecs["cat"], [0.1, 0.2, 0.3])
    np.testing.assert_allclose(vecs["dog"], [-1.0, 0.5, 2.5])


def test_read_glove_vectors_skips_blank_lines(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("\ncat 0.1 0.2 0.3\n   \n\t\ndog -1.0 0.5 2.5\n\n")
    vecs = read_glove_vectors(str(path), 3)
    assert list(vecs) == ["cat", "dog"]
    np.testing.assert_allclose(vecs["dog"], [-1.0, 0.5, 2.5])


def test_read_glove_vectors_wrong_width(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 0.1 0.2 0.3\ndog 1.0\n")
    with pytest.raises(ParseError, match=r"vectors\.txt:2"):
        read_glove_vectors(str(path), 3)


def test_read_glove_vectors_non_numeric(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat a b c\n")
    with pytest.raises(ParseError, match=r":1"):
        read_glove_vectors(str(path), 3)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_read_glove_vectors_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "vectors.txt"
    path.write_text(f"cat 0.1 0.2 0.3\ndog 1.0 {value} 2.0\n")
    with pytest.raises(ParseError, match=r"vectors\.txt:2: non-finite value for 'dog'"):
        read_glove_vectors(str(path), 3)


def test_init_amplitudes_pad_row_is_degenerate():
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    table = init_amplitudes_from_glove(vocab, 6, seed=1)
    assert abs(np.linalg.norm(table[0]) - DEGENERATE_WEIGHT) < 1e-20
    # all other rows live in the random-init range
    assert np.all(np.abs(table[1:]) <= 0.25)


def test_init_amplitudes_copies_pretrained_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("alpha 1.0 2.0 3.0 4.0\n")
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    table = init_amplitudes_from_glove(
        vocab, 4, seed=1, pretrained=read_glove_vectors(str(path), 4)
    )
    alpha, beta = vocab.encode(["alpha", "beta"])
    np.testing.assert_allclose(table[alpha], [1.0, 2.0, 3.0, 4.0])
    # beta missing from the file: falls back to the random band
    assert np.all(np.abs(table[beta]) <= 0.25)


@pytest.mark.parametrize("width", [1, 3, 5])
def test_init_amplitudes_rejects_a_pretrained_vector_of_another_width(width):
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    with pytest.raises(ShapeError, match="'beta' is not 4 wide"):
        init_amplitudes_from_glove(vocab, 4, seed=1,
                                   pretrained={"beta": np.ones(width)})


def test_init_amplitudes_deterministic_per_seed():
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(30)])
    a = init_amplitudes_from_glove(vocab, 5, seed=9)
    b = init_amplitudes_from_glove(vocab, 5, seed=9)
    assert np.array_equal(a, b)


def test_init_amplitudes_draws_rows_in_vocabulary_order(tmp_path):
    # pretrained tokens interleave with drawn ones, so the one batched draw
    # must land on the drawn rows in the order a draw per row would take
    path = tmp_path / "vectors.txt"
    path.write_text("w1 1 2 3 4\nw4 5 6 7 8\nw5 -1 -2 -3 -4\nw9 0.5 0.5 0.5 0.5\n")
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(12)])
    pretrained = read_glove_vectors(str(path), 4)
    table = init_amplitudes_from_glove(vocab, 4, seed=17, pretrained=pretrained)
    rng = np.random.default_rng(17)
    expected = np.empty_like(table)
    for i, token in enumerate(vocab.tokens):
        if i == 0:
            expected[0] = np.full(4, DEGENERATE_WEIGHT / 2.0)
        elif token in pretrained:
            expected[i] = pretrained[token]
        else:
            expected[i] = rng.uniform(-0.25, 0.25, size=4)
    assert np.array_equal(table, expected)
