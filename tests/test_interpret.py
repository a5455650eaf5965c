"""Introspection helpers: importance ranking, match maps, neighbor lists."""

import numpy as np
import pytest

from qmatch.embedding import Vocabulary, row_norms, tokenize
from qmatch.errors import DegenerateInputError
from qmatch.interpret import (
    match_weight_map,
    measurement_neighbors,
    word_importance,
)
from qmatch.matcher import cosines, forward_batch, represent, score
from qmatch.model import TrainerConfig, init_parameters
from qmatch.reference import normalize_word, slide_windows, softmax_weights

VOCAB = Vocabulary.from_tokens(
    ["apple", "banana", "cherry", "melon", "orange", "pear", "plum", "quince"]
)


def setup_model(seed=2, **overrides):
    base = dict(
        embedding_dim=5,
        num_measurements=4,
        window_sizes=(1, 2),
        dropout_rate=0.0,
        seed=seed,
    )
    base.update(overrides)
    config = TrainerConfig(**base)
    params = init_parameters(VOCAB, config)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=params.measurements.shape) + 1j * rng.normal(
        size=params.measurements.shape
    )
    params.measurements = raw / np.linalg.norm(raw, axis=1)[:, None]
    return params, config


# ---------------------------------------------------------------------------
# word importance


def test_word_importance_matches_recomputed_norms():
    params, _ = setup_model()
    ranking = word_importance(params, VOCAB)
    assert len(ranking) == len(VOCAB)
    norms = {t: np.linalg.norm(params.amplitude[i]) for i, t in enumerate(VOCAB.tokens)}
    for row in ranking:
        assert row.norm == pytest.approx(norms[row.token], abs=1e-12)
    values = [r.norm for r in ranking]
    assert values == sorted(values, reverse=True)


def test_word_importance_zeroed_row_ranks_last():
    params, _ = setup_model()
    idx = VOCAB.encode(["melon"])[0]
    params.amplitude[idx] = 0.0
    ranking = word_importance(params, VOCAB)
    assert ranking[-1].token in ("melon", "<pad>")
    assert ranking[-1].norm <= ranking[0].norm
    bottom_two = {row.token for row in ranking[-2:]}
    assert "melon" in bottom_two


def test_word_importance_reads_a_tiny_row_as_row_norms_does():
    # a row scaled to 1e-160 squares to subnormals; row_norms rescales first
    params, _ = setup_model()
    idx = VOCAB.encode(["melon"])[0]
    params.amplitude[idx] *= 1e-160 / np.linalg.norm(params.amplitude[idx])
    norms = {row.token: row.norm for row in word_importance(params, VOCAB)}
    assert norms["melon"] == row_norms(params.amplitude[idx : idx + 1])[0]


def test_word_importance_top_n_and_tie_order():
    params, _ = setup_model()
    pear, apple = VOCAB.encode(["pear", "apple"])
    params.amplitude[pear] = params.amplitude[apple]
    ranking = word_importance(params, VOCAB, top_n=3)
    assert len(ranking) == 3
    positions = {r.token: i for i, r in enumerate(word_importance(params, VOCAB))}
    assert positions["apple"] < positions["pear"]  # alphabetical on the tie


# ---------------------------------------------------------------------------
# match weight maps


def test_match_map_single_word_windows_have_weight_one():
    params, config = setup_model(window_sizes=(1,))
    result = match_weight_map(params, config, VOCAB, "apple", "banana cherry")
    assert result.window_size == 1
    np.testing.assert_allclose(result.question_window.weights, [1.0])
    np.testing.assert_allclose(result.answer_window.weights, [1.0])
    assert result.question_window.tokens == ["apple"]
    assert len(result.answer_window.tokens) == 1


def test_match_map_weights_sum_to_one():
    params, config = setup_model()
    wide = params.copy()
    # a norm-40 word next to norms near 0.4: a gap that overflows a softmax
    # shifted by anything but its own window's max
    row = wide.amplitude[VOCAB.encode(["banana"])[0]]
    row *= 40.0 / np.linalg.norm(row)
    for p, question, answer in (
        (params, "apple banana cherry", "melon orange pear plum"),
        (wide, "apple banana cherry", "cherry melon"),
    ):
        result = match_weight_map(p, config, VOCAB, question, answer)
        for window in (result.question_window, result.answer_window):
            assert np.all(np.isfinite(window.weights))
            assert window.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.window_size in config.window_sizes
    # the word after the norm-40 one still finds its exact match
    assert result.question_window.tokens == ["cherry"]
    assert result.similarity == pytest.approx(1.0, abs=1e-12)


def exhaustive_best(params, config, vocab, question, answer):
    """Brute-force oracle: recompute every window pair's cosine directly."""
    q_tokens, a_tokens = tokenize(question), tokenize(answer)
    q_ids, a_ids = vocab.encode(q_tokens), vocab.encode(a_tokens)

    def columns(ids, width):
        amp = params.amplitude[ids]
        pi = np.linalg.norm(amp, axis=1)
        states = np.stack(
            [
                normalize_word(a * np.exp(1j * p)).state
                for a, p in zip(amp, params.phase[ids])
            ]
        )
        inner = np.abs(states @ params.measurements.conj().T) ** 2
        return [
            softmax_weights(pi[w]) @ inner[w]
            for w in slide_windows(list(range(len(ids))), width)
        ]

    best = None
    for width in config.window_sizes:
        for jq, qc in enumerate(columns(q_ids, width)):
            for ja, ac in enumerate(columns(a_ids, width)):
                sim = score(qc, ac)
                if best is None or sim > best[0] + 1e-15:
                    best = (sim, width, jq, ja)
    return best


def test_match_map_agrees_with_exhaustive_oracle():
    params, config = setup_model(seed=6)
    question = "apple cherry orange"
    answer = "banana melon pear quince plum"
    result = match_weight_map(params, config, VOCAB, question, answer)
    sim, width, jq, ja = exhaustive_best(params, config, VOCAB, question, answer)
    assert result.similarity == pytest.approx(sim, abs=1e-12)
    assert result.window_size == width
    assert result.question_window.start == jq
    assert result.answer_window.start == ja


def test_match_map_near_tie_goes_to_the_first_pair_in_scan_order():
    # a width-3 pair beats the exact width-1 match "apple"/"apple" by one
    # rounding step; the 1e-15 slack keeps the first pair in (size, question
    # start, answer start) order, where a plain argmax would not
    params, config = setup_model(seed=9, window_sizes=(1, 2, 3))
    question, answer = "apple banana banana", "banana banana banana apple apple banana"
    result = match_weight_map(params, config, VOCAB, question, answer)
    assert (
        result.window_size, result.question_window.start, result.answer_window.start
    ) == (1, 0, 3)
    assert result.similarity == 1.0
    _, tape = forward_batch(
        [VOCAB.encode(tokenize(question)), VOCAB.encode(tokenize(answer))],
        params,
        config,
    )
    q_cols, a_cols = (tape.window_probs[tape.span(s)].transpose(1, 0, 2)
                      for s in (0, 1))
    assert cosines(q_cols[:, :, None], a_cols[:, None])[0].max() > result.similarity


def test_match_map_identical_sentences_peak_similarity():
    params, config = setup_model()
    result = match_weight_map(params, config, VOCAB, "apple banana", "apple banana")
    assert result.similarity == pytest.approx(1.0, abs=1e-9)


def test_match_map_global_mixture_uses_whole_sentences():
    params, config = setup_model(mixture="global")
    result = match_weight_map(
        params, config, VOCAB, "apple banana", "cherry melon orange"
    )
    # one window spanning each sentence
    assert result.window_size == 3
    assert result.question_window.tokens == ["apple", "banana"]
    assert result.answer_window.tokens == ["cherry", "melon", "orange"]


def test_match_map_global_mixture_uses_the_model_mixture():
    params, config = setup_model(mixture="global")
    question, answer = "apple banana", "cherry melon orange"
    result = match_weight_map(params, config, VOCAB, question, answer)
    np.testing.assert_array_equal(result.question_window.weights, [0.5, 0.5])
    np.testing.assert_array_equal(result.answer_window.weights, [1 / 3] * 3)
    model_score = score(
        represent(VOCAB.encode(tokenize(question)), params, config),
        represent(VOCAB.encode(tokenize(answer)), params, config),
    )
    assert result.similarity == pytest.approx(model_score, abs=1e-12)


@pytest.mark.parametrize("mixture", ["local", "global"])
def test_match_map_windows_stay_inside_truncated_sentences(mixture):
    params, config = setup_model(
        window_sizes=(1,), max_sentence_len=2, mixture=mixture
    )
    question = "apple banana cherry melon orange pear"
    answer = "pear plum quince apple"
    result = match_weight_map(params, config, VOCAB, question, answer)
    for window, sentence in (
        (result.question_window, question),
        (result.answer_window, answer),
    ):
        end = window.start + len(window.tokens)
        assert end <= 2
        assert window.tokens == sentence.split()[window.start : end]


def test_match_map_needs_tokens():
    params, config = setup_model()
    with pytest.raises(DegenerateInputError):
        match_weight_map(params, config, VOCAB, "...", "apple")


# ---------------------------------------------------------------------------
# measurement neighbors


def test_neighbors_match_brute_force_scan():
    params, _ = setup_model(seed=8)
    listing = measurement_neighbors(params, VOCAB, top_n=3)
    assert len(listing) == params.k
    for entry in listing:
        sims = {
            t: abs(
                np.vdot(
                    params.measurements[entry.measurement],
                    normalize_word(
                        params.amplitude[VOCAB.encode([t])[0]]
                        * np.exp(1j * params.phase[VOCAB.encode([t])[0]])
                    ).state,
                )
            )
            for t in VOCAB.tokens[2:]
        }
        expected = sorted(sims, key=lambda t: (-sims[t], t))[:3]
        assert entry.tokens == expected
        for token, value in zip(entry.tokens, entry.similarities):
            assert value == pytest.approx(sims[token], abs=1e-12)


def test_neighbors_exclude_reserved_rows():
    params, _ = setup_model()
    for entry in measurement_neighbors(params, VOCAB, top_n=len(VOCAB)):
        assert "<pad>" not in entry.tokens
        assert "<unk>" not in entry.tokens
        assert len(entry.tokens) == len(VOCAB) - 2


def test_reserved_rows_alone_list_no_neighbors():
    # training on a split without positives leaves only <pad> and <unk>
    reserved = Vocabulary.from_tokens([])
    params = init_parameters(reserved, TrainerConfig(embedding_dim=5,
                                                     num_measurements=4))
    listing = measurement_neighbors(params, reserved, top_n=3)
    assert [(e.measurement, e.tokens, e.similarities) for e in listing] == [
        (m, [], []) for m in range(4)
    ]


def test_identical_rows_list_alphabetically_whatever_their_index():
    # token order reversed, so index order and alphabetical order disagree
    flipped = Vocabulary.from_tokens(VOCAB.tokens[:1:-1])
    params, _ = setup_model()
    first, second = flipped.encode(["apple", "quince"])
    assert first > second
    params.amplitude[second] = params.amplitude[first]
    params.phase[second] = params.phase[first]
    params.measurements[0] = normalize_word(
        params.amplitude[first] * np.exp(1j * params.phase[first])
    ).state
    entry = measurement_neighbors(params, flipped, top_n=2)[0]
    assert entry.tokens == ["apple", "quince"]
    assert entry.similarities[0] == entry.similarities[1]
    ranking = [row.token for row in word_importance(params, flipped)]
    assert ranking.index("apple") == ranking.index("quince") - 1


def test_measurement_equal_to_word_state_ranks_that_word_first():
    params, _ = setup_model()
    idx = VOCAB.encode(["cherry"])[0]
    state = normalize_word(
        params.amplitude[idx] * np.exp(1j * params.phase[idx])
    ).state
    params.measurements[0] = state
    listing = measurement_neighbors(params, VOCAB, top_n=2)
    assert listing[0].tokens[0] == "cherry"
    assert listing[0].similarities[0] == pytest.approx(1.0, abs=1e-12)
