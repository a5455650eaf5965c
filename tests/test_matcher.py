import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch import matcher
from qmatch.embedding import Vocabulary
from qmatch.errors import ConfigError, DegenerateInputError, ShapeError
from qmatch.matcher import (
    cosines,
    forward_batch,
    forward_sentence,
    represent,
    represent_batch,
    score,
    triplet_loss,
    word_table,
)
from qmatch.model import TrainerConfig, init_parameters
from qmatch.reference import represent_dense

RNG = np.random.default_rng(20260814)

VOCAB = Vocabulary.from_tokens([f"w{i}" for i in range(24)])


def small_config(**overrides):
    base = dict(
        embedding_dim=6,
        num_measurements=5,
        window_sizes=(1, 2, 3),
        dropout_rate=0.0,
        max_sentence_len=40,
        seed=7,
    )
    base.update(overrides)
    return TrainerConfig(**base)


def make_params(config, scramble=True):
    params = init_parameters(VOCAB, config)
    if scramble:
        # move the measurements off their one-hot start so tests exercise
        # genuinely complex vectors
        rng = np.random.default_rng(123)
        raw = rng.normal(size=params.measurements.shape) + 1j * rng.normal(
            size=params.measurements.shape
        )
        params.measurements = raw / np.linalg.norm(raw, axis=1)[:, None]
    return params


def random_ids(length, rng=RNG):
    return rng.integers(2, len(VOCAB), size=length)


# ------------------------------------------------------------------ dropout
# forward_batch applies inverted dropout to the amplitude rows (emb_mask)
# and to the pooled vectors (pooled_mask).


def dropout_masks(rate, train=True, rng=None, length=20_000):
    """forward_batch's masks over one sentence of ``length`` tokens.  The
    config is not validated, so forward_batch itself must check the rate."""
    params = make_params(small_config(), scramble=False)
    config = small_config(dropout_rate=rate, max_sentence_len=length)
    _, tape = forward_batch(
        [random_ids(length, np.random.default_rng(1))], params, config,
        train=train, rng=rng,
    )
    return tape.emb_mask, tape.pooled_mask


def test_apply_dropout_eval_mode_is_identity():
    assert dropout_masks(0.5, train=False, length=8) == (None, None)


def test_apply_dropout_zero_rate_is_identity():
    assert dropout_masks(0.0, rng=np.random.default_rng(0), length=8) == (None, None)


def test_apply_dropout_scales_survivors():
    emb_mask, pooled_mask = dropout_masks(0.9, rng=np.random.default_rng(11))
    for mask in (emb_mask, pooled_mask):
        # inverted dropout: survivors are scaled by 1/keep = 10
        np.testing.assert_allclose(mask[mask != 0.0], 10.0)
    assert abs(np.count_nonzero(emb_mask) / emb_mask.size - 0.1) < 0.01


def test_apply_dropout_survivor_fraction_matches_rate():
    emb_mask, _ = dropout_masks(0.1, rng=np.random.default_rng(3))
    kept = np.count_nonzero(emb_mask) / emb_mask.size
    assert abs(kept - 0.9) < 0.01
    # unbiased in expectation
    assert abs(emb_mask.mean() - 1.0) < 0.02


def test_apply_dropout_rejects_bad_rates():
    for rate in (1.0, -0.1, np.nan):
        with pytest.raises(ConfigError):
            dropout_masks(rate, rng=np.random.default_rng(0), length=3)


def test_apply_dropout_needs_rng_in_train_mode():
    with pytest.raises(ConfigError):
        dropout_masks(0.5, rng=None, length=3)


# ------------------------------------------------- forward representation


def test_forward_matches_dense_reference_local():
    config = small_config()
    params = make_params(config)
    for length in (1, 2, 5, 9):
        ids = random_ids(length)
        fast = represent(ids, params, config)
        dense = represent_dense(ids, params, config)
        np.testing.assert_allclose(fast, dense, atol=1e-10)


def test_forward_matches_dense_reference_global():
    config = small_config(mixture="global", window_sizes=(1,))
    params = make_params(config)
    for length in (1, 3, 8):
        ids = random_ids(length)
        np.testing.assert_allclose(
            represent(ids, params, config),
            represent_dense(ids, params, config),
            atol=1e-10,
        )


def test_forward_matches_dense_on_real_only_model():
    config = small_config(complex_valued=False)
    params = make_params(config, scramble=False)
    assert np.all(params.phase == 0.0)
    ids = random_ids(6)
    np.testing.assert_allclose(
        represent(ids, params, config),
        represent_dense(ids, params, config),
        atol=1e-10,
    )


def test_representation_shape_local_vs_global():
    local = small_config()
    glob = small_config(mixture="global")
    params = make_params(local)
    ids = random_ids(4)
    assert represent(ids, params, local).shape == (
        local.num_measurements * len(local.window_sizes),
    )
    assert represent(ids, params, glob).shape == (glob.num_measurements,)
    assert local.representation_len == 15
    assert glob.representation_len == 5


def test_representation_entries_are_probabilities():
    config = small_config()
    params = make_params(config)
    rep = represent(random_ids(7), params, config)
    assert np.all(rep >= 0.0)
    assert np.all(rep <= 1.0)


def test_forward_truncates_long_sentences():
    config = small_config(max_sentence_len=5)
    params = make_params(config)
    ids = random_ids(12)
    np.testing.assert_allclose(
        represent(ids, params, config),
        represent(ids[:5], params, config),
        atol=0,
    )


def test_forward_rejects_empty_sentence():
    for config in (small_config(), small_config(mixture="global")):
        params = make_params(config)
        for route in (represent, represent_dense):
            with pytest.raises(DegenerateInputError):
                route(np.array([], dtype=np.int64), params, config)
            with pytest.raises(ShapeError):
                route(np.array([[2, 3]]), params, config)


def test_forward_handles_padding_rows():
    # the padding row has a degenerate amplitude norm: representation must
    # stay finite and agree with the dense path
    config = small_config()
    params = make_params(config)
    ids = np.array([0, 3, 0, 5], dtype=np.int64)
    rep = represent(ids, params, config)
    assert np.all(np.isfinite(rep))
    np.testing.assert_allclose(rep, represent_dense(ids, params, config), atol=1e-10)


def test_forward_deterministic_in_eval_mode():
    config = small_config()
    params = make_params(config)
    ids = random_ids(6)
    a = represent(ids, params, config)
    b = represent(ids, params, config)
    assert np.array_equal(a, b)


def test_forward_train_mode_dropout_changes_output():
    config = small_config(dropout_rate=0.5)
    params = make_params(config)
    ids = random_ids(8)
    rep_eval = represent(ids, params, config)
    rep_train, _ = forward_sentence(
        ids, params, config, train=True, rng=np.random.default_rng(21)
    )
    assert not np.allclose(rep_eval, rep_train)


def test_forward_train_mode_without_dropout_matches_eval():
    config = small_config(dropout_rate=0.0)
    params = make_params(config)
    ids = random_ids(8)
    rep_train, tape = forward_sentence(
        ids, params, config, train=True, rng=np.random.default_rng(2)
    )
    np.testing.assert_allclose(rep_train, represent(ids, params, config), atol=0)
    assert tape.emb_mask is None
    assert tape.pooled_mask is None


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    norm=st.floats(min_value=1e-2, max_value=1e3),
)
def test_forward_dense_agreement_property(length, seed, norm):
    config = small_config()
    params = make_params(config)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, len(VOCAB), size=length)
    # one word of drawn norm opens a softmax gap of up to 1e3 in its windows
    word = int(rng.integers(2, len(VOCAB)))
    ids[rng.integers(length)] = word
    params.amplitude[word] *= norm / np.linalg.norm(params.amplitude[word])
    np.testing.assert_allclose(
        represent(ids, params, config),
        represent_dense(ids, params, config),
        rtol=0,
        atol=1e-9,
    )


@pytest.mark.parametrize("norm", [1e-158, 1e-160])
def test_tiny_word_norm_matches_dense(norm):
    # squares of such entries are subnormal: the norm must be rescaled
    config = small_config()
    params = make_params(config)
    params.amplitude[5] *= norm / np.linalg.norm(params.amplitude[5])
    for ids in (np.array([5]), np.array([5, 5, 9])):
        np.testing.assert_allclose(
            represent(ids, params, config),
            represent_dense(ids, params, config),
            rtol=0,
            atol=1e-9,
        )


# ---------------------------------------------- batched and single forward


def mixed_batch():
    """One-word sentences, sentences past max_sentence_len (6 below), the
    padding word, a zeroed (dead) row and a repeated sentence."""
    rng = np.random.default_rng(31)
    return [
        np.array([5]),
        rng.integers(2, len(VOCAB), size=11),
        np.array([0, 7, 7, 9]),
        np.array([3, 4]),
        rng.integers(2, len(VOCAB), size=6),
        np.array([5]),
        np.array([12, 0, 3, 12, 9, 4, 4, 8]),
    ]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"mixture": "global", "window_sizes": (1,)},
        {"complex_valued": False},
    ],
    ids=["local", "global", "real"],
)
def test_forward_batch_equals_represent_per_sentence(overrides):
    config = small_config(max_sentence_len=6, **overrides)
    params = make_params(config)
    params.amplitude[3] = 0.0
    batch = mixed_batch()
    reps, tape = forward_batch(batch, params, config)
    assert reps.shape == (len(batch), config.representation_len)
    for s, ids in enumerate(batch):
        assert np.array_equal(reps[s], represent(ids, params, config))
        _, single = forward_batch([ids], params, config)
        span = tape.span(s)
        assert np.array_equal(tape.ids[span], single.ids)
        assert np.array_equal(tape.winners(s), single.winners(0))
        assert np.array_equal(tape.window_weights[:, span], single.window_weights)
        assert np.array_equal(tape.window_probs[:, span], single.window_probs)


def test_global_mixture_is_blind_to_token_order():
    # the global mixture is one matrix for any order of a sentence's words,
    # so a permuted sentence must get the same bits, from either path
    config = small_config(mixture="global", window_sizes=(1,))
    params = make_params(config)
    rng = np.random.default_rng(5)
    sentences = [random_ids(int(rng.integers(2, 12)), rng) for _ in range(200)]
    permuted = [rng.permutation(ids) for ids in sentences]
    reps, _ = forward_batch(sentences, params, config)
    table = word_table(sentences, params, config)
    assert np.array_equal(forward_batch(permuted, params, config)[0], reps)
    assert np.array_equal(represent_batch(permuted, table, config), reps)
    for ids, ids_permuted in zip(sentences[:20], permuted[:20]):
        assert np.array_equal(
            represent(ids_permuted, params, config), represent(ids, params, config)
        )


def test_winners_ties_go_to_the_lowest_window():
    # backward_batch routes each pooled gradient into the window winners
    # names: on an exact tie that is the sentence's first window
    config = small_config(window_sizes=(1, 2))
    params = make_params(config)
    _, tape = forward_batch([np.array([7, 7, 7, 7]), np.array([5])], params, config)
    probs = tape.window_probs[:, tape.span(0)]
    assert np.array_equal(probs, np.broadcast_to(probs[:, :1], probs.shape))
    for s in range(2):
        assert np.array_equal(tape.winners(s), np.zeros((2, config.num_measurements)))


def test_winners_index_the_pooled_values():
    config = small_config(max_sentence_len=6)
    params = make_params(config)
    reps, tape = forward_batch(mixed_batch(), params, config)
    for s in range(reps.shape[0]):
        probs = tape.window_probs[:, tape.span(s)]   # (B, L, k)
        winners = tape.winners(s)                    # (B, k)
        picked = np.take_along_axis(probs, winners[:, None, :], axis=1)[:, 0]
        assert np.array_equal(picked, probs.max(axis=1))
        assert np.array_equal(picked.ravel(), reps[s])


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"mixture": "global", "window_sizes": (1,)},
        {"complex_valued": False},
    ],
    ids=["local", "global", "real"],
)
def test_window_stage_over_a_word_table_equals_forward_batch(overrides):
    config = small_config(max_sentence_len=6, **overrides)
    params = make_params(config)
    params.amplitude[3] = 0.0
    batch = mixed_batch()
    reps, tape = forward_batch(batch, params, config)
    # a table over more words than the batch holds, built in another order
    table = word_table([np.arange(len(VOCAB))[::-1]] + batch, params, config)
    assert np.array_equal(represent_batch(batch, table, config), reps)
    for s, ids in enumerate(batch):
        assert np.array_equal(represent_batch([ids], table, config)[0], reps[s])
    # the table's word rows are the tape's, bit for bit
    rows = table.rows(tape.ids)
    assert np.array_equal(table.pi[rows], tape.pi[tape.rows])
    assert np.array_equal(table.inner_sq[rows], tape.inner_sq[tape.rows])
    assert not table.alive[table.rows(np.array([3]))].any()
    assert table.alive[table.rows(np.array([0, 5]))].all()


@pytest.mark.parametrize("widest", range(1, 8))
def test_window_weights_equal_the_reduction_softmax(widest):
    # the window stage takes each softmax's max and sum offset by offset;
    # up to seven offsets that is the order numpy's axis reduction adds in
    config = small_config(window_sizes=tuple(range(widest, 0, -1)))
    params = make_params(config)
    rng = np.random.default_rng(widest)
    params.amplitude *= rng.uniform(0.1, 30.0, size=(len(VOCAB), 1))
    batch = mixed_batch() + [random_ids(13, rng)]
    _, tape = forward_batch(batch, params, config)
    sizes = np.asarray(config.window_sizes)
    T = tape.rows.size
    ends = np.repeat(tape.starts + tape.lengths, tape.lengths)
    reach = np.arange(T)[:, None] + np.arange(widest)
    inside = (reach < ends[:, None]) & (np.arange(widest) < sizes[:, None, None])
    logits = np.where(inside, tape.pi[tape.rows[tape.window_pos]], -np.inf)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    assert np.array_equal(tape.window_weights, e / e.sum(axis=2, keepdims=True))


def test_word_table_rows_do_not_depend_on_its_chunks(monkeypatch):
    config = small_config()
    params = make_params(config)
    params.amplitude[3] = 0.0
    every_word = [np.arange(len(VOCAB))]
    whole = word_table(every_word, params, config)
    # 26 words in chunks of 5 leave a last chunk of one row
    monkeypatch.setattr(matcher, "_TABLE_CHUNK", 5)
    chunked = word_table(every_word, params, config)
    assert np.array_equal(chunked.pi, whole.pi)
    assert np.array_equal(chunked.alive, whole.alive)
    assert np.array_equal(chunked.inner_sq, whole.inner_sq)


def test_word_table_covers_only_the_truncated_sentences():
    config = small_config(max_sentence_len=3)
    params = make_params(config)
    table = word_table([np.array([4, 5, 6, 7, 8])], params, config)
    assert np.array_equal(table.words, [4, 5, 6])
    with pytest.raises(KeyError):
        represent_batch([np.array([4, 9])], table, config)


def test_forward_batch_draws_dropout_masks_sentence_by_sentence():
    config = small_config(dropout_rate=0.5)
    params = make_params(config)
    batch = mixed_batch()
    reps, tape = forward_batch(
        batch, params, config, train=True, rng=np.random.default_rng(9)
    )
    rng = np.random.default_rng(9)
    for s, ids in enumerate(batch):
        rep, single = forward_batch([ids], params, config, train=True, rng=rng)
        assert np.array_equal(reps[s], rep[0])
        assert np.array_equal(tape.emb_mask[tape.span(s)], single.emb_mask)
        assert np.array_equal(tape.pooled_mask[s], single.pooled_mask[0])


def test_forward_batch_rejects_empty_input():
    config = small_config()
    params = make_params(config)
    with pytest.raises(DegenerateInputError):
        forward_batch([], params, config)
    with pytest.raises(DegenerateInputError):
        forward_batch([np.array([2]), np.array([], dtype=np.int64)], params, config)


# -------------------------------------------------------------------- score


def test_score_of_identical_vectors():
    u = RNG.uniform(size=10)
    assert abs(score(u, u) - 1.0) < 1e-12


def test_score_hand_oracle():
    u = np.array([1.0, 0.0, 1.0])
    v = np.array([1.0, 1.0, 0.0])
    assert abs(score(u, v) - 0.5) < 1e-12


def test_score_zero_vector_scores_zero():
    assert score(np.zeros(4), np.ones(4)) == 0.0
    assert score(np.ones(4), np.zeros(4)) == 0.0


def test_score_shape_mismatch():
    with pytest.raises(ShapeError):
        score(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        score(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("dim", (1, 5, 30, 129))
def test_score_is_cosines_of_one_pair_bit_for_bit(dim):
    # evaluate ranks a question's candidates with one cosines call; ranking
    # them one score call at a time must give the same bits, zero and NaN
    # rows included
    rng = np.random.default_rng(dim)
    question = rng.uniform(size=dim)
    candidates = rng.uniform(size=(9, dim)) ** 3
    candidates[2] = 0.0
    candidates[5, -1] = np.nan
    stacked, *_ = cosines(question, candidates)
    np.testing.assert_array_equal(
        stacked[:, 0], [score(question, c) for c in candidates]
    )
    assert stacked[2, 0] == 0.0 and np.isnan(stacked[5, 0])
    assert score(np.zeros(dim), candidates[0]) == 0.0


def test_score_scale_invariance():
    u = RNG.uniform(size=8)
    v = RNG.uniform(size=8)
    assert abs(score(u, v) - score(3.7 * u, 0.002 * v)) < 1e-12


# ------------------------------------------------------------- triplet loss


def test_triplet_loss_hinge_values():
    assert triplet_loss(0.9, 0.2, margin=0.1) == 0.0
    assert abs(triplet_loss(0.5, 0.6, margin=0.1) - 0.2) < 1e-15
    assert abs(triplet_loss(0.5, 0.45, margin=0.1) - 0.05) < 1e-15


def test_triplet_loss_kink_is_zero():
    # exactly at the margin the hinge closes
    assert triplet_loss(0.6, 0.5, margin=0.1) == 0.0


def test_triplet_loss_nonnegative_property():
    for _ in range(100):
        s_pos, s_neg = RNG.uniform(-1, 1, size=2)
        assert triplet_loss(s_pos, s_neg, margin=0.1) >= 0.0
