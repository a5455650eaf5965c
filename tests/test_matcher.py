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
    represent,
    represent_groups,
    score,
    triplet_loss,
)
from qmatch.gradients import backward_batch
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


def spy(monkeypatch, name):
    """The positional arguments of each call to ``matcher.<name>``."""
    calls = []
    real = getattr(matcher, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matcher, name, record)
    return calls


# ------------------------------------------------------------------ dropout
# forward_batch applies inverted dropout to the amplitude rows (emb_mask)
# and to the pooled vectors (pooled_mask).


def dropout_masks(rate, rng=None, length=20_000):
    """forward_batch's masks over one sentence of ``length`` tokens; no
    generator means eval mode.  A bad rate fails when the config is made,
    before forward_batch runs."""
    params = make_params(small_config(), scramble=False)
    config = small_config(dropout_rate=rate, max_sentence_len=length)
    _, tape = forward_batch(
        [random_ids(length, np.random.default_rng(1))], params, config, rng
    )
    return tape.emb_mask, tape.pooled_mask


def test_apply_dropout_eval_mode_is_identity():
    assert dropout_masks(0.5, length=8) == (None, None)


def test_apply_dropout_zero_rate_is_identity():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert dropout_masks(0.0, rng=rng, length=8) == (None, None)
    assert rng.bit_generator.state == before


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
    (rep_train,), _ = forward_batch([ids], params, config, np.random.default_rng(21))
    assert not np.allclose(rep_eval, rep_train)


def test_forward_train_mode_without_dropout_matches_eval():
    config = small_config(dropout_rate=0.0)
    params = make_params(config)
    ids = random_ids(8)
    (rep_train,), tape = forward_batch([ids], params, config, np.random.default_rng(2))
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
        assert np.array_equal(tape.window_weights[span], single.window_weights)
        assert np.array_equal(tape.window_probs[span], single.window_probs)


def test_global_mixture_is_blind_to_token_order():
    # the global mixture is one matrix for any order of a sentence's words,
    # so a permuted sentence must get the same bits, from either path
    config = small_config(mixture="global", window_sizes=(1,))
    params = make_params(config)
    rng = np.random.default_rng(5)
    sentences = [random_ids(int(rng.integers(2, 12)), rng) for _ in range(200)]
    permuted = [rng.permutation(ids) for ids in sentences]
    reps, _ = forward_batch(sentences, params, config)
    assert np.array_equal(forward_batch(permuted, params, config)[0], reps)
    assert np.array_equal(represent_groups([permuted], params, config)[0], reps)
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
    probs = tape.window_probs[tape.span(0)]
    assert np.array_equal(probs, np.broadcast_to(probs[:1], probs.shape))
    for s in range(2):
        assert np.array_equal(tape.winners(s), np.zeros((2, config.num_measurements)))


def test_winners_index_the_pooled_values():
    config = small_config(max_sentence_len=6)
    params = make_params(config)
    reps, tape = forward_batch(mixed_batch(), params, config)
    for s in range(reps.shape[0]):
        probs = tape.window_probs[tape.span(s)]      # (L, B, k)
        winners = tape.winners(s)                    # (B, k)
        picked = np.take_along_axis(probs, winners[None], axis=0)[0]
        assert np.array_equal(picked, probs.max(axis=0))
        assert np.array_equal(picked.ravel(), reps[s])


def ragged_batch(rng, high=len(VOCAB)):
    """Sentences of 1 token, of fewer tokens than the widest window (5
    below), and past max_sentence_len (6 below)."""
    return [rng.integers(2, high, size=L) for L in (1, 9, 2, 6, 1, 4, 13, 3)]


def test_ragged_sentences_pool_their_own_windows():
    config = small_config(window_sizes=(5, 1, 3), max_sentence_len=6)
    params = make_params(config)
    batch = ragged_batch(np.random.default_rng(41))
    reps, tape = forward_batch(batch, params, config)
    k = config.num_measurements
    for s, ids in enumerate(batch):
        L = min(ids.size, config.max_sentence_len)
        assert tape.lengths[s] == L
        first, rows = tape.starts[s], tape.rows[tape.span(s)]
        for b, width in enumerate(config.window_sizes):
            for j in range(L):
                # window j: the sentence's tokens j .. j + width - 1, cut at
                # its end
                pi = tape.pi[rows[j : j + width]]
                a = np.exp(pi - pi.max())
                np.testing.assert_allclose(
                    tape.window_probs[first + j, b],
                    (a / a.sum()) @ tape.inner_sq[rows[j : j + width]],
                    rtol=1e-12,
                )
            for m in range(k):
                column = [tape.window_probs[first + j, b, m] for j in range(L)]
                assert reps[s, b * k + m] == max(column)
                assert tape.winners(s)[b, m] == column.index(max(column))
    # the backward pass finds each listed sentence's winners on the batch
    # tape: its gradient is the sum of the sentences' own
    listed = [6, 0, 2, 5, 1]
    g = np.random.default_rng(5).normal(size=(len(listed), reps.shape[1]))
    sums = [np.zeros((len(VOCAB), config.embedding_dim)) for _ in range(2)]
    sums.append(np.zeros_like(params.measurements))
    for i, s in enumerate(listed):
        _, alone = forward_batch([batch[s]], params, config)
        grads = backward_batch(g[i : i + 1], alone, [0], params, config)
        sums[0][grads.rows] += grads.d_amplitude
        sums[1][grads.rows] += grads.d_phase
        sums[2] += grads.d_measurements
    grads = backward_batch(g, tape, listed, params, config)
    for got, want in zip(
        (grads.d_amplitude, grads.d_phase, grads.d_measurements),
        (sums[0][grads.rows], sums[1][grads.rows], sums[2]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_nan_word_row_makes_only_its_own_sentence_non_finite(where):
    # each window reads its own sentence's tokens only: a view running on
    # past a sentence's end would carry 0 * NaN into its neighbour
    config = small_config(window_sizes=(5, 1, 3), max_sentence_len=6)
    params = make_params(config)
    nan_word = len(VOCAB) - 1
    params.phase[nan_word] = np.nan   # its state and Born row are NaN
    batch = ragged_batch(np.random.default_rng(43), high=nan_word)
    clean, _ = forward_batch(batch, params, config)
    for s, ids in enumerate(batch):
        poisoned = [ids.copy() for ids in batch]
        L = min(ids.size, config.max_sentence_len)
        poisoned[s][0 if where == "first" else L - 1] = nan_word
        others = np.arange(len(batch)) != s
        with np.errstate(invalid="ignore"):
            reps, _ = forward_batch(poisoned, params, config)
            grouped = represent_groups([poisoned], params, config)[0]
        for out in (reps, grouped):
            assert np.isnan(out[s]).all()
            assert np.array_equal(out[others], clean[others])


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"mixture": "global", "window_sizes": (1,)},
        {"complex_valued": False},
    ],
    ids=["local", "global", "real"],
)
def test_represent_groups_equals_forward_batch(overrides, monkeypatch):
    config = small_config(max_sentence_len=6, **overrides)
    params = make_params(config)
    params.amplitude[3] = 0.0
    batch = mixed_batch()
    reps, tape = forward_batch(batch, params, config)
    window_calls = spy(monkeypatch, "_window_stage")
    # a group's bits do not depend on the other groups: here one over every
    # word in another order, or each sentence a group of its own
    every_word = [np.arange(len(VOCAB))[::-1]]
    assert np.array_equal(represent_groups([batch], params, config)[0], reps)
    assert np.array_equal(
        represent_groups([every_word, batch], params, config)[1], reps
    )
    singles = represent_groups([[ids] for ids in batch], params, config)
    for s in range(len(batch)):
        assert np.array_equal(singles[s][0], reps[s])
    # the word rows the window stage reads for the batch are the tape's,
    # bit for bit (calls 0 and 2; call 1 is the every-word group)
    for rows, _, _, pi, inner_sq, _ in (window_calls[0], window_calls[2]):
        assert np.array_equal(pi[rows], tape.pi[tape.rows])
        assert np.array_equal(inner_sq[rows], tape.inner_sq[tape.rows])


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
    inside = (reach < ends[:, None])[:, None] & (np.arange(widest) < sizes[:, None])
    logits = np.where(inside, tape.pi[tape.rows[tape.window_pos]][:, None], -np.inf)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    assert np.array_equal(tape.window_weights, e / e.sum(axis=2, keepdims=True))


def test_represent_groups_does_not_depend_on_its_chunks(monkeypatch):
    config = small_config()
    params = make_params(config)
    params.amplitude[3] = 0.0
    groups = [[np.arange(len(VOCAB))], mixed_batch()]
    window_calls = spy(monkeypatch, "_window_stage")
    whole = represent_groups(groups, params, config)
    # 26 words in chunks of 5 leave a last chunk of one row
    monkeypatch.setattr(matcher, "_TABLE_CHUNK", 5)
    word_calls = spy(monkeypatch, "_word_stage")
    chunked = represent_groups(groups, params, config)
    assert [amp.shape[0] for amp, _, _ in word_calls] == [5, 5, 5, 5, 5, 1]
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)
    whole_call, chunked_call = window_calls[0], window_calls[-1]
    for i in (3, 4):   # pi and inner_sq
        assert np.array_equal(chunked_call[i], whole_call[i])


def test_represent_groups_word_stage_sees_only_the_truncated_words(monkeypatch):
    config = small_config(max_sentence_len=3)
    params = make_params(config)
    word_calls = spy(monkeypatch, "_word_stage")
    groups = [[np.array([4, 5, 6, 7, 8])], [np.array([6, 5]), np.array([4])]]
    represent_groups(groups, params, config)
    seen = np.concatenate([amp for amp, _, _ in word_calls])
    assert np.array_equal(seen, params.amplitude[[4, 5, 6]])


@pytest.mark.parametrize("one", [False, True], ids=["batch", "one-sentence"])
def test_forward_batch_draws_dropout_masks_in_two_blocks(monkeypatch, one):
    # every token's amplitude mask as one block, then every sentence's
    # pooled mask as one, and no other draw; a one-sentence call draws what
    # a (L, n) block and a length-R vector draw
    config = small_config(dropout_rate=0.5)
    params = make_params(config)
    batch = mixed_batch()[4:5] if one else mixed_batch()
    mask = matcher._dropout_mask
    draws = spy(monkeypatch, "_dropout_mask")
    rng = np.random.default_rng(9)
    _, tape = forward_batch(batch, params, config, rng)
    T, N, R = tape.ids.size, len(batch), config.representation_len
    assert [shape for shape, _, _ in draws] == [(T, config.embedding_dim), (N, R)]
    want = np.random.default_rng(9)
    keep = config.keep_probability
    assert np.array_equal(tape.emb_mask, mask((T, config.embedding_dim), keep, want))
    pooled = mask(R if one else (N, R), keep, want)
    assert np.array_equal(tape.pooled_mask, pooled.reshape(N, R))
    assert rng.bit_generator.state == want.bit_generator.state


def test_forward_batch_rejects_empty_input():
    config = small_config()
    params = make_params(config)
    with pytest.raises(DegenerateInputError):
        forward_batch([], params, config)
    with pytest.raises(DegenerateInputError):
        forward_batch([np.array([2]), np.array([], dtype=np.int64)], params, config)
    with pytest.raises(DegenerateInputError):
        represent_groups([[np.array([2])], []], params, config)


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
