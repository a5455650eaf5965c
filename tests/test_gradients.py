"""Finite-difference validation of the hand-derived backward pass.

Central differences on the triplet loss, compared per parameter class
(amplitude, phase, measurement real/imaginary parts) as vector norms.
Coordinates whose perturbation flips a max-pool winner or closes the
hinge are excluded: the loss is non-differentiable there and the
two-sided difference straddles the kink.  Under dropout every evaluation
runs on a fresh generator of one seed, so each draws the same masks.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import all_terms_backward
from qmatch import gradients
from qmatch.embedding import Vocabulary
from qmatch.errors import ShapeError
from qmatch.gradients import batch_grad, cosine_grad
from qmatch.matcher import cosines, forward_batch, score, triplet_loss
from qmatch.model import TrainerConfig, init_parameters

FD_STEP = 1e-5
REL_TOL = 1e-4

VOCAB = Vocabulary.from_tokens([f"w{i}" for i in range(10)])


def mask_rng(seed):
    """No generator (eval mode) for no seed, else a fresh one of ``seed``."""
    return None if seed is None else np.random.default_rng(seed)


def forward_triplet(q, p, n, params, config, seed=None):
    """(loss, s_pos, s_neg, tape) of one forward over q, a+, a-, in train
    mode on ``mask_rng(seed)`` when a seed is given."""
    reps, tape = forward_batch([q, p, n], params, config, mask_rng(seed))
    s_pos, s_neg = score(reps[0], reps[1]), score(reps[0], reps[2])
    return triplet_loss(s_pos, s_neg, config.margin), s_pos, s_neg, tape


def make_instance(seed, mixture="local", complex_valued=True, norm=None,
                  dropout_rate=0.0, mask_seed=None):
    rng = np.random.default_rng(seed)
    config = TrainerConfig(
        embedding_dim=4,
        num_measurements=3,
        window_sizes=(1, 2),
        mixture=mixture,
        complex_valued=complex_valued,
        dropout_rate=dropout_rate,
        max_sentence_len=40,
        seed=seed,
    )
    params = init_parameters(VOCAB, config)
    # move the measurements off the one-hot start (keep unit rows)
    raw = rng.normal(size=params.measurements.shape) + (
        1j * rng.normal(size=params.measurements.shape)
        if complex_valued
        else 0.0
    )
    params.measurements = (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(
        np.complex128
    )
    # Never index the padding row: its near-zero norm makes the loss too
    # curved for a first-order difference to resolve.  Tokens are sampled
    # without replacement inside each sentence because a repeated token can
    # make two windows mix to the same state, parking the max-pool on an
    # exact tie that roundoff flips under perturbation.
    ids = np.arange(1, len(VOCAB))
    q = rng.choice(ids, size=rng.integers(2, 5), replace=False)
    p = rng.choice(ids, size=rng.integers(2, 6), replace=False)
    n = rng.choice(ids, size=rng.integers(2, 6), replace=False)
    if norm is not None:
        # one question word far above its neighbours' norms (about 0.4)
        row = params.amplitude[q[0]]
        row *= norm / np.linalg.norm(row)
    # pick a margin that keeps the hinge strictly open at the base point
    _, s_pos, s_neg, _ = forward_triplet(q, p, n, params, config, mask_seed)
    config = config.with_overrides(margin=max(0.05, s_pos - s_neg + 0.2))
    return q, p, n, params, config


def eval_loss(q, p, n, params, config, mask_seed=None):
    loss, _, _, tape = forward_triplet(q, p, n, params, config, mask_seed)
    pool_state = tuple(int(x) for s in range(3) for x in tape.winners(s).ravel())
    return loss, (loss > 0.0, pool_state)


def fd_class(view, q, p, n, params, config, base_sig, mask_seed=None):
    """Central-difference gradient for one real-valued parameter view.

    Returns (gradient, validity mask); a coordinate is invalid when either
    one-sided evaluation changed the pooling winners or hinge activity.
    """
    grad = np.zeros(view.shape)
    valid = np.ones(view.shape, dtype=bool)
    # index element-wise: .real/.imag views are non-contiguous, so ravel()
    # would hand back a detached copy
    for idx in np.ndindex(view.shape):
        orig = view[idx]
        view[idx] = orig + FD_STEP
        f_plus, sig_plus = eval_loss(q, p, n, params, config, mask_seed)
        view[idx] = orig - FD_STEP
        f_minus, sig_minus = eval_loss(q, p, n, params, config, mask_seed)
        view[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * FD_STEP)
        valid[idx] = sig_plus == base_sig and sig_minus == base_sig
    return grad, valid


def compare_class(name, analytic, fd, valid):
    assert valid.mean() > 0.8, f"{name}: too many kink-adjacent coordinates"
    a = analytic.ravel()[valid.ravel()]
    f = fd.ravel()[valid.ravel()]
    rel = np.linalg.norm(a - f) / max(np.linalg.norm(f), 1e-6)
    assert rel <= REL_TOL, f"{name}: relative error {rel:.2e}"


def dense_rows(grads, params):
    """The amplitude and phase gradients on every vocabulary row (zero on
    the rows the gradient set does not touch)."""
    d_amplitude = np.zeros_like(params.amplitude)
    d_phase = np.zeros_like(params.phase)
    d_amplitude[grads.rows] = grads.d_amplitude
    d_phase[grads.rows] = grads.d_phase
    return d_amplitude, d_phase


def run_fd_check(seed, mixture="local", complex_valued=True, norm=None,
                 dropout_rate=0.0, mask_seed=None):
    q, p, n, params, config = make_instance(
        seed, mixture, complex_valued, norm, dropout_rate, mask_seed
    )
    (loss,), grads = batch_grad([(q, p, n)], params, config, mask_rng(mask_seed))
    assert loss > 0.0
    d_amplitude, d_phase = dense_rows(grads, params)
    _, base_sig = eval_loss(q, p, n, params, config, mask_seed)

    def fd(view):
        return fd_class(view, q, p, n, params, config, base_sig, mask_seed)

    compare_class("amplitude", d_amplitude, *fd(params.amplitude))
    compare_class("measurement.re", grads.d_measurements.real,
                  *fd(params.measurements.real))
    if complex_valued:
        compare_class("phase", d_phase, *fd(params.phase))
        compare_class("measurement.im", grads.d_measurements.imag,
                      *fd(params.measurements.imag))
    else:
        # frozen by policy in the real-only ablation
        assert np.all(grads.d_phase == 0.0)
        assert np.all(grads.d_measurements.imag == 0.0)
    return grads


@pytest.mark.parametrize(
    "seed, norm",
    [*((s, None) for s in range(8)), (11, 60.0)],
    ids=[*map(str, range(8)), "norm-gap-60"],
)
def test_fd_agreement_local_mixture(seed, norm):
    run_fd_check(seed, norm=norm)


@pytest.mark.parametrize("seed", (3, 17))
def test_fd_agreement_global_mixture(seed):
    run_fd_check(seed, mixture="global")


@pytest.mark.parametrize("seed", (5, 23))
def test_fd_agreement_real_only_model(seed):
    run_fd_check(seed, complex_valued=False)


@pytest.mark.parametrize(
    "seed, mixture, dropout_rate, mask_seed",
    [(6, "local", 0.5, 40), (6, "global", 0.5, 40), (11, "local", 0.9, 11)],
    ids=["local", "global", "local-default-rate"],
)
def test_fd_agreement_under_dropout(seed, mixture, dropout_rate, mask_seed):
    # one seed's masks at every evaluation: the masked loss is a fixed
    # function.  At 0.9 the backward pass skips most pooled entries and
    # tokens; mask seed 11 keeps an entry of every sentence there.
    grads = run_fd_check(seed, mixture=mixture, dropout_rate=dropout_rate,
                         mask_seed=mask_seed)
    assert np.count_nonzero(grads.d_amplitude) and np.count_nonzero(grads.d_phase)


# ------------------------------------------------------------- cosine grad


def test_cosine_grad_matches_fd():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.1, 1.0, size=6)
    v = rng.uniform(0.1, 1.0, size=6)
    g_u, g_v = cosine_grad(u, v, cosines(u, v), 1.0)
    h = 1e-7
    for vec, grad in ((u, g_u), (v, g_v)):
        fd = np.zeros_like(vec)
        for i in range(vec.size):
            orig = vec[i]
            vec[i] = orig + h
            f_plus = score(u, v)
            vec[i] = orig - h
            f_minus = score(u, v)
            vec[i] = orig
            fd[i] = (f_plus - f_minus) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-7)


def test_cosine_grad_scales_with_upstream():
    rng = np.random.default_rng(9)
    u, v = rng.uniform(size=5), rng.uniform(size=5)
    g1_u, g1_v = cosine_grad(u, v, cosines(u, v), 1.0)
    g2_u, g2_v = cosine_grad(u, v, cosines(u, v), -2.5)
    np.testing.assert_allclose(g2_u, -2.5 * g1_u, atol=1e-14)
    np.testing.assert_allclose(g2_v, -2.5 * g1_v, atol=1e-14)


def test_cosine_grad_zero_vector_yields_zero():
    u, v = np.zeros(4), np.ones(4)
    g_u, g_v = cosine_grad(u, v, cosines(u, v), 1.0)
    assert np.all(g_u == 0.0)
    assert np.all(g_v == 0.0)


def one_pair_cosine_grad(u, v, g_s):
    """The one-pair formula on ``score``'s norms and dot product."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return np.zeros_like(u), np.zeros_like(v)
    s = score(u, v)
    return (g_s * (v / (nu * nv) - s * u / (nu * nu)),
            g_s * (u / (nu * nv) - s * v / (nv * nv)))


def test_cosine_grad_on_stacked_rows_equals_one_pair_at_a_time():
    rng = np.random.default_rng(12)
    u = rng.uniform(0.0, 1.0, size=(20, 12))
    v = rng.uniform(0.0, 1.0, size=(20, 12))
    u[3] = 0.0
    v[5] *= 1e-13          # under the zero-norm guard
    g_s = rng.normal(size=20)
    g_u, g_v = cosine_grad(u, v, cosines(u, v), g_s)
    for i in range(20):
        want_u, want_v = one_pair_cosine_grad(u[i], v[i], g_s[i])
        np.testing.assert_allclose(g_u[i], want_u, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g_v[i], want_v, rtol=0, atol=1e-15)
    for i in (3, 5):
        assert np.all(g_u[i] == 0.0) and np.all(g_v[i] == 0.0)


def test_batch_grad_losses_equal_the_one_triplet_hinge():
    triplets, params, config = batch_instance(0.0)
    losses, _ = batch_grad(triplets, params, config)
    for loss, (q, p, n) in zip(losses, triplets):
        want, *_ = forward_triplet(q, p, n, params, config)
        assert abs(loss - want) <= 1e-15


def test_batch_grad_scores_and_differentiates_both_answers_in_one_call(monkeypatch):
    # one cosines call scores the batch, and one cosine_grad call
    # differentiates every open hinge from that call's rows
    calls = {"cosines": 0, "cosine_grad": 0}

    def counted(name):
        real = getattr(gradients, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gradients, name, counted(name))
    triplets, params, config = batch_instance(0.0)
    losses, _ = batch_grad(triplets, params, config)
    assert 0 < sum(loss > 0.0 for loss in losses) < len(losses)
    assert calls == {"cosines": 1, "cosine_grad": 1}


def test_nan_representation_gives_a_nan_loss():
    triplets, params, config = batch_instance(0.0)
    word = triplets[1][2][0]                   # a word of triplet 1's negative
    params.phase[word] = np.nan
    losses, grads = batch_grad(triplets, params, config)
    holds = [any(word in ids for ids in t) for t in triplets]
    assert holds[1] and not all(holds)
    assert np.array_equal(np.isnan(losses), holds)
    # the NaN triplet is not an open hinge, so no gradient flows from it
    assert np.isfinite(grads.d_measurements).all()


# -------------------------------------------------------------- hinge edges


def test_inactive_hinge_produces_zero_gradient():
    rng = np.random.default_rng(31)
    config = TrainerConfig(
        embedding_dim=4, num_measurements=3, window_sizes=(1, 2),
        dropout_rate=0.0, margin=0.1,
    )
    params = init_parameters(VOCAB, config)
    q = rng.integers(1, len(VOCAB), size=3)
    # positive identical to the question, negative different: the rank gap
    # exceeds any reasonable margin, so the hinge is closed
    p = q.copy()
    n = rng.integers(1, len(VOCAB), size=4)
    loss, s_pos, s_neg, _ = forward_triplet(q, p, n, params, config)
    if loss == 0.0:
        (loss2,), grads = batch_grad([(q, p, n)], params, config)
        assert loss2 == 0.0
        assert np.all(grads.d_amplitude == 0.0)
        assert np.all(grads.d_phase == 0.0)
        assert np.all(grads.d_measurements == 0.0)


def test_triplet_grad_deterministic():
    q, p, n, params, config = make_instance(42)
    _, g1 = batch_grad([(q, p, n)], params, config)
    _, g2 = batch_grad([(q, p, n)], params, config)
    assert np.array_equal(g1.d_amplitude, g2.d_amplitude)
    assert np.array_equal(g1.d_phase, g2.d_phase)
    assert np.array_equal(g1.d_measurements, g2.d_measurements)


def test_gradient_set_accumulation_arithmetic():
    # a batch holding the triplet twice sums two equal gradients
    q, p, n, params, config = make_instance(11)
    _, g1 = batch_grad([(q, p, n)], params, config)
    _, g2 = batch_grad([(q, p, n), (q, p, n)], params, config)
    g2.scale_(0.5)
    assert np.array_equal(g2.rows, g1.rows)
    np.testing.assert_allclose(g2.d_amplitude, g1.d_amplitude, atol=1e-14)
    np.testing.assert_allclose(g2.d_measurements, g1.d_measurements, atol=1e-14)


def test_identical_answers_cancel_exactly():
    # with positive == negative the loss sits at exactly the margin and the
    # two cosine branches are exact negations of each other, so every
    # accumulated gradient must cancel to zero
    q, p, _, params, config = make_instance(13)
    (loss,), grads_same = batch_grad([(q, p, p.copy())], params, config)
    assert abs(loss - config.margin) < 1e-15
    assert np.all(grads_same.d_amplitude == 0.0)
    assert np.all(grads_same.d_phase == 0.0)
    assert np.all(grads_same.d_measurements == 0.0)


# ------------------------------------------------- batched and single pass


def batch_instance(dropout_rate):
    """Triplets sharing words across sentences, with one-word sentences and
    an answer equal to its question (a closed hinge)."""
    rng = np.random.default_rng(8)
    config = TrainerConfig(
        embedding_dim=4, num_measurements=3, window_sizes=(1, 2, 3),
        dropout_rate=dropout_rate, margin=0.2, max_sentence_len=7, seed=3,
    )
    params = init_parameters(VOCAB, config)
    raw = rng.normal(size=params.measurements.shape) + 1j * rng.normal(
        size=params.measurements.shape
    )
    params.measurements = raw / np.linalg.norm(raw, axis=1)[:, None]

    def ids(size):
        return rng.integers(1, len(VOCAB), size=size)

    q = ids(3)
    triplets = [
        (q, q.copy(), ids(5)),
        (ids(4), ids(9), ids(1)),
        (ids(1), ids(3), ids(6)),
        (q, ids(6), ids(2)),
        (ids(5), ids(5), ids(5)),
    ]
    return triplets, params, config


# Without dropout only: a batch draws its dropout masks as whole blocks,
# which one-triplet batches do not replay; test_fd_agreement_under_dropout
# checks the gradient under dropout instead.
@pytest.mark.parametrize("dropout_rate", (0.0,), ids=["eval"])
def test_batch_grad_losses_and_rows_equal_one_triplet_at_a_time(dropout_rate):
    triplets, params, config = batch_instance(dropout_rate)
    losses, grads = batch_grad(triplets, params, config, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    alone = [batch_grad([t], params, config, rng) for t in triplets]
    assert losses == [loss for (loss,), _ in alone]
    assert 0.0 in losses and max(losses) > 0.0
    # sorted, unique, and the words of the open triplets only
    assert np.array_equal(grads.rows, np.unique(grads.rows))
    open_rows = np.concatenate([g.rows for (loss,), g in alone if loss > 0.0])
    assert np.array_equal(grads.rows, np.unique(open_rows))


@pytest.mark.parametrize(
    "dropout_rate, picks",
    [(0.0, [1, 2, 3]), (0.0, [1, 0, 3, 4])],
    ids=["eval", "eval-two-open"],
)
def test_batch_grad_with_one_open_hinge_is_that_triplets_gradient(
    dropout_rate, picks
):
    # closed hinges add nothing, so the batch's gradient is that of a batch
    # of its open triplets alone, bit for bit
    triplets, params, config = batch_instance(dropout_rate)
    batch = [triplets[i] for i in picks]
    losses, grads = batch_grad(batch, params, config, np.random.default_rng(4))
    open_ = np.flatnonzero(losses)
    assert open_[0] > 0               # a closed hinge runs first
    alone_losses, alone = batch_grad([batch[t] for t in open_], params, config)
    assert alone_losses == [losses[t] for t in open_]
    assert np.array_equal(grads.rows, alone.rows)
    assert np.array_equal(grads.d_amplitude, alone.d_amplitude)
    assert np.array_equal(grads.d_phase, alone.d_phase)
    assert np.array_equal(grads.d_measurements, alone.d_measurements)


@pytest.mark.parametrize("mixture", ["local", "global"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.5], ids=["eval", "dropout"])
def test_backward_batch_reads_only_the_listed_sentences_rows(mixture, dropout_rate):
    # a NaN word read only by an unlisted sentence stays out of the gradient:
    # the word stage's chain runs over the rows the listed sentences read
    config = TrainerConfig(
        embedding_dim=4, num_measurements=3, mixture=mixture,
        window_sizes=(1, 2) if mixture == "local" else (1,),
        dropout_rate=dropout_rate, max_sentence_len=7, seed=3,
    )
    params = init_parameters(VOCAB, config)
    nan_word = len(VOCAB) - 1
    params.phase[nan_word] = np.nan
    rng = np.random.default_rng(12)
    batch = [rng.integers(1, nan_word, size=L) for L in (3, 5, 1, 4)]
    batch[1][2] = nan_word
    reps, tape = forward_batch(batch, params, config, rng if dropout_rate else None)
    assert np.isnan(reps[1]).all() and np.isfinite(np.delete(reps, 1, axis=0)).all()
    listed = [0, 2, 3]
    g = rng.normal(size=(len(listed), reps.shape[1]))
    grads = gradients.backward_batch(g, tape, listed, params, config)
    assert nan_word not in grads.rows
    for block in (grads.d_amplitude, grads.d_phase, grads.d_measurements):
        assert np.isfinite(block).all()


@pytest.mark.parametrize("dropout_rate", [0.0, 0.9], ids=["eval", "dropout"])
def test_backward_batch_rejects_a_gradient_of_the_wrong_shape(dropout_rate):
    # on every tape, eval or dropout, one row would otherwise stand in for
    # every listed sentence's
    triplets, params, config = batch_instance(dropout_rate)
    sentences = [ids for triplet in triplets for ids in triplet]
    rng = np.random.default_rng(1) if dropout_rate else None
    reps, tape = forward_batch(sentences, params, config, rng)
    listed = [0, 4, 7]
    for g in (reps[:1], reps[:2], reps[:3, :-1]):
        with pytest.raises(ShapeError):
            gradients.backward_batch(g, tape, listed, params, config)


def test_backward_batch_rejects_a_sentence_listed_twice():
    triplets, params, config = batch_instance(0.9)
    sentences = [ids for triplet in triplets for ids in triplet]
    reps, tape = forward_batch(sentences, params, config, np.random.default_rng(1))
    with pytest.raises(ShapeError):
        gradients.backward_batch(reps[:3], tape, [0, 4, 0], params, config)


@pytest.mark.parametrize("mixture", ["local", "global"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.3, 0.9])
def test_skipping_the_dropped_terms_equals_the_dense_pass(mixture, dropout_rate):
    # the reference sums every term, pooled mask folded into g_reps: the
    # terms backward_batch skips are exact zeros, on eval tapes too
    triplets, params, config = batch_instance(dropout_rate)
    # two sizes, three measurements: an entry's size and column differ
    config = config.with_overrides(mixture=mixture, window_sizes=(1, 3))
    sentences = [ids for triplet in triplets for ids in triplet]
    rng = np.random.default_rng(6)
    reps, tape = forward_batch(sentences, params, config, rng)
    assert (tape.pooled_mask is None) == (dropout_rate == 0.0)
    listed = np.delete(np.arange(len(sentences)), [2, 5])
    g = rng.normal(size=(listed.size, reps.shape[1]))
    # exact zeros that no dropout drew: two whole rows and single entries
    g[rng.choice(listed.size, size=2, replace=False)] = 0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    grads = gradients.backward_batch(g, tape, listed, params, config)
    dense = all_terms_backward(g, tape, listed, params, config)
    for name in ("rows", "d_amplitude", "d_phase"):
        assert np.array_equal(getattr(grads, name), getattr(dense, name)), name
    # one product over fewer zero rows: the same sum, rounded apart
    assert np.allclose(grads.d_measurements, dense.d_measurements,
                       rtol=1e-12, atol=1e-15)
    assert np.count_nonzero(grads.d_amplitude)


def kept_window_tokens(tape, listed, g):
    """Tokens that the winning windows of the listed sentences' pooled
    entries with a nonzero gradient read: those a window's softmax weighs
    above 0."""
    if tape.pooled_mask is not None:
        g = g * tape.pooled_mask[listed]
    B = tape.window_probs.shape[1]
    read = []
    for s, g_s in zip(listed, g):
        kept = g_s.reshape(B, -1) != 0
        win = tape.starts[s] + tape.winners(s)[kept]
        size = np.nonzero(kept)[0]
        read.append(tape.window_pos[win][tape.window_weights[win, size] > 0])
    return np.unique(np.concatenate(read), return_inverse=True)[0]


def unread_backward(dropout_rate, seed):
    """(grads, tape, listed, listed tokens, g, read tokens, params, config) of
    backward_batch over all but one sentence of ``batch_instance``.  At
    dropout 0 (an eval tape, one table row per word) the model has two
    measurements, and g is zeroed on five of every seven listed sentences
    and on a tenth of the other entries, so that some words no winning
    window reads."""
    triplets, params, config = batch_instance(dropout_rate)
    if not dropout_rate:
        config = config.with_overrides(num_measurements=2)
        params = init_parameters(VOCAB, config)
    sentences = [ids for triplet in triplets for ids in triplet]
    reps, tape = forward_batch(sentences, params, config, np.random.default_rng(seed))
    listed = np.delete(np.arange(len(sentences)), 5)
    tokens = np.concatenate([np.arange(tape.rows.size)[tape.span(s)] for s in listed])
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(listed.size, reps.shape[1]))
    if not dropout_rate:
        g[np.arange(listed.size) % 7 > 1] = 0.0
        g[rng.random(g.shape) < 0.1] = 0.0
    grads = gradients.backward_batch(g, tape, listed, params, config)
    read = kept_window_tokens(tape, listed, g)
    return grads, tape, listed, tokens, g, read, params, config


def test_a_word_no_kept_window_reads_keeps_a_zero_gradient_row():
    for dropout_rate in (0.9, 0.0):
        grads, tape, _, tokens, _, read, _, _ = unread_backward(dropout_rate, 2)
        words = tape.words[tape.rows[tokens]]
        unread = np.setdiff1d(words, tape.words[tape.rows[read]])
        assert unread.size, dropout_rate
        # rows lists every word the listed sentences read, kept window or not
        assert np.array_equal(grads.rows, np.unique(words, return_inverse=True)[0])
        at = np.searchsorted(grads.rows, unread)
        assert np.all(grads.d_amplitude[at] == 0.0)
        assert np.all(grads.d_phase[at] == 0.0)
        assert np.count_nonzero(grads.d_amplitude) and np.count_nonzero(grads.d_phase)


def test_tokens_no_kept_window_reads_stay_out_of_the_chain():
    # poisoning the word-stage rows that no read token lands on changes no
    # bit of the gradient; on an eval tape a row serves several tokens
    for dropout_rate in (0.9, 0.0):
        grads, tape, listed, tokens, g, read, params, config = unread_backward(
            dropout_rate, 2
        )
        unread = np.setdiff1d(tape.rows[tokens], tape.rows[read])
        assert unread.size, dropout_rate
        states, inner = tape.states.copy(), tape.inner.copy()
        states[unread] = inner[unread] = np.nan
        poisoned = gradients.backward_batch(
            g, replace(tape, states=states, inner=inner), listed, params, config
        )
        for name in ("rows", "d_amplitude", "d_phase", "d_measurements"):
            block = getattr(poisoned, name)
            assert np.isfinite(block).all()
            assert np.array_equal(block, getattr(grads, name)), (dropout_rate, name)
