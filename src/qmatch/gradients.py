"""Analytic reverse pass for the triplet matching loss.

Gradients are derived by hand through the factored forward form: the
measurement probability of a window is sum_i p(w_i) |<v|w_i>|^2, so the
chain runs through complex inner products, the norm softmax, the norm
itself and the polar word assembly, never materialising a density
matrix.  Max-pooling routes gradient only into each measurement's
winning window, whose softmax weights the tape keeps.  Complex gradients
are packed: for a complex intermediate z the array holds
dL/dRe(z) + i*dL/dIm(z), which makes the two bilinear rules

    z = sum_d conj(v_d) u_d   =>   g_u += g_z * v,   g_v += conj(g_z) * u

the only complex calculus needed.

``backward_batch`` differentiates a whole ``forward_batch`` tape in one
pass, and ``batch_grad`` runs one SGD batch of triplets through both,
with dropout exactly when it is given a generator; one ``matcher.cosines``
call scores both answers, and one ``cosine_grad`` call differentiates that
call's open rows.
A gradient set covers the touched vocabulary rows only; token gradients
reach each row in tape order.  The backward pass skips the terms that add
exact zeros: the pooled entries with a zero gradient (those dropout
dropped among them), and the tokens that no kept entry's winning window
reads.
The real-valued ablation zeroes the phase gradient and the measurements'
imaginary part.  ``triplet_grad`` and ``backward_sentence`` are
batches of one that only the tracer calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .matcher import BatchTape, cosines, forward_batch, matmul_rows, triplet_loss
from .model import GLOBAL_MIXTURE, GradientSet, ParameterSet, TrainerConfig


def cosine_grad(
    u: np.ndarray, v: np.ndarray, scored, g_s
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of g_s * cosine(u, v) wrt u and v, row pair by row pair over
    the last axis (zero for a pair with a zero row).  ``scored`` is the
    ``matcher.cosines(u, v)`` tuple; ``g_s`` is a number or an array that
    broadcasts over the pairs."""
    s, nu, nv, zero = scored
    g_s = np.where(zero, 0.0, np.asarray(g_s, dtype=np.float64)[..., None])
    g_u = g_s * (v / (nu * nv) - s * u / (nu * nu))
    g_v = g_s * (u / (nu * nv) - s * v / (nv * nv))
    return g_u, g_v


def _row_sums(rows: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """(count, n) sums of ``values`` by row index ``rows``, as one bincount:
    each row adds its values in their order."""
    n = values.shape[1]
    flat = (rows[:, None] * n + np.arange(n)).ravel()
    sums = np.bincount(flat, values.ravel(), minlength=count * n)
    return sums.astype(np.float64, copy=False).reshape(count, n)  # int64 when empty


def backward_batch(
    g_reps: np.ndarray,
    tape: BatchTape,
    sentences,
    params: ParameterSet,
    config: TrainerConfig,
) -> GradientSet:
    """dLoss/dParams of the tape's ``sentences``, which are distinct.

    ``g_reps`` holds one representation gradient per listed sentence, shape
    (len(sentences), R).  The amplitude and phase gradients cover the
    vocabulary rows the listed sentences read (``rows``, ascending).

    Terms that add exact zeros are skipped: the window half runs over the
    pooled entries with a nonzero gradient only, after the pooled dropout
    mask is folded in, and the word stage's chain over the table rows
    that their winning windows read.  Each such row sums its read tokens'
    terms in tape order.  A word no such window reads keeps its row in
    ``rows``, with an exactly zero gradient.
    """
    sel = np.asarray(sentences, dtype=np.int64)
    M = sel.size
    k = params.k
    N, T = tape.lengths.size, tape.rows.size
    hit = np.bincount(sel, minlength=N) > 0
    if g_reps.shape != (M, config.representation_len) or np.count_nonzero(hit) != M:
        raise ShapeError(
            f"need one gradient row of length {config.representation_len} per "
            f"distinct listed sentence, got {g_reps.shape} for {M} listed"
        )
    # the listed sentences' tokens, on the tape's token axis
    listed = np.repeat(hit, tape.lengths)
    g = g_reps * tape.pooled_mask[sel] if tape.pooled_mask is not None else g_reps

    if config.mixture == GLOBAL_MIXTURE:
        g_sq = np.zeros((N, k))
        g_sq[sel] = g / tape.lengths[sel][:, None]
        g_sq = np.repeat(g_sq, tape.lengths, axis=0)
        g_pi = np.zeros(T)
        read = listed
    else:
        # per size, only each measurement's winning window was pooled
        B = tape.window_probs.shape[1]
        win = np.empty((M, B, k), dtype=np.intp)
        for i, s in enumerate(sel):
            tape.winners(s, out=win[i])
        win += tape.starts[sel][:, None, None]                      # tape tokens
        # (sentence, size, measurement) entries with a nonzero gradient
        kept = np.flatnonzero(g)
        g, win = g.ravel()[kept], win.ravel()[kept]
        size, col = kept // k % B, kept % k
        pos = tape.window_pos[win]                                   # (E, W)
        a = tape.window_weights[win, size]                           # (E, W)
        pooled = tape.window_probs[win, size, col][:, None]
        col = col[:, None]
        # pooled = sum_o a_o inner_sq_o with a = softmax of pi over the window
        g_a = g[:, None] * a                             # d pooled/d inner_sq_o
        g_sq = np.bincount((pos * k + col).ravel(), g_a.ravel(), minlength=T * k)
        g_sq = g_sq.reshape(T, k)
        window_sq = tape.inner_sq[tape.rows[pos], col]
        g_pi_win = g_a * (window_sq - pooled)            # d pooled/d pi_o
        g_pi = np.bincount(pos.ravel(), g_pi_win.ravel(), minlength=T)
        read = np.zeros(T, dtype=bool)
        read[pos[a > 0]] = True                       # off-window offsets weigh 0

    # each table row a read token lands on sums its tokens' terms in tape order
    used, rows = np.unique(tape.rows[read], return_inverse=True)
    g_sq = _row_sums(rows, g_sq[read], used.size)
    g_pi = np.bincount(rows, g_pi[read], minlength=used.size)
    # every word the listed sentences read (a plain np.unique imports numpy.ma)
    touched = np.unique(tape.words[tape.rows[listed]], return_inverse=True)[0]
    ids = np.searchsorted(touched, tape.words[used])

    states = tape.states[used]
    pi = tape.pi[used]
    amp_eff = tape.amp_eff[used]
    eiph = tape.eiph[used]

    # inner_sq = |inner|^2
    g_inner = 2.0 * tape.inner[used] * g_sq
    # inner[i, k] = sum_d conj(M[k, d]) states[i, d]
    g_states = matmul_rows(g_inner, params.measurements)

    # states = W / pi with W the masked polar row; radial part feeds the norm
    radial = np.einsum("ld,ld->l", g_states.conj(), states).real
    g_pi = g_pi - radial / pi
    g_w = g_states / pi[:, None]

    mask = tape.emb_mask[used] if tape.emb_mask is not None else 1.0
    # W = mask * amp * e^{i phase};  pi = ||mask * amp||
    g_amp = (g_w.conj() * eiph).real * mask
    g_amp += (g_pi / pi)[:, None] * (mask * amp_eff)
    g_phase = -(g_w.conj() * (amp_eff * eiph)).imag

    dead = ~tape.alive[used]
    g_amp[dead] = g_phase[dead] = 0.0

    grads = GradientSet(
        d_amplitude=_row_sums(ids, g_amp, touched.size),
        d_phase=_row_sums(ids, g_phase, touched.size),
        d_measurements=g_inner.conj().T @ states,
        rows=touched,
    )
    if not config.complex_valued:
        grads.d_phase[:] = 0.0
        grads.d_measurements.imag = 0.0
    return grads


def backward_sentence(
    g_rep: np.ndarray,
    tape: BatchTape,
    params: ParameterSet,
    config: TrainerConfig,
) -> GradientSet:
    """dLoss/dParams of the tape's sentence 0.  The package never calls it:
    ``bench/tracing.py`` wraps it by name."""
    return backward_batch(g_rep[None, :], tape, [0], params, config)


def batch_grad(
    triplets,
    params: ParameterSet,
    config: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[list[float], GradientSet]:
    """Losses and gradients of (q, a+, a-) triplets: one forward, one backward.

    The sentences run in q, a+, a- order per triplet.  The hinge
    subgradient at the kink is taken as zero, so an inactive triplet
    contributes nothing.
    """
    sentences = [ids for triplet in triplets for ids in triplet]
    reps, tape = forward_batch(sentences, params, config, rng)
    q, answers = np.split(reps.reshape(len(triplets), 3, -1), [1], axis=1)
    scored = cosines(q, answers)
    s_pos, s_neg = scored[0].transpose(1, 0, 2)
    losses = triplet_loss(s_pos, s_neg, config.margin)
    act = np.flatnonzero(losses > 0.0)
    # d loss = -d s_pos + d s_neg while the hinge is active
    g_q, g_answers = cosine_grad(q[act], answers[act],
                                 [part[act] for part in scored], [-1.0, 1.0])
    g_reps = np.concatenate([g_q[:, :1] + g_q[:, 1:], g_answers], axis=1)
    g_reps = g_reps.reshape(-1, reps.shape[1])
    active = (3 * act[:, None] + np.arange(3)).ravel()
    grads = backward_batch(g_reps, tape, active, params, config)
    return losses.ravel().tolist(), grads


def triplet_grad(
    question: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float, GradientSet]:
    """Loss and gradients of one (q, a+, a-) triplet.  Training calls
    ``batch_grad``; this stays because ``bench/tracing.py`` wraps it."""
    losses, grads = batch_grad([(question, positive, negative)], params, config, rng)
    return losses[0], grads
