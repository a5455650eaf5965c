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
"""

from __future__ import annotations

import numpy as np

from .matcher import SentenceTape, forward_sentence, score, triplet_loss
from .model import GLOBAL_MIXTURE, GradientSet, ParameterSet, TrainerConfig


def cosine_grad(
    u: np.ndarray, v: np.ndarray, g_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of g_s * cosine(u, v) wrt u and v (zero at zero vectors)."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return np.zeros_like(u), np.zeros_like(v)
    s = float(np.dot(u, v) / (nu * nv))
    g_u = g_s * (v / (nu * nv) - s * u / (nu * nu))
    g_v = g_s * (u / (nu * nv) - s * v / (nv * nv))
    return g_u, g_v


def backward_sentence(
    g_rep: np.ndarray,
    tape: SentenceTape,
    params: ParameterSet,
    config: TrainerConfig,
    grads: GradientSet,
) -> None:
    """Accumulate dLoss/dParams for one sentence into ``grads``."""
    L, k = tape.inner_sq.shape

    g = g_rep * tape.pooled_mask if tape.pooled_mask is not None else g_rep

    if config.mixture == GLOBAL_MIXTURE:
        g_sq = np.broadcast_to(g / L, (L, k)).copy()
        g_pi = np.zeros(L)
    else:
        # per size, only each measurement's winning window was pooled
        B = tape.argmax.shape[0]
        cols = np.arange(k)[:, None]
        rows = tape.window_pos[tape.argmax]                          # (B, k, W)
        a = tape.window_weights[np.arange(B)[:, None], tape.argmax]  # (B, k, W)
        pooled = tape.window_probs.max(axis=1)[:, :, None]           # (B, k, 1)
        # pooled = sum_o a_o inner_sq_o with a = softmax of pi over the window
        g_a = g.reshape(B, k, 1) * a                     # d pooled/d inner_sq_o
        g_sq = np.bincount((rows * k + cols).ravel(), g_a.ravel(), minlength=L * k)
        g_sq = g_sq.reshape(L, k)
        g_pi_win = g_a * (tape.inner_sq[rows, cols] - pooled)   # d pooled/d pi_o
        g_pi = np.bincount(rows.ravel(), g_pi_win.ravel(), minlength=L)

    # inner_sq = |inner|^2
    g_inner = 2.0 * tape.inner * g_sq
    # inner[i, k] = sum_d conj(M[k, d]) states[i, d]
    g_states = g_inner @ params.measurements
    g_meas = g_inner.conj().T @ tape.states

    # states = W / pi with W the masked polar row; radial part feeds the norm
    radial = np.einsum("ld,ld->l", g_states.conj(), tape.states).real
    g_pi = g_pi - radial / tape.pi
    g_w = g_states / tape.pi[:, None]

    mask = tape.emb_mask if tape.emb_mask is not None else 1.0
    # W = mask * amp * e^{i phase};  pi = ||mask * amp||
    g_amp = (g_w.conj() * tape.eiph).real * mask
    g_amp += (g_pi / tape.pi)[:, None] * (mask * tape.amp_eff)
    g_phase = -(g_w.conj() * (tape.amp_eff * tape.eiph)).imag

    if not tape.alive.all():
        dead = ~tape.alive
        g_amp[dead] = 0.0
        g_phase[dead] = 0.0

    if not config.complex_valued:
        g_phase[:] = 0.0
        g_meas = g_meas.real.astype(np.complex128)

    np.add.at(grads.d_amplitude, tape.ids, g_amp)
    np.add.at(grads.d_phase, tape.ids, g_phase)
    grads.d_measurements += g_meas


def triplet_forward(
    question: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float, SentenceTape, SentenceTape, SentenceTape]:
    """Shared-question triplet pass; returns loss, both scores and tapes."""
    rep_q, tape_q = forward_sentence(question, params, config, train, rng)
    rep_p, tape_p = forward_sentence(positive, params, config, train, rng)
    rep_n, tape_n = forward_sentence(negative, params, config, train, rng)
    s_pos = score(rep_q, rep_p)
    s_neg = score(rep_q, rep_n)
    loss = triplet_loss(s_pos, s_neg, config.margin)
    return loss, s_pos, s_neg, tape_q, tape_p, tape_n


def triplet_grad(
    question: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
    grads: GradientSet | None = None,
) -> tuple[float, GradientSet]:
    """Loss and accumulated gradients for one (q, a+, a-) triplet.

    The hinge subgradient at the kink is taken as zero, so an inactive
    triplet contributes nothing.
    """
    if grads is None:
        grads = GradientSet.zeros_like(params)
    loss, _, _, tape_q, tape_p, tape_n = triplet_forward(
        question, positive, negative, params, config, train, rng
    )
    if loss > 0.0:
        rep_q = tape_q.representation
        rep_p = tape_p.representation
        rep_n = tape_n.representation
        # d loss = -d s_pos + d s_neg while the hinge is active
        g_q_pos, g_p = cosine_grad(rep_q, rep_p, -1.0)
        g_q_neg, g_n = cosine_grad(rep_q, rep_n, +1.0)
        backward_sentence(g_q_pos + g_q_neg, tape_q, params, config, grads)
        backward_sentence(g_p, tape_p, params, config, grads)
        backward_sentence(g_n, tape_n, params, config, grads)
    return loss, grads
