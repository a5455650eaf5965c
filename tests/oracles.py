"""Closed-form oracles that only the tests call.

``complex_add_polar`` is polar-form complex addition, checked against
rectangular addition.  ``identity_counterexample_gap`` is the self-overlap
gap of the two-state family that the audit injects as the trace inner
product's identity counterexample.  ``pairwise_table`` is a measure's audit
table from one plain call per pair, the oracle the stacked tables are
pinned against; ``pairwise_measure`` makes it a registry row, which a test
installs in ``density_metrics._MEASURES`` to audit a plain function.
``all_terms_backward`` is ``gradients.backward_batch`` with no term
skipped, the reference its skip of exact-zero terms is pinned against.
"""

import functools
import math

import numpy as np

from qmatch.density_metrics import _I, _J, _two_state_family, trace_inner_product
from qmatch.errors import DomainError
from qmatch.matcher import matmul_rows
from qmatch.model import GLOBAL_MIXTURE, GradientSet


def complex_add_polar(
    r1: float, theta1: float, r2: float, theta2: float
) -> tuple[float, float]:
    """Add two complex numbers given in polar form, returning polar form.

    Magnitude: r = sqrt(r1^2 + r2^2 + 2 r1 r2 cos(d)), d = theta2 - theta1,
    evaluated in the half-angle form (r1+r2)^2 - 4 r1 r2 sin^2(d/2) while
    cos(d) >= 0, so that aligned phases degenerate to plain real addition
    without roundoff.  Past that the form would cancel, so near-opposite
    phases use (r1-r2)^2 + 4 r1 r2 cos^2(d/2), a sum of non-negative
    terms with cos(d/2) taken as sin((pi - d)/2).  Angle: atan2 of the
    rectangular components; a zero-length result takes theta = 0 by
    convention.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if r < 0.0 or not math.isfinite(r):
            raise DomainError(f"{name} must be a finite non-negative magnitude, got {r}")
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise DomainError("phases must be finite")
    delta = theta2 - theta1
    half_sin_sq = math.sin(0.5 * delta) ** 2
    if half_sin_sq <= 0.5:
        radicand = (r1 + r2) ** 2 - 4.0 * r1 * r2 * half_sin_sq
    else:
        half_cos = math.sin(0.5 * (math.pi - delta))
        radicand = (r1 - r2) ** 2 + 4.0 * r1 * r2 * half_cos**2
    r = math.sqrt(max(radicand, 0.0))
    if r == 0.0:
        return 0.0, 0.0
    re = r1 * math.cos(theta1) + r2 * math.cos(theta2)
    im = r1 * math.sin(theta1) + r2 * math.sin(theta2)
    return r, math.atan2(im, re)


def identity_counterexample_gap(alpha: float) -> float:
    """Self-overlap gap tr(rho_a^2) - tr(rho_a rho_b) for the two-state family
    rho_a = alpha P1 + (1-alpha) P2, rho_b = P1 over an orthonormal pair.

    Equals 2*alpha^2 - 3*alpha + 1 = (alpha-1)(2*alpha-1); its sign change
    across alpha = 1/2 shows the trace inner product can rate a *different*
    matrix above a matrix's own self-similarity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    rho_a, p1, _ = _two_state_family(alpha)
    return trace_inner_product(rho_a, rho_a) - trace_inner_product(rho_a, p1)


def pairwise_table(fn, mats: np.ndarray) -> np.ndarray:
    """``fn``'s audit table over an (n, 3, d, d) stack of trials: one plain
    call per trial and pair of ``density_metrics._PAIRS``."""
    return np.array([[fn(trio[i], trio[j]) for i, j in zip(_I, _J)] for trio in mats])


def pairwise_measure(kind: str, fn) -> tuple:
    """A ``density_metrics._MEASURES`` row that audits ``fn`` as ``kind``
    through ``pairwise_table``."""
    return kind, fn, functools.partial(pairwise_table, fn), "one plain call per pair"


def all_terms_backward(g_reps, tape, sentences, params, config) -> GradientSet:
    """dLoss/dParams of the tape's listed ``sentences`` with every term
    summed: every (sentence, size, measurement) pooled entry, the pooled
    dropout mask folded into ``g_reps``, and every listed token.  Each table
    row the listed sentences read sums its tokens' terms in tape order, then
    the word stage's chain runs over every such row.  ``np.add.at`` adds in
    index order from zero, as ``np.bincount`` does."""
    sel = np.asarray(sentences)
    k = params.k
    T = tape.rows.size
    listed = np.zeros(T, dtype=bool)
    for s in sel:
        listed[tape.span(s)] = True
    g = g_reps if tape.pooled_mask is None else g_reps * tape.pooled_mask[sel]

    g_sq, g_pi = np.zeros((T, k)), np.zeros(T)
    if config.mixture == GLOBAL_MIXTURE:
        for s, g_s in zip(sel, g):
            g_sq[tape.span(s)] = g_s / tape.lengths[s]
    else:
        # per size, only each measurement's winning window was pooled
        B = tape.window_probs.shape[1]
        win = np.stack([tape.starts[s] + tape.winners(s) for s in sel])   # (M, B, k)
        size, col = np.arange(B)[:, None], np.arange(k)
        pos = tape.window_pos[win]                                         # (M, B, k, W)
        a = tape.window_weights[win, size]
        pooled = tape.window_probs[win, size, col][..., None]
        col = col[..., None]
        g_a = g.reshape(sel.size, B, k)[..., None] * a
        np.add.at(g_sq, (pos, col), g_a)
        window_sq = tape.inner_sq[tape.rows[pos], col]
        np.add.at(g_pi, pos, g_a * (window_sq - pooled))

    used, rows = np.unique(tape.rows[listed], return_inverse=True)
    row_sq, row_pi = np.zeros((used.size, k)), np.zeros(used.size)
    np.add.at(row_sq, rows, g_sq[listed])
    np.add.at(row_pi, rows, g_pi[listed])
    touched, ids = np.unique(tape.words[used], return_inverse=True)

    states, pi = tape.states[used], tape.pi[used]
    amp_eff, eiph = tape.amp_eff[used], tape.eiph[used]
    g_inner = 2.0 * tape.inner[used] * row_sq
    g_states = matmul_rows(g_inner, params.measurements)
    radial = np.einsum("ld,ld->l", g_states.conj(), states).real
    row_pi = row_pi - radial / pi
    g_w = g_states / pi[:, None]
    mask = tape.emb_mask[used] if tape.emb_mask is not None else 1.0
    g_amp = (g_w.conj() * eiph).real * mask
    g_amp += (row_pi / pi)[:, None] * (mask * amp_eff)
    g_phase = -(g_w.conj() * (amp_eff * eiph)).imag
    dead = ~tape.alive[used]
    g_amp[dead] = g_phase[dead] = 0.0

    d_amplitude = np.zeros((touched.size, params.dim))
    d_phase = np.zeros((touched.size, params.dim))
    np.add.at(d_amplitude, ids, g_amp)
    np.add.at(d_phase, ids, g_phase)
    grads = GradientSet(d_amplitude, d_phase, g_inner.conj().T @ states, touched)
    if not config.complex_valued:
        grads.d_phase[:] = 0.0
        grads.d_measurements.imag = 0.0
    return grads
