"""Training objectives: transducer marginal log-loss, CTC, and three
cross entropies against class ids (per frame, over the masked cells of a
label tensor, next token) that share one body. Every loss returns its value,
the exact analytic gradient w.r.t. the input logits, and a scalar node; for
taped logits the node is on the tape, so gradients flow on into model
parameters. The enumeration oracles stay deliberately independent of the
dynamic programs they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import NumericsError, ShapeError
from .numerics import NEG_INF, Tensor


@dataclass
class LossOutput:
    value: float
    grad_logits: np.ndarray
    node: Tensor  # scalar; for Tensor logits, Tape.backward(node) pushes grads into the model


@dataclass
class LogLattice:
    """Forward/backward log variables over the (T, U+1) decoding lattice."""

    alpha: np.ndarray
    beta: np.ndarray
    log_probs: np.ndarray

    def log_likelihood(self) -> float:
        return float(self.beta[0, 0])


def _as_array(logits) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)


def _loss_output(name: str, logits, value: float, grad: np.ndarray) -> LossOutput:
    """Package a loss; Tensor ``logits`` get a taped node that routes ``grad`` into them."""
    if isinstance(logits, Tensor):
        node = nm.record_scalar_loss(name, logits, value, grad)
    else:
        node = Tensor(np.array([value]))
    return LossOutput(value=value, grad_logits=grad, node=node)


def _check_targets(targets, blank: int, num_classes: int) -> list[int]:
    targets = [int(y) for y in targets]
    for y in targets:
        if y == blank:
            raise ShapeError(f"targets must not contain the blank class {blank}")
        if not (0 <= y < num_classes):
            raise ShapeError(f"target id {y} outside {num_classes} classes")
    return targets


# ---------------------------------------------------------------------------
# transducer loss
# ---------------------------------------------------------------------------


def rnnt_lattice(logits, targets, blank: int) -> LogLattice:
    """Run the forward-backward recursions; alpha[0,0] == 0, beta[0,0] == log P(y|x)."""
    z = _as_array(logits)
    if z.ndim != 3:
        raise ShapeError(f"rnnt: logits must be (T, U+1, K+1), got shape {z.shape}")
    t_len, u_rows, num_classes = z.shape
    targets = _check_targets(targets, blank, num_classes)
    u_len = len(targets)
    if t_len < 1:
        raise ShapeError("rnnt: need at least one frame")
    if u_rows != u_len + 1:
        raise ShapeError(f"rnnt: logits have {u_rows} label rows but targets need {u_len + 1}")

    lp = nm.log_softmax_array(z)
    # Along frames, label row u is a linear recurrence in log space:
    #   alpha[t, u] = logaddexp(alpha[t-1, u] + blank[t-1, u], alpha[t, u-1] + label[t, u-1]).
    # With d[u, t] the blank log-probs summed along row u before frame t,
    # a[u] = alpha[:, u] - d[u] is the cumulative logaddexp of a[u-1] + step[u-1],
    # and b[u] = beta[:, u] + d[u] is the same scan run backwards in time.
    # Each direction is U vector scans instead of T*U scalar cell updates.
    blank_lp = lp[:, :, blank].T
    label_lp = lp[:, np.arange(u_len), np.asarray(targets, dtype=np.int64)].T
    d = np.zeros((u_len + 1, t_len + 1))
    np.cumsum(blank_lp, axis=1, out=d[:, 1:])
    step = label_lp + d[:-1, :-1] - d[1:, :-1]

    a = np.zeros((u_len + 1, t_len))
    for u in range(1, u_len + 1):
        np.logaddexp.accumulate(a[u - 1] + step[u - 1], out=a[u])
    # b is stored with time reversed; on the last row beta is the blanks
    # still to come, so b[U] is that row's blank total at every frame
    b = np.empty((u_len + 1, t_len))
    b[u_len] = d[u_len, t_len]
    step_rev = step[:, ::-1]
    for u in range(u_len - 1, -1, -1):
        np.logaddexp.accumulate(b[u + 1] + step_rev[u], out=b[u])
    alpha = (a + d[:, :-1]).T
    beta = (b[:, ::-1] - d[:, :-1]).T

    return LogLattice(alpha=alpha, beta=beta, log_probs=lp)


def _occupancy(loss: str, log_occ: np.ndarray) -> np.ndarray:
    """exp of log occupancies. Each is at most 1 in exact arithmetic; logits so
    large that rounding pushes one past the float range raise NumericsError."""
    with np.errstate(over="ignore"):
        occ = np.exp(log_occ)
    if not np.isfinite(occ).all():
        raise NumericsError(f"{loss}: non-finite occupancy; the logits are too large")
    return occ


def rnnt_loss(logits, targets, blank: int) -> LossOutput:
    """Negative log marginal probability of the target sequence, with the
    exact gradient from forward/backward transition occupancies."""
    lattice = rnnt_lattice(logits, targets, blank)
    lp, alpha, beta = lattice.log_probs, lattice.alpha, lattice.beta
    t_len, u_rows, _ = lp.shape
    u_len = u_rows - 1

    loglik = lattice.log_likelihood()
    if not math.isfinite(loglik):
        raise NumericsError(f"rnnt: non-finite log-likelihood {loglik}")

    # suffix mass after a blank step: beta one frame later, or exactly 1 at the terminal
    after_blank = np.full((t_len, u_rows), NEG_INF)
    after_blank[: t_len - 1, :] = beta[1:, :]
    after_blank[t_len - 1, u_len] = 0.0
    occ_blank = _occupancy("rnnt", alpha + lp[:, :, blank] + after_blank - loglik)

    # d(-loglik)/dz = softmax * (total occupancy of the cell) - occupancy of each arc
    occ = occ_blank.copy()
    if u_len:
        cols = np.arange(u_len)
        lab = np.asarray(targets, dtype=np.int64)
        occ_lab = _occupancy("rnnt", alpha[:, :u_len] + lp[:, cols, lab] + beta[:, 1:] - loglik)
        occ[:, :u_len] += occ_lab
    grad_z = np.exp(lp) * occ[:, :, None]
    grad_z[:, :, blank] -= occ_blank
    if u_len:
        grad_z[:, cols, lab] -= occ_lab
    return _loss_output("rnnt_loss", logits, -loglik, grad_z)


def rnnt_brute_force(logits, targets, blank: int, max_steps: int = 14) -> float:
    """Enumerate every monotonic interleaving of T blanks and U labels that
    ends in the terminal blank; -log of the summed path probabilities."""
    z = _as_array(logits)
    t_len, u_rows, num_classes = z.shape
    targets = _check_targets(targets, blank, num_classes)
    u_len = len(targets)
    if u_rows != u_len + 1:
        raise ShapeError(f"rnnt_brute_force: {u_rows} label rows vs {u_len} targets")
    if t_len + u_len > max_steps:
        raise ShapeError(f"rnnt_brute_force: T+U = {t_len + u_len} exceeds bound {max_steps}")

    lp = nm.log_softmax_array(z)
    path_logps = []
    # choose which of the first T+U-1 steps are label emissions; the last step is blank
    for label_steps in itertools.combinations(range(t_len + u_len - 1), u_len):
        label_set = set(label_steps)
        t = u = 0
        logp = 0.0
        for step in range(t_len + u_len):
            if step in label_set:
                logp += lp[t, u, targets[u]]
                u += 1
            else:
                logp += lp[t, u, blank]
                t += 1
        path_logps.append(logp)
    return -nm.logsumexp(path_logps)


# ---------------------------------------------------------------------------
# CTC loss
# ---------------------------------------------------------------------------


def _ctc_min_frames(targets: list[int]) -> int:
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    return len(targets) + repeats


def ctc_loss(logits, targets, blank: int) -> LossOutput:
    """Standard CTC over the blank-interleaved expanded label sequence."""
    z = _as_array(logits)
    if z.ndim != 2:
        raise ShapeError(f"ctc: logits must be (T, K+1), got shape {z.shape}")
    t_len, num_classes = z.shape
    targets = _check_targets(targets, blank, num_classes)
    need = _ctc_min_frames(targets)
    if t_len < need:
        raise ShapeError(f"ctc: {t_len} frames but targets require at least {need}")

    s_len = 2 * len(targets) + 1
    ext = np.full(s_len, blank, dtype=np.int64)
    ext[1::2] = targets
    lp = nm.log_softmax_array(z)
    emit = lp[:, ext]
    # a label state may be entered straight from the label two states back
    # (skipping the blank between) unless both are the same label; skip_in[s]
    # is 0 where that arc into s exists and -inf where it does not
    skip_in = np.full(s_len, NEG_INF)
    skip_in[2:][(ext[2:] != blank) & (ext[2:] != ext[:-2])] = 0.0
    skip_out = np.full(s_len, NEG_INF)
    skip_out[:-2] = skip_in[2:]

    # one vector update per frame over all expanded states: stay, advance by
    # 1, advance by 2. Two -inf pad columns (leading for alpha, trailing for
    # beta) stand for the states off the ends, so every shift is a slice.
    alpha_pad = np.full((t_len, s_len + 2), NEG_INF)
    alpha = alpha_pad[:, 2:]
    alpha[0, :2] = emit[0, :2]
    for t in range(1, t_len):
        prev = alpha_pad[t - 1]
        np.logaddexp(prev[2:], prev[1:-1], out=alpha[t])
        np.logaddexp(alpha[t], prev[:-2] + skip_in, out=alpha[t])
        alpha[t] += emit[t]

    beta_pad = np.full((t_len, s_len + 2), NEG_INF)
    beta = beta_pad[:, :-2]
    beta[t_len - 1, -2:] = emit[t_len - 1, -2:]
    for t in range(t_len - 2, -1, -1):
        nxt = beta_pad[t + 1]
        np.logaddexp(nxt[:-2], nxt[1:-1], out=beta[t])
        np.logaddexp(beta[t], nxt[2:] + skip_out, out=beta[t])
        beta[t] += emit[t]

    loglik = float(np.logaddexp.reduce(alpha[t_len - 1, -2:]))
    if not math.isfinite(loglik):
        raise NumericsError(f"ctc: non-finite log-likelihood {loglik}")

    # occupancy of expanded state s at frame t; alpha and beta both carry the
    # emission at (t, s), so divide it out once
    gamma = _occupancy("ctc", alpha + beta - emit - loglik)
    grad_lp = np.zeros_like(lp)
    np.subtract.at(grad_lp, (slice(None), ext), gamma)
    grad_z = grad_lp - np.exp(lp) * grad_lp.sum(axis=-1, keepdims=True)
    return _loss_output("ctc_loss", logits, -loglik, grad_z)


def ctc_brute_force(logits, targets, blank: int, max_paths: int = 200_000) -> float:
    """Sum over all (K+1)^T frame labelings whose collapse equals the targets."""
    z = _as_array(logits)
    t_len, num_classes = z.shape
    targets = [int(y) for y in targets]
    if num_classes**t_len > max_paths:
        raise ShapeError(f"ctc_brute_force: {num_classes}^{t_len} paths exceed bound {max_paths}")
    lp = nm.log_softmax_array(z)
    path_logps = []
    for path in itertools.product(range(num_classes), repeat=t_len):
        collapsed = [k for i, k in enumerate(path) if (i == 0 or k != path[i - 1])]
        collapsed = [k for k in collapsed if k != blank]
        if collapsed == targets:
            path_logps.append(sum(lp[t, k] for t, k in enumerate(path)))
    if not path_logps:
        raise NumericsError("ctc_brute_force: no valid path (T too short for targets)")
    return -nm.logsumexp(path_logps)


# ---------------------------------------------------------------------------
# cross-entropy losses
# ---------------------------------------------------------------------------


def _masked_ce(name: str, logits, mask: np.ndarray, ids: np.ndarray) -> LossOutput:
    """Mean cross entropy of the cells in ``mask`` against their class ``ids``
    (given in row-major cell order); cells outside the mask get zero gradient."""
    num_classes = logits.shape[-1]
    if ids.size == 0:
        raise ShapeError(f"{name}: no target cells")
    bad = (ids < 0) | (ids >= num_classes)
    if bad.any():
        raise ShapeError(f"{name}: target {ids[bad][0]} outside {num_classes} classes")
    lp = nm.log_softmax_array(_as_array(logits))
    cells = (*np.nonzero(mask), ids)
    value = float(-lp[cells].mean())
    grad = np.exp(lp)
    grad[cells] -= 1.0
    grad[~mask] = 0.0
    grad /= ids.size
    return _loss_output(name, logits, value, grad)


def frame_ce_loss(enc_out: Tensor, fc, frame_targets) -> LossOutput:
    """Per-frame token classification on top of the encoder, averaged over frames."""
    ids = np.asarray(frame_targets, dtype=np.int64)
    if len(ids) != enc_out.shape[0]:
        raise ShapeError(f"frame_ce_loss: {enc_out.shape[0]} frames but {len(ids)} targets")
    return _masked_ce("frame_ce_loss", fc.apply(enc_out), np.ones(len(ids), dtype=bool), ids)


def masked_ce_3d(logits: Tensor, label) -> LossOutput:
    """Mean cross entropy over the masked (gray) cells of a label tensor;
    unmasked cells get exactly zero gradient."""
    targets = np.asarray(label.targets)
    mask = np.asarray(label.mask, dtype=bool)
    if logits.shape != (*targets.shape, label.blank + 1):
        raise ShapeError(f"masked_ce_3d: logits {logits.shape} vs label tensor "
                         f"{targets.shape} with blank {label.blank}")
    if mask.shape != targets.shape:
        raise ShapeError(f"masked_ce_3d: mask {mask.shape} vs lattice {targets.shape}")
    return _masked_ce("masked_ce_3d", logits, mask, targets[mask])


def lm_ce_loss(pred_out: Tensor, fc, targets) -> LossOutput:
    """Next-token CE: row u predicts token u+1, averaged over the U real
    tokens. The final row's continuation is end-of-sequence, which has no
    class in the vocabulary, so that row is masked out of the mean."""
    ids = np.asarray(targets, dtype=np.int64)
    u_len = len(ids)
    if u_len < 1:
        raise ShapeError("lm_ce_loss: need at least one target token")
    if pred_out.shape[0] != u_len + 1:
        raise ShapeError(f"lm_ce_loss: {pred_out.shape[0]} rows but {u_len} targets "
                         f"need {u_len + 1}")
    return _masked_ce("lm_ce_loss", fc.apply(pred_out), np.arange(u_len + 1) < u_len, ids)
