import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rnnt_lab import (Adam, Affine, LabelTensor, NumericsError, ShapeError,
                      Tape, Tensor, TransducerModel, ctc_brute_force, ctc_loss,
                      frame_ce_loss, grad_check, lm_ce_loss, logsumexp,
                      masked_ce_3d, rnnt_brute_force, rnnt_lattice, rnnt_loss)
from conftest import random_logits


def nparams(model):
    return model.parameters()


# ---------------------------------------------------------------------------
# scalar reference DPs: the cell-by-cell recursions the array-shaped DPs in
# rnnt_lab.loss replace, kept here as independent plain-numpy oracles
# ---------------------------------------------------------------------------


def reference_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_rnnt_alpha_beta(logits, targets, blank):
    lp = reference_log_softmax(np.asarray(logits, dtype=np.float64))
    t_len, u_len = lp.shape[0], len(targets)
    alpha = np.full((t_len, u_len + 1), -np.inf)
    alpha[0, 0] = 0.0
    for t in range(1, t_len):
        alpha[t, 0] = alpha[t - 1, 0] + lp[t - 1, 0, blank]
    for u in range(1, u_len + 1):
        alpha[0, u] = alpha[0, u - 1] + lp[0, u - 1, targets[u - 1]]
    for t in range(1, t_len):
        for u in range(1, u_len + 1):
            alpha[t, u] = np.logaddexp(alpha[t - 1, u] + lp[t - 1, u, blank],
                                       alpha[t, u - 1] + lp[t, u - 1, targets[u - 1]])
    beta = np.full((t_len, u_len + 1), -np.inf)
    beta[t_len - 1, u_len] = lp[t_len - 1, u_len, blank]
    for t in range(t_len - 2, -1, -1):
        beta[t, u_len] = lp[t, u_len, blank] + beta[t + 1, u_len]
    for u in range(u_len - 1, -1, -1):
        beta[t_len - 1, u] = lp[t_len - 1, u, targets[u]] + beta[t_len - 1, u + 1]
    for t in range(t_len - 2, -1, -1):
        for u in range(u_len - 1, -1, -1):
            beta[t, u] = np.logaddexp(lp[t, u, blank] + beta[t + 1, u],
                                      lp[t, u, targets[u]] + beta[t, u + 1])
    return alpha, beta


def reference_ctc(logits, targets, blank):
    """(log-likelihood, gradient of the loss w.r.t. the logits)."""
    lp = reference_log_softmax(np.asarray(logits, dtype=np.float64))
    t_len = lp.shape[0]
    ext = [blank]
    for y in targets:
        ext += [y, blank]
    s_len = len(ext)

    def can_skip(s):
        return s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]

    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = lp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, t_len):
        for s in range(s_len):
            acc = alpha[t - 1, s]
            if s >= 1:
                acc = np.logaddexp(acc, alpha[t - 1, s - 1])
            if can_skip(s):
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + lp[t, ext[s]]
    beta = np.full((t_len, s_len), -np.inf)
    beta[t_len - 1, s_len - 1] = lp[t_len - 1, ext[s_len - 1]]
    if s_len > 1:
        beta[t_len - 1, s_len - 2] = lp[t_len - 1, ext[s_len - 2]]
    for t in range(t_len - 2, -1, -1):
        for s in range(s_len - 1, -1, -1):
            acc = beta[t + 1, s]
            if s + 1 < s_len:
                acc = np.logaddexp(acc, beta[t + 1, s + 1])
            if s + 2 < s_len and can_skip(s + 2):
                acc = np.logaddexp(acc, beta[t + 1, s + 2])
            beta[t, s] = acc + lp[t, ext[s]]
    loglik = alpha[t_len - 1, s_len - 1]
    if s_len > 1:
        loglik = np.logaddexp(loglik, alpha[t_len - 1, s_len - 2])
    gamma = np.exp(alpha + beta - lp[:, ext] - loglik)
    grad_lp = np.zeros_like(lp)
    for s, k in enumerate(ext):
        grad_lp[:, k] -= gamma[:, s]
    return float(loglik), grad_lp - np.exp(lp) * grad_lp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# transducer loss
# ---------------------------------------------------------------------------


def test_rnnt_single_blank_emission():
    logits = np.zeros((1, 1, 2))
    out = rnnt_loss(logits, [], blank=1)
    assert out.value == pytest.approx(math.log(2), abs=1e-12)


def test_rnnt_matches_brute_force_small():
    rng = np.random.default_rng(100)
    logits = random_logits(rng, 2, 1, 3)
    out = rnnt_loss(logits, [0], blank=2)
    assert out.value == pytest.approx(rnnt_brute_force(logits, [0], blank=2), abs=1e-10)


def test_rnnt_matches_brute_force_many_instances():
    rng = np.random.default_rng(200)
    for _ in range(60):
        t_len = int(rng.integers(1, 6))
        u_len = int(rng.integers(0, 4))
        k = int(rng.integers(1, 4))
        targets = [int(v) for v in rng.integers(0, k, size=u_len)]
        logits = random_logits(rng, t_len, u_len, k + 1, scale=2.0)
        dp = rnnt_loss(logits, targets, blank=k).value
        bf = rnnt_brute_force(logits, targets, blank=k)
        assert dp == pytest.approx(bf, abs=1e-10)


def test_rnnt_gradient_finite_differences():
    rng = np.random.default_rng(7)
    logits = Tensor(random_logits(rng, 3, 2, 4))
    targets = [1, 0]

    def f():
        with Tape() as tape:
            out = rnnt_loss(logits, targets, blank=3)
            tape.backward(out.node)
        return out.value

    assert grad_check(f, [logits], eps=1e-5) < 1e-4


def reference_rnnt_grad(logits, targets, blank):
    """The dense-scatter gradient: occupancies scattered into a zeroed
    (T, U+1, K+1) buffer, then pushed through the log-softmax."""
    lat = rnnt_lattice(logits, targets, blank)
    lp, alpha, beta = lat.log_probs, lat.alpha, lat.beta
    t_len, u_rows, _ = lp.shape
    u_len = u_rows - 1
    loglik = lat.log_likelihood()
    after_blank = np.full((t_len, u_rows), -np.inf)
    after_blank[: t_len - 1, :] = beta[1:, :]
    after_blank[t_len - 1, u_len] = 0.0
    grad_lp = np.zeros_like(lp)
    grad_lp[:, :, blank] -= np.exp(alpha + lp[:, :, blank] + after_blank - loglik)
    if u_len:
        cols = np.arange(u_len)
        lab = np.array(targets)
        grad_lp[:, cols, lab] -= np.exp(alpha[:, :u_len] + lp[:, cols, lab] + beta[:, 1:]
                                        - loglik)
    return grad_lp - np.exp(lp) * grad_lp.sum(axis=-1, keepdims=True)


def test_rnnt_gradient_bit_identical_to_dense_scatter_oracle():
    rng = np.random.default_rng(2024)
    for case in range(400):
        t_len = int(rng.integers(1, 40))
        u_len = 0 if case % 10 == 0 else int(rng.integers(1, 15))
        k = int(rng.integers(1, 12))
        blank = int(rng.integers(0, k + 1))
        labels = [c for c in range(k + 1) if c != blank]
        targets = [labels[i] for i in rng.integers(0, k, size=u_len)]
        logits = random_logits(rng, t_len, u_len, k + 1, scale=float(rng.uniform(0.1, 10.0)))
        grad = rnnt_loss(logits, targets, blank=blank).grad_logits
        assert np.array_equal(grad, reference_rnnt_grad(logits, targets, blank)), case


def test_rnnt_rejects_blank_in_targets():
    with pytest.raises(ShapeError):
        rnnt_loss(np.zeros((2, 2, 3)), [2], blank=2)


def test_losses_reject_non_finite_logits():
    rng = np.random.default_rng(8)
    for bad in (math.nan, math.inf):
        logits = random_logits(rng, 3, 1, 4)
        logits[1, 0, 2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError):
                rnnt_loss(logits, [1], blank=3)
            with pytest.raises(NumericsError):
                ctc_loss(logits[:, 0], [1], blank=3)


def test_losses_on_logits_past_the_float_range_of_their_occupancies_raise():
    # finite logits of scale 1e20: here rounding in alpha + beta - loglik
    # leaves exponents far above 709, so an occupancy overflows to infinity
    logits = random_logits(np.random.default_rng(0), 6, 3, 5, scale=1e20)
    with pytest.raises(NumericsError, match="rnnt: non-finite occupancy"):
        rnnt_loss(logits, [1, 2, 1], blank=4)
    with pytest.raises(NumericsError, match="ctc: non-finite occupancy"):
        ctc_loss(logits[:, 0], [1, 2, 1], blank=4)


def test_rnnt_brute_force_single_path():
    rng = np.random.default_rng(3)
    logits = random_logits(rng, 1, 0, 4)
    lp = logits[0, 0] - logsumexp(logits[0, 0])
    assert rnnt_brute_force(logits, [], blank=3) == pytest.approx(-lp[3], abs=1e-12)


def test_rnnt_brute_force_path_count_matches_lattice():
    # T=2, U=1 has C(T+U-1, U) = 2 monotonic paths
    import itertools
    t_len, u_len = 2, 1
    combos = list(itertools.combinations(range(t_len + u_len - 1), u_len))
    assert len(combos) == 2


def test_rnnt_brute_force_rejects_large_instances():
    with pytest.raises(ShapeError):
        rnnt_brute_force(np.zeros((12, 4, 3)), [0, 0, 0], blank=2)


def test_alpha_beta_boundary_and_diagonal_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t_len = int(rng.integers(1, 6))
        u_len = int(rng.integers(0, 4))
        k = int(rng.integers(1, 4))
        targets = [int(v) for v in rng.integers(0, k, size=u_len)]
        logits = random_logits(rng, t_len, u_len, k + 1)
        lat = rnnt_lattice(logits, targets, blank=k)
        alpha, beta, lp = lat.alpha, lat.beta, lat.log_probs
        assert alpha[0, 0] == 0.0
        loglik = lat.log_likelihood()
        # both sweeps agree on the total
        assert alpha[t_len - 1, u_len] + lp[t_len - 1, u_len, k] == pytest.approx(loglik, abs=1e-8)
        # every path crosses each anti-diagonal exactly once, so the
        # diagonal-summed joint mass is the total likelihood
        cells = alpha + beta
        for n in range(t_len + u_len):
            diag = [cells[t, n - t] for t in range(t_len) if 0 <= n - t <= u_len]
            assert logsumexp(diag) == pytest.approx(loglik, abs=1e-8)
        if u_len == 0:
            # single-row lattice: one path, so the per-cell sum is constant
            assert np.allclose(cells[:, 0], loglik, atol=1e-8)


def test_occupancy_mass_equals_emission_count():
    # every complete path emits exactly T+U symbols, so summed transition
    # occupancies (the negated log-prob gradient) must total T+U
    rng = np.random.default_rng(13)
    for _ in range(10):
        t_len = int(rng.integers(1, 6))
        u_len = int(rng.integers(0, 4))
        k = int(rng.integers(1, 4))
        targets = [int(v) for v in rng.integers(0, k, size=u_len)]
        logits = Tensor(random_logits(rng, t_len, u_len, k + 1))
        lat = rnnt_lattice(logits, targets, blank=k)
        total = 0.0
        lp = lat.log_probs
        alpha, beta = lat.alpha, lat.beta
        loglik = lat.log_likelihood()
        after_blank = np.full((t_len, u_len + 1), -np.inf)
        after_blank[: t_len - 1] = beta[1:]
        after_blank[t_len - 1, u_len] = 0.0
        total += np.exp(alpha + lp[:, :, k] + after_blank - loglik).sum()
        if u_len:
            cols = np.arange(u_len)
            lab = np.array(targets)
            total += np.exp(alpha[:, :u_len] + lp[:, cols, lab] + beta[:, 1:] - loglik).sum()
        assert total == pytest.approx(t_len + u_len, abs=1e-8)


@pytest.mark.parametrize("scale", [1.0, 10.0, 30.0, 100.0])
def test_rnnt_row_scan_matches_scalar_oracle_long_lattice(scale):
    # the row scan subtracts and re-adds the blank log-probs summed down a
    # row (up to ~1e4 here), so this guards it against cancellation
    rng = np.random.default_rng(int(scale))
    t_len, u_len, k = 150, 60, 9
    targets = [int(v) for v in rng.integers(0, k, size=u_len)]
    logits = random_logits(rng, t_len, u_len, k + 1, scale=scale)
    lat = rnnt_lattice(logits, targets, blank=k)
    alpha, beta = reference_rnnt_alpha_beta(logits, targets, k)
    assert np.abs(lat.alpha - alpha).max() <= 1e-9
    assert np.abs(lat.beta - beta).max() <= 1e-9


@pytest.mark.parametrize("t_len,u_len", [(1, 0), (1, 4), (6, 0), (3, 10), (2, 2)])
def test_rnnt_row_scan_matches_scalar_oracle_edge_shapes(t_len, u_len):
    rng = np.random.default_rng(100 * t_len + u_len)
    k = 3
    targets = [int(v) for v in rng.integers(0, k, size=u_len)]
    logits = random_logits(rng, t_len, u_len, k + 1, scale=3.0)
    lat = rnnt_lattice(logits, targets, blank=k)
    alpha, beta = reference_rnnt_alpha_beta(logits, targets, k)
    assert np.abs(lat.alpha - alpha).max() <= 1e-9
    assert np.abs(lat.beta - beta).max() <= 1e-9
    assert rnnt_loss(logits, targets, blank=k).value == pytest.approx(-beta[0, 0], abs=1e-9)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), t_len=st.integers(1, 6), u_len=st.integers(0, 4), k=st.integers(1, 3))
def test_rnnt_loss_matches_brute_force_property(data, t_len, u_len, k):
    targets = data.draw(st.lists(st.integers(0, k - 1), min_size=u_len, max_size=u_len))
    logits = data.draw(arrays(np.float64, (t_len, u_len + 1, k + 1),
                              elements=st.floats(-20.0, 20.0)))
    assert rnnt_loss(logits, targets, blank=k).value == pytest.approx(
        rnnt_brute_force(logits, targets, blank=k), abs=1e-10)


def test_rnnt_loss_overfits_single_utterance(tiny_config):
    model = TransducerModel(tiny_config, seed=2)
    rng = np.random.default_rng(40)
    feats = Tensor(rng.normal(size=(5, 6)))
    targets = [1, 3]
    opt = Adam(model.parameters(), lr=5e-3)
    values = []
    for _ in range(450):
        opt.zero_grad()
        with Tape() as tape:
            out = rnnt_loss(model.forward(feats, targets), targets, tiny_config.blank_id)
            tape.backward(out.node)
        opt.step()
        values.append(out.value)
    assert values[-1] < 0.01
    assert values[-1] < values[0]


# ---------------------------------------------------------------------------
# CTC
# ---------------------------------------------------------------------------


def test_ctc_single_frame_single_label():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(1, 2))
    out = ctc_loss(logits, [0], blank=1)
    lp = logits[0] - logsumexp(logits[0])
    assert out.value == pytest.approx(-lp[0], abs=1e-12)


def test_ctc_repeat_needs_separating_blank():
    rng = np.random.default_rng(22)
    logits = rng.normal(size=(3, 3))
    out = ctc_loss(logits, [0, 0], blank=2)
    assert out.value == pytest.approx(ctc_brute_force(logits, [0, 0], blank=2), abs=1e-10)


def test_ctc_matches_brute_force_many_instances():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(80):
        t_len = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        u_len = int(rng.integers(0, 4))
        targets = [int(v) for v in rng.integers(0, k, size=u_len)]
        repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
        if t_len < u_len + repeats:
            continue
        logits = 2.0 * rng.normal(size=(t_len, k + 1))
        assert ctc_loss(logits, targets, blank=k).value == pytest.approx(
            ctc_brute_force(logits, targets, blank=k), abs=1e-10)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("t_len,targets,scale", [
    (60, [0, 3, 1, 4, 2, 0, 5, 1, 3, 2, 4, 0, 1, 5, 2, 3, 0, 4, 1, 2], 1.0),
    (60, [0, 3, 1, 4, 2, 0, 5, 1, 3, 2, 4, 0, 1, 5, 2, 3, 0, 4, 1, 2], 30.0),
    (8, [], 1.0),                       # empty targets: the all-blank path only
    (1, [], 1.0),
    (9, [2, 2, 2, 1, 1], 3.0),          # repeats need separating blanks...
    (8, [2, 2, 2, 1, 1], 3.0),          # ...exactly U + repeats frames
    (1, [4], 1.0),
])
def test_ctc_vector_dp_matches_scalar_oracle(t_len, targets, scale):
    k = 6
    rng = np.random.default_rng(t_len + len(targets))
    logits = scale * rng.normal(size=(t_len, k + 1))
    out = ctc_loss(logits, targets, blank=k)
    loglik, grad = reference_ctc(logits, targets, k)
    assert out.value == pytest.approx(-loglik, abs=1e-9)
    assert np.abs(out.grad_logits - grad).max() <= 1e-9


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), t_len=st.integers(1, 5), k=st.integers(1, 3), u_len=st.integers(0, 3))
def test_ctc_loss_matches_brute_force_property(data, t_len, k, u_len):
    targets = data.draw(st.lists(st.integers(0, k - 1), min_size=u_len, max_size=u_len))
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    if t_len < u_len + repeats:
        with pytest.raises(ShapeError):
            ctc_loss(np.zeros((t_len, k + 1)), targets, blank=k)
        return
    logits = data.draw(arrays(np.float64, (t_len, k + 1), elements=st.floats(-20.0, 20.0)))
    assert ctc_loss(logits, targets, blank=k).value == pytest.approx(
        ctc_brute_force(logits, targets, blank=k), abs=1e-10)


def test_ctc_rejects_short_input_with_required_minimum():
    with pytest.raises(ShapeError) as err:
        ctc_loss(np.zeros((2, 3)), [0, 0], blank=2)
    assert "3" in str(err.value)  # U + repeats = 3


def test_ctc_gradient_finite_differences():
    rng = np.random.default_rng(25)
    logits = Tensor(2.0 * rng.normal(size=(4, 4)))
    targets = [1, 2]

    def f():
        with Tape() as tape:
            out = ctc_loss(logits, targets, blank=3)
            tape.backward(out.node)
        return out.value

    assert grad_check(f, [logits], eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# CE losses
# ---------------------------------------------------------------------------


def test_frame_ce_zero_head_uniform(tiny_model):
    rng = np.random.default_rng(26)
    fc = Affine(5, 5, rng)
    fc.w.data[...] = 0.0
    fc.b.data[...] = 0.0
    enc = Tensor(rng.normal(size=(4, 5)))
    out = frame_ce_loss(enc, fc, [0, 1, 2, 3])
    assert out.value == pytest.approx(math.log(5), abs=1e-12)


def test_frame_ce_hits_argmax_is_small():
    rng = np.random.default_rng(27)
    fc = Affine(2, 2, rng)
    fc.w.data[...] = np.array([[20.0, -20.0], [-20.0, 20.0]])
    fc.b.data[...] = 0.0
    out = frame_ce_loss(Tensor([[1.0, 0.0]]), fc, [0])
    assert out.value < 1e-8


def test_frame_ce_rejects_length_mismatch(tiny_model):
    fc = Affine(5, 5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        frame_ce_loss(Tensor(np.zeros((3, 5))), fc, [0, 1])


def test_frame_ce_gradient_through_encoder(tiny_model):
    rng = np.random.default_rng(28)
    fc = Affine(5, 5, rng)
    feats = Tensor(rng.uniform(-1, 1, size=(3, 6)))

    def f():
        with Tape() as tape:
            out = frame_ce_loss(tiny_model.encode(feats), fc, [0, 2, 4])
            tape.backward(out.node)
        return out.value

    params = [tiny_model.encoder.layers[0].w, fc.w, fc.b]
    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_masked_ce_single_cell_uniform():
    label = LabelTensor(targets=np.array([[2]]), mask=np.ones((1, 1), dtype=bool), blank=4)
    out = masked_ce_3d(Tensor(np.zeros((1, 1, 5))), label)
    assert out.value == pytest.approx(math.log(5), abs=1e-12)


def test_masked_ce_full_mask_equals_plain_mean_ce():
    rng = np.random.default_rng(30)
    t_len, rows, k = 3, 2, 4
    logits = Tensor(rng.normal(size=(t_len, rows, k)))
    ids = rng.integers(0, k, size=(t_len, rows))
    label = LabelTensor(targets=ids, mask=np.ones((t_len, rows), dtype=bool), blank=k - 1)
    out = masked_ce_3d(logits, label)
    # reference: explicit one-hot rows dotted with a separately computed log-softmax
    one_hot = np.eye(k)[ids]
    lp = reference_log_softmax(logits.data)
    plain = -(one_hot * lp).sum(axis=-1).mean()
    assert out.value == pytest.approx(plain, abs=1e-12)
    assert np.abs(out.grad_logits - (np.exp(lp) - one_hot) / (t_len * rows)).max() <= 1e-15


def test_masked_ce_zero_gradient_outside_mask():
    rng = np.random.default_rng(31)
    logits = Tensor(rng.normal(size=(3, 3, 4)))
    targets = np.full((3, 3), 3)
    mask = np.zeros((3, 3), dtype=bool)
    targets[1, 2] = 0
    mask[1, 2] = True
    mask[0, 0] = True
    label = LabelTensor(targets=targets, mask=mask, blank=3)
    out = masked_ce_3d(logits, label)
    grad = out.grad_logits
    assert np.array_equal(grad[~mask], np.zeros_like(grad[~mask]))
    assert np.abs(grad[mask]).max() > 0


def test_masked_ce_rejects_empty_mask():
    # LabelTensor itself refuses an all-false mask, so feed a bare stand-in
    class Bare:
        targets = np.zeros((2, 2), dtype=np.int64)
        mask = np.zeros((2, 2), dtype=bool)
        blank = 2

    with pytest.raises(ShapeError):
        masked_ce_3d(Tensor(np.zeros((2, 2, 3))), Bare())


def test_masked_ce_rejects_class_count_mismatch():
    label = LabelTensor(targets=np.array([[1, 2]]), mask=np.ones((1, 2), dtype=bool), blank=2)
    with pytest.raises(ShapeError, match="blank 2"):
        masked_ce_3d(Tensor(np.zeros((1, 2, 4))), label)


def test_label_tensor_rejects_out_of_range_id():
    mask = np.ones((2, 2), dtype=bool)
    with pytest.raises(ShapeError, match="class ids"):
        LabelTensor(targets=np.array([[0, 4], [1, 5]]), mask=mask, blank=4)
    with pytest.raises(ShapeError, match="class ids"):
        LabelTensor(targets=np.array([[0, -1], [1, 4]]), mask=mask, blank=4)


def test_label_tensor_rejects_bad_mask_or_targets():
    ids = np.array([[0, 4], [1, 4]])
    with pytest.raises(ShapeError, match="mask"):
        LabelTensor(targets=ids, mask=np.ones((2, 3), dtype=bool), blank=4)
    with pytest.raises(ShapeError, match="mask"):
        LabelTensor(targets=ids, mask=np.ones((2, 2)), blank=4)
    with pytest.raises(ShapeError, match="int"):
        LabelTensor(targets=ids.astype(float), mask=np.ones((2, 2), dtype=bool), blank=4)
    with pytest.raises(ShapeError, match="masked"):
        LabelTensor(targets=ids, mask=np.zeros((2, 2), dtype=bool), blank=4)


def test_masked_ce_gradient_finite_differences():
    rng = np.random.default_rng(32)
    logits = Tensor(rng.normal(size=(2, 3, 4)))
    targets = np.full((2, 3), 3)
    mask = np.zeros((2, 3), dtype=bool)
    targets[0, 1] = 2
    mask[0, 1] = True
    mask[1, 0] = True
    label = LabelTensor(targets=targets, mask=mask, blank=3)

    def f():
        with Tape() as tape:
            out = masked_ce_3d(logits, label)
            tape.backward(out.node)
        return out.value

    assert grad_check(f, [logits], eps=1e-5) < 1e-4


def test_lm_ce_zero_weights_uniform(tiny_model):
    fc = Affine(5, 5, np.random.default_rng(33))
    fc.w.data[...] = 0.0
    fc.b.data[...] = 0.0
    out = lm_ce_loss(Tensor(np.zeros((3, 5))), fc, [1, 2])
    assert out.value == pytest.approx(math.log(5), abs=1e-12)


def test_lm_ce_rejects_empty_targets():
    fc = Affine(5, 5, np.random.default_rng(34))
    with pytest.raises(ShapeError):
        lm_ce_loss(Tensor(np.zeros((1, 5))), fc, [])


def test_lm_ce_memorizes_tiny_corpus(tiny_config):
    # with no end-of-sequence class the empty context must be unambiguous,
    # so a memorizable 2-sequence corpus is a prefix-nested pair
    model = TransducerModel(tiny_config, seed=4)
    fc = Affine(5, 5, np.random.default_rng(35))
    sequences = [[1, 2], [1, 2, 3]]
    params = model.prediction_parameters() + fc.parameters()
    opt = Adam(params, lr=1e-2)
    value = None
    for _ in range(300):
        opt.zero_grad()
        total = 0.0
        for seq in sequences:
            with Tape() as tape:
                out = lm_ce_loss(model.predict(seq), fc, seq)
                tape.backward(out.node)
            total += out.value
        opt.step()
        value = total / len(sequences)
    assert value < 0.05  # perplexity about 1


def test_lm_ce_gradient_through_prediction_network(tiny_model):
    rng = np.random.default_rng(36)
    fc = Affine(5, 5, rng)
    targets = [1, 3]

    def f():
        with Tape() as tape:
            out = lm_ce_loss(tiny_model.predict(targets), fc, targets)
            tape.backward(out.node)
        return out.value

    params = [tiny_model.embedding, tiny_model.prediction.layers[0].w, fc.w]
    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_all_losses_non_negative():
    rng = np.random.default_rng(37)
    logits3 = random_logits(rng, 3, 2, 4)
    assert rnnt_loss(logits3, [0, 1], blank=3).value >= 0.0
    assert ctc_loss(rng.normal(size=(4, 4)), [1, 2], blank=3).value >= 0.0
