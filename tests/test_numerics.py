import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnt_lab import Adam, NumericsError, ShapeError, Tape, Tensor, grad_check, logsumexp
from rnnt_lab import numerics as nm


def test_log_softmax_uniform():
    out = nm.log_softmax_array(np.array([0.0, 0.0]))
    assert np.allclose(out, [-math.log(2)] * 2, atol=1e-15)


def test_log_softmax_max_shift_no_overflow():
    out = nm.log_softmax_array(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert abs(out[0]) < 1e-12
    assert abs(out[1] + 1000.0) < 1e-9


def test_log_softmax_normalizes():
    rng = np.random.default_rng(3)
    out = nm.log_softmax_array(rng.normal(size=5))
    assert abs(np.exp(out).sum() - 1.0) < 1e-12


def test_log_softmax_slices_normalize_3d():
    rng = np.random.default_rng(4)
    out = nm.log_softmax_array(rng.normal(size=(3, 2, 6)))
    lse = np.log(np.exp(out).sum(axis=-1))
    assert np.abs(lse).max() < 1e-10


def test_logsumexp_singleton():
    assert logsumexp([2.5]) == 2.5


def test_logsumexp_ln2():
    assert abs(logsumexp([0.0, 0.0]) - math.log(2)) < 1e-15


def test_logsumexp_neg_inf_absorbed():
    assert logsumexp([-math.inf, 0.0]) == 0.0
    assert logsumexp([-math.inf, -math.inf]) == -math.inf


def test_logsumexp_empty_rejected():
    with pytest.raises(NumericsError):
        logsumexp([])


def test_grad_check_quadratic():
    x = Tensor([[3.0]])
    zero = Tensor(np.zeros(1))

    def f():
        with Tape() as tape:
            y = nm.affine_last(x, x, zero)
            tape.backward(y)
        return float(y.data[0, 0])

    assert grad_check(f, [x], eps=1e-5) < 1e-8


def reference_lstm(x, w, r, b, gain=None, bias=None, seed=None):
    """Per-step LSTM on plain arrays, gates packed i, f, g, o: the oracle for lstm_layer.

    Returns the (T, H) hidden rows; with ``seed`` (dL/dh, (T, H)) also the
    gradients of x, w, r, b (and gain, bias) by per-step BPTT in the plain
    sigmoid form.
    """
    hh = r.shape[0]
    h, c, out, steps = np.zeros(hh), np.zeros(hh), [], []
    for row in x:
        pre = row @ w + h @ r + b
        z, xhat, inv = pre, None, None
        if gain is not None:
            inv = 1.0 / np.sqrt(pre.var() + 1e-5)
            xhat = (pre - pre.mean()) * inv
            z = xhat * gain + bias
        i = 1.0 / (1.0 + np.exp(-z[:hh]))
        f = 1.0 / (1.0 + np.exp(-z[hh : 2 * hh]))
        g = np.tanh(z[2 * hh : 3 * hh])
        o = 1.0 / (1.0 + np.exp(-z[3 * hh :]))
        steps.append((row, h, c, i, f, g, o, xhat, inv))
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    if seed is None:
        return np.array(out)
    grads = [np.zeros_like(x), np.zeros_like(w), np.zeros_like(r), np.zeros_like(b)]
    if gain is not None:
        grads += [np.zeros_like(gain), np.zeros_like(bias)]
    dh_next, dc_next = np.zeros(hh), np.zeros(hh)
    for t in range(len(steps) - 1, -1, -1):
        row, h_prev, c_prev, i, f, g, o, xhat, inv = steps[t]
        c = f * c_prev + i * g
        dh = seed[t] + dh_next
        dc = dc_next + dh * o * (1.0 - np.tanh(c) ** 2)
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * np.tanh(c) * o * (1.0 - o)])
        if gain is not None:
            grads[4] += dz * xhat
            grads[5] += dz
            dxhat = dz * gain
            dz = inv * (dxhat - dxhat.mean() - xhat * (dxhat * xhat).mean())
        grads[0][t] += w @ dz
        grads[1] += np.outer(row, dz)
        grads[2] += np.outer(h_prev, dz)
        grads[3] += dz
        dh_next = r @ dz
        dc_next = dc * f
    return np.array(out), grads


def lstm_inputs(rng, t_len, layer_norm, d=3, hh=4):
    """x, w, r, b (and ln_gain, ln_bias) for nm.lstm_layer."""
    x = Tensor(rng.uniform(-1, 1, size=(t_len, d)))
    w = Tensor(rng.uniform(-0.6, 0.6, size=(d, 4 * hh)))
    r = Tensor(rng.uniform(-0.6, 0.6, size=(hh, 4 * hh)))
    b = Tensor(rng.uniform(-0.3, 0.3, size=4 * hh))
    ln = [Tensor(rng.uniform(0.5, 1.5, size=4 * hh)),
          Tensor(rng.uniform(-0.5, 0.5, size=4 * hh))] if layer_norm else []
    return [x, w, r, b, *ln]


def lstm_sequence(params):
    """lstm_layer over the (T, D) sequence params[0]: a batch of one."""
    return nm.lstm_layer(*params)


def lstm_loss(params, seed):
    """f() for grad_check: sum(seed * lstm_layer(...)), forward and backward on a fresh tape."""
    def f():
        with Tape() as tape:
            h = lstm_sequence(params)
            tape.backward(h, seed=seed)
        return float((h.data * seed).sum())
    return f


def test_grad_check_lstm_cell():
    rng = np.random.default_rng(17)
    x, w, r, b = lstm_inputs(rng, 2, layer_norm=False)  # two steps so recurrence matters
    seed = np.vstack([np.zeros(4), rng.uniform(-1, 1, size=4)])  # loss on the last step only
    assert grad_check(lstm_loss([x, w, r, b], seed), [w, r, b], eps=1e-5) < 1e-4


@pytest.mark.parametrize("t_len, layer_norm", [(1, False), (4, False), (4, True)])
def test_lstm_layer_gradients(t_len, layer_norm):
    rng = np.random.default_rng(100 + t_len)
    params = lstm_inputs(rng, t_len, layer_norm)
    seed = rng.uniform(-1, 1, size=(t_len, 4))
    assert grad_check(lstm_loss(params, seed), params, eps=1e-5) < 1e-4


@pytest.mark.parametrize("layer_norm", [False, True])
def test_lstm_layer_matches_per_step_reference(layer_norm):
    rng = np.random.default_rng(41)
    inputs = lstm_inputs(rng, 9, layer_norm, d=5, hh=6)
    want = reference_lstm(*(t.data for t in inputs))
    with Tape() as tape:
        taped = lstm_sequence(inputs)
    assert len(tape.records) == 1
    untaped = lstm_sequence(inputs)
    assert np.abs(taped.data - want).max() <= 1e-12
    assert np.array_equal(untaped.data, taped.data)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t_len=st.integers(1, 12), d=st.integers(1, 7),
       hh=st.integers(1, 9), layer_norm=st.booleans())
def test_lstm_layer_matches_per_step_oracle_property(seed, t_len, d, hh, layer_norm):
    rng = np.random.default_rng(seed)
    inputs = lstm_inputs(rng, t_len, layer_norm, d=d, hh=hh)
    dh = rng.uniform(-1, 1, size=(t_len, hh))
    want, want_grads = reference_lstm(*(t.data for t in inputs), seed=dh)
    for p in inputs:
        p.grad = np.zeros_like(p.data)
    with Tape() as tape:
        taped = lstm_sequence(inputs)
        tape.backward(taped, seed=dh)
    untaped = lstm_sequence(inputs)
    assert np.abs(taped.data - want).max() <= 1e-12
    assert np.array_equal(untaped.data, taped.data)
    for p, want_grad in zip(inputs, want_grads):
        assert np.abs(p.grad - want_grad).max() <= 1e-12


@pytest.mark.parametrize("layer_norm", [False, True])
def test_untaped_batch_matches_per_sequence_calls(layer_norm):
    rng = np.random.default_rng(43)
    lengths = [5, 1, 7, 3]
    params = lstm_inputs(rng, 1, layer_norm, d=5, hh=6)[1:]
    seqs = [rng.uniform(-1, 1, size=(n, 5)) for n in lengths]
    # padding frames hold noise, not zeros: no row before a length may see them
    batch = rng.uniform(-1, 1, size=(max(lengths), len(seqs), 5))
    for col, seq in enumerate(seqs):
        batch[: len(seq), col] = seq
    out = nm.lstm_forward(batch, *params).h
    assert out.shape == (max(lengths), len(seqs), 6)
    for col, seq in enumerate(seqs):
        want = nm.lstm_forward(seq[:, None], *params).h[:, 0]
        assert np.abs(out[: len(seq), col] - want).max() <= 1e-12


def ragged_batch(rng, seqs, d):
    """``seqs`` right-padded into one (T, B, d) batch. The padding holds noise,
    not zeros: no column may see another's rows or its own padding."""
    batch = rng.uniform(-1, 1, size=(max(map(len, seqs)), len(seqs), d))
    for col, seq in enumerate(seqs):
        batch[: len(seq), col] = seq
    return batch


def batched_columns(params, batch, lengths, dhs):
    """One taped lstm_layer over ``batch`` and, per sequence, one batch_column
    whose backward runs on its own tape with that sequence's dh as seed; then
    one sweep of the batch's tape. Returns the per-sequence output rows and
    input grads, and the summed param grads."""
    x = Tensor(batch)  # a Tensor input gets dX
    for p in params:
        p.zero_grad()
    with Tape() as batch_tape:
        h = nm.lstm_layer(x, *params)
    outs = []
    for col, (n, dh) in enumerate(zip(lengths, dhs)):
        with Tape() as tape:
            out = nm.batch_column(h, col, n)
            tape.backward(out, seed=dh)
        assert [rec.name for rec in tape.records] == ["batch_column"]
        outs.append(out.data)
    batch_tape.sweep()
    assert [rec.name for rec in batch_tape.records] == ["lstm_layer"]
    for col, n in enumerate(lengths):
        assert not x.grad[n:, col].any()  # padded frames get no gradient
    return outs, [x.grad[:n, col] for col, n in enumerate(lengths)], [p.grad for p in params]


def per_sequence_calls(params, seqs, dhs):
    """The same from one taped lstm_layer call and backward per sequence."""
    for p in params:
        p.zero_grad()
    outs, dxs = [], []
    for seq, dh in zip(seqs, dhs):
        x = Tensor(seq)
        with Tape() as tape:
            out = lstm_sequence([x, *params])
            tape.backward(out, seed=dh)
        outs.append(out.data)
        dxs.append(x.grad)
    return outs, dxs, [p.grad for p in params]


def assert_batched_bptt_matches_per_sequence_calls(rng, lengths, d, hh, layer_norm):
    params = lstm_inputs(rng, 1, layer_norm, d=d, hh=hh)[1:]
    seqs = [rng.uniform(-1, 1, size=(n, d)) for n in lengths]
    dhs = [rng.uniform(-1, 1, size=(n, hh)) for n in lengths]
    got = batched_columns(params, ragged_batch(rng, seqs, d), lengths, dhs)
    want = per_sequence_calls(params, seqs, dhs)
    for got_part, want_part in zip(got, want):  # outputs, input grads, param grads
        for g, w in zip(got_part, want_part):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12


@pytest.mark.parametrize("layer_norm", [False, True])
def test_batched_bptt_matches_per_sequence_calls(layer_norm):
    assert_batched_bptt_matches_per_sequence_calls(np.random.default_rng(45), [5, 1, 7, 3],
                                                   d=5, hh=6, layer_norm=layer_norm)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       d=st.integers(1, 6), hh=st.integers(1, 7), layer_norm=st.booleans())
def test_batched_bptt_matches_per_sequence_calls_property(seed, lengths, d, hh, layer_norm):
    assert_batched_bptt_matches_per_sequence_calls(np.random.default_rng(seed), lengths, d, hh,
                                                   layer_norm)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_batched_lstm_layer_gradients(layer_norm):
    """Central differences through a B=3 batch of ragged lengths (T=1 among
    them), each column's loss on its own tape, then one sweep of the batch's."""
    rng = np.random.default_rng(47)
    params = lstm_inputs(rng, 1, layer_norm)[1:]
    lengths = [4, 1, 3]
    x = Tensor(ragged_batch(rng, [rng.uniform(-1, 1, size=(n, 3)) for n in lengths], 3))
    seeds = [rng.uniform(-1, 1, size=(n, 4)) for n in lengths]

    def f():
        with Tape() as batch_tape:
            h = nm.lstm_layer(x, *params)
        total = 0.0
        for col, (n, seed) in enumerate(zip(lengths, seeds)):
            with Tape() as tape:
                out = nm.batch_column(h, col, n)
                tape.backward(out, seed=seed)
            total += float((out.data * seed).sum())
        batch_tape.sweep()
        return total

    assert grad_check(f, [x, *params], eps=1e-5) < 1e-4


@pytest.mark.parametrize("rows, col", [(5, 0), (0, 0), (2, 2), (2, -1)])
def test_batch_column_outside_the_batch_raises(rows, col):
    h = Tensor(np.zeros((4, 2, 3)))
    with Tape() as tape, pytest.raises(ShapeError, match="outside a"):
        nm.batch_column(h, col, rows)
    assert tape.records == []


def test_second_sweep_over_an_lstm_record_raises():
    """BPTT writes dz over the run's gate buffer: a second backward would read
    gradients as gates, so it raises and leaves the grads as they were."""
    params = lstm_inputs(np.random.default_rng(48), 3, layer_norm=False)
    with Tape() as tape:
        h = lstm_sequence(params)
        tape.backward(h, seed=np.ones(h.shape))
    first = [p.grad.copy() for p in params]
    with pytest.raises(NumericsError, match="second backward"):
        tape.sweep()
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, first))


# a fixed seed per op, so a failing case replays exactly; "add_row" and "outer_add"
# check the joint by the inputs of its bias row and of its pairwise sum alone
PRIMITIVE_SEEDS = {"add_row": 2201, "outer_add": 2202, "affine_last": 2203, "embed_prefix": 2204,
                   "joint": 2205}
JOINT_OPS = ("add_row", "outer_add", "joint")


@pytest.mark.parametrize("op_name", list(PRIMITIVE_SEEDS))
def test_primitive_gradients_random_inputs(op_name):
    rng = np.random.default_rng(PRIMITIVE_SEEDS[op_name])
    a = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    w34 = Tensor(rng.uniform(-1, 1, size=(4, 3)))
    bias3 = Tensor(rng.uniform(-1, 1, size=3))
    # h_enc (T, H), h_pre (U+1, H'), w_enc, w_pre, b, w_out, b_out
    joint_inputs = [Tensor(rng.uniform(-1, 1, size=shape)) for shape in
                    [(3, 4), (2, 5), (4, 3), (5, 3), 3, (3, 2), 2]] if op_name in JOINT_OPS else []
    builders = {
        "add_row": (lambda: nm.joint(*joint_inputs), joint_inputs[4:5]),
        "outer_add": (lambda: nm.joint(*joint_inputs), joint_inputs[:2]),
        "joint": (lambda: nm.joint(*joint_inputs), joint_inputs),
        "affine_last": (lambda: nm.affine_last(a, w34, bias3), [a, w34, bias3]),
        "embed_prefix": (lambda: nm.embed_prefix(a, [2, 0, 2]), [a]),
    }
    build, params = builders[op_name]
    shape = build().data.shape
    seed = rng.uniform(-1, 1, size=shape)

    def f():
        with Tape() as tape:
            out = build()
            tape.backward(out, seed=seed)
        return float((out.data * seed).sum())

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_joint_primitive_rejects_width_mismatch():
    inputs = [Tensor(np.zeros(shape)) for shape in
              [(3, 4), (2, 5), (4, 3), (4, 3), 3, (3, 2), 2]]  # w_pre has 4 rows, h_pre 5 columns
    with Tape() as tape, pytest.raises(ShapeError, match=r"joint: shapes .*\(4, 3\)"):
        nm.joint(*inputs)
    assert tape.records == []


def test_backward_accumulates_shared_parameters():
    x = Tensor([[2.0]])
    zero = Tensor(np.zeros(1))
    with Tape() as tape:
        y = nm.affine_last(nm.affine_last(x, x, zero), x, zero)  # y = x^3 from three uses of x, dy/dx = 3x^2 = 12
        tape.backward(y)
    assert x.grad[0, 0] == pytest.approx(12.0)


def test_backward_deterministic_after_zeroing():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 2)))

    def run():
        a.zero_grad()
        b.zero_grad()
        with Tape() as tape:
            out = nm.affine_last(a, b, Tensor(np.zeros(2)))
            tape.backward(out, seed=np.ones_like(out.data))
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_adam_clips_by_global_norm():
    p = Tensor(np.zeros(4))
    opt = Adam([p], lr=1.0, clip_norm=1.0)
    p.grad = np.full(4, 100.0)
    nm.clip_global_norm([p], 1.0)
    assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-12


def test_adam_reduces_quadratic():
    p = Tensor([[5.0]])
    zero = Tensor(np.zeros(1))
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        with Tape() as tape:
            y = nm.affine_last(p, p, zero)
            tape.backward(y)
        opt.step()
    assert abs(p.data[0, 0]) < 1e-2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_adam_rejects_non_finite_gradient_norm(bad):
    p = Tensor([1.0, 2.0])
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, bad])
    with pytest.raises(NumericsError):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0]
    assert opt.t == 0 and not opt.m[0].any() and not opt.v[0].any()
