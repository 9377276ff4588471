import math

import numpy as np
import pytest

from rnnt_lab import Adam, NumericsError, ShapeError, Tape, Tensor, grad_check, logsumexp
from rnnt_lab import numerics as nm


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    assert np.array_equal(nm.matmul(eye, v).data, [[3.0], [4.0]])


def test_matmul_hand_computed():
    out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    a = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    b = Tensor(rng.uniform(-1, 1, size=(4, 2)))
    w = rng.uniform(-1, 1, size=(3, 2))  # fixed projection to a scalar

    def f():
        with Tape() as tape:
            c = nm.matmul(a, b)
            loss = float((c.data * w).sum())
            tape.backward(c, seed=w)
        return loss

    assert grad_check(f, [a, b], eps=1e-5) < 1e-6


def test_log_softmax_uniform():
    out = nm.log_softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [-math.log(2)] * 2, atol=1e-15)


def test_log_softmax_max_shift_no_overflow():
    out = nm.log_softmax(Tensor([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.data[0]) < 1e-12
    assert abs(out.data[1] + 1000.0) < 1e-9


def test_log_softmax_normalizes():
    rng = np.random.default_rng(3)
    out = nm.log_softmax(Tensor(rng.normal(size=5)))
    assert abs(np.exp(out.data).sum() - 1.0) < 1e-12


def test_log_softmax_rejects_non_finite():
    with pytest.raises(NumericsError):
        nm.log_softmax(Tensor([1.0, math.inf]))


def test_log_softmax_slices_normalize_3d():
    rng = np.random.default_rng(4)
    out = nm.log_softmax(Tensor(rng.normal(size=(3, 2, 6))))
    lse = np.log(np.exp(out.data).sum(axis=-1))
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
    x = Tensor([3.0])

    def f():
        with Tape() as tape:
            y = nm.mul(x, x)
            tape.backward(y)
        return float(y.data[0])

    assert grad_check(f, [x], eps=1e-5) < 1e-8


def reference_lstm(x, w, r, b, gain=None, bias=None):
    """Per-step LSTM on plain arrays, gates packed i, f, g, o: the oracle for lstm_layer."""
    hh = r.shape[0]
    h, c, out = np.zeros(hh), np.zeros(hh), []
    for row in x:
        z = row @ w + h @ r + b
        if gain is not None:
            z = (z - z.mean()) / np.sqrt(z.var() + 1e-5) * gain + bias
        i = 1.0 / (1.0 + np.exp(-z[:hh]))
        f = 1.0 / (1.0 + np.exp(-z[hh : 2 * hh]))
        g = np.tanh(z[2 * hh : 3 * hh])
        o = 1.0 / (1.0 + np.exp(-z[3 * hh :]))
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def lstm_inputs(rng, t_len, layer_norm, d=3, hh=4):
    """x, w, r, b (and ln_gain, ln_bias) for nm.lstm_layer."""
    x = Tensor(rng.uniform(-1, 1, size=(t_len, d)))
    w = Tensor(rng.uniform(-0.6, 0.6, size=(d, 4 * hh)))
    r = Tensor(rng.uniform(-0.6, 0.6, size=(hh, 4 * hh)))
    b = Tensor(rng.uniform(-0.3, 0.3, size=4 * hh))
    ln = [Tensor(rng.uniform(0.5, 1.5, size=4 * hh)),
          Tensor(rng.uniform(-0.5, 0.5, size=4 * hh))] if layer_norm else []
    return [x, w, r, b, *ln]


def lstm_loss(params, seed):
    """f() for grad_check: sum(seed * lstm_layer(*params)), backward on a fresh tape."""
    def f():
        with Tape() as tape:
            h = nm.lstm_layer(*params)
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
        taped = nm.lstm_layer(*inputs)
    assert len(tape.records) == 1
    untaped = nm.lstm_layer(*inputs)
    assert np.abs(taped.data - want).max() <= 1e-12
    assert np.array_equal(untaped.data, taped.data)


def test_layer_norm_gradient():
    rng = np.random.default_rng(23)
    x = Tensor(rng.uniform(-1, 1, size=(2, 6)))
    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = Tensor(rng.uniform(-0.5, 0.5, size=6))
    w = rng.uniform(-1, 1, size=(2, 6))

    def f():
        with Tape() as tape:
            y = nm.layer_norm(x, gain, bias)
            tape.backward(y, seed=w)
        return float((y.data * w).sum())

    assert grad_check(f, [x, gain, bias], eps=1e-5) < 1e-4


@pytest.mark.parametrize("op_name", ["add", "mul", "add_row", "sigmoid", "tanh",
                                     "outer_add", "affine_last", "log_softmax",
                                     "slice_cols", "embed_prefix"])
def test_primitive_gradients_random_inputs(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    a = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    row = Tensor(rng.uniform(-1, 1, size=4))
    w34 = Tensor(rng.uniform(-1, 1, size=(4, 3)))
    bias3 = Tensor(rng.uniform(-1, 1, size=3))
    builders = {
        "add": (lambda: nm.add(a, b), [a, b]),
        "mul": (lambda: nm.mul(a, b), [a, b]),
        "add_row": (lambda: nm.add_row(a, row), [a, row]),
        "sigmoid": (lambda: nm.sigmoid(a), [a]),
        "tanh": (lambda: nm.tanh(a), [a]),
        "outer_add": (lambda: nm.outer_add(a, b), [a, b]),
        "affine_last": (lambda: nm.affine_last(a, w34, bias3), [a, w34, bias3]),
        "log_softmax": (lambda: nm.log_softmax(a), [a]),
        "slice_cols": (lambda: nm.slice_cols(a, 1, 3), [a]),
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


def test_backward_accumulates_shared_parameters():
    x = Tensor([[2.0]])
    with Tape() as tape:
        y = nm.add(nm.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1 = 5
        tape.backward(y)
    assert x.grad[0, 0] == pytest.approx(5.0)


def test_backward_deterministic_after_zeroing():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 2)))

    def run():
        a.zero_grad()
        b.zero_grad()
        with Tape() as tape:
            out = nm.matmul(a, b)
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
    p = Tensor([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        with Tape() as tape:
            y = nm.mul(p, p)
            tape.backward(y)
        opt.step()
    assert abs(p.data[0]) < 1e-2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_adam_rejects_non_finite_gradient_norm(bad):
    p = Tensor([1.0, 2.0])
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, bad])
    with pytest.raises(NumericsError):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0]
    assert opt.t == 0 and not opt.m[0].any() and not opt.v[0].any()
