"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive computes its forward result eagerly with numpy and, when a
Tape is active, appends one record to it. A record keeps references to the
operation's inputs and output plus a closure that accumulates (+=) into the
inputs' grad buffers. Because records are appended in execution order, the
list is already topologically sorted and the backward pass is a single
reverse sweep. No operator overloading, no graph rewriting.

Gradients accumulate: a parameter used at many time steps receives the sum
of all its contributions. Callers zero grads between steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, ShapeError


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, grad=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None if grad is None else np.ascontiguousarray(grad, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={tuple(self.data.shape)})"


def tensor(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64))


class OpRecord:
    """One executed primitive: inputs, output, and the grad-accumulating closure."""

    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name: str, inputs: tuple, output: Tensor, backward: Callable):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Execution-ordered record of primitives (ComputationRecord).

    Entering the context makes the tape active; primitives executed inside
    record themselves. ``backward`` seeds the grad of one output and replays
    the records in reverse. With no active tape, primitives run forward-only.
    """

    def __init__(self):
        self.records: list[OpRecord] = []

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STACK.pop()

    def backward(self, output: Tensor, seed=1.0) -> None:
        g = np.asarray(seed, dtype=np.float64)
        if g.shape not in ((), output.data.shape):
            raise ShapeError(f"backward seed shape {g.shape} does not match output {output.data.shape}")
        output.ensure_grad()[...] += g
        for rec in reversed(self.records):
            if rec.output.grad is not None:
                rec.backward(rec.output.grad)


_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _STACK[-1] if _STACK else None


def _record(name: str, inputs: tuple, output: Tensor, backward: Callable) -> None:
    tape = active_tape()
    if tape is not None:
        tape.records.append(OpRecord(name, inputs, output, backward))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product; dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        a.ensure_grad()[...] += g @ b.data.T
        b.ensure_grad()[...] += a.data.T @ g

    _record("matmul", (a, b), out, backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)

    def backward(g):
        a.ensure_grad()[...] += g
        b.ensure_grad()[...] += g

    _record("add", (a, b), out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)

    def backward(g):
        a.ensure_grad()[...] += g * b.data
        b.ensure_grad()[...] += g * a.data

    _record("mul", (a, b), out, backward)
    return out


def add_row(a: Tensor, bias: Tensor) -> Tensor:
    """Add a length-n vector to every row of a (..., n) tensor."""
    if bias.data.ndim != 1 or a.shape[-1] != bias.shape[0]:
        raise ShapeError(f"add_row: shapes {a.shape} and {bias.shape} incompatible")
    out = Tensor(a.data + bias.data)
    lead = tuple(range(a.data.ndim - 1))

    def backward(g):
        a.ensure_grad()[...] += g
        bias.ensure_grad()[...] += g.sum(axis=lead) if lead else g

    _record("add_row", (a, bias), out, backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s)

    def backward(g):
        x.ensure_grad()[...] += g * s * (1.0 - s)

    _record("sigmoid", (x,), out, backward)
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)

    def backward(g):
        x.ensure_grad()[...] += g * (1.0 - t * t)

    _record("tanh", (x,), out, backward)
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: bad range [{start}:{stop}] for shape {x.shape}")
    out = Tensor(x.data[:, start:stop])

    def backward(g):
        x.ensure_grad()[:, start:stop] += g

    _record("slice_cols", (x,), out, backward)
    return out


def embed_prefix(table: Tensor, ids: Sequence[int]) -> Tensor:
    """An all-zero start row followed by the table rows of ``ids``: (len(ids) + 1, n)."""
    idx = np.asarray(ids, dtype=np.int64).reshape(-1)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx[(idx < 0) | (idx >= rows)][0])
        raise ShapeError(f"embed_prefix: id {bad} outside table of {rows} rows")
    out = Tensor(np.concatenate([np.zeros((1, table.shape[1])), table.data[idx]]))

    def backward(g):
        np.add.at(table.ensure_grad(), idx, g[1:])

    _record("embed_prefix", (table,), out, backward)
    return out


def outer_add(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise row sums: (T, n) + (U, n) -> (T, U, n)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"outer_add: shapes {a.shape} and {b.shape} incompatible")
    out = Tensor(a.data[:, None, :] + b.data[None, :, :])

    def backward(g):
        a.ensure_grad()[...] += g.sum(axis=1)
        b.ensure_grad()[...] += g.sum(axis=0)

    _record("outer_add", (a, b), out, backward)
    return out


def affine_last(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """y = x @ w + bias applied along the last axis of x (rank 2 or 3)."""
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0] or bias.shape != (w.shape[1],):
        raise ShapeError(f"affine_last: shapes {x.shape}, {w.shape}, {bias.shape} incompatible")
    out = Tensor(x.data @ w.data + bias.data)
    n_in, n_out = w.shape

    def backward(g):
        x.ensure_grad()[...] += g @ w.data.T
        w.ensure_grad()[...] += x.data.reshape(-1, n_in).T @ g.reshape(-1, n_out)
        bias.ensure_grad()[...] += g.reshape(-1, n_out).sum(axis=0)

    _record("affine_last", (x, w, bias), out, backward)
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Max-shifted log softmax over the last axis; each output slice logsumexps to 0."""
    if x.shape[-1] < 1:
        raise ShapeError(f"log_softmax: empty last axis in shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericsError("log_softmax: input contains non-finite values")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor(y)

    def backward(g):
        x.ensure_grad()[...] += g - np.exp(y) * g.sum(axis=-1, keepdims=True)

    _record("log_softmax", (x,), out, backward)
    return out


LN_EPS = 1e-5


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LN_EPS):
    """Layer norm over the last axis; returns (y, xhat, inv) where inv = 1/std."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_input_grad(gx: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """d/dx of xhat applied to gx = dL/dy * gain: inv * (gx - mean(gx) - xhat * mean(gx * xhat))."""
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - m1 - xhat * m2)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias must be ({n},), got {gain.shape}, {bias.shape}")
    y, xhat, inv = _layer_norm_forward(x.data, gain.data, bias.data, eps)
    out = Tensor(y)
    lead = tuple(range(x.data.ndim - 1))

    def backward(g):
        x.ensure_grad()[...] += _layer_norm_input_grad(g * gain.data, xhat, inv)
        gain.ensure_grad()[...] += (g * xhat).sum(axis=lead) if lead else (g * xhat)
        bias.ensure_grad()[...] += g.sum(axis=lead) if lead else g

    _record("layer_norm", (x, gain, bias), out, backward)
    return out


def lstm_cell(xw: np.ndarray, h: np.ndarray, c: np.ndarray, r: np.ndarray, b: np.ndarray,
              ln_gain: np.ndarray | None = None, ln_bias: np.ndarray | None = None):
    """One LSTM step on plain arrays; the only LSTM cell, for training and decoding.

    ``xw`` is the step's input projection x @ W as a (1, 4H) row, ``h`` and
    ``c`` the (1, H) states, ``r`` the (H, 4H) recurrent weights. Gates are
    packed i, f, g, o; with ``ln_gain``/``ln_bias`` the 4H pre-activation is
    layer-normalized. Returns (h_new, c_new, acts): ``acts`` is what BPTT
    needs, (a, tanh(c_new), xhat, inv) with ``a`` the packed gate activations
    and xhat/inv the layer-norm terms (None without layer norm).
    """
    z = xw + h @ r + b
    xhat = inv = None
    if ln_gain is not None:
        z, xhat, inv = _layer_norm_forward(z, ln_gain, ln_bias)
    hh = c.shape[1]
    a = 1.0 / (1.0 + np.exp(-z))
    a[:, 2 * hh : 3 * hh] = np.tanh(z[:, 2 * hh : 3 * hh])
    c_new = a[:, hh : 2 * hh] * c + a[:, :hh] * a[:, 2 * hh : 3 * hh]
    tc = np.tanh(c_new)
    return a[:, 3 * hh :] * tc, c_new, (a, tc, xhat, inv)


def lstm_layer(x: Tensor, w: Tensor, r: Tensor, b: Tensor,
               ln_gain: Tensor | None = None, ln_bias: Tensor | None = None) -> Tensor:
    """A whole LSTM layer over a (T, D) sequence from zero state: (T, H) hidden rows.

    Forward is one input GEMM x @ w for all frames, then ``lstm_cell`` per
    step. Taped, it writes one record whose backward is analytic BPTT over the
    saved gate activations; untaped, nothing is kept for backward.
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"lstm_layer: need a nonempty (T, D) input, got shape {x.shape}")
    hh = r.shape[0]
    if w.shape != (x.shape[1], 4 * hh) or r.shape != (hh, 4 * hh) or b.shape != (4 * hh,):
        raise ShapeError(f"lstm_layer: shapes x {x.shape}, w {w.shape}, r {r.shape}, "
                         f"b {b.shape} incompatible")
    if (ln_gain is None) != (ln_bias is None) or (
            ln_gain is not None and (ln_gain.shape != (4 * hh,) or ln_bias.shape != (4 * hh,))):
        raise ShapeError(f"lstm_layer: layer norm needs gain and bias of shape ({4 * hh},)")
    ln = (None, None) if ln_gain is None else (ln_gain.data, ln_bias.data)
    tape = active_tape()
    xw = x.data @ w.data
    h = np.zeros((1, hh))
    c = np.zeros((1, hh))
    hs, cs, saved = [], [c], []
    with np.errstate(over="ignore"):
        for t in range(x.shape[0]):
            h, c, acts = lstm_cell(xw[t : t + 1], h, c, r.data, b.data, *ln)
            hs.append(h)
            if tape is not None:
                cs.append(c)
                saved.append(acts)
    out = Tensor(np.concatenate(hs))
    if tape is None:
        return out

    def backward(g):
        t_len = len(saved)
        a = np.concatenate([s[0] for s in saved])
        tc = np.concatenate([s[1] for s in saved])
        c_prev = np.concatenate(cs[:-1])
        h_prev = np.concatenate([np.zeros((1, hh)), out.data[:-1]])
        i, f, gg, o = (a[:, k * hh : (k + 1) * hh] for k in range(4))
        # dz (the 4H pre-activation grad) = dc * p for i, f, g and dh * q for o
        p = np.stack([gg * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - gg * gg)], axis=1)
        q = tc * o * (1.0 - o)
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty((t_len, 4, hh))
        rt = r.data.T
        if ln_gain is not None:
            xhat = np.concatenate([s[2] for s in saved])
            inv = np.concatenate([s[3] for s in saved])
            dz_pre = np.empty((t_len, 4 * hh))
        dh_next = np.zeros(hh)
        dc_next = np.zeros(hh)
        for t in range(t_len - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            np.multiply(dc, p[t], out=dz[t, :3])
            np.multiply(dh, q[t], out=dz[t, 3])
            dzt = dz[t].reshape(4 * hh)
            if ln_gain is not None:
                dzt = dz_pre[t] = _layer_norm_input_grad(dzt * ln[0], xhat[t], inv[t])
            dh_next = dzt @ rt
            dc_next = dc * f[t]
        dz = dz.reshape(t_len, 4 * hh)
        if ln_gain is not None:
            ln_gain.ensure_grad()[...] += (dz * xhat).sum(axis=0)
            ln_bias.ensure_grad()[...] += dz.sum(axis=0)
            dz = dz_pre
        x.ensure_grad()[...] += dz @ w.data.T
        w.ensure_grad()[...] += x.data.T @ dz
        r.ensure_grad()[...] += h_prev.T @ dz
        b.ensure_grad()[...] += dz.sum(axis=0)

    inputs = (x, w, r, b) if ln_gain is None else (x, w, r, b, ln_gain, ln_bias)
    _record("lstm_layer", inputs, out, backward)
    return out


def record_scalar_loss(name: str, logits: Tensor, value: float, grad_logits: np.ndarray) -> Tensor:
    """Wrap an analytically differentiated loss as a taped scalar node.

    The backward closure routes ``seed * grad_logits`` into the logits, from
    where the tape carries gradients into the model parameters.
    """
    node = Tensor(np.array([value]))

    def backward(g):
        logits.ensure_grad()[...] += float(g[0]) * grad_logits

    _record(name, (logits,), node, backward)
    return node


# ---------------------------------------------------------------------------
# scalar helpers for log-space dynamic programs
# ---------------------------------------------------------------------------

NEG_INF = -math.inf


def logsumexp(xs) -> float:
    """log(sum(exp(x))) of a nonempty float sequence; -inf entries allowed."""
    values = [float(v) for v in xs]
    if not values:
        raise NumericsError("logsumexp: empty sequence")
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


# ---------------------------------------------------------------------------
# initialization, optimizer, gradient checking
# ---------------------------------------------------------------------------


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    scale = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-scale, scale, size=shape))


def global_grad_norm(params: Sequence[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all grads so their global norm is at most max_norm; returns the pre-clip norm.

    A non-finite norm leaves the grads as they are."""
    norm = global_grad_norm(params)
    if math.isfinite(norm) and norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Adam:
    """Adam with global-norm gradient clipping (clip before the moment update)."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm: float = 5.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One clipped update; a non-finite pre-clip gradient norm raises before
        any weight or moment is written."""
        norm = clip_global_norm(self.params, self.clip_norm or 0.0)
        if not math.isfinite(norm):
            raise NumericsError(f"Adam.step {self.t + 1}: non-finite gradient norm {norm}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def grad_check(f: Callable[[], float], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between f's analytic gradient and central differences.

    ``f`` evaluates the scalar loss and, as a side effect, accumulates its
    analytic gradient into the params (forward + backward on a fresh tape).
    Error per coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.grad = np.zeros_like(p.data)
    base = f()
    if not math.isfinite(base):
        raise NumericsError(f"grad_check: non-finite loss {base}")
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericsError("grad_check: non-finite loss at perturbed point")
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    for p in params:
        p.grad = np.zeros_like(p.data)
    return worst
