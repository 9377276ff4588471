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
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={tuple(self.data.shape)})"


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


def joint(h_enc: Tensor, h_pre: Tensor, w_enc: Tensor, w_pre: Tensor, b: Tensor,
          w_out: Tensor, b_out: Tensor) -> Tensor:
    """The joint network's (T, U+1, K) lattice of logits from (T, H) encoder
    and (U+1, H') prediction rows: s = (h_enc @ w_enc)[:, None] +
    (h_pre @ w_pre)[None] + b, then s @ w_out + b_out. One record; only the
    (T, U+1, P) hidden lattice s is kept for backward."""
    proj = w_enc.shape[-1]
    if (h_enc.data.ndim != 2 or h_pre.data.ndim != 2 or w_out.data.ndim != 2
            or w_enc.shape != (h_enc.shape[1], proj) or w_pre.shape != (h_pre.shape[1], proj)
            or b.shape != (proj,) or w_out.shape[0] != proj or b_out.shape != (w_out.shape[1],)):
        raise ShapeError(f"joint: shapes {h_enc.shape}, {h_pre.shape}, {w_enc.shape}, "
                         f"{w_pre.shape}, {b.shape}, {w_out.shape}, {b_out.shape} incompatible")
    s = (h_enc.data @ w_enc.data)[:, None] + (h_pre.data @ w_pre.data)[None]
    s += b.data
    out = Tensor(s @ w_out.data + b_out.data)
    n_out = w_out.shape[1]

    def backward(g):
        gs = g @ w_out.data.T
        w_out.ensure_grad()[...] += s.reshape(-1, proj).T @ g.reshape(-1, n_out)
        b_out.ensure_grad()[...] += g.reshape(-1, n_out).sum(axis=0)
        b.ensure_grad()[...] += gs.sum(axis=(0, 1))
        g_enc, g_pre = gs.sum(axis=1), gs.sum(axis=0)
        h_pre.ensure_grad()[...] += g_pre @ w_pre.data.T
        w_pre.ensure_grad()[...] += h_pre.data.T @ g_pre
        h_enc.ensure_grad()[...] += g_enc @ w_enc.data.T
        w_enc.ensure_grad()[...] += h_enc.data.T @ g_enc

    _record("joint", (h_enc, h_pre, w_enc, w_pre, b, w_out, b_out), out, backward)
    return out


def log_softmax_array(z: np.ndarray) -> np.ndarray:
    """Max-shifted log softmax of a plain array over its last axis (untaped)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


@lru_cache(maxsize=None)
def lstm_gate_scale(hh: int) -> np.ndarray:
    """(4H,) read-only column scale of a packed i, f, g, o pre-activation:
    0.5 on the sigmoid gates i, f, o and 1 on the cell input g.

    With s this vector, the gates are s * tanh(s * z) + (1 - s), because
    sigmoid(v) = 0.5 * tanh(v / 2) + 0.5: one tanh over the packed row gives
    all four. ``lstm_cell`` alone applies it, to the raw pre-activation z.
    """
    s = np.full(4 * hh, 0.5)
    s[2 * hh : 3 * hh] = 1.0
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _lstm_gate_shift(hh: int) -> np.ndarray:
    shift = 1.0 - lstm_gate_scale(hh)
    shift.setflags(write=False)
    return shift


def lstm_cell(z: np.ndarray, c: np.ndarray, c_out: np.ndarray | None = None,
              h_out: np.ndarray | None = None, tc_out: np.ndarray | None = None, ln=None):
    """One LSTM step on plain arrays, in place; the only LSTM cell, for training and decoding.

    ``z`` is the raw (..., 4H) pre-activation x @ W + h @ R + b, gates
    packed i, f, g, o; with ``ln`` = (gain, bias) it is layer-normalized
    first. ``c`` is the (..., H) previous cell state.
    ``z`` is overwritten with the gate activations, and the new cell state,
    hidden state and tanh(cell state) are written to ``c_out``, ``h_out`` and
    ``tc_out`` (new arrays where None). Returns (h, c, ln_stats): ln_stats is
    the layer norm's (xhat, inv) for BPTT, None without layer norm.
    """
    hh = c.shape[-1]
    scale = lstm_gate_scale(hh)
    ln_stats = None
    if ln is None:
        z *= scale
    else:
        y, *ln_stats = _layer_norm_forward(z, *ln)
        np.multiply(y, scale, out=z)
    np.tanh(z, out=z)
    z *= scale
    z += _lstm_gate_shift(hh)
    i, f, g, o = z.reshape(*z.shape[:-1], 4, hh).swapaxes(0, -2)
    c_out = np.multiply(f, c, out=c_out)
    c_out += i * g
    tc_out = np.tanh(c_out, out=tc_out)
    return np.multiply(o, tc_out, out=h_out), c_out, ln_stats


class LstmRun(NamedTuple):
    """The forward buffers of one LSTM layer over a right-padded time-major
    (T, B, D) batch, as ``lstm_forward`` leaves them for BPTT."""

    a: np.ndarray  # (T, B, 4H) gate activations i, f, g, o
    hs: np.ndarray  # (T + 1, B, H) hidden states; row t is the state before step t, row 0 zero
    cs: np.ndarray  # (T + 1, B, H) cell states, likewise
    xhat: np.ndarray | None  # (T, B, 4H) layer-normalized pre-activations, or None
    inv: np.ndarray | None  # (T, B, 1) their 1/std, or None

    @property
    def h(self) -> np.ndarray:
        """The (T, B, H) hidden rows out."""
        return self.hs[1:]


def _check_lstm_shapes(x_shape, w: Tensor, r: Tensor, b: Tensor, ln_gain, ln_bias) -> None:
    hh = r.shape[0]
    if w.shape != (x_shape[-1], 4 * hh) or r.shape != (hh, 4 * hh) or b.shape != (4 * hh,):
        raise ShapeError(f"lstm_layer: shapes x {x_shape}, w {w.shape}, r {r.shape}, "
                         f"b {b.shape} incompatible")
    if (ln_gain is None) != (ln_bias is None) or (
            ln_gain is not None and (ln_gain.shape != (4 * hh,) or ln_bias.shape != (4 * hh,))):
        raise ShapeError(f"lstm_layer: layer norm needs gain and bias of shape ({4 * hh},)")


def lstm_forward(x: np.ndarray, w: Tensor, r: Tensor, b: Tensor,
                 ln_gain: Tensor | None = None, ln_bias: Tensor | None = None) -> LstmRun:
    """The one LSTM forward body: a layer from zero state over a nonempty
    right-padded time-major (T, B, D) batch, untaped.

    One input GEMM x @ w + b covers all T·B rows, then ``lstm_cell`` steps
    the (B, 4H) rows, writing the gates and states into buffers allocated
    once. The layer is causal and starts from zero state, so the batch needs
    no mask: rows before a sequence's length never see its padding.
    """
    if x.ndim != 3 or 0 in x.shape[:-1]:
        raise ShapeError(f"lstm_forward: need a nonempty (T, B, D) batch, got shape {x.shape}")
    _check_lstm_shapes(x.shape, w, r, b, ln_gain, ln_bias)
    t_len, batch, d_in = x.shape
    hh = r.shape[0]
    # (T, B, 4H) pre-activations from the input side; each step adds h @ R
    # to its rows, which the cell then overwrites with the gate activations
    a = (x.reshape(-1, d_in) @ w.data).reshape(t_len, batch, 4 * hh)
    a += b.data
    xhat = inv = ln = None
    if ln_gain is not None:
        ln = (ln_gain.data, ln_bias.data)
        xhat = np.empty(a.shape)
        inv = np.empty((t_len, batch, 1))
    hs = np.zeros((t_len + 1, batch, hh))
    cs = np.zeros((t_len + 1, batch, hh))
    steps = [a, hs[:-1], cs[:-1], cs[1:], hs[1:]]
    tc = np.empty((batch, hh))  # tanh(c) of one step; BPTT recomputes it per sequence
    if batch == 1:  # one sequence steps (4H,) rows: a GEMV costs less than a (1, H) GEMM
        steps, tc = [v[:, 0] for v in steps], tc[0]
    for t, (z, h, c, c_new, h_new) in enumerate(zip(*steps)):
        z += h @ r.data
        ln_stats = lstm_cell(z, c, c_new, h_new, tc, ln)[2]
        if ln is not None:
            xhat[t], inv[t] = ln_stats
    return LstmRun(a, hs, cs, xhat, inv)


def lstm_layer(x: Tensor, w: Tensor, r: Tensor, b: Tensor,
               ln_gain: Tensor | None = None, ln_bias: Tensor | None = None, *,
               run: LstmRun, col: int) -> Tensor:
    """A whole LSTM layer from zero state over a (T, D) sequence, (T, H) hidden
    rows out, replayed from column ``col`` of ``run``: the ``lstm_forward``
    buffers of a batch whose column ``col`` starts with ``x``.

    Nothing is recomputed: the layer's output comes from that column. Taped,
    the layer writes one record whose backward is analytic BPTT over the
    column's buffers. An input that no record produced and that holds no
    grad buffer is data (the features into the first encoder layer):
    backward computes no gradient for it.
    """
    if x.data.ndim != 2 or not (0 < x.shape[0] <= run.a.shape[0]) \
            or not 0 <= col < run.a.shape[1]:
        raise ShapeError(f"lstm_layer: a (T, D) column of a batch run of "
                         f"{run.a.shape[:2]} (T, B), got shape {x.shape} at column {col}")
    _check_lstm_shapes(x.shape, w, r, b, ln_gain, ln_bias)
    t_len = x.shape[0]
    hs = run.hs[: t_len + 1, col]
    out = Tensor(hs[1:])
    tape = active_tape()
    if tape is None:
        return out
    hh = r.shape[0]
    a, cs = run.a[:t_len, col], run.cs[: t_len + 1, col]
    ln = ln_gain is not None
    if ln:
        xhat, inv = run.xhat[:t_len, col], run.inv[:t_len, col]
    x_wants_grad = x.grad is not None or any(rec.output is x for rec in reversed(tape.records))

    def backward(g):
        i, f, gg, o = a.reshape(t_len, 4, hh).swapaxes(0, 1)
        tcs = np.tanh(cs[1:])
        # dz (the 4H pre-activation grad) = [dc, dc, dc, dh] * pq row-wise
        pq = np.stack([gg * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - gg * gg),
                       tcs * o * (1.0 - o)], axis=1)
        dc_dh = o * (1.0 - tcs * tcs)
        dz = np.empty((t_len, 4, hh))
        dz_flat = dz.reshape(t_len, 4 * hh)
        dz_pre = dz_flat if not ln else np.empty((t_len, 4 * hh))  # grad before layer norm
        rt = r.data.T  # a contiguous copy costs more than it saves at these sizes
        d = np.zeros((4, hh))
        dc = d[:3]  # dL/dc[t], kept three times over, one per i, f, g row of pq
        dh = d[3]  # dz[t + 1] @ R^T, then dL/dh[t]
        for t in range(t_len - 1, -1, -1):
            dh += g[t]
            dc += dh * dc_dh[t]
            np.multiply(d, pq[t], out=dz[t])
            if ln:
                dz_pre[t] = _layer_norm_input_grad(dz_flat[t] * ln_gain.data, xhat[t], inv[t])
            np.matmul(dz_pre[t], rt, out=dh)
            dc *= f[t]
        if ln:
            ln_gain.ensure_grad()[...] += (dz_flat * xhat).sum(axis=0)
            ln_bias.ensure_grad()[...] += dz_flat.sum(axis=0)
        if x_wants_grad:
            x.ensure_grad()[...] += dz_pre @ w.data.T
        w.ensure_grad()[...] += x.data.T @ dz_pre
        r.ensure_grad()[...] += hs[:-1].T @ dz_pre
        b.ensure_grad()[...] += dz_pre.sum(axis=0)

    inputs = (x, w, r, b) if not ln else (x, w, r, b, ln_gain, ln_bias)
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
