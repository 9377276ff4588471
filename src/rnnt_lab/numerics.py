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
from contextlib import contextmanager
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
        self.sweep()

    def sweep(self) -> None:
        """Replay the records in reverse on their outputs' grads, skipping outputs without one."""
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


def embed_prefix(table: Tensor, ids) -> Tensor:
    """An all-zero start row over the table rows of U ``ids`` or (U, B) ids: (U + 1, [B,] n)."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx[(idx < 0) | (idx >= rows)][0])
        raise ShapeError(f"embed_prefix: id {bad} outside table of {rows} rows")
    out = Tensor(np.concatenate([np.zeros((1, *idx.shape[1:], table.shape[1])), table.data[idx]]))

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
    s, logits = joint_output((h_enc.data @ w_enc.data)[:, None], h_pre.data @ w_pre.data,
                             b.data, w_out.data, b_out.data)
    out = Tensor(logits)
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


def joint_output(e: np.ndarray, p: np.ndarray, b: np.ndarray, w_out: np.ndarray,
                 b_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joint's untaped forward from its projected encoder side ``e`` and
    prediction side ``p``, which broadcast against each other: the hidden
    s = (e + p) + b and the logits s @ w_out + b_out, returned as (s, logits).
    ``joint`` (training) and ``TransducerModel.joint_row`` (decoding) share it."""
    s = e + p
    s += b
    return s, s @ w_out + b_out


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
    t_len, batch, d_in = x.shape
    hh = r.shape[0]
    if w.shape != (d_in, 4 * hh) or r.shape != (hh, 4 * hh) or b.shape != (4 * hh,):
        raise ShapeError(f"lstm_layer: shapes x {x.shape}, w {w.shape}, r {r.shape}, "
                         f"b {b.shape} incompatible")
    if (ln_gain is None) != (ln_bias is None) or (
            ln_gain is not None and (ln_gain.shape != (4 * hh,) or ln_bias.shape != (4 * hh,))):
        raise ShapeError(f"lstm_layer: layer norm needs gain and bias of shape ({4 * hh},)")
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
    tc = np.empty((batch, hh))  # tanh(c) of one step; BPTT recomputes it
    if batch == 1:  # one sequence steps (4H,) rows: a GEMV costs less than a (1, H) GEMM
        steps, tc = [v[:, 0] for v in steps], tc[0]
    for t, (z, h, c, c_new, h_new) in enumerate(zip(*steps)):
        z += h @ r.data
        ln_stats = lstm_cell(z, c, c_new, h_new, tc, ln)[2]
        if ln is not None:
            xhat[t], inv[t] = ln_stats
    return LstmRun(a, hs, cs, xhat, inv)


def lstm_layer(x, w: Tensor, r: Tensor, b: Tensor,
               ln_gain: Tensor | None = None, ln_bias: Tensor | None = None) -> Tensor:
    """``lstm_forward`` over a right-padded time-major (T, B, D) batch, or a (T, D)
    sequence as a batch of one; a plain-array ``x`` is data and gets no gradient.

    Taped, one record whose backward is BPTT over (B, H) rows: one recurrent
    GEMM per step, then the x, w, r and b gradients as GEMMs over all T·B rows.
    Padded frames get no upstream gradient, so their dh, dc and dz stay zero.
    dz overwrites the gate buffer, so a second backward is a ``NumericsError``.
    """
    wants_dx = isinstance(x, Tensor)
    x = x if wants_dx else Tensor(x)
    run = lstm_forward(x.data[:, None] if x.data.ndim == 2 else x.data,
                       w, r, b, ln_gain, ln_bias)
    out = Tensor(run.h.reshape(*x.shape[:-1], -1))
    tape = active_tape()
    if tape is None:
        return out
    a, hs, cs, xhat, inv = run
    t_len, batch, hh = run.h.shape
    ln = ln_gain is not None

    def backward(g):
        if not a.flags.writeable:
            raise NumericsError("lstm_layer: a second backward over one record; the first "
                                "wrote its gradients over the gate buffer")
        g = g.reshape(t_len, batch, hh)
        a4 = a.reshape(t_len, batch, 4, hh)
        i, f, gg, o = (a4[:, :, k] for k in range(4))
        # dz (the 4H pre-activation grad) = [dc, dc, dc, dh] * pq row-wise, where
        # pq = [g i (1 - i), c_prev f (1 - f), i (1 - g^2), tanh(c) o (1 - o)]
        # is written over the gate activations, in place
        tmp = np.tanh(cs[1:])
        dc_dh = tmp * tmp  # dL/dc[t] += dL/dh[t] * o (1 - tanh(c)^2)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        tmp *= o
        np.subtract(1.0, o, out=o)
        o *= tmp
        fs = f.copy()  # carries dc back one step
        np.subtract(1.0, f, out=f)
        f *= fs
        f *= cs[:-1]
        np.multiply(gg, gg, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= i
        gg *= i
        np.subtract(1.0, i, out=i)
        i *= gg
        gg[...] = tmp
        del tmp
        if ln:
            d_gain, d_bias = np.zeros(4 * hh), np.zeros(4 * hh)
        rt = r.data.T  # a contiguous copy costs more than it saves at these sizes
        d = np.zeros((batch, 4, hh))
        dc = np.zeros((batch, hh))  # dL/dc[t]
        dh = np.zeros((batch, hh))  # dz[t + 1] @ R^T, then dL/dh[t]
        for t in range(t_len - 1, -1, -1):
            dh += g[t]
            dc += dh * dc_dh[t]
            d[:, :3] = dc[:, None]
            d[:, 3] = dh
            a4[t] *= d  # a[t] now holds dz[t]
            if ln:
                z = a[t]
                d_gain += (z * xhat[t]).sum(axis=0)
                d_bias += z.sum(axis=0)
                z[...] = _layer_norm_input_grad(z * ln_gain.data, xhat[t], inv[t])
            np.matmul(a[t], rt, out=dh)
            dc *= fs[t]
        a.flags.writeable = False  # it holds dz now
        dz = a.reshape(-1, 4 * hh)
        if ln:
            ln_gain.ensure_grad()[...] += d_gain
            ln_bias.ensure_grad()[...] += d_bias
        if wants_dx:
            x.ensure_grad()[...] += (dz @ w.data.T).reshape(x.shape)
        w.ensure_grad()[...] += x.data.reshape(-1, x.shape[-1]).T @ dz
        r.ensure_grad()[...] += hs[:-1].reshape(-1, hh).T @ dz
        b.ensure_grad()[...] += dz.sum(axis=0)

    inputs = (x, w, r, b) if not ln else (x, w, r, b, ln_gain, ln_bias)
    _record("lstm_layer", inputs, out, backward)
    return out


def batch_column(x: Tensor, col: int, rows: int) -> Tensor:
    """One utterance's (rows, H) share of a (T, B, H) batch: column ``col``'s first rows."""
    if x.data.ndim != 3 or not 0 < rows <= x.shape[0] or not 0 <= col < x.shape[1]:
        raise ShapeError(f"batch_column: rows {rows} of column {col} lie outside a "
                         f"(T, B, H) batch of shape {x.shape}")
    out = Tensor(x.data[:rows, col])

    def backward(g):
        x.ensure_grad()[:rows, col] += g

    _record("batch_column", (x,), out, backward)
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


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> Tensor:
    """A (fan_in, fan_out) weight drawn uniformly from +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
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


@contextmanager
def diverged_as_error(where: str):
    """Run a block with numpy's float overflow, invalid and divide results
    raised instead of warned of: they, and any ``NumericsError``, leave the
    block as one ``NumericsError`` that starts with ``where``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (NumericsError, FloatingPointError) as exc:
        raise NumericsError(f"{where}: {exc}") from exc


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
