"""The three transducer components: LSTM encoder, LSTM prediction network,
and the two-linear-layer joint network, plus frame stacking and checkpoints.

State convention: recurrent states are (n, H) batches of row vectors (n = 1
for a single hypothesis), weights are stored (in_dim, out_dim) so a step is
``rows @ W``. Gate order inside the packed 4H pre-activation is input,
forget, cell, output. Input features are data, not parameters: they enter the
tape as leaves and receive no gradient.
"""

from __future__ import annotations

import copy
import json
import numbers
import operator
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Tensor


@dataclass
class ModelConfig:
    """Desk-scale defaults; every extent is config-reachable up to production sizes.
    A field's metadata declares its lower bound, which ``check_field_types`` checks."""

    input_dim: int = field(default=8, metadata={">=": 1})
    stack_factor: int = field(default=4, metadata={">=": 1})
    stack_stride: int = field(default=2, metadata={">=": 1})
    encoder_layers: int = field(default=2, metadata={">=": 1})
    prediction_layers: int = field(default=1, metadata={">=": 1})
    hidden: int = field(default=64, metadata={">=": 1})
    projection: int = field(default=32, metadata={">=": 1})
    vocab_size: int = field(default=10, metadata={">=": 1})
    use_layer_norm: bool = False

    def __post_init__(self):
        check_field_types(self)

    @property
    def encoder_input_dim(self) -> int:
        return self.input_dim * self.stack_factor

    @property
    def blank_id(self) -> int:
        # blank is the last class, after the vocab_size real tokens
        return self.vocab_size

    @property
    def num_classes(self) -> int:
        return self.vocab_size + 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        reject_unknown_keys(cls, d)
        return cls(**d)


def reject_unknown_keys(cls, d: dict) -> None:
    """ConfigError naming every key of ``d`` that is not a field of dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__}: need a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {', '.join(map(repr, unknown))}")


# a field's lower bound, declared in its metadata as {">=": low} or {">": low}
_LOWER_BOUNDS = {">=": operator.ge, ">": operator.gt}


def check_field_types(obj) -> None:
    """ConfigError naming the first field of dataclass ``obj`` whose value
    does not match its annotation (int, float, bool, str, a dataclass, or a
    tuple or dict of those), or falls below the lower bound its metadata
    declares; a float field takes an int but no NaN or infinity, no number
    field a bool, and a bound holds for each entry of a tuple or value of a dict."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        where = f"{type(obj).__name__}.{f.name}"
        if not _has_type(value, hint):
            name = hint.__name__ if typing.get_origin(hint) is None else str(hint)
            name = name.replace("float", "finite float")
            raise ConfigError(f"{where} must be {name}, got {value!r}")
        entries = (value,)
        if isinstance(value, (tuple, dict)):  # a bound holds for each entry
            entries = value.values() if isinstance(value, dict) else value
            where += " entries"
        for op, low in f.metadata.items():
            if not all(_LOWER_BOUNDS[op](v, low) for v in entries):
                raise ConfigError(f"{where} must be {op} {low}, got {value}")


@lru_cache(maxsize=None)
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)  # resolving the annotation strings costs ~0.5 ms


def _has_type(value, hint) -> bool:
    if typing.get_origin(hint) is dict:
        key_hint, value_hint = typing.get_args(hint)
        return isinstance(value, dict) and all(
            _has_type(k, key_hint) and _has_type(v, value_hint) for k, v in value.items())
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_has_type(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_has_type, value, args))
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:  # finite: neither NaN nor infinity, nor an int past the float range
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, hint)


def stack_frames(features, stack: int, stride: int) -> Tensor:
    """Concatenate raw feature rows into encoder input frames.

    Output frame t holds raw rows [t*stride, t*stride + stack), zero-padded
    past the end; T = ceil(N / stride). Features are data, never differentiated.
    """
    data = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ShapeError(f"stack_frames: need a nonempty (N, d) matrix, got shape {data.shape}")
    if stack < 1 or stride < 1:
        raise ShapeError(f"stack_frames: stack and stride must be >= 1, got {stack}, {stride}")
    n, d = data.shape
    t_out = -(-n // stride)
    padded = np.zeros((max(n, (t_out - 1) * stride + stack), d))
    padded[:n] = data
    rows = np.arange(0, t_out * stride, stride)[:, None] + np.arange(stack)
    return Tensor(padded[rows].reshape(t_out, stack * d))


class Affine:
    """A plain affine map y = x @ W + b, used for throwaway classifier heads."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = nm.xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.b = Tensor(np.zeros(out_dim))

    def apply(self, x: Tensor) -> Tensor:
        return nm.affine_last(x, self.w, self.b)

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]


class LstmLayer:
    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator, layer_norm: bool):
        self.hidden = hidden
        self.layer_norm = layer_norm
        self.w = nm.xavier_uniform(rng, (in_dim, 4 * hidden), in_dim, 4 * hidden)
        self.r = nm.xavier_uniform(rng, (hidden, 4 * hidden), hidden, 4 * hidden)
        self.b = Tensor(np.zeros(4 * hidden))
        self.ln_gain = Tensor(np.ones(4 * hidden)) if layer_norm else None
        self.ln_bias = Tensor(np.zeros(4 * hidden)) if layer_norm else None

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}.w", self.w), (f"{prefix}.r", self.r), (f"{prefix}.b", self.b)]
        if self.layer_norm:
            out += [(f"{prefix}.ln_gain", self.ln_gain), (f"{prefix}.ln_bias", self.ln_bias)]
        return out


def pad_batch(seqs) -> np.ndarray:
    """Right-pad (T_j, ...) arrays of one trailing shape and dtype with zeros
    into one time-major (max T_j, B, ...) batch; sequence j is column j."""
    batch = np.zeros((max(map(len, seqs)), len(seqs), *seqs[0].shape[1:]), seqs[0].dtype)
    for col, seq in enumerate(seqs):
        batch[: len(seq), col] = seq
    return batch


class LstmStack:
    """Unidirectional stacked LSTM; output at t depends only on inputs <= t.

    Training and decoding share one cell (``numerics.lstm_cell``):
    ``forward`` runs every layer over a right-padded time-major (T, B, D)
    batch, or a (T, D) sequence as a batch of one, as one ``lstm_layer`` per
    layer (taped, one BPTT record each); ``step`` advances the untaped
    per-layer (n, H) states by one input row each.
    """

    def __init__(self, in_dim: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, layer_norm: bool):
        self.layers = [
            LstmLayer(in_dim if i == 0 else hidden, hidden, rng, layer_norm)
            for i in range(num_layers)
        ]

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"{prefix}.l{i}"))
        return out

    def forward(self, x) -> Tensor:
        """The top layer's hidden rows over ``x``, a Tensor or a plain array of data."""
        for layer in self.layers:
            x = nm.lstm_layer(x, layer.w, layer.r, layer.b, layer.ln_gain, layer.ln_bias)
        return x

    def initial_state(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.zeros((1, l.hidden)), np.zeros((1, l.hidden))) for l in self.layers]

    def step(self, state, x_rows: np.ndarray):
        """One step of n sequences: (n, D) input rows and per-layer (n, H) (h, c)
        pairs -> the (n, H) output rows and the new state."""
        new_state = []
        for layer, (h, c) in zip(self.layers, state):
            z = x_rows @ layer.w.data
            z += h @ layer.r.data
            z += layer.b.data
            ln = (layer.ln_gain.data, layer.ln_bias.data) if layer.layer_norm else None
            h, c, _ = nm.lstm_cell(z, c, ln=ln)
            new_state.append((h, c))
            x_rows = h
        return x_rows, new_state


class JointParams:
    """Two linear layers: per-side projections summed, then output affine to K+1."""

    def __init__(self, enc_dim: int, pre_dim: int, projection: int, num_classes: int,
                 rng: np.random.Generator):
        self.w_enc = nm.xavier_uniform(rng, (enc_dim, projection), enc_dim, projection)
        self.w_pre = nm.xavier_uniform(rng, (pre_dim, projection), pre_dim, projection)
        self.b = Tensor(np.zeros(projection))
        self.w_out = nm.xavier_uniform(rng, (projection, num_classes), projection, num_classes)
        self.b_out = Tensor(np.zeros(num_classes))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.w_enc", self.w_enc), (f"{prefix}.w_pre", self.w_pre),
                (f"{prefix}.b", self.b), (f"{prefix}.w_out", self.w_out),
                (f"{prefix}.b_out", self.b_out)]


class TransducerModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 0x5EED])
        self.encoder = LstmStack(config.encoder_input_dim, config.hidden,
                                 config.encoder_layers, rng, config.use_layer_norm)
        self.embedding = nm.xavier_uniform(rng, (config.vocab_size, config.hidden),
                                           config.vocab_size, config.hidden)
        self.prediction = LstmStack(config.hidden, config.hidden,
                                    config.prediction_layers, rng, config.use_layer_norm)
        self.joint_params = JointParams(config.hidden, config.hidden, config.projection,
                                        config.num_classes, rng)

    # -- parameters and state -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.encoder.named_parameters("encoder")
        out.append(("embedding", self.embedding))
        out += self.prediction.named_parameters("prediction")
        out += self.joint_params.named_parameters("joint")
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def encoder_parameters(self) -> list[Tensor]:
        return [t for _, t in self.encoder.named_parameters("encoder")]

    def prediction_parameters(self) -> list[Tensor]:
        return [self.embedding] + [t for _, t in self.prediction.named_parameters("prediction")]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        unknown = sorted(set(state) - {name for name, _ in named})
        if unknown:
            raise ConfigError(f"unknown tensor(s) {', '.join(map(repr, unknown))} for this model")
        for name, t in named:
            src = np.asarray(state[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ShapeError(f"parameter {name}: stored shape {src.shape} != model {t.data.shape}")
            t.data[...] = src

    def clone(self) -> "TransducerModel":
        """An independent copy of config and weights, without gradients."""
        other = copy.deepcopy(self)
        for p in other.parameters():
            p.zero_grad()
        return other

    # -- forward passes --------------------------------------------------------

    def _check_frames(self, x: Tensor) -> None:
        if x.data.ndim != 2 or x.shape[0] == 0:
            raise ShapeError(f"encode: need a nonempty (T, D) input, got shape {x.shape}")
        if x.shape[1] != self.config.encoder_input_dim:
            raise ShapeError(
                f"encode: input width {x.shape[1]} != input_dim*stack_factor "
                f"({self.config.encoder_input_dim})")

    def encode(self, x: Tensor, h_batch: Tensor | None = None, col: int = 0) -> Tensor:
        """Eq-style encoder pass over stacked frames: (T, D) -> (T, H); with
        ``h_batch`` from ``encode_batch``, the first T rows of its column ``col``."""
        self._check_frames(x)
        if h_batch is None:
            return self.encoder.forward(x.data)
        return nm.batch_column(h_batch, col, x.shape[0])

    def predict(self, y_prefix: list[int], h_batch: Tensor | None = None, col: int = 0) -> Tensor:
        """Label-history pass: prefix of U token ids -> (U+1, H); row 0 is the
        start context. With ``h_batch`` from ``predict_batch``, the first U+1
        rows of its column ``col``."""
        if h_batch is None:
            return self.prediction.forward(nm.embed_prefix(self.embedding, y_prefix))
        return nm.batch_column(h_batch, col, len(y_prefix) + 1)

    def encode_batch(self, frames) -> Tensor:
        """(T, B, H) encoder rows of a right-padded minibatch of stacked (T_j, D)
        frames; ``encode(frames[j], h_batch, j)`` hands out utterance j's."""
        for x in frames:
            self._check_frames(x)
        return self.encoder.forward(pad_batch([x.data for x in frames]))

    def predict_batch(self, prefixes) -> Tensor:
        """(U+1, B, H) prediction rows of a right-padded minibatch of label
        prefixes; ``predict(prefixes[j], h_batch, j)`` hands out utterance j's."""
        ids = pad_batch([np.asarray(y, dtype=np.int64) for y in prefixes])
        return self.prediction.forward(nm.embed_prefix(self.embedding, ids))

    def joint(self, h_enc: Tensor, h_pre: Tensor) -> Tensor:
        """Lattice of logits: (T, H) x (U+1, H) -> (T, U+1, K+1)."""
        jp = self.joint_params
        if h_enc.shape[1] != jp.w_enc.shape[0] or h_pre.shape[1] != jp.w_pre.shape[0]:
            raise ShapeError(f"joint: widths {h_enc.shape} / {h_pre.shape} do not match projections")
        return nm.joint(h_enc, h_pre, jp.w_enc, jp.w_pre, jp.b, jp.w_out, jp.b_out)

    def forward(self, features, targets: list[int]) -> Tensor:
        """Stacked features (or raw (T, D) Tensor) + targets -> joint logits."""
        x = features if isinstance(features, Tensor) else Tensor(features)
        return self.joint(self.encode(x), self.predict(targets))

    # -- inference-only stepping (plain numpy, no tape) -------------------------

    def encode_frames(self, features) -> np.ndarray:
        """Untaped encoder pass over stacked frames, (T, D) -> (T, H)."""
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.data.ndim != 2 or x.shape[0] == 0:
            raise ShapeError(f"encode_frames: need a nonempty (T, D) input, got shape {x.shape}")
        return self.encoder.forward(x.data).data

    def prediction_start(self):
        state = self.prediction.initial_state()
        row, state = self.prediction.step(state, np.zeros((1, self.config.hidden)))
        return row[0], state

    def prediction_step(self, state, token_ids):
        """Advance n prediction states by one label each, in one batched cell
        call per layer: ``state`` holds per-layer (n, H) (h, c) pairs and
        ``token_ids`` n ids. Returns the (n, H) output rows and the new state."""
        ids = np.asarray(token_ids)
        if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
            raise ShapeError(f"prediction_step: need a 1-D list of token ids, got {token_ids!r}")
        bad = ids[(ids < 0) | (ids >= self.config.vocab_size)]
        if bad.size:
            raise ShapeError(f"prediction_step: token id {int(bad[0])} outside vocab")
        if any(h.shape[0] != ids.size for h, _ in state):
            raise ShapeError(f"prediction_step: {ids.size} token ids for states of "
                             f"{[h.shape[0] for h, _ in state]} rows")
        return self.prediction.step(state, self.embedding.data[ids])

    def joint_row(self, h_enc_row: np.ndarray, h_pre_row: np.ndarray) -> np.ndarray:
        """Joint logits of one encoder row against one (H,) or n stacked (n, H)
        prediction rows: (K+1,) or (n, K+1)."""
        jp = self.joint_params
        return nm.joint_output(h_enc_row @ jp.w_enc.data, h_pre_row @ jp.w_pre.data,
                               jp.b.data, jp.w_out.data, jp.b_out.data)[1]


# ---------------------------------------------------------------------------
# checkpoint container (versioned JSON; layout documented in the README)
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "rnnt-lab-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: TransducerModel, extra: dict | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "extra": extra or {},
        "tensors": {
            name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in model.named_parameters()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> TransducerModel:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
        model = TransducerModel(ModelConfig.from_dict(payload["config"]))
        tensors = payload["tensors"]
        if not isinstance(tensors, dict):
            raise ConfigError(f"'tensors' must be an object, got {type(tensors).__name__}")
        model.load_state({name: _checkpoint_tensor(name, rec) for name, rec in tensors.items()})
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint lacks {exc}") from exc
    except (ConfigError, ShapeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model


def _checkpoint_tensor(name: str, rec) -> np.ndarray:
    """The array of one checkpoint tensor record, a {shape, data} object."""
    if not isinstance(rec, dict) or set(rec) != {"shape", "data"}:
        raise ConfigError(f"tensor {name!r}: need a {{shape, data}} object")
    try:
        data = np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
    except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past the float range
        raise ConfigError(f"tensor {name!r}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ConfigError(f"tensor {name!r}: non-finite value")
    return data
