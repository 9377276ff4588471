"""The three transducer components: LSTM encoder, LSTM prediction network,
and the two-linear-layer joint network, plus frame stacking and checkpoints.

State convention: recurrent states are (1, H) row vectors, weights are stored
(in_dim, out_dim) so a step is ``row @ W``. Gate order inside the packed 4H
pre-activation is input, forget, cell, output. Input features are data, not
parameters: they enter the tape as leaves and receive no gradient.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Tensor


@dataclass
class ModelConfig:
    """Desk-scale defaults; every extent is config-reachable up to production sizes."""

    input_dim: int = 8
    stack_factor: int = 4
    stack_stride: int = 2
    encoder_layers: int = 2
    prediction_layers: int = 1
    hidden: int = 64
    projection: int = 32
    vocab_size: int = 10
    use_layer_norm: bool = False

    def __post_init__(self):
        for name in ("input_dim", "stack_factor", "stack_stride", "encoder_layers",
                     "prediction_layers", "hidden", "projection", "vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"ModelConfig.{name} must be positive, got {getattr(self, name)}")

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
        return cls(**d)


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
    out = np.zeros((t_out, d * stack))
    for t in range(t_out):
        lo = t * stride
        hi = min(lo + stack, n)
        out[t, : (hi - lo) * d] = data[lo:hi].reshape(-1)
    return Tensor(out)


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
        self.in_dim = in_dim
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


class LstmStack:
    """Unidirectional stacked LSTM; output at t depends only on inputs <= t.

    Training and decoding share one cell (``numerics.lstm_cell``): ``forward``
    runs each layer as one taped ``lstm_layer`` record, ``step`` advances the
    untaped per-layer (1, H) states by one input row.
    """

    def __init__(self, in_dim: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, layer_norm: bool):
        self.hidden = hidden
        self.num_layers = num_layers
        self.layers = [
            LstmLayer(in_dim if i == 0 else hidden, hidden, rng, layer_norm)
            for i in range(num_layers)
        ]

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"{prefix}.l{i}"))
        return out

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = nm.lstm_layer(x, layer.w, layer.r, layer.b, layer.ln_gain, layer.ln_bias)
        return x

    def initial_state(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.zeros((1, l.hidden)), np.zeros((1, l.hidden))) for l in self.layers]

    def step(self, state, x_row: np.ndarray):
        new_state = []
        for layer, (h, c) in zip(self.layers, state):
            ln = (layer.ln_gain.data, layer.ln_bias.data) if layer.layer_norm else (None, None)
            h, c, _ = nm.lstm_cell(x_row @ layer.w.data, h, c, layer.r.data, layer.b.data, *ln)
            new_state.append((h, c))
            x_row = h
        return x_row, new_state


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
        for name, t in self.named_parameters():
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

    def encode(self, x: Tensor) -> Tensor:
        """Eq-style encoder pass over stacked frames: (T, D) -> (T, H)."""
        if x.data.ndim != 2 or x.shape[0] == 0:
            raise ShapeError(f"encode: need a nonempty (T, D) input, got shape {x.shape}")
        if x.shape[1] != self.config.encoder_input_dim:
            raise ShapeError(
                f"encode: input width {x.shape[1]} != input_dim*stack_factor "
                f"({self.config.encoder_input_dim})")
        return self.encoder.forward(Tensor(x.data))  # a fresh leaf: features get no grad

    def predict(self, y_prefix: list[int]) -> Tensor:
        """Label-history pass: prefix of U token ids -> (U+1, H); row 0 is the start context."""
        return self.prediction.forward(nm.embed_prefix(self.embedding, y_prefix))

    def joint(self, h_enc: Tensor, h_pre: Tensor) -> Tensor:
        """Lattice of logits: (T, H) x (U+1, H) -> (T, U+1, K+1)."""
        jp = self.joint_params
        if h_enc.shape[1] != jp.w_enc.shape[0] or h_pre.shape[1] != jp.w_pre.shape[0]:
            raise ShapeError(f"joint: widths {h_enc.shape} / {h_pre.shape} do not match projections")
        a = nm.matmul(h_enc, jp.w_enc)
        b = nm.matmul(h_pre, jp.w_pre)
        s = nm.add_row(nm.outer_add(a, b), jp.b)
        return nm.affine_last(s, jp.w_out, jp.b_out)

    def forward(self, features, targets: list[int]) -> Tensor:
        """Stacked features (or raw (T, D) Tensor) + targets -> joint logits."""
        x = features if isinstance(features, Tensor) else Tensor(features)
        return self.joint(self.encode(x), self.predict(targets))

    # -- inference-only stepping (plain numpy, no tape) -------------------------

    def encode_frames(self, features) -> np.ndarray:
        data = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ShapeError(f"encode_frames: need a nonempty (T, D) input, got shape {data.shape}")
        return self.encoder.forward(Tensor(data)).data

    def prediction_start(self):
        state = self.prediction.initial_state()
        row, state = self.prediction.step(state, np.zeros((1, self.config.hidden)))
        return row[0], state

    def prediction_step(self, state, token_id: int):
        if not (0 <= token_id < self.config.vocab_size):
            raise ShapeError(f"prediction_step: token id {token_id} outside vocab")
        row, state = self.prediction.step(state, self.embedding.data[token_id : token_id + 1])
        return row[0], state

    def joint_row(self, h_enc_row: np.ndarray, h_pre_row: np.ndarray) -> np.ndarray:
        jp = self.joint_params
        s = h_enc_row @ jp.w_enc.data + h_pre_row @ jp.w_pre.data + jp.b.data
        return s @ jp.w_out.data + jp.b_out.data


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
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    model = TransducerModel(ModelConfig.from_dict(payload["config"]))
    state = {
        name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
        for name, rec in payload["tensors"].items()
    }
    model.load_state(state)
    return model
