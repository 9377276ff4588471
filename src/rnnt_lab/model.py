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
        self.w = nm.xavier_uniform(rng, (in_dim, out_dim))
        self.b = Tensor(np.zeros(out_dim))

    def apply(self, x: Tensor) -> Tensor:
        return nm.affine_last(x, self.w, self.b)

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]


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
    per-layer (n, H) states by one input row each. ``layers`` holds each
    layer's ``(w, r, b, ln_gain, ln_bias)`` tensors, the last two None
    without layer norm.
    """

    def __init__(self, layers):
        self.layers = [(*layer, None, None)[:5] for layer in layers]

    def forward(self, x) -> Tensor:
        """The top layer's hidden rows over ``x``, a Tensor or a plain array of data."""
        for layer in self.layers:
            x = nm.lstm_layer(x, *layer)
        return x

    def initial_state(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.zeros((1, r.shape[0])), np.zeros((1, r.shape[0])))
                for _, r, *_ in self.layers]

    def step(self, state, x_rows: np.ndarray):
        """One step of n sequences: (n, D) input rows and per-layer (n, H) (h, c)
        pairs -> the (n, H) output rows and the new state."""
        new_state = []
        for (w, r, b, ln_gain, ln_bias), (h, c) in zip(self.layers, state):
            z = x_rows @ w.data
            z += h @ r.data
            z += b.data
            ln = None if ln_gain is None else (ln_gain.data, ln_bias.data)
            h, c, _ = nm.lstm_cell(z, c, ln=ln)
            new_state.append((h, c))
            x_rows = h
        return x_rows, new_state


class TransducerModel:
    """The model is its named-parameter table ``params``, built in
    ``parameter_shapes`` order; the encoder, prediction network and joint
    hold their tensors, resolved once from the table."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 0x5EED])
        self.params = {name: _initial_tensor(name, shape, rng)
                       for name, shape in parameter_shapes(config)}
        self.encoder = LstmStack(self._owners("encoder."))
        self.embedding = self.params["embedding"]
        self.prediction = LstmStack(self._owners("prediction."))
        (self.joint_params,) = self._owners("joint.")

    def _owners(self, prefix: str) -> list[tuple[Tensor, ...]]:
        """The tensors named ``prefix...``, grouped by owner (the name less its
        last part: a layer or the joint), in layout order."""
        owners = {}
        for name, t in self.params.items():
            if name.startswith(prefix):
                owners.setdefault(name.rpartition(".")[0], []).append(t)
        return [tuple(group) for group in owners.values()]

    # -- parameters and state -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def encoder_parameters(self) -> list[Tensor]:
        return [t for name, t in self.params.items() if name.startswith("encoder.")]

    def prediction_parameters(self) -> list[Tensor]:
        return [t for name, t in self.params.items()
                if name.startswith(("embedding", "prediction."))]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

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
        w_enc, w_pre = self.joint_params[:2]
        if h_enc.shape[1] != w_enc.shape[0] or h_pre.shape[1] != w_pre.shape[0]:
            raise ShapeError(f"joint: widths {h_enc.shape} / {h_pre.shape} do not match projections")
        return nm.joint(h_enc, h_pre, *self.joint_params)

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
        w_enc, w_pre, b, w_out, b_out = self.joint_params
        return nm.joint_output(h_enc_row @ w_enc.data, h_pre_row @ w_pre.data,
                               b.data, w_out.data, b_out.data)[1]


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
        config = ModelConfig.from_dict(payload["config"])
        tensors = payload["tensors"]
        if not isinstance(tensors, dict):
            raise ConfigError(f"'tensors' must be an object, got {type(tensors).__name__}")
        state = {name: _checkpoint_tensor(name, rec) for name, rec in tensors.items()}
        _check_state(config, state)  # before any weight of the config's extents is allocated
        model = TransducerModel(config)
        for name, t in model.params.items():
            t.data[...] = state[name]
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint lacks {exc}") from exc
    except (ConfigError, ShapeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model


def parameter_shapes(config: ModelConfig):
    """(name, shape) of each parameter of ``TransducerModel(config)``, in
    layout order, without allocating any of them: the only declaration of the
    layout. ``_initial_tensor`` gives each its starting value."""
    h, p, gates = config.hidden, config.projection, 4 * config.hidden

    def lstm(prefix, in_dim, num_layers):
        for i in range(num_layers):
            yield from ((f"{prefix}.l{i}.w", (in_dim if i == 0 else h, gates)),
                        (f"{prefix}.l{i}.r", (h, gates)), (f"{prefix}.l{i}.b", (gates,)))
            if config.use_layer_norm:
                yield from ((f"{prefix}.l{i}.ln_gain", (gates,)),
                            (f"{prefix}.l{i}.ln_bias", (gates,)))

    yield from lstm("encoder", config.encoder_input_dim, config.encoder_layers)
    yield "embedding", (config.vocab_size, h)
    yield from lstm("prediction", h, config.prediction_layers)
    yield from (("joint.w_enc", (h, p)), ("joint.w_pre", (h, p)), ("joint.b", (p,)),
                ("joint.w_out", (p, config.num_classes)), ("joint.b_out", (config.num_classes,)))


def _initial_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """A 2-D weight is Xavier-uniform from its (in, out) shape, drawn from
    ``rng`` in layout order; a layer-norm gain starts at ones, any other
    vector at zeros."""
    if len(shape) == 2:
        return nm.xavier_uniform(rng, shape)
    return Tensor(np.ones(shape) if name.endswith(".ln_gain") else np.zeros(shape))


def _check_state(config: ModelConfig, state: dict[str, np.ndarray]) -> None:
    """KeyError naming the first parameter of ``config`` that ``state`` lacks,
    ShapeError naming the first stored at another shape, then ConfigError
    naming every tensor of ``state`` the model lacks. The walk stops at the
    first missing name, so a config of many layers costs no more than the
    tensors ``state`` holds."""
    names = set()
    for name, shape in parameter_shapes(config):
        stored = state[name].shape
        if stored != shape:
            raise ShapeError(f"parameter {name}: stored shape {stored} != model {shape}")
        names.add(name)
    unknown = sorted(set(state) - names)
    if unknown:
        raise ConfigError(f"unknown tensor(s) {', '.join(map(repr, unknown))} for this model")


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
