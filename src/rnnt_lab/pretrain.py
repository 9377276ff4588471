"""Whole-network label tensors and the pre-training schedules.

Label tensor conventions (T frames, U tokens, rows R = U+1, K+1 classes):
a label tensor holds one class id per lattice cell, plus the mask of cells
its cross entropy uses; unmasked cells hold blank.

* y1 ("all align"): every row 0..U-1 of frame t holds the frame's alignment
  label; the last row is all blank. Every cell is masked.
* y2 ("correct decoding"): with u(t) the index of the token covering frame t,
  cell (t, u(t)) holds that token and cell (t, u(t)+1) holds blank. Exactly
  those 2T cells are masked. Decoding y2 directly emits each token once at
  its first frame and blanks elsewhere, so the transcript survives decoding;
  the blank-above-token placement is what makes that work, and for the last
  token u(t)+1 = U lands in the terminal row that ends decoding.
* y3 ("align path, short pauses to blank"): only the T token cells of y2 are
  kept, and every frame inside a short pause (space run of < 3 frames) has
  its token replaced by blank, same cell position.

The schedules train in place and report skipped degenerate utterances plus
the per-epoch loss trace; checkpoints stay structurally identical to a fresh
initialization, so any of them can seed main training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import loss as losses
from .alignment import collapse, short_pause_spans
from .corpus import Utterance, corpus_hash
from .errors import DegenerateUtterance, NumericsError, ShapeError
from .model import Affine, TransducerModel, stack_frames
from .numerics import Adam, Tape, Tensor


@dataclass
class LabelTensor:
    """Class ids over the (T, R) lattice, the mask of cells used in CE, and
    the blank id, which is also the last of the K+1 classes."""

    targets: np.ndarray  # int (T, R)
    mask: np.ndarray  # bool (T, R)
    blank: int

    def __post_init__(self):
        ids, mask = self.targets, self.mask
        if not (ids.ndim == 2 and np.issubdtype(ids.dtype, np.integer)
                and mask.shape == ids.shape and mask.dtype == bool):
            raise ShapeError(f"LabelTensor: need 2-D int targets and a bool mask of their shape, "
                             f"got {ids.dtype} {ids.shape} and {mask.dtype} {mask.shape}")
        if not mask.any():
            raise ShapeError("LabelTensor: at least one cell must be masked")
        if ids.min() < 0 or ids.max() > self.blank:
            raise ShapeError(f"LabelTensor: class ids must lie in [0, {self.blank}], "
                             f"got {ids.min()}..{ids.max()}")


def token_frame_index(labels: list[int], tokens: list[int]) -> np.ndarray:
    """u(t): the index in ``tokens`` of the token covering each frame, which
    is the number of label changes up to frame t.

    Requires the collapsed frame alignment to spell exactly ``tokens``.
    """
    if collapse(labels) != list(tokens):
        raise ShapeError(
            f"frame alignment collapses to {collapse(labels)}, not the tokens {list(tokens)}")
    ids = np.asarray(labels, dtype=np.int64)
    # frame 0 is compared with itself, so u(0) = 0 and an empty alignment gives []
    return np.cumsum(ids != np.concatenate([ids[:1], ids[:-1]]))


def build_y1(labels: list[int], tokens, blank: int, space_id: int | None = None) -> LabelTensor:
    """All rows carry the frame's alignment label; the last row is all blank."""
    tokens = list(tokens)
    t_len = len(labels)
    if t_len < 1:
        raise ShapeError("build_y1: empty frame alignment")
    for label in labels:
        if not (0 <= label < blank):
            raise ShapeError(f"build_y1: frame label {label} outside vocab")
    if tokens and collapse(labels) != tokens:
        raise ShapeError(
            f"build_y1: alignment collapses to {collapse(labels)}, not {tokens}")
    targets = np.full((t_len, len(tokens) + 1), blank, dtype=np.int64)
    targets[:, :-1] = np.asarray(labels, dtype=np.int64)[:, None]
    return LabelTensor(targets=targets, mask=np.ones(targets.shape, dtype=bool), blank=blank)


def _token_cells(labels: list[int], tokens, blank: int):
    """Each frame's token at (t, u(t)), blank everywhere else; returns the
    ids and the (t, u(t)) cell coordinates."""
    tokens = list(tokens)
    u_of_t = token_frame_index(labels, tokens)
    t_of = np.arange(len(u_of_t))
    targets = np.full((len(u_of_t), len(tokens) + 1), blank, dtype=np.int64)
    targets[t_of, u_of_t] = np.asarray(tokens, dtype=np.int64)[u_of_t]
    return targets, t_of, u_of_t


def build_y2(labels: list[int], tokens, blank: int, space_id: int | None = None) -> LabelTensor:
    """Token at (t, u(t)), blank inserted directly above at (t, u(t)+1)."""
    targets, t_of, u_of_t = _token_cells(labels, tokens, blank)
    mask = np.zeros(targets.shape, dtype=bool)
    mask[t_of, u_of_t] = mask[t_of, u_of_t + 1] = True
    return LabelTensor(targets=targets, mask=mask, blank=blank)


def build_y3(labels: list[int], tokens, blank: int, space_id: int | None = None) -> LabelTensor:
    """The token cells of y2 only, with short-pause frames relabeled blank in place."""
    targets, t_of, u_of_t = _token_cells(labels, tokens, blank)
    mask = np.zeros(targets.shape, dtype=bool)
    mask[t_of, u_of_t] = True
    if space_id is not None:
        for start, end in short_pause_spans(labels, space_id):
            targets[t_of[start:end], u_of_t[start:end]] = blank
    return LabelTensor(targets=targets, mask=mask, blank=blank)


LABEL_BUILDERS = {"y1": build_y1, "y2": build_y2, "y3": build_y3}


def label_logits(label: LabelTensor, low: float = -1e9) -> np.ndarray:
    """Read a label tensor as decoder input: each masked cell gives its class
    log-probability 0, each unmasked cell gives blank (the last class) 0."""
    ids = np.where(label.mask, label.targets, label.blank)
    out = np.full((*ids.shape, label.blank + 1), low)
    np.put_along_axis(out, ids[..., None], 0.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass
class PretrainReport:
    variant: str
    epochs: int
    corpus_hash: str
    skipped: int
    losses: list[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> float | None:
        return self.losses[-1] if self.losses else None

    def manifest(self) -> dict:
        return {
            "variant": self.variant,
            "epochs": self.epochs,
            "corpus_hash": self.corpus_hash,
            "final_loss": self.final_loss,
            "skipped_utterances": self.skipped,
            **self.extras,
        }


def train_with_loss(params, items, loss_fn, *, epochs: int, lr: float = 1e-3,
                    batch_size: int = 8, grad_clip: float = 5.0, seed: int = 0,
                    on_epoch_end=None) -> list[float]:
    """Generic minibatch loop. ``loss_fn(batch)`` gets one minibatch's items,
    runs the forward work they share untaped, and returns ``item_loss``;
    ``item_loss(j)``, run under item j's own tape, finishes its forward pass
    and returns (value, node, weight). Each item's tape runs its backward
    before the next item starts; gradients are scaled by the batch's total
    weight, clipped by global norm, and stepped with Adam. The per-epoch
    entries are sum(value)/sum(weight) over the whole epoch.
    ``on_epoch_end(epoch, loss)`` runs after each epoch when given. A
    non-finite gradient raises ``NumericsError`` naming the epoch and minibatch."""
    if not items:
        raise ShapeError("train_with_loss: empty item list")
    opt = Adam(params, lr=lr, clip_norm=grad_clip)
    history = []
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 7701, epoch]).permutation(len(items))
        epoch_value = epoch_weight = 0.0
        for start in range(0, len(order), batch_size):
            opt.zero_grad()
            batch_weight = 0.0
            batch = [items[idx] for idx in order[start : start + batch_size]]
            item_loss = loss_fn(batch)
            for j in range(len(batch)):
                with Tape() as tape:
                    value, node, weight = item_loss(j)
                    tape.backward(node)
                batch_weight += weight
                epoch_value += value
            del item_loss, tape  # free the minibatch's forward buffers before the next one's
            epoch_weight += batch_weight
            if batch_weight > 0:
                for p in params:
                    if p.grad is not None:
                        p.grad /= batch_weight
            try:
                opt.step()
            except NumericsError as exc:
                raise NumericsError(f"epoch {epoch + 1}, minibatch "
                                    f"{start // batch_size + 1}: {exc}") from exc
        history.append(epoch_value / max(epoch_weight, 1e-300))
        if on_epoch_end is not None:
            on_epoch_end(epoch, history[-1])
    return history


def _aligned_items(model: TransducerModel, corpus: list[Utterance], space_id: int):
    """Stacked features plus frame alignment; degenerate utterances dropped."""
    cfg = model.config
    items, skipped = [], 0
    for utt in corpus:
        try:
            labels = utt.frame_alignment(cfg.stack_stride, space_id)
        except DegenerateUtterance:
            skipped += 1
            continue
        stacked = stack_frames(utt.features, cfg.stack_factor, cfg.stack_stride)
        items.append((utt, stacked, labels))
    return items, skipped


def pretrain_encoder_ce(model: TransducerModel, corpus: list[Utterance], *, space_id: int,
                        epochs: int = 10, lr: float = 1e-3, batch_size: int = 8,
                        seed: int = 0) -> PretrainReport:
    """Train the encoder as a per-frame token classifier against the hard
    alignment; the classifier head is freshly seeded and thrown away, only
    the encoder weights transfer."""
    cfg = model.config
    items, skipped = _aligned_items(model, corpus, space_id)
    fc = Affine(cfg.hidden, cfg.num_classes, np.random.default_rng([seed, 0xFC]))
    params = model.encoder_parameters() + fc.parameters()

    def loss_fn(batch):
        runs = model.encode_batch([stacked for _, stacked, _ in batch])

        def item_loss(j):
            _, stacked, labels = batch[j]
            out = losses.frame_ce_loss(model.encode(stacked, runs, j), fc, labels)
            return out.value, out.node, 1.0
        return item_loss

    history = train_with_loss(params, items, loss_fn, epochs=epochs, lr=lr,
                              batch_size=batch_size, seed=seed)
    return PretrainReport("enc-ce", epochs, corpus_hash(corpus), skipped, history,
                          extras={"frame_accuracy": _frame_accuracy(model, fc, items,
                                                                    batch_size)})


def _frame_accuracy(model: TransducerModel, fc: Affine, items, batch_size: int) -> float:
    """Share of frames whose argmax class is the alignment label. Each chunk
    of ``batch_size`` items is encoded once as one ``encode_batch``, untaped;
    a chunk, not the whole corpus, bounds the padded batch's memory."""
    hits = total = 0
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        h = model.encode_batch([stacked for _, stacked, _ in chunk])[-1].h
        pred = np.argmax(fc.apply(Tensor(h)).data, axis=-1)
        for col, (_, _, labels) in enumerate(chunk):
            hits += int((pred[: len(labels), col] == labels).sum())
            total += len(labels)
    return hits / total


def pretrain_encoder_ctc(model: TransducerModel, corpus: list[Utterance], *,
                         epochs: int = 10, lr: float = 1e-3, batch_size: int = 8,
                         seed: int = 0) -> PretrainReport:
    """Train the encoder as a CTC sequence mapper on transcripts (no alignments)."""
    cfg = model.config
    fc = Affine(cfg.hidden, cfg.num_classes, np.random.default_rng([seed, 0xFC]))
    params = model.encoder_parameters() + fc.parameters()
    items = [(utt, stack_frames(utt.features, cfg.stack_factor, cfg.stack_stride))
             for utt in corpus]

    def loss_fn(batch):
        runs = model.encode_batch([stacked for _, stacked in batch])

        def item_loss(j):
            utt, stacked = batch[j]
            logits = fc.apply(model.encode(stacked, runs, j))
            out = losses.ctc_loss(logits, utt.transcript, cfg.blank_id)
            return out.value, out.node, max(1.0, float(len(utt.transcript)))
        return item_loss

    history = train_with_loss(params, items, loss_fn, epochs=epochs, lr=lr,
                              batch_size=batch_size, seed=seed)
    return PretrainReport("enc-ctc", epochs, corpus_hash(corpus), skipped=0, losses=history)


def pretrain_prediction_lm(model: TransducerModel, corpus: list[Utterance], *,
                           epochs: int = 10, lr: float = 1e-3, batch_size: int = 8,
                           seed: int = 0) -> PretrainReport:
    """Train the prediction network as a next-token language model on transcripts."""
    cfg = model.config
    fc = Affine(cfg.hidden, cfg.num_classes, np.random.default_rng([seed, 0xFC]))
    params = model.prediction_parameters() + fc.parameters()
    items = [utt for utt in corpus if len(utt.transcript) >= 1]

    def loss_fn(batch):
        runs = model.predict_batch([utt.transcript for utt in batch])

        def item_loss(j):
            utt = batch[j]
            out = losses.lm_ce_loss(model.predict(utt.transcript, runs, j), fc, utt.transcript)
            return out.value, out.node, 1.0
        return item_loss

    history = train_with_loss(params, items, loss_fn, epochs=epochs, lr=lr,
                              batch_size=batch_size, seed=seed)
    return PretrainReport("lm", epochs, corpus_hash(corpus), skipped=0, losses=history)


def pretrain_whole_network(model: TransducerModel, corpus: list[Utterance], variant: str, *,
                           space_id: int, epochs: int = 10, lr: float = 1e-3,
                           batch_size: int = 8, seed: int = 0) -> PretrainReport:
    """Train encoder, prediction, and joint end to end with masked CE against
    the chosen label tensor; nothing is frozen."""
    if variant not in LABEL_BUILDERS:
        raise ShapeError(f"unknown whole-network variant '{variant}'")
    cfg = model.config
    build = LABEL_BUILDERS[variant]
    aligned, skipped = _aligned_items(model, corpus, space_id)
    items = [(utt, stacked, build(labels, utt.transcript, cfg.blank_id, space_id))
             for utt, stacked, labels in aligned]

    def loss_fn(batch):
        enc_runs = model.encode_batch([stacked for _, stacked, _ in batch])
        pre_runs = model.predict_batch([utt.transcript for utt, _, _ in batch])

        def item_loss(j):
            utt, stacked, label = batch[j]
            logits = model.joint(model.encode(stacked, enc_runs, j),
                                 model.predict(utt.transcript, pre_runs, j))
            out = losses.masked_ce_3d(logits, label)
            return out.value, out.node, 1.0
        return item_loss

    history = train_with_loss(model.parameters(), items, loss_fn, epochs=epochs, lr=lr,
                              batch_size=batch_size, seed=seed)
    return PretrainReport(variant, epochs, corpus_hash(corpus), skipped, history)
