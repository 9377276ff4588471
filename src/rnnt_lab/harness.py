"""Synthetic corpora, the initialization-strategy experiment grid, and metrics.

Corpora are built directly in encoder-frame units: words of a few pieces,
each piece a run of frames rendered from a per-token feature template plus
white noise, words separated by short space runs. Raw features run at
``stack_stride`` times the encoder frame rate so span indices line up exactly
with encoder output after frame stacking. Same seed, same bytes.

All experiment arms share one base initialization and one training function;
the only difference between arms is which pre-training schedule (if any)
touched the weights first.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import pretrain as pt
from .alignment import WordSpan, build_frame_alignment, collapse
from .corpus import Utterance, check_utterance, corpus_hash, piece_word_map, save_corpus
from .decoding import (DelayStats, ModelDecoder, beam_decode, greedy_decode, measure_delay,
                       write_delay_csv, write_nbest)
from .errors import ConfigError, LabError
from .loss import rnnt_loss
from .model import (ModelConfig, TransducerModel, check_field_types, reject_unknown_keys,
                    stack_frames)


@dataclass
class ExperimentConfig:
    """One experiment. Each numeric field declares its lower bound in its
    metadata; ``__post_init__`` adds the rules that tie fields together."""

    model: ModelConfig = field(default_factory=ModelConfig)
    seed: int = field(default=12345, metadata={">=": 0})
    space_id: int = field(default=0, metadata={">=": 0})
    # corpus shape
    num_train: int = field(default=80, metadata={">=": 0})
    num_test: int = field(default=30, metadata={">=": 0})
    words_per_utt: tuple[int, int] = field(default=(2, 4), metadata={">=": 1})
    pieces_per_word: tuple[int, int] = field(default=(1, 3), metadata={">=": 1})
    piece_frames: tuple[int, int] = field(default=(2, 6), metadata={">=": 1})
    gap_choices: tuple[int, ...] = field(default=(0, 1, 2, 3), metadata={">=": 0})
    gap_weights: tuple[float, ...] = field(default=(0.35, 0.30, 0.20, 0.15), metadata={">=": 0})
    noise: float = field(default=0.3, metadata={">=": 0})
    # schedule
    arms: tuple[str, ...] = ("random", "ctc", "encoder_ce",
                             "whole_y1", "whole_y2", "whole_y3")
    pretrain_epochs: int = field(default=10, metadata={">=": 0})
    # pre-training is the initialization, so its dose may differ per arm
    pretrain_epochs_by_arm: dict[str, int] = field(default_factory=dict, metadata={">=": 0})
    pretrain_lr: float = field(default=1e-3, metadata={">": 0})
    train_epochs: int = field(default=10, metadata={">=": 0})
    learning_rate: float = field(default=1e-3, metadata={">": 0})
    batch_size: int = field(default=8, metadata={">=": 1})
    grad_clip: float = field(default=5.0, metadata={">=": 0})
    beam_width: int = field(default=5, metadata={">=": 1})
    max_symbols_per_frame: int = field(default=4, metadata={">=": 1})

    def __post_init__(self):
        check_field_types(self)
        if self.model.vocab_size < 3:
            raise ConfigError("corpus needs the space token plus at least 2 content tokens")
        for lo, hi in (self.words_per_utt, self.pieces_per_word, self.piece_frames):
            if lo > hi:
                raise ConfigError(f"bad range ({lo}, {hi}) in corpus parameters")
        if len(self.gap_choices) != len(self.gap_weights) or not self.gap_choices:
            raise ConfigError("gap_choices and gap_weights must be nonempty and equal length")
        if abs(sum(self.gap_weights) - 1.0) > 1e-9:
            raise ConfigError("gap_weights must sum to 1")
        if self.space_id >= self.model.vocab_size:
            raise ConfigError("space_id must be a vocabulary token")
        # every later reader sees canonical arm names only
        self.arms = tuple(_canonical_arms("arms", self.arms))
        by_arm = self.pretrain_epochs_by_arm
        self.pretrain_epochs_by_arm = dict(zip(_canonical_arms("pretrain_epochs_by_arm", by_arm),
                                               by_arm.values()))

    def to_dict(self) -> dict:
        d = {k: list(v) if k in _TUPLE_FIELDS else v
             for k, v in self.__dict__.items() if k != "model"}
        d["model"] = self.model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        reject_unknown_keys(cls, d)
        d = {k: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
             for k, v in d.items()}
        model = ModelConfig.from_dict(d.pop("model", {}))
        return cls(model=model, **d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (ConfigError, ValueError) as exc:  # ValueError: bad JSON or bytes not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# JSON has no tuples: these fields are lists on disk (annotations are strings here)
_TUPLE_FIELDS = frozenset(f.name for f in fields(ExperimentConfig) if f.type.startswith("tuple"))


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def token_templates(cfg: ExperimentConfig) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, 10])
    return rng.uniform(-1.0, 1.0, size=(cfg.model.vocab_size, cfg.model.input_dim))


def _gen_utterance(cfg: ExperimentConfig, templates: np.ndarray,
                   rng: np.random.Generator, utt_id: str) -> Utterance:
    content = [k for k in range(cfg.model.vocab_size) if k != cfg.space_id]
    spans: list[WordSpan] = []
    prev_token = None
    frame = 0
    n_words = int(rng.integers(cfg.words_per_utt[0], cfg.words_per_utt[1] + 1))
    for w in range(n_words):
        n_pieces = int(rng.integers(cfg.pieces_per_word[0], cfg.pieces_per_word[1] + 1))
        pieces = []
        for _ in range(n_pieces):
            choices = [k for k in content if k != prev_token]
            piece = int(rng.choice(choices))
            pieces.append(piece)
            prev_token = piece
        word_len = sum(int(rng.integers(cfg.piece_frames[0], cfg.piece_frames[1] + 1))
                       for _ in pieces)
        spans.append(WordSpan(word="w" + "_".join(str(p) for p in pieces),
                              pieces=pieces, start_frame=frame, end_frame=frame + word_len))
        frame += word_len
        if w < n_words - 1:
            gap = int(rng.choice(cfg.gap_choices, p=cfg.gap_weights))
            if gap > 0:
                frame += gap
                prev_token = cfg.space_id
    # features render the frame alignment itself, so the word spans are a
    # faithful ground truth for them; each encoder frame covers stride raw rows
    labels = build_frame_alignment(spans, frame, cfg.space_id)
    raw = templates[np.repeat(labels, cfg.model.stack_stride)]
    if cfg.noise > 0:
        with np.errstate(over="ignore"):  # gen_corpus's check names a noise that overflows
            raw += cfg.noise * rng.standard_normal(raw.shape)
    return Utterance(utt_id=utt_id, features=raw, words=spans,
                     transcript=collapse(labels))


def gen_corpus(cfg: ExperimentConfig) -> tuple[list[Utterance], list[Utterance]]:
    """Train and test sets from disjoint seed streams over shared templates;
    each utterance passes ``check_utterance``, as a loaded one does."""
    templates = token_templates(cfg)
    train = [_gen_utterance(cfg, templates, np.random.default_rng([cfg.seed, 1, i]), f"train-{i:04d}")
             for i in range(cfg.num_train)]
    test = [_gen_utterance(cfg, templates, np.random.default_rng([cfg.seed, 2, i]), f"test-{i:04d}")
            for i in range(cfg.num_test)]
    for utt in train + test:
        try:
            check_utterance(utt, cfg.model, cfg.space_id)
        except ConfigError as exc:  # a non-finite feature: the noise overflowed
            raise ConfigError(f"noise {cfg.noise!r}: utterance {utt.utt_id}: {exc}") from exc
    return train, test


def edit_distance(hyp, ref) -> int:
    """Levenshtein distance with unit costs."""
    hyp, ref = list(hyp), list(ref)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    return prev[len(ref)]


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def train_transducer(model: TransducerModel, corpus: list[Utterance],
                     cfg: ExperimentConfig, on_epoch_end=None) -> list[float]:
    """Main RNN-T training; the one code path every arm shares. Reported
    epoch losses are summed utterance losses over total target length."""
    mc = model.config
    items = [(stack_frames(utt.features, mc.stack_factor, mc.stack_stride), utt.transcript)
             for utt in corpus]

    def loss_fn(batch):
        h_enc = model.encode_batch([stacked for stacked, _ in batch])
        h_pre = model.predict_batch([transcript for _, transcript in batch])

        def item_loss(j):
            stacked, transcript = batch[j]
            logits = model.joint(model.encode(stacked, h_enc, j),
                                 model.predict(transcript, h_pre, j))
            out = rnnt_loss(logits, transcript, mc.blank_id)
            return out.value, out.node, max(1.0, float(len(transcript)))
        return item_loss

    return pt.train_with_loss(model.parameters(), items, loss_fn,
                              epochs=cfg.train_epochs, lr=cfg.learning_rate,
                              batch_size=cfg.batch_size, grad_clip=cfg.grad_clip,
                              seed=cfg.seed, on_epoch_end=on_epoch_end)


def evaluate_model(model: TransducerModel, corpus: list[Utterance],
                   cfg: ExperimentConfig):
    """Beam-decode for token error, greedy-decode for emission delay.

    Both searches share one decoder per utterance: the encoder runs once, and
    greedy reuses the prediction states the beam cached (the beam always
    keeps greedy's path). Weights so large that a float overflows while
    decoding raise ``NumericsError`` naming the utterance."""
    mc = model.config
    total_edits = 0
    total_ref = 0
    delay = DelayStats()
    nbest_entries = []
    for utt in corpus:
        stacked = stack_frames(utt.features, mc.stack_factor, mc.stack_stride)
        with nm.diverged_as_error(f"decoding utterance {utt.utt_id}"):
            dec = ModelDecoder(model, stacked)
            best, nbest = beam_decode(dec, beam_width=cfg.beam_width,
                                      max_symbols_per_frame=cfg.max_symbols_per_frame)
            greedy = greedy_decode(dec, max_symbols_per_frame=cfg.max_symbols_per_frame)
        total_edits += edit_distance(best.prefix, utt.transcript)
        total_ref += len(utt.transcript)
        delay = delay.merge(measure_delay(greedy, utt.words, piece_word_map(utt),
                                          utt.transcript))
        nbest_entries.append((utt.utt_id, nbest))
    token_error = total_edits / max(total_ref, 1)
    return token_error, delay, nbest_entries


@dataclass
class MetricsRow:
    config_hash: str
    arm: str
    epoch: int
    train_loss: float | None
    token_error_rate: float | None
    mean_delay: float | None


CSV_COLUMNS = ("config_hash", "arm", "epoch", "train_loss", "token_error_rate", "mean_delay")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")


# ---------------------------------------------------------------------------
# arm initializers: the only place arms are allowed to differ
# ---------------------------------------------------------------------------


def arm_pretrain_epochs(cfg: ExperimentConfig, arm: str) -> int:
    return int(cfg.pretrain_epochs_by_arm.get(arm, cfg.pretrain_epochs))


def _init_random(model, corpus, cfg, epochs):
    return None


def _init_ctc(model, corpus, cfg, epochs):
    return pt.pretrain_encoder_ctc(model, corpus, epochs=epochs,
                                   lr=cfg.pretrain_lr, batch_size=cfg.batch_size,
                                   seed=cfg.seed).manifest()


def _init_encoder_ce(model, corpus, cfg, epochs):
    return pt.pretrain_encoder_ce(model, corpus, space_id=cfg.space_id,
                                  epochs=epochs, lr=cfg.pretrain_lr,
                                  batch_size=cfg.batch_size, seed=cfg.seed).manifest()


def _init_lm(model, corpus, cfg, epochs):
    return pt.pretrain_prediction_lm(model, corpus, epochs=epochs,
                                     lr=cfg.pretrain_lr, batch_size=cfg.batch_size,
                                     seed=cfg.seed).manifest()


def _init_ctc_lm(model, corpus, cfg, epochs):
    first = _init_ctc(model, corpus, cfg, epochs)
    second = _init_lm(model, corpus, cfg, epochs)
    return {"variant": "ctc+lm", "encoder": first, "prediction": second}


def _make_whole(variant):
    def init(model, corpus, cfg, epochs):
        return pt.pretrain_whole_network(model, corpus, variant, space_id=cfg.space_id,
                                         epochs=epochs, lr=cfg.pretrain_lr,
                                         batch_size=cfg.batch_size, seed=cfg.seed).manifest()
    return init


ARM_INITIALIZERS = {
    "random": _init_random,
    "ctc": _init_ctc,
    "encoder_ce": _init_encoder_ce,
    "lm": _init_lm,
    "ctc_lm": _init_ctc_lm,
    "whole_y1": _make_whole("y1"),
    "whole_y2": _make_whole("y2"),
    "whole_y3": _make_whole("y3"),
}

# Other names for the arms; config files and `rnnt-lab pretrain --variant` take either.
ARM_ALIASES = {"ctc+lm": "ctc_lm", "ctc_encoder": "ctc", "enc_ce": "encoder_ce",
               "enc-ce": "encoder_ce", "enc-ctc": "ctc",
               "y1": "whole_y1", "y2": "whole_y2", "y3": "whole_y3"}


def canonical_arm(name: str) -> str:
    """The arm ``name`` stands for: itself, or the arm it is an alias of."""
    return ARM_ALIASES.get(name, name)


# every name above except random's: it has no schedule to run on its own
PRETRAIN_VARIANTS = tuple(name for name in (*ARM_INITIALIZERS, *ARM_ALIASES)
                          if ARM_INITIALIZERS[canonical_arm(name)] is not _init_random)


def _canonical_arms(field_name: str, names) -> list[str]:
    """The arms ``names`` stand for; ConfigError on an unknown name or a repeated arm."""
    arms = []
    for name in names:
        arm = canonical_arm(name)
        if arm not in ARM_INITIALIZERS:
            raise ConfigError(f"{field_name}: unknown arm '{name}'")
        if arm in arms:
            raise ConfigError(f"{field_name}: '{name}' names arm '{arm}' a second time")
        arms.append(arm)
    return arms


# ---------------------------------------------------------------------------
# the experiment runner
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run every arm head-to-head on one corpus; write metrics.csv,
    summary.json, and per-arm n-best / delay files. A failing arm is
    recorded and the remaining arms continue."""
    chash = cfg.config_hash()
    train_corpus, test_corpus = gen_corpus(cfg)  # a rejected config leaves no directory behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(out_dir / "train.jsonl", train_corpus)
    save_corpus(out_dir / "test.jsonl", test_corpus)

    base = TransducerModel(cfg.model, seed=cfg.seed)
    rows: list[MetricsRow] = []
    arm_summaries: dict[str, dict] = {}

    for arm in cfg.arms:
        started = time.perf_counter()
        model = base.clone()
        try:
            manifest = ARM_INITIALIZERS[arm](model, train_corpus, cfg,
                                             arm_pretrain_epochs(cfg, arm))
            losses = train_transducer(model, train_corpus, cfg)
            token_error, delay, nbest_entries = evaluate_model(model, test_corpus, cfg)
            elapsed = time.perf_counter() - started
            for epoch, loss_value in enumerate(losses[:-1], start=1):
                rows.append(MetricsRow(chash, arm, epoch, loss_value, None, None))
            rows.append(MetricsRow(chash, arm, len(losses), losses[-1] if losses else None,
                                   token_error, delay.mean()))
            write_nbest(out_dir / f"nbest_{arm}.jsonl", nbest_entries)
            write_delay_csv(out_dir / f"delay_{arm}.csv", delay)
            arm_summaries[arm] = {
                "pretrain": manifest,
                "final_train_loss": losses[-1] if losses else None,
                "token_error_rate": token_error,
                "mean_delay": delay.mean(),
                "delay_samples": len(delay.delays),
                "delay_skipped": delay.skipped,
                "wall_time_s": elapsed,
            }
        except LabError as exc:
            arm_summaries[arm] = {"error": str(exc)}

    write_metrics_csv(out_dir / "metrics.csv", rows)
    summary = {
        "config_hash": chash,
        "config": cfg.to_dict(),
        "train_corpus_hash": corpus_hash(train_corpus),
        "test_corpus_hash": corpus_hash(test_corpus),
        "arms": arm_summaries,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
