"""The benchmark's workloads: seeded inputs, timed loops and output checks.

* ``train-rnnt``: ``harness.train_transducer`` from the shared base
  initialization (batch 8, clip 5), epochs until the time is up.
* ``pretrain-mix``: rounds of one epoch each of ``pretrain_encoder_ce``,
  ``pretrain_encoder_ctc``, ``pretrain_prediction_lm`` and
  ``pretrain_whole_network(..., "y2")`` on one model.
* ``eval-decode``: ``harness.evaluate_model`` (beam 5 + greedy, at most 4
  symbols per frame) one utterance at a time, with the pinned checkpoint.

Inputs. Every corpus comes from the program's own generator,
``harness.gen_corpus``. So that the amount of work does not move with the
seed, each corpus is matched to the (T, U) shape profile of the default
configuration's corpus (``data/shapes.json``). The generator makes a pool five
times the profile's size. Each profile entry then takes the free pool
utterance with the same encoder length T and the nearest transcript length U.
Training corpora are drawn from the seed's own generator, so templates,
features, words and initial weights all follow the seed. The decode corpus
keeps the default seed's token templates, because the checkpoint was trained
on them, and the seed shuffles which pool utterances are taken. With the
default seed, both corpora are exactly the default experiment's corpora.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class ProgramMissing(ImportError):
    """The program's sources are not beside the benchmark."""


sys.path.insert(0, str(SRC))
try:
    import rnnt_lab
    from rnnt_lab import harness, loss, pretrain as pt
    from rnnt_lab import model as mdl
    from rnnt_lab import numerics as nm
    from rnnt_lab.errors import LabError
except ImportError as exc:
    raise ProgramMissing(f"cannot import rnnt_lab from {SRC}: {exc}") from exc
if Path(rnnt_lab.__file__).resolve().parent.parent != SRC:
    raise ProgramMissing(f"rnnt_lab was imported from {rnnt_lab.__file__}, not from {SRC}")

DATA = HERE / "data"
OUT_DIR = HERE / "out"
CONFIG = DATA / "config.json"          # configs/default.json, pinned
SHAPES = DATA / "shapes.json"          # (T, U) profiles of the default train and test corpora
REFERENCES = DATA / "references.json"  # default-seed outputs recorded by make_checkpoint.py
CHECKPOINT = DATA / "random_arm_60ep.json"
CHECKPOINT_SHA256 = "d9664c28f8b0407501330e8f33b8d0319ce056cad5665103fa6a019b2212c587"

DEFAULT_SEED = 12345
POOL_FACTOR = 5
MAX_EPOCHS = 10_000          # train-rnnt stops on time long before this
REFERENCE_PRETRAIN_ROUNDS = 6

# Output-check tolerances. Faster code may sum in another order, so losses and
# the token error rate are compared relatively: 1e-6 on losses; 5% on TER,
# about three token edits of the 676 reference tokens.
LOSS_RTOL = 1e-6
TER_RTOL = 0.05
BEAM_SLACK = 1e-9            # relative; beam keeps the greedy path, so best >= greedy


class CheckFailed(RuntimeError):
    """The benchmark's pinned inputs do not hold."""


def base_config(seed: int) -> harness.ExperimentConfig:
    return dataclasses.replace(harness.ExperimentConfig.from_json(CONFIG), seed=seed)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def encoder_shape(utt, stride: int) -> tuple[int, int]:
    return -(-len(utt.features) // stride), len(utt.transcript)


def shape_matched(pool, profile, order, stride: int) -> list:
    """One pool utterance per (T, U) profile entry: same T if possible, then
    nearest U, then earliest in ``order``; returned in pool order."""
    shapes = [encoder_shape(u, stride) for u in pool]
    rank = {int(i): r for r, i in enumerate(order)}
    free = set(range(len(pool)))
    picks = []
    for t_len, u_len in sorted(map(tuple, profile), reverse=True):
        best = min(free, key=lambda i: (abs(shapes[i][0] - t_len),
                                        abs(shapes[i][1] - u_len), rank[i]))
        free.remove(best)
        picks.append(best)
    return [pool[i] for i in sorted(picks)]


@dataclasses.dataclass
class Inputs:
    cfg: harness.ExperimentConfig
    corpus: list
    model: mdl.TransducerModel  # base initialization, or the loaded checkpoint


def setup_training(seed: int, num_utts: int | None = None) -> Inputs:
    """Seeded train corpus plus the shared base initialization."""
    cfg = base_config(seed)
    profile = _load_json(SHAPES)["train"][:num_utts]
    pool, _ = harness.gen_corpus(dataclasses.replace(
        cfg, num_train=POOL_FACTOR * len(profile), num_test=0))
    corpus = shape_matched(pool, profile, range(len(pool)), cfg.model.stack_stride)
    return Inputs(cfg, corpus, mdl.TransducerModel(cfg.model, seed=cfg.seed))


def setup_decode(seed: int, num_utts: int | None = None) -> Inputs:
    """Seeded test corpus over the default templates plus the pinned checkpoint."""
    cfg = base_config(DEFAULT_SEED)
    profile = _load_json(SHAPES)["test"][:num_utts]
    _, pool = harness.gen_corpus(dataclasses.replace(
        cfg, num_train=0, num_test=POOL_FACTOR * len(profile)))
    order = (range(len(pool)) if seed == DEFAULT_SEED
             else np.random.default_rng([seed, 0xDEC]).permutation(len(pool)))
    corpus = shape_matched(pool, profile, order, cfg.model.stack_stride)
    model = mdl.load_checkpoint(CHECKPOINT)
    if model.config != cfg.model:
        raise CheckFailed(f"{CHECKPOINT.name}: model config differs from {CONFIG.name}")
    return Inputs(cfg, corpus, model)


def verify_checkpoint() -> None:
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise CheckFailed(f"{CHECKPOINT.name} has sha256 {digest}, pinned {CHECKPOINT_SHA256}; "
                          "rewrite it with make_checkpoint.py and pin the new hash")


# ---------------------------------------------------------------------------
# timed loops
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Measured:
    wall_s: float = 0.0
    utterances: int = 0           # utterances trained (one tape each) or decoded
    op_s: list = dataclasses.field(default_factory=list)  # optimizer steps or utterance decodes
    attempted: int = 0
    failed: int = 0
    losses: list = dataclasses.field(default_factory=list)   # per epoch, or per round of 4
    ter: list = dataclasses.field(default_factory=list)      # per decode pass
    skipped: dict = dataclasses.field(default_factory=dict)  # degenerate utterances, per schedule
    problems: list = dataclasses.field(default_factory=list)


class _TimeUp(Exception):
    pass


class _Clock:
    """Wall time of the measured work: time spent in ``pause`` (the set-up
    samples taken between epochs, rounds or passes) is left out."""

    def __init__(self, between=None):
        self.start = perf_counter()
        self.paused = 0.0
        self.between = between

    def elapsed(self) -> float:
        return perf_counter() - self.start - self.paused

    def pause(self) -> None:
        if self.between is not None:
            started = perf_counter()
            self.between()
            self.paused += perf_counter() - started


def measure_train(inputs: Inputs, seconds: float, probes, tracer=None,
                  between=None) -> Measured:
    """``between()`` runs after every epoch but the last, off the clock."""
    cfg = dataclasses.replace(inputs.cfg, train_epochs=MAX_EPOCHS)
    model = inputs.model.clone()
    out = Measured()
    epoch_first_step = 0
    clock = _Clock(between)

    def on_epoch_end(epoch, value):
        nonlocal epoch_first_step
        out.losses.append(value)
        if not math.isfinite(value):
            out.failed += len(probes.step_times) - epoch_first_step
            out.problems.append(f"epoch {epoch + 1}: non-finite loss {value!r}")
        epoch_first_step = len(probes.step_times)
        if clock.elapsed() >= seconds:
            raise _TimeUp
        clock.pause()

    try:
        harness.train_transducer(model, inputs.corpus, cfg, on_epoch_end=on_epoch_end)
    except _TimeUp:
        pass
    except LabError as exc:
        out.failed += 1
        out.attempted += 1
        out.problems.append(f"train_transducer raised {exc!r}")
    out.wall_s = clock.elapsed()
    out.op_s = list(probes.step_times)
    out.attempted += len(out.op_s)
    out.utterances = probes.utterances
    return out


SCHEDULES = (
    ("enc_ce", lambda model, corpus, cfg: pt.pretrain_encoder_ce(
        model, corpus, space_id=cfg.space_id, epochs=1, lr=cfg.pretrain_lr,
        batch_size=cfg.batch_size, seed=cfg.seed)),
    ("enc_ctc", lambda model, corpus, cfg: pt.pretrain_encoder_ctc(
        model, corpus, epochs=1, lr=cfg.pretrain_lr, batch_size=cfg.batch_size, seed=cfg.seed)),
    ("lm", lambda model, corpus, cfg: pt.pretrain_prediction_lm(
        model, corpus, epochs=1, lr=cfg.pretrain_lr, batch_size=cfg.batch_size, seed=cfg.seed)),
    ("whole_y2", lambda model, corpus, cfg: pt.pretrain_whole_network(
        model, corpus, "y2", space_id=cfg.space_id, epochs=1, lr=cfg.pretrain_lr,
        batch_size=cfg.batch_size, seed=cfg.seed)),
)


def pretrain_round(model, corpus, cfg, pause=None) -> tuple[list[float], dict]:
    """One epoch of each schedule, in order, on the same model; ``pause()``
    runs between schedules."""
    losses, skipped = [], {}
    for i, (name, schedule) in enumerate(SCHEDULES):
        if i and pause is not None:
            pause()
        report = schedule(model, corpus, cfg)
        losses.append(report.losses[0])
        skipped[name] = report.skipped
    return losses, skipped


def measure_pretrain(inputs: Inputs, seconds: float, probes, tracer=None,
                     between=None) -> Measured:
    """``between()`` runs between schedule epochs, off the clock."""
    model = inputs.model.clone()
    out = Measured()
    clock = _Clock(between)
    while True:
        round_first_step = len(probes.step_times)
        try:
            losses, out.skipped = pretrain_round(model, inputs.corpus, inputs.cfg, clock.pause)
        except LabError as exc:
            out.failed += 1
            out.attempted += 1
            out.problems.append(f"pre-training raised {exc!r}")
            break
        out.losses.append(losses)
        if not all(math.isfinite(v) for v in losses):
            out.failed += len(probes.step_times) - round_first_step
            out.problems.append(f"round {len(out.losses)}: non-finite loss in {losses!r}")
        if clock.elapsed() >= seconds:
            break
        clock.pause()
    out.wall_s = clock.elapsed()
    out.op_s = list(probes.step_times)
    out.attempted += len(out.op_s)
    out.utterances = probes.utterances
    return out


def decode_pass(inputs: Inputs, probes, out: Measured, tracer=None) -> float:
    """Decode every utterance once; returns the pass's token error rate."""
    edits = ref_tokens = 0
    for utt in inputs.corpus:
        if tracer is not None:
            tracer.utt = utt.utt_id
        out.attempted += 1
        probes.beam = probes.greedy = None
        started = perf_counter()
        try:
            harness.evaluate_model(inputs.model, [utt], inputs.cfg)
        except LabError as exc:
            out.failed += 1
            out.problems.append(f"{utt.utt_id}: evaluate_model raised {exc!r}")
            continue
        out.op_s.append(perf_counter() - started)
        if probes.beam is None or probes.greedy is None:
            out.problems.append("evaluate_model no longer calls harness.beam_decode "
                                "and harness.greedy_decode; the benchmark must follow")
            break
        best, greedy = probes.beam[0], probes.greedy
        floor = greedy.log_prob - BEAM_SLACK * max(1.0, abs(greedy.log_prob))
        if not (math.isfinite(best.log_prob) and best.log_prob >= floor):
            out.problems.append(f"{utt.utt_id}: beam best log-prob {best.log_prob!r} "
                                f"below greedy {greedy.log_prob!r}")
        edits += harness.edit_distance(best.prefix, utt.transcript)
        ref_tokens += len(utt.transcript)
    return edits / max(ref_tokens, 1)


def measure_decode(inputs: Inputs, seconds: float, probes, tracer=None,
                   between=None) -> Measured:
    """``between()`` runs between passes, off the clock."""
    out = Measured()
    clock = _Clock(between)
    while True:
        out.ter.append(decode_pass(inputs, probes, out, tracer))
        if clock.elapsed() >= seconds:
            break
        clock.pause()
    out.wall_s = clock.elapsed()
    out.utterances = len(out.op_s)
    if len(set(out.ter)) > 1:
        out.problems.append(f"decode passes disagree on token error rate: {out.ter!r}")
    return out


# ---------------------------------------------------------------------------
# default-seed references
# ---------------------------------------------------------------------------


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)


def check_references(workload: str, measured: Measured) -> list[str]:
    """Compare default-seed outputs with the values recorded at the baseline."""
    refs = _load_json(REFERENCES)
    problems = []
    if workload == "train-rnnt":
        pairs = list(zip(measured.losses, refs["train_rnnt_epoch_losses"]))
        for epoch, (got, want) in enumerate(pairs, start=1):
            if not _close(got, want, LOSS_RTOL):
                problems.append(f"epoch {epoch} loss {got!r} != reference {want!r}")
    elif workload == "pretrain-mix":
        for r, (got_round, want_round) in enumerate(
                zip(measured.losses, refs["pretrain_mix_round_losses"]), start=1):
            for (name, _), got, want in zip(SCHEDULES, got_round, want_round):
                if not _close(got, want, LOSS_RTOL):
                    problems.append(f"round {r} {name} loss {got!r} != reference {want!r}")
    else:
        for got in measured.ter:
            if not _close(got, refs["eval_decode_ter"], TER_RTOL):
                problems.append(f"token error rate {got!r} != reference "
                                f"{refs['eval_decode_ter']!r}")
    return problems
