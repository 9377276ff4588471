"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``. It replaces attributes of the program's
modules and classes with timing wrappers for the length of a run and puts the
originals back afterwards. A name is wrapped where callers look it up:
``harness`` imports ``rnnt_loss``, ``beam_decode`` and ``greedy_decode`` by
name, so those are wrapped on ``harness``; ``pretrain`` reaches the CE/CTC
losses as ``losses.<name>``, so those are wrapped on ``loss``; methods are
wrapped on their class. A wrapped attribute that no longer exists stops the
benchmark with the layer's name (``LayerMissing``) instead of reading 0 ms.

A span is (name, start, end, parent, utterance id). Spans stay in memory and
are written out when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import harness, loss, mdl, nm, pt


class LayerMissing(RuntimeError):
    """A layer the benchmark wraps is gone from the program."""


# span name -> (owner, attribute). The owner is where callers look the name up.
LAYERS = {
    "numerics.backward": (nm.Tape, "backward"),
    "numerics.adam_step": (nm.Adam, "step"),
    "model.encode": (mdl.TransducerModel, "encode"),
    "model.predict": (mdl.TransducerModel, "predict"),
    "model.joint": (mdl.TransducerModel, "joint"),
    "model.encode_frames": (mdl.TransducerModel, "encode_frames"),
    "model.prediction_step": (mdl.TransducerModel, "prediction_step"),
    "model.joint_row": (mdl.TransducerModel, "joint_row"),
    "model.load_checkpoint": (mdl, "load_checkpoint"),
    "loss.rnnt_loss": (harness, "rnnt_loss"),
    "loss.ctc_loss": (loss, "ctc_loss"),
    "loss.frame_ce": (loss, "frame_ce_loss"),
    "loss.masked_ce_3d": (loss, "masked_ce_3d"),
    "loss.lm_ce": (loss, "lm_ce_loss"),
    "pretrain.enc_ce_epoch": (pt, "pretrain_encoder_ce"),
    "pretrain.enc_ctc_epoch": (pt, "pretrain_encoder_ctc"),
    "pretrain.lm_epoch": (pt, "pretrain_prediction_lm"),
    "pretrain.whole_y2_epoch": (pt, "pretrain_whole_network"),
    "decoding.beam": (harness, "beam_decode"),
    "decoding.greedy": (harness, "greedy_decode"),
    "harness.gen_corpus": (harness, "gen_corpus"),
    "harness.train_transducer": (harness, "train_transducer"),
    "harness.evaluate_model": (harness, "evaluate_model"),
}

# Attributes the end-to-end probes hook in every run, traced or not.
PROBED = {
    "numerics.zero_grad": (nm.Adam, "zero_grad"),
    "numerics.adam_step": LAYERS["numerics.adam_step"],
    "numerics.backward": LAYERS["numerics.backward"],
    "decoding.beam": LAYERS["decoding.beam"],
    "decoding.greedy": LAYERS["decoding.greedy"],
}

# Spans each workload must fire; one that never fires fails the run.
EXPECTED = {
    "train-rnnt": ("harness.gen_corpus", "harness.train_transducer", "numerics.backward",
                   "numerics.adam_step", "model.encode", "model.predict", "model.joint",
                   "loss.rnnt_loss"),
    "pretrain-mix": ("harness.gen_corpus", "numerics.backward", "numerics.adam_step",
                     "model.encode", "model.predict", "model.joint", "loss.ctc_loss",
                     "loss.frame_ce", "loss.masked_ce_3d", "loss.lm_ce",
                     "pretrain.enc_ce_epoch", "pretrain.enc_ctc_epoch", "pretrain.lm_epoch",
                     "pretrain.whole_y2_epoch"),
    "eval-decode": ("harness.gen_corpus", "model.load_checkpoint", "harness.evaluate_model",
                    "decoding.beam", "decoding.greedy", "model.encode_frames",
                    "model.prediction_step", "model.joint_row"),
}


def check_layers_present() -> None:
    """Raise LayerMissing naming every wrapped attribute the program lacks."""
    missing = [f"{name} ({getattr(owner, '__name__', owner)}.{attr})"
               for name, (owner, attr) in {**LAYERS, **PROBED}.items()
               if not callable(getattr(owner, attr, None))]
    if missing:
        raise LayerMissing("wrapped layer missing from the program: " + ", ".join(missing))


@contextmanager
def patched(replacements):
    """Install {(owner, attr): wrapper} for the duration of the block."""
    originals = {}
    try:
        for (owner, attr), wrapper in replacements.items():
            originals[(owner, attr)] = vars(owner)[attr]
            setattr(owner, attr, wrapper(getattr(owner, attr)))
        yield
    finally:
        for (owner, attr), original in originals.items():
            setattr(owner, attr, original)


class Probes:
    """The few hooks end-to-end metrics need: optimizer-step times (from
    Adam.zero_grad to the end of Adam.step), the number of taped utterances
    (one Tape.backward each), and the last beam / greedy results for the
    output checks. Cheap enough to stay on in untraced runs."""

    def __init__(self):
        self.step_times: list[float] = []
        self.utterances = 0
        self.beam = None
        self.greedy = None
        self._step_start = 0.0

    def hooks(self):
        def zero_grad(fn):
            def wrapper(*args, **kwargs):
                self._step_start = perf_counter()
                return fn(*args, **kwargs)
            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.step_times.append(perf_counter() - self._step_start)
                return out
            return wrapper

        def backward(fn):
            def wrapper(*args, **kwargs):
                self.utterances += 1
                return fn(*args, **kwargs)
            return wrapper

        def capture(slot):
            def wrap(fn):
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    setattr(self, slot, out)
                    return out
                return wrapper
            return wrap

        return {PROBED["numerics.zero_grad"]: zero_grad,
                PROBED["numerics.adam_step"]: step,
                PROBED["numerics.backward"]: backward,
                PROBED["decoding.beam"]: capture("beam"),
                PROBED["decoding.greedy"]: capture("greedy")}


def _tape_records(args, out):
    return len(args[0].records)


def _lattice_cells(args, out):
    logits = args[0]
    return logits.shape[0] * logits.shape[1]


def _best_tokens(args, out):
    return len(out[0].prefix)


# Work counted at a span boundary, from the call's arguments and result.
COUNTERS = {
    "numerics.backward": _tape_records,
    "loss.rnnt_loss": _lattice_cells,
    "decoding.beam": _best_tokens,
}


class Tracer:
    """In-memory span recorder over every name in LAYERS."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1, utt id]
        self.counts: dict[str, int] = defaultdict(int)
        self.utt = None
        self._stack: list[int] = []
        self._taped = 0

    def hooks(self):
        hooks = {}
        for name, target in LAYERS.items():
            hooks[target] = self._span_wrapper(name, COUNTERS.get(name))
        tape_enter = (nm.Tape, "__enter__")
        hooks[tape_enter] = self._tape_enter
        return hooks

    def _tape_enter(self, fn):
        # training has no utterance ids in view; number the taped utterances
        def wrapper(tape):
            self._taped += 1
            self.utt = f"taped-{self._taped}"
            return fn(tape)
        return wrapper

    def _span_wrapper(self, name, counter):
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def wrapper(*args, **kwargs):
                span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.utt]
                stack.append(len(spans))
                spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if counter is not None:
                    self.counts[name] += counter(args, out)
                return out
            return wrapper
        return wrap

    # -- summaries -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations": []})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
            rec["durations"].append(end - start)
        return out

    def children_calls(self, parent_name: str, child_name: str) -> int:
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name)

    def write(self, fh, phase: str) -> None:
        """One JSON line per span: [phase, name, start, end, parent, utt];
        parent indexes the spans of the same phase in file order."""
        for span in self.spans:
            fh.write(json.dumps([phase, *span], separators=(",", ":")))
            fh.write("\n")

