"""Frame-synchronous decoding and emission-delay measurement.

The decode loop follows the streaming rule: consult the joint at (frame t,
label state u); a non-blank output extends the prefix and advances the
prediction network, blank advances to the next frame; decoding ends once the
last frame is consumed. A per-frame symbol cap guards against livelock on
adversarial models (a forced advance consumes the blank's probability).

Beam search keeps ``beam_width`` hypotheses per frame, merging identical
prefixes by log-add. The trajectory greedy decoding would take is always kept
alive alongside the beam ("greedy protection"), so the returned best score
never falls below the greedy score and width 1 reduces to greedy exactly.
Ties everywhere break toward the lowest class id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .alignment import WordSpan
from .errors import ConfigError, ShapeError
from .numerics import Tensor, log_softmax_array


@dataclass
class Hypothesis:
    prefix: list[int]
    log_prob: float
    pred_state: object
    emit_frames: list[int]


@dataclass
class DelayStats:
    """Per-word emission delays: decoded first-piece frame minus the word's
    ground-truth start frame. Only correctly recognized utterances count;
    mismatches are skipped and tallied."""

    delays: list[int] = field(default_factory=list)
    skipped: int = 0

    def mean(self) -> float | None:
        return float(np.mean(self.delays)) if self.delays else None

    def histogram(self) -> dict[int, int]:
        bins: dict[int, int] = {}
        for d in self.delays:
            bins[d] = bins.get(d, 0) + 1
        return dict(sorted(bins.items()))

    def merge(self, other: "DelayStats") -> "DelayStats":
        return DelayStats(delays=self.delays + other.delays,
                          skipped=self.skipped + other.skipped)


class _ModelDecoder:
    """Adapter giving TransducerModel the stepping interface decoders use."""

    def __init__(self, model, features):
        if features is None:
            raise ShapeError("decoding a model needs encoder input features")
        data = features.data if isinstance(features, Tensor) else np.asarray(features, float)
        self.model = model
        self.enc = model.encode_frames(data)
        self.num_frames = self.enc.shape[0]
        self.blank = model.config.blank_id

    def start(self):
        return self.model.prediction_start()

    def step(self, state, token):
        return self.model.prediction_step(state, token)

    def logprobs(self, t, handle):
        return log_softmax_array(self.model.joint_row(self.enc[t], handle))


class TableModel:
    """Decode a precomputed (T, R, K+1) log-probability table; the label
    state is simply the row index. Lets label tensors act as oracle models."""

    def __init__(self, log_probs: np.ndarray, blank: int | None = None):
        self.table = np.asarray(log_probs, dtype=np.float64)
        if self.table.ndim != 3:
            raise ShapeError(f"TableModel: need (T, R, K+1), got shape {self.table.shape}")
        self.blank = self.table.shape[-1] - 1 if blank is None else blank

    def as_decoder(self, features=None):
        return _TableDecoder(self)


class _TableDecoder:
    def __init__(self, tm: TableModel):
        self.table = tm.table
        self.num_frames = tm.table.shape[0]
        self.max_row = tm.table.shape[1] - 1
        self.blank = tm.blank

    def start(self):
        return 0, 0

    def step(self, state, token):
        row = min(state + 1, self.max_row)
        return row, row

    def logprobs(self, t, handle):
        return self.table[t, handle]


def _make_decoder(model, features):
    if hasattr(model, "as_decoder"):
        return model.as_decoder(features)
    return _ModelDecoder(model, features)


def greedy_decode(model, features=None, max_symbols_per_frame: int = 4) -> Hypothesis:
    """Single-hypothesis frame-synchronous decode; argmax ties break low."""
    if max_symbols_per_frame < 1:
        raise ShapeError("greedy_decode: max_symbols_per_frame must be >= 1")
    dec = _make_decoder(model, features)
    handle, state = dec.start()
    prefix: list[int] = []
    emit_frames: list[int] = []
    log_prob = 0.0
    for t in range(dec.num_frames):
        emitted = 0
        while True:
            lp = dec.logprobs(t, handle)
            k = int(np.argmax(lp))
            if k == dec.blank or emitted >= max_symbols_per_frame:
                log_prob += float(lp[dec.blank])
                break
            prefix.append(k)
            emit_frames.append(t)
            log_prob += float(lp[k])
            handle, state = dec.step(state, k)
            emitted += 1
    return Hypothesis(prefix=prefix, log_prob=log_prob,
                      pred_state=(handle, state), emit_frames=emit_frames)


@dataclass
class _BeamHyp:
    prefix: tuple
    log_prob: float
    handle: object
    state: object
    emit_frames: tuple
    on_greedy_path: bool


def _merge_into(bucket: dict, hyp: _BeamHyp) -> None:
    prev = bucket.get(hyp.prefix)
    if prev is None:
        bucket[hyp.prefix] = hyp
    else:
        keep = prev if prev.log_prob >= hyp.log_prob else hyp
        merged = _BeamHyp(hyp.prefix, float(np.logaddexp(prev.log_prob, hyp.log_prob)),
                          keep.handle, keep.state, keep.emit_frames,
                          prev.on_greedy_path or hyp.on_greedy_path)
        bucket[hyp.prefix] = merged


def beam_decode(model, features=None, beam_width: int = 5,
                max_symbols_per_frame: int = 4) -> tuple[Hypothesis, list[Hypothesis]]:
    """Frame-synchronous beam search with prefix merging; returns the best
    hypothesis and the n-best list (one entry per surviving prefix)."""
    if beam_width < 1:
        raise ShapeError("beam_decode: beam_width must be >= 1")
    dec = _make_decoder(model, features)
    handle, state = dec.start()
    beam: dict[tuple, _BeamHyp] = {
        (): _BeamHyp((), 0.0, handle, state, (), on_greedy_path=True)
    }

    for t in range(dec.num_frames):
        pool = list(beam.values())
        next_beam: dict[tuple, _BeamHyp] = {}
        for step in range(max_symbols_per_frame + 1):
            if not pool:
                break
            scored = [(hyp, dec.logprobs(t, hyp.handle)) for hyp in pool]
            if step == max_symbols_per_frame:
                # symbol cap: every surviving hypothesis advances on blank
                for hyp, lp in scored:
                    _merge_into(next_beam, _BeamHyp(
                        hyp.prefix, hyp.log_prob + float(lp[dec.blank]),
                        hyp.handle, hyp.state, hyp.emit_frames, hyp.on_greedy_path))
                break
            candidates = []
            for order, (hyp, lp) in enumerate(scored):
                greedy_k = int(np.argmax(lp))
                for k in range(lp.shape[0]):
                    is_greedy = hyp.on_greedy_path and k == greedy_k
                    candidates.append((hyp.log_prob + float(lp[k]), k, order, hyp, is_greedy))
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            selected = candidates[:beam_width]
            # never prune the trajectory greedy decoding would take
            for cand in candidates[beam_width:]:
                if cand[4]:
                    selected.append(cand)
            pool = []
            for score, k, _, hyp, is_greedy in selected:
                if k == dec.blank:
                    _merge_into(next_beam, _BeamHyp(
                        hyp.prefix, score, hyp.handle, hyp.state,
                        hyp.emit_frames, is_greedy))
                else:
                    handle, state = dec.step(hyp.state, k)
                    pool.append(_BeamHyp(hyp.prefix + (k,), score, handle, state,
                                         hyp.emit_frames + (t,), is_greedy))
        survivors = sorted(next_beam.values(), key=lambda h: (-h.log_prob, h.prefix))
        beam = {}
        for i, hyp in enumerate(survivors):
            if i < beam_width or hyp.on_greedy_path:
                beam[hyp.prefix] = hyp

    ranked = sorted(beam.values(), key=lambda h: (-h.log_prob, h.prefix))
    nbest = [Hypothesis(prefix=list(h.prefix), log_prob=h.log_prob,
                        pred_state=(h.handle, h.state), emit_frames=list(h.emit_frames))
             for h in ranked]
    return nbest[0], nbest


def measure_delay(hyp: Hypothesis, spans: list[WordSpan],
                  piece_to_word: list[int | None], ref_tokens: list[int]) -> DelayStats:
    """Per-word delay = emission frame of the word's first piece minus its
    ground-truth start frame. Requires an exact transcript match; otherwise
    the utterance is excluded and counted."""
    if len(piece_to_word) != len(ref_tokens):
        raise ShapeError(f"piece_to_word has {len(piece_to_word)} entries "
                         f"for {len(ref_tokens)} reference tokens")
    if list(hyp.prefix) != list(ref_tokens):
        return DelayStats(delays=[], skipped=1)
    first_pos: dict[int, int] = {}
    for pos, w_idx in enumerate(piece_to_word):
        if w_idx is not None and w_idx not in first_pos:
            first_pos[w_idx] = pos
    delays = [int(hyp.emit_frames[first_pos[w]] - span.start_frame)
              for w, span in enumerate(spans)]
    return DelayStats(delays=delays, skipped=0)


# ---------------------------------------------------------------------------
# n-best and delay output formats
# ---------------------------------------------------------------------------


def write_nbest(path, entries: list[tuple[str, list[Hypothesis]]]) -> None:
    """JSON lines, one per hypothesis: {utt_id, hyp_tokens, log_prob, emit_frames}."""
    with open(path, "w") as fh:
        for utt_id, hyps in entries:
            for hyp in hyps:
                fh.write(json.dumps({
                    "utt_id": utt_id,
                    "hyp_tokens": list(hyp.prefix),
                    "log_prob": float(hyp.log_prob),
                    "emit_frames": list(hyp.emit_frames),
                }, separators=(",", ":")))
                fh.write("\n")


_NBEST_FIELDS = ("utt_id", "hyp_tokens", "log_prob", "emit_frames")


def read_nbest(path) -> list[dict]:
    lines = []
    with open(path) as fh:
        for lineno, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                line = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed n-best line ({exc})") from exc
            missing = [key for key in _NBEST_FIELDS if key not in line]
            if missing:
                raise ConfigError(f"{path}:{lineno}: n-best line lacks {', '.join(missing)}")
            lines.append(line)
    return lines


def write_delay_csv(path, stats: DelayStats) -> None:
    """Unit-frame histogram rows (bin,count) followed by the summary row."""
    with open(path, "w") as fh:
        fh.write("bin,count\n")
        for bin_, count in stats.histogram().items():
            fh.write(f"{bin_},{count}\n")
        mean = stats.mean()
        fh.write(f"mean,{'' if mean is None else repr(mean)}\n")
        fh.write(f"skipped,{stats.skipped}\n")
