"""Frame-synchronous decoding and emission-delay measurement.

The decode loop follows the streaming rule: consult the joint at (frame t,
label state u); a non-blank output extends the prefix and advances the
prediction network, blank advances to the next frame; decoding ends once the
last frame is consumed. A per-frame symbol cap guards against livelock on
adversarial models (a forced advance consumes the blank's probability).

Searches talk to a *decoder*: ``num_frames``, ``blank`` and
``logprobs(t, prefixes)``, which scores n label prefixes (tuples of token
ids) at frame t as an (n, K+1) log-probability matrix. The label state is the
prefix itself, so hypotheses carry no model state. ``ModelDecoder`` binds a
``TransducerModel`` to one utterance; ``TableModel`` is a decoder over a
fixed table.

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
from .errors import ShapeError
from .numerics import log_softmax_array


@dataclass
class Hypothesis:
    prefix: list[int]
    log_prob: float
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


class ModelDecoder:
    """A TransducerModel bound to one utterance, scored by label prefix.

    The encoder runs once. A prefix's prediction state depends only on the
    prefix, so each is computed once and cached for the utterance, however
    many hypotheses or searches reach it: the prefixes new to a ``logprobs``
    call are advanced together in one batched ``prediction_step`` from their
    parents' states, and all requested prefixes are scored with one
    ``joint_row`` call on their stacked output rows.
    """

    def __init__(self, model, features):
        self.model = model
        self.enc = model.encode_frames(features)
        self.num_frames = self.enc.shape[0]
        self.blank = model.config.blank_id
        # prefix -> (output row (H,), per-layer (h, c) as (1, H) rows)
        self._states = {(): model.prediction_start()}

    def logprobs(self, t: int, prefixes: list[tuple]) -> np.ndarray:
        new = [p for p in dict.fromkeys(prefixes) if p not in self._states]
        if new:
            self._advance(new)
        rows = np.stack([self._states[p][0] for p in prefixes])
        return log_softmax_array(self.model.joint_row(self.enc[t], rows))

    def _advance(self, prefixes: list[tuple]) -> None:
        parents = [p[:-1] for p in prefixes]
        missing = [p for p in dict.fromkeys(parents) if p not in self._states]
        if missing:
            self._advance(missing)
        states = [self._states[p][1] for p in parents]
        batch = [(np.concatenate([s[layer][0] for s in states]),
                  np.concatenate([s[layer][1] for s in states]))
                 for layer in range(len(states[0]))]
        rows, batch = self.model.prediction_step(batch, [p[-1] for p in prefixes])
        for i, p in enumerate(prefixes):
            self._states[p] = (rows[i], [(h[i : i + 1], c[i : i + 1]) for h, c in batch])


class TableModel:
    """A decoder over a precomputed (T, R, K+1) log-probability table: a
    prefix of length u reads row min(u, R-1). Lets label tensors act as
    oracle models."""

    def __init__(self, log_probs: np.ndarray, blank: int | None = None):
        self.table = np.asarray(log_probs, dtype=np.float64)
        if self.table.ndim != 3:
            raise ShapeError(f"TableModel: need (T, R, K+1), got shape {self.table.shape}")
        self.num_frames = self.table.shape[0]
        self.blank = self.table.shape[-1] - 1 if blank is None else blank

    def logprobs(self, t: int, prefixes: list[tuple]) -> np.ndarray:
        last = self.table.shape[1] - 1
        return self.table[t, [min(len(p), last) for p in prefixes]]


def greedy_decode(dec, max_symbols_per_frame: int = 4) -> Hypothesis:
    """Single-hypothesis frame-synchronous decode of decoder ``dec``; argmax
    ties break low."""
    if max_symbols_per_frame < 1:
        raise ShapeError("greedy_decode: max_symbols_per_frame must be >= 1")
    prefix: tuple = ()
    emit_frames: list[int] = []
    log_prob = 0.0
    for t in range(dec.num_frames):
        emitted = 0
        while True:
            lp = dec.logprobs(t, [prefix])[0]
            k = int(np.argmax(lp))
            if k == dec.blank or emitted >= max_symbols_per_frame:
                log_prob += float(lp[dec.blank])
                break
            prefix += (k,)
            emit_frames.append(t)
            log_prob += float(lp[k])
            emitted += 1
    return Hypothesis(prefix=list(prefix), log_prob=log_prob, emit_frames=emit_frames)


@dataclass
class _BeamHyp:
    prefix: tuple
    log_prob: float
    emit_frames: tuple
    on_greedy_path: bool


def _merge_into(bucket: dict, hyp: _BeamHyp) -> None:
    prev = bucket.get(hyp.prefix)
    if prev is None:
        bucket[hyp.prefix] = hyp
    else:
        keep = prev if prev.log_prob >= hyp.log_prob else hyp
        bucket[hyp.prefix] = _BeamHyp(hyp.prefix, float(np.logaddexp(prev.log_prob, hyp.log_prob)),
                                      keep.emit_frames, prev.on_greedy_path or hyp.on_greedy_path)


def beam_decode(dec, beam_width: int = 5,
                max_symbols_per_frame: int = 4) -> tuple[Hypothesis, list[Hypothesis]]:
    """Frame-synchronous beam search of decoder ``dec`` with prefix merging;
    returns the best hypothesis and the n-best list (one entry per surviving
    prefix).

    Each expansion step scores the whole pool with one ``logprobs`` call and
    ranks all (hypothesis, class) candidates with one sort.
    """
    if beam_width < 1:
        raise ShapeError("beam_decode: beam_width must be >= 1")
    beam = [_BeamHyp((), 0.0, (), on_greedy_path=True)]

    for t in range(dec.num_frames):
        pool = beam
        next_beam: dict[tuple, _BeamHyp] = {}
        for step in range(max_symbols_per_frame + 1):
            if not pool:
                break
            lp = dec.logprobs(t, [hyp.prefix for hyp in pool])
            if step == max_symbols_per_frame:
                # symbol cap: every surviving hypothesis advances on blank
                for hyp, blank_lp in zip(pool, lp[:, dec.blank].tolist()):
                    _merge_into(next_beam, _BeamHyp(hyp.prefix, hyp.log_prob + blank_lp,
                                                    hyp.emit_frames, hyp.on_greedy_path))
                break
            n = len(pool)
            # candidate j = k * n + i extends hypothesis i by class k; a stable
            # sort of the flattened transposed scores ranks by (-score, k, i)
            scores = (np.array([hyp.log_prob for hyp in pool])[:, None] + lp).T.ravel()
            ranked = np.argsort(-scores, kind="stable")
            greedy = np.zeros(scores.size, dtype=bool)
            for i, hyp in enumerate(pool):
                if hyp.on_greedy_path:
                    greedy[int(np.argmax(lp[i])) * n + i] = True
            # the beam_width best, and never prune the trajectory greedy would take
            selected = ranked[(np.arange(ranked.size) < beam_width) | greedy[ranked]]
            parents, pool = pool, []
            for j in selected.tolist():
                k, i = divmod(j, n)
                hyp, score, is_greedy = parents[i], float(scores[j]), bool(greedy[j])
                if k == dec.blank:
                    _merge_into(next_beam, _BeamHyp(hyp.prefix, score, hyp.emit_frames, is_greedy))
                else:
                    pool.append(_BeamHyp(hyp.prefix + (k,), score, hyp.emit_frames + (t,),
                                         is_greedy))
        survivors = sorted(next_beam.values(), key=lambda h: (-h.log_prob, h.prefix))
        beam = [hyp for i, hyp in enumerate(survivors) if i < beam_width or hyp.on_greedy_path]

    nbest = [Hypothesis(prefix=list(h.prefix), log_prob=h.log_prob,
                        emit_frames=list(h.emit_frames)) for h in beam]
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


def write_delay_csv(path, stats: DelayStats) -> None:
    """Unit-frame histogram rows (bin,count) followed by the summary row."""
    with open(path, "w") as fh:
        fh.write("bin,count\n")
        for bin_, count in stats.histogram().items():
            fh.write(f"{bin_},{count}\n")
        mean = stats.mean()
        fh.write(f"mean,{'' if mean is None else repr(mean)}\n")
        fh.write(f"skipped,{stats.skipped}\n")
