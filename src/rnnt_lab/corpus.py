"""Utterance container and the JSON-lines corpus format.

One utterance per line: {"id", "features", "words", "transcript"} with word
spans expressed in encoder frames. Reading a file and writing it back is
byte-identical (python float repr round-trips IEEE doubles exactly).
``corpus_hash`` reads the features as bytes, not through that text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .alignment import WordSpan, build_frame_alignment, collapse
from .errors import ConfigError, ShapeError
from .model import ModelConfig


@dataclass
class Utterance:
    utt_id: str
    features: np.ndarray  # raw (N, d) frames, before stacking
    words: list[WordSpan]
    transcript: list[int]

    def encoder_frames(self, stride: int) -> int:
        return -(-self.features.shape[0] // stride)

    def frame_alignment(self, stride: int, space_id: int) -> list[int]:
        return build_frame_alignment(self.words, self.encoder_frames(stride), space_id)


def _words_record(words: list[WordSpan]) -> list[dict]:
    return [{"word": w.word, "pieces": list(w.pieces), "start": w.start_frame, "end": w.end_frame}
            for w in words]


def utterance_to_json(utt: Utterance) -> str:
    record = {
        "id": utt.utt_id,
        "features": [[float(v) for v in row] for row in utt.features],
        "words": _words_record(utt.words),
        "transcript": list(utt.transcript),
    }
    return json.dumps(record, separators=(",", ":"))


def utterance_from_json(line: str) -> Utterance:
    record = json.loads(line)
    return Utterance(
        utt_id=record["id"],
        features=np.asarray(record["features"], dtype=np.float64),
        words=[
            WordSpan(word=w["word"], pieces=list(w["pieces"]),
                     start_frame=w["start"], end_frame=w["end"])
            for w in record["words"]
        ],
        transcript=list(record["transcript"]),
    )


def save_corpus(path, utterances: list[Utterance]) -> None:
    with open(path, "w") as fh:
        for utt in utterances:
            fh.write(utterance_to_json(utt))
            fh.write("\n")


def check_utterance(utt: Utterance, model: ModelConfig, space_id: int | None = None) -> None:
    """ConfigError unless ``utt`` fits ``model``: finite (N, input_dim) features,
    transcript and word-piece ids in [0, vocab_size), int word-span bounds in order,
    without overlap and within the ceil(N / stack_stride) encoder frames, and a
    transcript that spells the words; with ``space_id``, every transcript token
    outside the words is that space token. A word with more pieces than frames
    passes: pre-training drops it as a degenerate utterance."""
    feats = utt.features
    if feats.ndim != 2 or feats.shape[1] != model.input_dim:
        raise ConfigError(f"features have shape {feats.shape}, but the model's "
                          f"input_dim is {model.input_dim}")
    if not np.isfinite(feats).all():
        raise ConfigError("features hold a non-finite value")
    for where, ids in [("transcript", utt.transcript),
                       *((f"word '{w.word}'", w.pieces) for w in utt.words)]:
        for k in ids:
            if not (_is_int(k) and 0 <= k < model.vocab_size):
                raise ConfigError(f"{where}: token id {k!r} is not an int in "
                                  f"[0, {model.vocab_size}), the model's vocab_size")
    t_len = utt.encoder_frames(model.stack_stride)
    prev_end = 0
    for w in utt.words:
        if not (_is_int(w.start_frame) and _is_int(w.end_frame)):
            raise ConfigError(f"word '{w.word}': span bounds {w.start_frame!r}, "
                              f"{w.end_frame!r} must be int")
        if w.start_frame < prev_end:
            raise ConfigError(f"word '{w.word}' starts at frame {w.start_frame}, before "
                              f"the previous word's end {prev_end}")
        if w.end_frame > t_len:
            raise ConfigError(f"word '{w.word}' ends at frame {w.end_frame}, past the "
                              f"{t_len} encoder frames")
        prev_end = w.end_frame
    try:
        piece_word_map(utt, space_id)
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_corpus(path, model: ModelConfig | None = None,
                space_id: int | None = None) -> list[Utterance]:
    """Read a JSONL corpus; with ``model``, also check each utterance against
    it (and its gap tokens against ``space_id``, when given)."""
    utterances = []
    with open(path, "rb") as fh:  # bytes, so a line that is not UTF-8 fails on its own
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                utt = utterance_from_json(line.decode())
            except (KeyError, TypeError, ValueError, OverflowError, ShapeError) as exc:
                # ValueError covers bad JSON or UTF-8, OverflowError an int feature past the
                # float range, ShapeError an empty or pieceless word span
                raise ConfigError(f"{path}:{lineno}: malformed utterance ({exc!r})") from exc
            if model is not None:
                try:
                    check_utterance(utt, model, space_id)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            utterances.append(utt)
    return utterances


def corpus_hash(utterances: list[Utterance]) -> str:
    """First 16 hex digits of a sha256 over the utterances in order. Each
    contributes its id, words (spans and pieces), transcript and feature shape
    as one compact JSON line, then its features as C-order little-endian
    float64 bytes; the shape fixes how many bytes follow the line."""
    digest = hashlib.sha256()
    for utt in utterances:
        feats = np.ascontiguousarray(utt.features, dtype="<f8")
        header = {"id": utt.utt_id, "shape": list(feats.shape),
                  "words": _words_record(utt.words), "transcript": list(utt.transcript)}
        digest.update(json.dumps(header, separators=(",", ":")).encode())
        digest.update(b"\n")
        digest.update(feats.tobytes())
    return digest.hexdigest()[:16]


def piece_word_map(utt: Utterance, space_id: int | None = None) -> list[int | None]:
    """For each transcript position, the index of the word it belongs to
    (None for space tokens). Requires the transcript to spell the words in
    order, which generated corpora guarantee; with ``space_id``, also that
    every token outside the words is the space token."""
    mapping: list[int | None] = []
    pos = 0
    for w_idx, span in enumerate(utt.words):
        word_tokens = collapse(span.pieces)
        # gaps collapse to a single space token, so at most one sits between words
        if pos < len(utt.transcript) and utt.transcript[pos] != word_tokens[0]:
            mapping.append(None)
            pos += 1
        if utt.transcript[pos : pos + len(word_tokens)] != word_tokens:
            raise ShapeError(f"utterance {utt.utt_id}: transcript does not spell word "
                             f"'{span.word}' at position {pos}")
        mapping.extend([w_idx] * len(word_tokens))
        pos += len(word_tokens)
    mapping.extend([None] * (len(utt.transcript) - pos))
    if space_id is not None:
        for pos, (token, w_idx) in enumerate(zip(utt.transcript, mapping)):
            if w_idx is None and token != space_id:
                raise ShapeError(f"utterance {utt.utt_id}: transcript token {token} at position "
                                 f"{pos} lies outside every word but is not the space token "
                                 f"{space_id}")
    return mapping
