"""Word-level alignment spans -> the frame alignment: one token id per encoder frame.

Frames inside a word are divided equally among its pieces (earlier pieces
take the remainder); frames outside every span carry the space token. A word
with more pieces than frames cannot be aligned and raises DegenerateUtterance
so the caller can drop it. Short pauses are maximal space runs of at most
``max_len`` frames; they matter for the blank-substitution label tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateUtterance, ShapeError


@dataclass
class WordSpan:
    """One word's pieces and its half-open [start, end) encoder-frame range."""

    word: str
    pieces: list[int]
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.end_frame <= self.start_frame:
            raise ShapeError(f"WordSpan '{self.word}': empty range "
                             f"[{self.start_frame}, {self.end_frame})")
        if not self.pieces:
            raise ShapeError(f"WordSpan '{self.word}': no pieces")

    @property
    def num_frames(self) -> int:
        return self.end_frame - self.start_frame


def allocate_frames(span: WordSpan) -> list[int]:
    """Per-piece frame counts: equal split, ceil-first, summing to the span length."""
    n_frames = span.num_frames
    n_pieces = len(span.pieces)
    if n_pieces > n_frames:
        raise DegenerateUtterance(
            f"word '{span.word}' has {n_pieces} pieces but only {n_frames} frames")
    base, rem = divmod(n_frames, n_pieces)
    return [base + 1 if i < rem else base for i in range(n_pieces)]


def build_frame_alignment(spans: list[WordSpan], total_frames: int, space_id: int) -> list[int]:
    """The frame alignment: one token id per encoder frame, pieces inside
    spans and the space token everywhere else."""
    if total_frames < 1:
        raise ShapeError("build_frame_alignment: need at least one frame")
    ordered = sorted(spans, key=lambda s: s.start_frame)
    prev_end = 0
    for span in ordered:
        if span.start_frame < prev_end:
            raise ShapeError(f"overlapping spans at frame {span.start_frame}")
        if span.end_frame > total_frames:
            raise ShapeError(f"span '{span.word}' ends at {span.end_frame} > T={total_frames}")
        prev_end = span.end_frame
    labels = [space_id] * total_frames
    for span in ordered:
        frame = span.start_frame
        for piece, count in zip(span.pieces, allocate_frames(span)):
            labels[frame : frame + count] = [piece] * count
            frame += count
    return labels


def short_pause_spans(labels: list[int], space_id: int, max_len: int = 2) -> list[tuple[int, int]]:
    """Half-open ranges of maximal space runs no longer than max_len frames."""
    runs = []
    start = None
    for t, label in enumerate(labels + [None]):  # sentinel closes a trailing run
        if label == space_id:
            if start is None:
                start = t
        elif start is not None:
            if t - start <= max_len:
                runs.append((start, t))
            start = None
    return runs


def collapse(labels) -> list[int]:
    """Merge consecutive duplicates: the token sequence a frame alignment spells."""
    out = []
    for label in labels:
        if not out or out[-1] != label:
            out.append(label)
    return out
