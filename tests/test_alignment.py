import numpy as np
import pytest

from rnnt_lab import (DegenerateUtterance, ShapeError, WordSpan,
                      allocate_frames, build_frame_alignment, collapse,
                      short_pause_spans)


def span(pieces, start, end):
    return WordSpan(word="w", pieces=pieces, start_frame=start, end_frame=end)


def test_allocate_even_split():
    assert allocate_frames(span([1, 2], 0, 4)) == [2, 2]


def test_allocate_ceil_first_remainder():
    assert allocate_frames(span([1, 2], 0, 5)) == [3, 2]


def test_allocate_degenerate_word():
    with pytest.raises(DegenerateUtterance):
        allocate_frames(span([1, 2, 3], 0, 2))


def test_allocate_counts_always_sum_to_span_length():
    rng = np.random.default_rng(50)
    for _ in range(200):
        n_pieces = int(rng.integers(1, 6))
        n_frames = int(rng.integers(n_pieces, 12))
        counts = allocate_frames(span(list(range(1, n_pieces + 1)), 0, n_frames))
        assert sum(counts) == n_frames
        assert max(counts) - min(counts) <= 1


def test_build_no_spans_all_space():
    fa = build_frame_alignment([], total_frames=3, space_id=0)
    assert fa == [0, 0, 0]


def test_build_worked_example(worked_example):
    spans = [
        WordSpan("A", [1], 0, 3),
        WordSpan("B", [2], 3, 5),
        WordSpan("C", [3], 6, 8),
    ]
    fa = build_frame_alignment(spans, total_frames=8, space_id=0)
    assert fa == worked_example["fa"]  # 'A A A B B s C C'


def test_build_word_split_into_two_pieces():
    fa = build_frame_alignment([span([7, 8], 0, 5)], total_frames=5, space_id=0)
    assert fa == [7, 7, 7, 8, 8]


def test_build_rejects_overlap():
    with pytest.raises(ShapeError):
        build_frame_alignment([span([1], 0, 3), span([2], 2, 4)], 6, space_id=0)


def test_build_rejects_out_of_range():
    with pytest.raises(ShapeError):
        build_frame_alignment([span([1], 0, 9)], total_frames=8, space_id=0)


def test_build_propagates_degenerate():
    with pytest.raises(DegenerateUtterance):
        build_frame_alignment([span([1, 2, 3], 0, 2)], total_frames=4, space_id=0)


def test_short_pause_two_frames():
    fa = [1, 0, 0, 1]
    assert short_pause_spans(fa, space_id=0) == [(1, 3)]


def test_short_pause_three_frames_is_not_short():
    fa = [1, 0, 0, 0, 1]
    assert short_pause_spans(fa, space_id=0) == []


def test_short_pause_all_space_utterance():
    fa = [0, 0]
    assert short_pause_spans(fa, space_id=0) == [(0, 2)]


def test_short_pause_multiple_runs():
    fa = [0, 1, 0, 0, 2, 0, 0, 0, 2, 0]
    assert short_pause_spans(fa, space_id=0) == [(0, 1), (2, 4), (9, 10)]


def test_round_trip_collapse_recovers_pieces():
    rng = np.random.default_rng(51)
    for _ in range(100):
        # spans with span-unique piece ids, random gaps
        frame = 0
        spans = []
        expected = []
        next_piece = 1
        for _ in range(int(rng.integers(1, 5))):
            n_pieces = int(rng.integers(1, 4))
            pieces = list(range(next_piece, next_piece + n_pieces))
            next_piece += n_pieces
            length = n_pieces + int(rng.integers(0, 5))
            spans.append(span(pieces, frame, frame + length))
            expected.extend(pieces)
            frame += length + int(rng.integers(0, 3))
        total = frame + int(rng.integers(0, 2))
        fa = build_frame_alignment(spans, total_frames=max(total, spans[-1].end_frame),
                                   space_id=0)
        recovered = [k for k in collapse(fa) if k != 0]
        assert recovered == expected
