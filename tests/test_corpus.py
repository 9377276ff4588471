import copy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnt_lab import ShapeError
from rnnt_lab.alignment import WordSpan
from rnnt_lab.corpus import Utterance, corpus_hash, load_corpus, piece_word_map, save_corpus
from rnnt_lab.harness import ExperimentConfig, gen_corpus
from rnnt_lab.model import ModelConfig

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "default.json"


@pytest.fixture(scope="module")
def corpus():
    model = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                        prediction_layers=1, hidden=8, projection=6, vocab_size=6)
    cfg = ExperimentConfig(model=model, seed=21, num_train=4, num_test=0,
                           words_per_utt=(2, 3), pieces_per_word=(1, 2), noise=0.2)
    return gen_corpus(cfg)[0]


def test_corpus_hash_equal_for_equal_corpora_and_across_a_file_round_trip(corpus, tmp_path):
    assert corpus_hash(copy.deepcopy(corpus)) == corpus_hash(corpus)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    assert corpus_hash(load_corpus(path)) == corpus_hash(corpus)


def _bump_one_ulp(utts):
    utts[1].features[2, 1] = np.nextafter(utts[1].features[2, 1], np.inf)


def _reshape_features(utts):
    utts[0].features = utts[0].features.reshape(1, -1)  # same bytes, another shape


def _move_span_end(utts):
    utts[0].words[0].end_frame += 1


def _change_piece(utts):
    utts[0].words[-1].pieces[0] += 1


def _change_transcript(utts):
    utts[2].transcript[-1] += 1


def _rename(utts):
    utts[3].utt_id += "x"


def _swap_order(utts):
    utts[0], utts[1] = utts[1], utts[0]


@pytest.mark.parametrize("edit", [_bump_one_ulp, _reshape_features, _move_span_end,
                                  _change_piece, _change_transcript, _rename, _swap_order])
def test_corpus_hash_changes_with_any_field(corpus, edit):
    edited = copy.deepcopy(corpus)
    edit(edited)
    assert corpus_hash(edited) != corpus_hash(corpus)


def test_corpus_hash_of_the_default_train_corpus_is_pinned():
    # a deliberate change to the hash definition or to the generator updates this value
    train, _ = gen_corpus(ExperimentConfig.from_json(CONFIG_PATH))
    assert corpus_hash(train) == "ff24a6c34c0d8784"


def _two_words(transcript):
    return Utterance("u", np.zeros((12, 2)), [WordSpan("a", [2, 3], 0, 4),
                                              WordSpan("b", [4], 5, 6)], transcript)


def test_piece_word_map_with_space_id_checks_the_gap_tokens():
    assert piece_word_map(_two_words([2, 3, 0, 4, 0]), space_id=0) == [0, 0, None, 1, None]
    for transcript, pos in (([2, 3, 1, 4], 2), ([1, 2, 3, 4], 0), ([2, 3, 0, 4, 1], 4)):
        assert len(piece_word_map(_two_words(transcript))) == len(transcript)
        with pytest.raises(ShapeError, match=f"token {transcript[pos]} at position {pos}"):
            piece_word_map(_two_words(transcript), space_id=0)


@st.composite
def corpus_configs(draw):
    def span(lo, hi):
        first = draw(st.integers(lo, hi))
        return (first, draw(st.integers(first, hi)))

    gaps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(gaps), max_size=len(gaps)))
    vocab = draw(st.integers(3, 6))
    model = ModelConfig(input_dim=3, stack_factor=2, stack_stride=draw(st.integers(1, 3)),
                        encoder_layers=1, prediction_layers=1, hidden=4, projection=3,
                        vocab_size=vocab)
    return ExperimentConfig(model=model, seed=draw(st.integers(0, 2**31 - 1)),
                            space_id=draw(st.integers(0, vocab - 1)), num_train=3, num_test=2,
                            words_per_utt=span(1, 4), pieces_per_word=span(1, 3),
                            piece_frames=span(1, 5), gap_choices=tuple(gaps),
                            gap_weights=tuple(w / sum(weights) for w in weights),
                            noise=draw(st.sampled_from([0.0, 0.05, 0.3, 2.0])))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(cfg=corpus_configs())
def test_generated_corpus_round_trips_and_fits_its_model(tmp_path_factory, cfg):
    tmp = tmp_path_factory.mktemp("corpus")
    for name, utts in zip(("train", "test"), gen_corpus(cfg)):
        first, second = tmp / f"{name}.jsonl", tmp / f"{name}-again.jsonl"
        save_corpus(first, utts)
        save_corpus(second, load_corpus(first))
        assert second.read_bytes() == first.read_bytes()
        assert len(load_corpus(first, cfg.model, cfg.space_id)) == len(utts)
