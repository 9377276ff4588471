import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnt_lab import (DelayStats, ModelConfig, ShapeError, TableModel, Tensor,
                      TransducerModel, WordSpan, beam_decode, build_y2, greedy_decode,
                      harness, label_logits, measure_delay, stack_frames)
from rnnt_lab.decoding import Hypothesis, ModelDecoder, write_delay_csv, write_nbest
from rnnt_lab.numerics import log_softmax_array, logsumexp


def random_table(rng, t_len, rows, classes, scale=1.0):
    """A normalized random log-prob table (generic scores: tie-free w.p. 1)."""
    z = scale * rng.normal(size=(t_len, rows, classes))
    z -= z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def test_greedy_always_blank_model():
    table = np.zeros((4, 3, 5))
    table[:, :, 4] = 10.0  # blank argmax everywhere
    table -= np.log(np.exp(table).sum(axis=-1, keepdims=True))
    hyp = greedy_decode(TableModel(table, blank=4))
    assert hyp.prefix == []
    assert hyp.emit_frames == []
    # consumed exactly T blanks
    assert hyp.log_prob == pytest.approx(4 * table[0, 0, 4], abs=1e-12)


def test_greedy_on_y2_oracle_worked_example(worked_example):
    lt = build_y2(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    hyp = greedy_decode(TableModel(label_logits(lt), blank=worked_example["blank"]))
    assert hyp.prefix == worked_example["tokens"]  # 'A B s C'
    assert hyp.emit_frames == [0, 3, 5, 6]


def test_greedy_symbol_cap_and_termination():
    # a model that always argmaxes a non-blank: must still terminate
    table = np.zeros((3, 10, 4))
    table[:, :, 1] = 5.0
    hyp = greedy_decode(TableModel(table, blank=3), max_symbols_per_frame=2)
    assert len(hyp.prefix) == 3 * 2  # cap emissions per frame
    assert hyp.emit_frames == [0, 0, 1, 1, 2, 2]


def test_greedy_emit_frames_non_decreasing():
    rng = np.random.default_rng(70)
    for _ in range(30):
        table = random_table(rng, int(rng.integers(1, 6)), 6, 5)
        hyp = greedy_decode(TableModel(table, blank=4))
        assert all(a <= b for a, b in zip(hyp.emit_frames, hyp.emit_frames[1:]))


def test_greedy_rejects_bad_cap():
    with pytest.raises(ShapeError):
        greedy_decode(TableModel(np.zeros((2, 2, 3))), max_symbols_per_frame=0)


def test_beam_width_one_equals_greedy_on_random_models():
    rng = np.random.default_rng(71)
    for _ in range(50):
        t_len = int(rng.integers(1, 5))
        table = random_table(rng, t_len, 8, int(rng.integers(2, 6)))
        tm = TableModel(table)
        greedy = greedy_decode(tm)
        best, _ = beam_decode(tm, beam_width=1)
        assert best.prefix == greedy.prefix
        assert best.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


def test_beam_width_five_never_below_greedy():
    rng = np.random.default_rng(72)
    for _ in range(50):
        t_len = int(rng.integers(1, 5))
        table = random_table(rng, t_len, 8, int(rng.integers(2, 6)), scale=2.0)
        tm = TableModel(table)
        greedy = greedy_decode(tm)
        best, _ = beam_decode(tm, beam_width=5)
        assert best.log_prob >= greedy.log_prob - 1e-12


def test_beam_width_monotone_on_random_models():
    rng = np.random.default_rng(73)
    for _ in range(30):
        table = random_table(rng, int(rng.integers(2, 5)), 8, 4, scale=1.5)
        tm = TableModel(table)
        scores = [beam_decode(tm, beam_width=w)[0].log_prob for w in (1, 2, 3, 5)]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 1e-12


def test_beam_on_model_width_one_equals_greedy(tiny_model):
    rng = np.random.default_rng(74)
    for _ in range(10):
        feats = Tensor(rng.normal(size=(4, 6)))
        greedy = greedy_decode(ModelDecoder(tiny_model, feats))
        best, _ = beam_decode(ModelDecoder(tiny_model, feats), beam_width=1)
        assert best.prefix == greedy.prefix


def brute_force_prefix_masses(table, blank, max_symbols_per_frame):
    """Enumerate all emission sequences the frame-synchronous loop allows and
    sum path probabilities per final prefix."""
    t_len, rows, classes = table.shape
    masses: dict[tuple, list[float]] = {}

    def walk(t, row, logp, prefix, emitted_this_frame):
        if t == t_len:
            masses.setdefault(tuple(prefix), []).append(logp)
            return
        lp = table[t, min(row, rows - 1)]
        # blank advances the frame
        walk(t + 1, row, logp + lp[blank], prefix, 0)
        if emitted_this_frame < max_symbols_per_frame:
            for k in range(classes):
                if k != blank:
                    walk(t, row + 1, logp + lp[k], prefix + [k],
                         emitted_this_frame + 1)

    walk(0, 0, 0.0, [], 0)
    return {p: logsumexp(v) for p, v in masses.items()}


def test_beam_prefix_merge_conserves_probability():
    rng = np.random.default_rng(75)
    table = random_table(rng, 3, 7, 3)
    tm = TableModel(table, blank=2)
    cap = 2
    masses = brute_force_prefix_masses(table, blank=2, max_symbols_per_frame=cap)
    # a beam wide enough to be exhaustive must agree with enumeration
    _, nbest = beam_decode(tm, beam_width=500, max_symbols_per_frame=cap)
    assert len(nbest) == len(masses)
    for hyp in nbest:
        assert hyp.log_prob == pytest.approx(masses[tuple(hyp.prefix)], abs=1e-10)


def test_decoding_is_streaming_prefix_stable(tiny_model):
    rng = np.random.default_rng(76)
    feats = rng.normal(size=(6, 6))
    full = greedy_decode(ModelDecoder(tiny_model, Tensor(feats)))
    for t in (2, 4):
        part = greedy_decode(ModelDecoder(tiny_model, Tensor(feats[:t])))
        expected = [k for k, f in zip(full.prefix, full.emit_frames) if f < t]
        assert part.prefix == expected


def test_measure_delay_oracle_zero(worked_example):
    spans = [WordSpan("A", [1], 0, 3), WordSpan("B", [2], 3, 5), WordSpan("C", [3], 6, 8)]
    lt = build_y2(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    hyp = greedy_decode(TableModel(label_logits(lt), blank=worked_example["blank"]))
    stats = measure_delay(hyp, spans, [0, 1, None, 2], worked_example["tokens"])
    assert stats.delays == [0, 0, 0]
    assert stats.mean() == 0.0
    assert stats.skipped == 0


def test_measure_delay_constant_lateness():
    spans = [WordSpan("u", [5], 0, 4), WordSpan("v", [6], 5, 9)]
    hyp = Hypothesis(prefix=[5, 0, 6], log_prob=0.0, emit_frames=[3, 7, 8])
    stats = measure_delay(hyp, spans, [0, None, 1], [5, 0, 6])
    assert stats.delays == [3, 3]
    assert stats.mean() == pytest.approx(3.0)


def test_measure_delay_mismatch_skipped_and_counted():
    spans = [WordSpan("u", [5], 0, 4)]
    hyp = Hypothesis(prefix=[5, 5], log_prob=0.0, emit_frames=[0, 1])
    stats = measure_delay(hyp, spans, [0], [5])
    assert stats.delays == []
    assert stats.skipped == 1


def test_delay_stats_histogram_mass():
    stats = DelayStats(delays=[0, 1, 1, 3, -2])
    hist = stats.histogram()
    assert sum(hist.values()) == 5
    assert hist == {-2: 1, 0: 1, 1: 2, 3: 1}


def test_nbest_roundtrip(tmp_path):
    hyp1 = Hypothesis(prefix=[1, 2], log_prob=-3.5, emit_frames=[0, 2])
    hyp2 = Hypothesis(prefix=[1], log_prob=-4.25, emit_frames=[1])
    path = tmp_path / "nbest.jsonl"
    write_nbest(path, [("utt-0", [hyp1, hyp2])])
    lines = [json.loads(text) for text in path.read_text().splitlines()]
    assert lines[0] == {"utt_id": "utt-0", "hyp_tokens": [1, 2], "log_prob": -3.5,
                        "emit_frames": [0, 2]}
    assert lines[1]["log_prob"] == -4.25


def test_delay_csv_format(tmp_path):
    stats = DelayStats(delays=[0, 2, 2], skipped=1)
    path = tmp_path / "delay.csv"
    write_delay_csv(path, stats)
    text = path.read_text().splitlines()
    assert text[0] == "bin,count"
    assert "0,1" in text and "2,2" in text
    assert any(line.startswith("mean,") for line in text)
    assert "skipped,1" in text


# ---------------------------------------------------------------------------
# per-hypothesis reference search (oracle)
#
# The search as it was before decoders became prefix-keyed and batched: every
# hypothesis threads its own (handle, state) through single-token stepping and
# is scored with its own joint call; candidates are Python tuples sorted by
# (-score, class id, hypothesis order).
# ---------------------------------------------------------------------------


class _ModelStepper:
    def __init__(self, model, features):
        self.model = model
        self.enc = model.encode_frames(features)
        self.num_frames = self.enc.shape[0]
        self.blank = model.config.blank_id

    def start(self):
        return self.model.prediction_start()

    def step(self, state, token):
        row, state = self.model.prediction_step(state, [token])
        return row[0], state

    def logprobs(self, t, handle):
        return log_softmax_array(self.model.joint_row(self.enc[t], handle))


class _TableStepper:
    def __init__(self, table, blank):
        self.table = table
        self.num_frames = table.shape[0]
        self.max_row = table.shape[1] - 1
        self.blank = blank

    def start(self):
        return 0, 0

    def step(self, state, token):
        row = min(state + 1, self.max_row)
        return row, row

    def logprobs(self, t, handle):
        return self.table[t, handle]


def reference_greedy(dec, max_symbols_per_frame):
    handle, state = dec.start()
    prefix, emit_frames, log_prob = [], [], 0.0
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
    return Hypothesis(prefix=prefix, log_prob=log_prob, emit_frames=emit_frames)


@dataclass
class _RefHyp:
    prefix: tuple
    log_prob: float
    handle: object
    state: object
    emit_frames: tuple
    on_greedy_path: bool


def _reference_merge(bucket, hyp):
    prev = bucket.get(hyp.prefix)
    if prev is None:
        bucket[hyp.prefix] = hyp
    else:
        keep = prev if prev.log_prob >= hyp.log_prob else hyp
        bucket[hyp.prefix] = _RefHyp(hyp.prefix, float(np.logaddexp(prev.log_prob, hyp.log_prob)),
                                     keep.handle, keep.state, keep.emit_frames,
                                     prev.on_greedy_path or hyp.on_greedy_path)


def reference_beam(dec, beam_width, max_symbols_per_frame):
    handle, state = dec.start()
    beam = {(): _RefHyp((), 0.0, handle, state, (), True)}
    for t in range(dec.num_frames):
        pool = list(beam.values())
        next_beam = {}
        for step in range(max_symbols_per_frame + 1):
            if not pool:
                break
            scored = [(hyp, dec.logprobs(t, hyp.handle)) for hyp in pool]
            if step == max_symbols_per_frame:
                for hyp, lp in scored:
                    _reference_merge(next_beam, _RefHyp(
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
            for cand in candidates[beam_width:]:
                if cand[4]:
                    selected.append(cand)
            pool = []
            for score, k, _, hyp, is_greedy in selected:
                if k == dec.blank:
                    _reference_merge(next_beam, _RefHyp(hyp.prefix, score, hyp.handle, hyp.state,
                                                        hyp.emit_frames, is_greedy))
                else:
                    handle, state = dec.step(hyp.state, k)
                    pool.append(_RefHyp(hyp.prefix + (k,), score, handle, state,
                                        hyp.emit_frames + (t,), is_greedy))
        survivors = sorted(next_beam.values(), key=lambda h: (-h.log_prob, h.prefix))
        beam = {}
        for i, hyp in enumerate(survivors):
            if i < beam_width or hyp.on_greedy_path:
                beam[hyp.prefix] = hyp
    ranked = sorted(beam.values(), key=lambda h: (-h.log_prob, h.prefix))
    return [Hypothesis(prefix=list(h.prefix), log_prob=h.log_prob,
                       emit_frames=list(h.emit_frames)) for h in ranked]


def assert_same_hyps(got, want, tol):
    assert [h.prefix for h in got] == [h.prefix for h in want]
    assert [h.emit_frames for h in got] == [h.emit_frames for h in want]
    for g, w in zip(got, want):
        assert abs(g.log_prob - w.log_prob) <= tol


def random_transducer(seed, layer_norm, prediction_layers=1):
    """A small model with every weight redrawn at unit scale, so decoding
    emits and merges often instead of mostly emitting blank."""
    config = ModelConfig(input_dim=3, stack_factor=2, stack_stride=1, encoder_layers=1,
                         prediction_layers=prediction_layers, hidden=5, projection=4,
                         vocab_size=4, use_layer_norm=layer_norm)
    model = TransducerModel(config, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for p in model.parameters():
        p.data[...] = rng.normal(size=p.data.shape)
    return model


def check_against_oracle(model, feats, beam_width, cap):
    best, nbest = beam_decode(ModelDecoder(model, Tensor(feats)), beam_width=beam_width,
                              max_symbols_per_frame=cap)
    want = reference_beam(_ModelStepper(model, feats), beam_width, cap)
    assert_same_hyps(nbest, want, 1e-12)
    assert best == nbest[0]
    greedy = greedy_decode(ModelDecoder(model, Tensor(feats)), max_symbols_per_frame=cap)
    assert_same_hyps([greedy], [reference_greedy(_ModelStepper(model, feats), cap)], 1e-12)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_beam_and_greedy_match_per_hypothesis_oracle_on_models(layer_norm):
    rng = np.random.default_rng(77)
    for seed, pred_layers in ((1, 1), (2, 2)):
        model = random_transducer(seed, layer_norm, pred_layers)
        for beam_width in (1, 2, 5):
            for cap in (1, 2, 4):
                for t_len in (1, int(rng.integers(2, 13))):
                    check_against_oracle(model, rng.normal(size=(t_len, 6)), beam_width, cap)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t_len=st.integers(1, 12),
       beam_width=st.sampled_from([1, 2, 5]), cap=st.sampled_from([1, 2, 4]),
       layer_norm=st.booleans(), prediction_layers=st.integers(1, 2))
def test_beam_and_greedy_match_oracle_property(seed, t_len, beam_width, cap, layer_norm,
                                               prediction_layers):
    model = random_transducer(seed, layer_norm, prediction_layers)
    feats = np.random.default_rng([seed, 2]).normal(size=(t_len, 6))
    check_against_oracle(model, feats, beam_width, cap)


@pytest.mark.parametrize("levels", [None, 3])
def test_beam_and_greedy_match_per_hypothesis_oracle_on_tables(levels):
    # tables rounded to a few levels make score ties common: the ranking's
    # tie-breaking and the merge order must match the oracle exactly
    rng = np.random.default_rng(78)
    for _ in range(40):
        table = random_table(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)),
                             int(rng.integers(2, 6)), scale=2.0)
        if levels is not None:
            table = np.round(table * levels) / levels
        blank = int(rng.integers(0, table.shape[-1]))
        tm = TableModel(table, blank=blank)
        for beam_width in (1, 2, 5):
            for cap in (1, 2, 4):
                _, nbest = beam_decode(tm, beam_width=beam_width, max_symbols_per_frame=cap)
                want = reference_beam(_TableStepper(table, blank), beam_width, cap)
                assert_same_hyps(nbest, want, 0.0)
                greedy = greedy_decode(tm, max_symbols_per_frame=cap)
                assert_same_hyps([greedy], [reference_greedy(_TableStepper(table, blank), cap)],
                                 0.0)


def test_model_decoder_steps_each_prefix_once():
    model = random_transducer(3, False)
    feats = np.random.default_rng(79).normal(size=(8, 6))
    calls = []
    step = model.prediction_step

    def counting_step(state, token_ids):
        calls.append(len(token_ids))
        return step(state, token_ids)

    model.prediction_step = counting_step
    dec = ModelDecoder(model, feats)
    _, nbest = beam_decode(dec, beam_width=5)
    stepped = sum(calls)
    greedy = greedy_decode(dec)
    assert sum(calls) == stepped  # greedy's path is already cached by the beam
    assert stepped == len(dec._states) - 1  # one step per cached prefix, none repeated
    assert tuple(greedy.prefix) in dec._states
    assert all(tuple(h.prefix) in dec._states for h in nbest)


def test_model_decoder_scores_uncached_prefix_from_start():
    model = random_transducer(4, True, prediction_layers=2)
    feats = np.random.default_rng(80).normal(size=(3, 6))
    dec = ModelDecoder(model, feats)
    lp = dec.logprobs(2, [(1, 0, 3), (2,)])
    row, state = model.prediction_start()
    for y in (1, 0, 3):
        row, state = model.prediction_step(state, [y])
    want = log_softmax_array(model.joint_row(dec.enc[2], row[0]))
    assert np.abs(lp[0] - want).max() <= 1e-12
    assert lp.shape == (2, model.config.num_classes)


def test_evaluate_model_shared_decoder_matches_fresh_decoders(monkeypatch):
    model_cfg = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                            prediction_layers=1, hidden=12, projection=8, vocab_size=5)
    cfg = harness.ExperimentConfig(model=model_cfg, seed=31, num_train=1, num_test=6,
                                   words_per_utt=(1, 3), pieces_per_word=(1, 2), noise=0.1,
                                   beam_width=3, max_symbols_per_frame=2)
    _, test = harness.gen_corpus(cfg)
    model = TransducerModel(model_cfg, seed=cfg.seed)
    shared_greedy = []
    original = harness.greedy_decode

    def capture(*args, **kwargs):
        shared_greedy.append(original(*args, **kwargs))
        return shared_greedy[-1]

    monkeypatch.setattr(harness, "greedy_decode", capture)
    error, delay, entries = harness.evaluate_model(model, test, cfg)

    edits = refs = 0
    fresh_delay = DelayStats()
    for utt, (utt_id, nbest), shared in zip(test, entries, shared_greedy):
        stacked = stack_frames(utt.features, model_cfg.stack_factor, model_cfg.stack_stride)
        best, fresh_nbest = beam_decode(ModelDecoder(model, stacked), beam_width=cfg.beam_width,
                                        max_symbols_per_frame=cfg.max_symbols_per_frame)
        greedy = greedy_decode(ModelDecoder(model, stacked),
                               max_symbols_per_frame=cfg.max_symbols_per_frame)
        assert utt_id == utt.utt_id
        assert_same_hyps(nbest, fresh_nbest, 1e-12)
        assert_same_hyps([shared], [greedy], 1e-12)
        edits += harness.edit_distance(best.prefix, utt.transcript)
        refs += len(utt.transcript)
        fresh_delay = fresh_delay.merge(measure_delay(
            greedy, utt.words, harness.piece_word_map(utt), utt.transcript))
    assert len(shared_greedy) == len(test)
    assert error == edits / refs
    assert (delay.delays, delay.skipped) == (fresh_delay.delays, fresh_delay.skipped)
