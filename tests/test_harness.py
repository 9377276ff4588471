import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rnnt_lab import ConfigError, ModelConfig, TransducerModel, edit_distance
from rnnt_lab import harness
from rnnt_lab.corpus import (corpus_hash, load_corpus, piece_word_map,
                             save_corpus, utterance_to_json)
from rnnt_lab.harness import (ExperimentConfig, gen_corpus, run_experiment,
                              token_templates)


def small_config(**overrides):
    model = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                        prediction_layers=1, hidden=12, projection=8, vocab_size=5)
    defaults = dict(model=model, seed=99, num_train=5, num_test=3,
                    words_per_utt=(1, 2), pieces_per_word=(1, 2), noise=0.1,
                    pretrain_epochs=1, train_epochs=2, batch_size=4, beam_width=2,
                    arms=("random", "encoder_ce"))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


def test_gen_corpus_deterministic_bytes():
    cfg = small_config()
    train1, test1 = gen_corpus(cfg)
    train2, test2 = gen_corpus(cfg)
    assert [utterance_to_json(u) for u in train1] == [utterance_to_json(u) for u in train2]
    assert corpus_hash(test1) == corpus_hash(test2)


def test_gen_corpus_train_test_disjoint():
    cfg = small_config(num_train=20, num_test=20)
    train, test = gen_corpus(cfg)
    # different seed streams: with continuous noise no utterance can repeat
    train_bytes = {utterance_to_json(u).split('"words"')[0] for u in train}
    test_bytes = {utterance_to_json(u).split('"words"')[0] for u in test}
    assert not (train_bytes & test_bytes)


def test_gen_corpus_rejects_tiny_vocab():
    with pytest.raises(ConfigError):
        small_config(model=ModelConfig(vocab_size=2))


def test_zero_corpus_sizes_and_zero_grad_clip_are_legal():
    cfg = small_config(num_train=0, num_test=0, grad_clip=0.0)
    assert gen_corpus(cfg) == ([], [])


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_noise_free_features_match_templates_exactly(stride):
    model = dataclasses.replace(small_config().model, stack_stride=stride)
    cfg = small_config(noise=0.0, num_train=10, model=model)
    train, _ = gen_corpus(cfg)
    templates = token_templates(cfg)
    for utt in train:
        fa = utt.frame_alignment(stride, cfg.space_id)
        assert utt.features.shape[0] == stride * len(fa)
        for n in range(utt.features.shape[0]):
            token = fa[n // stride]
            # nearest-template classification is exact at zero noise
            dists = np.linalg.norm(templates - utt.features[n], axis=1)
            assert int(np.argmin(dists)) == token
            assert np.array_equal(utt.features[n], templates[token])


def test_token_marginals_roughly_uniform():
    cfg = small_config(num_train=300, num_test=1, words_per_utt=(2, 4),
                       pieces_per_word=(1, 3))
    train, _ = gen_corpus(cfg)
    content = [k for k in range(cfg.model.vocab_size) if k != cfg.space_id]
    counts = {k: 0 for k in content}
    total = 0
    for utt in train:
        for piece in (p for w in utt.words for p in w.pieces):
            counts[piece] += 1
            total += 1
    assert total > 1000
    expected = total / len(content)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with len(content)-1 = 3 dof: p > 0.001 means chi2 < 16.27
    assert chi2 < 16.27


def test_spans_are_consistent_with_transcript():
    cfg = small_config(num_train=25)
    train, _ = gen_corpus(cfg)
    for utt in train:
        fa = utt.frame_alignment(cfg.model.stack_stride, cfg.space_id)
        from rnnt_lab.alignment import collapse
        assert collapse(fa) == utt.transcript
        mapping = piece_word_map(utt)
        assert len(mapping) == len(utt.transcript)
        word_indices = [w for w in mapping if w is not None]
        assert word_indices == sorted(word_indices)


def test_corpus_jsonl_roundtrip_bit_exact(tmp_path):
    cfg = small_config(num_train=6)
    train, _ = gen_corpus(cfg)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, train)
    first = path.read_bytes()
    save_corpus(path, load_corpus(path))
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_edit_distance_identical():
    assert edit_distance([1, 2, 3], [1, 2, 3]) == 0


def test_edit_distance_single_insertion():
    assert edit_distance([1, 2, 9, 3], [1, 2, 3]) == 1


def test_edit_distance_worked_example():
    # 'A B s C' vs 'A B C' differs by the deleted space
    assert edit_distance([1, 2, 0, 3], [1, 2, 3]) == 1


def test_edit_distance_substitution_and_empty():
    assert edit_distance([1], [2]) == 1
    assert edit_distance([], [1, 2]) == 2


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_experiment_writes_outputs_and_is_deterministic(tmp_path):
    cfg = small_config()
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    summary1 = run_experiment(cfg, out1)
    summary2 = run_experiment(cfg, out2)
    csv1 = (out1 / "metrics.csv").read_bytes()
    csv2 = (out2 / "metrics.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "summary.json").exists()
    for arm in ("random", "encoder_ce"):
        assert (out1 / f"nbest_{arm}.jsonl").exists()
        assert (out1 / f"delay_{arm}.csv").exists()
        assert summary1["arms"][arm]["token_error_rate"] == \
            summary2["arms"][arm]["token_error_rate"]


def test_experiment_rows_share_config_hash(tmp_path):
    cfg = small_config()
    run_experiment(cfg, tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("config_hash,arm,epoch")
    hashes = {line.split(",")[0] for line in rows}
    assert hashes == {cfg.config_hash()}


def test_arms_share_the_training_code_path(tmp_path, monkeypatch):
    cfg = small_config(arms=("random", "encoder_ce", "whole_y2"))
    calls = []
    real = harness.train_transducer

    def spy(model, corpus, inner_cfg):
        calls.append((id(inner_cfg), corpus_hash(corpus), inner_cfg.train_epochs,
                      inner_cfg.learning_rate, inner_cfg.batch_size))
        return real(model, corpus, inner_cfg)

    monkeypatch.setattr(harness, "train_transducer", spy)
    run_experiment(cfg, tmp_path / "run")
    assert len(calls) == 3
    assert len(set(calls)) == 1  # identical corpus and schedule for every arm


def test_single_utterance_corpus_every_arm_overfits(tmp_path):
    cfg = small_config(num_train=1, num_test=1, noise=0.05,
                       arms=("random", "encoder_ce", "ctc", "whole_y1",
                             "whole_y2", "whole_y3", "ctc_lm"),
                       words_per_utt=(1, 1), pieces_per_word=(1, 2),
                       pretrain_epochs=60, train_epochs=420, batch_size=1,
                       beam_width=2)
    # train and evaluate on the same single utterance
    train, _ = gen_corpus(cfg)
    base = TransducerModel(cfg.model, seed=cfg.seed)
    for arm in cfg.arms:
        model = base.clone()
        harness.ARM_INITIALIZERS[arm](model, train, cfg, harness.arm_pretrain_epochs(cfg, arm))
        harness.train_transducer(model, train, cfg)
        error, _, _ = harness.evaluate_model(model, train, cfg)
        assert error == 0.0, f"arm {arm} failed to overfit"


def test_failed_arm_is_recorded_and_others_continue(tmp_path, monkeypatch):
    cfg = small_config(arms=("ctc", "random"))

    def broken(model, corpus, inner_cfg, epochs):
        from rnnt_lab.errors import ShapeError
        raise ShapeError("injected failure")

    monkeypatch.setitem(harness.ARM_INITIALIZERS, "ctc", broken)
    summary = run_experiment(cfg, tmp_path / "run")
    assert summary["arms"]["ctc"] == {"error": "injected failure"}
    assert "token_error_rate" in summary["arms"]["random"]


def test_config_json_roundtrip(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_alias_key_in_pretrain_epochs_by_arm_takes_effect(tmp_path):
    cfg = small_config(arms=("enc-ce",), pretrain_epochs_by_arm={"enc_ce": 3}, train_epochs=1)
    assert cfg.arms == ("encoder_ce",)
    assert harness.arm_pretrain_epochs(cfg, "encoder_ce") == 3
    summary = run_experiment(cfg, tmp_path / "run")
    assert summary["arms"]["encoder_ce"]["pretrain"]["epochs"] == 3


def test_two_names_for_one_arm_are_rejected():
    with pytest.raises(ConfigError, match="arms: 'enc-ctc' names arm 'ctc' a second time"):
        small_config(arms=("ctc", "enc-ctc"))
    with pytest.raises(ConfigError, match="pretrain_epochs_by_arm: 'y2' names arm 'whole_y2'"):
        small_config(pretrain_epochs_by_arm={"whole_y2": 1, "y2": 2})


@pytest.mark.parametrize("field_name, value", [
    ("batch_size", 0), ("train_epochs", -1), ("beam_width", 0),
    ("max_symbols_per_frame", 0), ("pretrain_epochs", -1),
    ("pretrain_epochs_by_arm", {"ctc": -1}),
])
def test_out_of_range_schedule_value_names_file_and_field(tmp_path, field_name, value):
    payload = small_config().to_dict()
    payload[field_name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(path)
    assert str(path) in str(err.value) and field_name in str(err.value)


def test_readme_lists_each_config_bound_as_declared():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `((?:model\.)?\w+)` \|[^|\n]*\|[^|\n]*\|([^|\n]*)\|$", readme, re.M)
    listed = {name: bound.strip() for name, bound in rows}
    declared = {}
    for cls, prefix in ((ExperimentConfig, ""), (ModelConfig, "model.")):
        for f in dataclasses.fields(cls):
            if f.name != "model":
                declared[prefix + f.name] = " ".join(f"{op} {low}" for op, low in f.metadata.items())
    assert listed == declared
