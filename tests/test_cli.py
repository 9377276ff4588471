import dataclasses
import json

import pytest

from rnnt_lab import cli
from rnnt_lab import model as model_module
from rnnt_lab.cli import main
from rnnt_lab.corpus import load_corpus
from rnnt_lab.harness import (ARM_ALIASES, ARM_INITIALIZERS, PRETRAIN_VARIANTS,
                              ExperimentConfig, arm_pretrain_epochs, canonical_arm)
from rnnt_lab.model import ModelConfig, TransducerModel, save_checkpoint


@pytest.fixture
def config_path(tmp_path):
    model = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                        prediction_layers=1, hidden=10, projection=6, vocab_size=5)
    cfg = ExperimentConfig(model=model, seed=5, num_train=4, num_test=2,
                           words_per_utt=(1, 2), pieces_per_word=(1, 2), noise=0.1,
                           pretrain_epochs=1, train_epochs=1, batch_size=2,
                           beam_width=2, arms=("random",))
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return str(path)


def test_gen_corpus_writes_files(tmp_path, config_path, capsys):
    rc = main(["gen-corpus", "--config", config_path, "--out-dir", str(tmp_path / "c")])
    assert rc == 0
    assert (tmp_path / "c" / "train.jsonl").exists()
    assert (tmp_path / "c" / "test.jsonl").exists()


def test_pretrain_train_decode_delay_pipeline(tmp_path, config_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    train_jsonl = str(corpus_dir / "train.jsonl")
    test_jsonl = str(corpus_dir / "test.jsonl")

    ckpt = str(tmp_path / "y2.json")
    assert main(["pretrain", "--variant", "y2", "--config", config_path,
                 "--corpus", train_jsonl, "--out", ckpt]) == 0
    manifest = json.loads((tmp_path / "y2.json.manifest.json").read_text())
    assert manifest["variant"] == "y2"
    assert manifest["epochs"] == 1
    assert "corpus_hash" in manifest and "final_loss" in manifest

    trained = str(tmp_path / "trained.json")
    assert main(["train", "--config", config_path, "--corpus", train_jsonl,
                 "--init", ckpt, "--out", trained]) == 0

    nbest = str(tmp_path / "nbest.jsonl")
    capsys.readouterr()
    assert main(["decode", "--config", config_path, "--checkpoint", trained,
                 "--corpus", test_jsonl, "--out", nbest]) == 0
    assert capsys.readouterr().out.startswith("token error ")
    lines = [json.loads(l) for l in open(nbest)]
    assert lines and {"utt_id", "hyp_tokens", "log_prob", "emit_frames"} <= set(lines[0])
    text = open(nbest + ".delay.csv").read().splitlines()
    assert text[0] == "bin,count"
    assert any(line.startswith("mean,") for line in text)
    assert text[-1].startswith("skipped,")


def test_train_from_random_init(tmp_path, config_path):
    corpus_dir = tmp_path / "c"
    main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)])
    out = str(tmp_path / "random.json")
    assert main(["train", "--config", config_path,
                 "--corpus", str(corpus_dir / "train.jsonl"),
                 "--init", "random", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["format"] == "rnnt-lab-checkpoint"
    assert "train_losses" in payload["extra"]


def test_experiment_subcommand(tmp_path, config_path):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", config_path, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_rejected_precondition_exits_nonzero(tmp_path, config_path, capsys):
    # corpus file does not exist
    rc = main(["pretrain", "--variant", "y1", "--config", config_path,
               "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "x.json")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    with open(bad, "w") as fh:
        json.dump({"model": {"vocab_size": 1}}, fh)
    rc = main(["gen-corpus", "--config", str(bad), "--out-dir", str(tmp_path / "c")])
    assert rc != 0


def test_wrong_type_config_value_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"hidden": "x"}}))
    rc = main(["gen-corpus", "--config", str(bad), "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "ModelConfig.hidden must be int" in err


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", float("nan"), "ExperimentConfig.learning_rate must be finite float"),
    ("gap_weights", [float("nan"), 0.3, 0.2, 0.15],
     "ExperimentConfig.gap_weights must be tuple[finite float, ...]"),
    ("noise", float("inf"), "ExperimentConfig.noise must be finite float"),
    ("pretrain_lr", float("-inf"), "ExperimentConfig.pretrain_lr must be finite float"),
    ("noise", 10 ** 400, "ExperimentConfig.noise must be finite float"),
    ("num_train", -3, "num_train must be >= 0, got -3"),
    ("num_test", -1, "num_test must be >= 0, got -1"),
    ("learning_rate", -0.001, "learning_rate must be > 0, got -0.001"),
    ("pretrain_lr", 0.0, "pretrain_lr must be > 0, got 0.0"),
    ("grad_clip", -1.0, "grad_clip must be >= 0, got -1.0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("gap_weights", [1.5, -0.5, 0.0, 0.0], "gap_weights entries must be >= 0"),
    ("gap_choices", [-2, 0, 1, 2], "gap_choices entries must be >= 0"),
], ids=["lr-nan", "gap-weight-nan", "noise-inf", "pretrain-lr-neg-inf", "noise-huge-int",
        "num-train-neg", "num-test-neg", "lr-neg", "pretrain-lr-zero", "grad-clip-neg",
        "seed-neg", "gap-weight-neg", "gap-choice-neg"])
def test_config_number_out_of_range_is_one_error_line_before_any_work(
        tmp_path, config_path, capsys, field, value, message):
    record = json.loads(open(config_path).read())
    record[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))  # NaN and Infinity are written as such
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", str(bad), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and message in captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("command", ["gen-corpus", "experiment"])
def test_noise_that_overflows_the_features_is_one_error_line_before_training(
        tmp_path, config_path, capsys, command):
    record = json.loads(open(config_path).read())
    record["noise"] = 1e308  # finite, but its product with a normal draw overflows
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: noise 1e+308: utterance train-0000: "), captured.err
    assert "non-finite" in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("learning_rate, batch_size, message", [
    (1e10, 2, "epoch 1, minibatch 2: rnnt: non-finite occupancy"),
    (1e300, 2, "epoch 1, minibatch 2: overflow encountered in matmul"),
    (1e300, 4, "decoding utterance test-0000: overflow encountered in matmul"),
], ids=["lr-1e10", "lr-1e300", "lr-1e300-last-step"])
def test_diverging_run_fails_the_arm_as_one_numerics_error(tmp_path, config_path, capsys,
                                                           learning_rate, batch_size, message):
    record = json.loads(open(config_path).read())
    record.update(learning_rate=learning_rate, batch_size=batch_size)
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps(record))
    out_dir = tmp_path / "exp"
    # tier-1 makes any RuntimeWarning an error, so an overflow warned of fails here
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"random: FAILED ({message}") and captured.err == ""
    error = json.loads((out_dir / "summary.json").read_text())["arms"]["random"]["error"]
    assert error.startswith(message)


def test_malformed_json_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,')
    rc = main(["gen-corpus", "--config", str(bad), "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "line 1 column 12" in err, err


@pytest.mark.parametrize("case", ["config", "corpus", "checkpoint"])
def test_input_that_is_not_utf8_is_one_error_line(tmp_path, config_path, capsys, case):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    corpus = corpus_dir / "train.jsonl"
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, TransducerModel(ModelConfig(input_dim=4, stack_factor=2), seed=1))
    out = tmp_path / "out.jsonl"
    if case == "config":
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        argv, where = ["gen-corpus", "--config", str(bad), "--out-dir", str(tmp_path / "d")], bad
    elif case == "corpus":
        with open(corpus, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        argv, where = ["train", "--config", config_path, "--corpus", str(corpus),
                       "--out", str(out)], f"{corpus}:5"
    else:
        ckpt.write_bytes(ckpt.read_bytes().replace(b'"format"', b'"\xff"', 1))
        argv, where = ["decode", "--config", config_path, "--checkpoint", str(ckpt),
                       "--corpus", str(corpus), "--out", str(out)], ckpt
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
    assert "'utf-8'" in err and not out.exists()


def test_truncated_checkpoint_names_file_and_line(tmp_path, config_path, capsys):
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, TransducerModel(ModelConfig(hidden=4), seed=1))
    text = ckpt.read_text()
    ckpt.write_text(text[: len(text) // 2])
    rc = main(["decode", "--config", config_path, "--checkpoint", str(ckpt),
               "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "n.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and "line 1 column" in err, err


CHECKPOINT_HEAD = {"format": "rnnt-lab-checkpoint", "version": 1, "config": {}}


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "not a rnnt-lab-checkpoint file"),
    ({**CHECKPOINT_HEAD, "tensors": {"embedding": {"shape": [3], "data": [1, 2]}}},
     "tensor 'embedding': cannot reshape array of size 2 into shape (3,)"),
    ({**CHECKPOINT_HEAD, "tensors": {"embedding": [1, 2]}},
     "tensor 'embedding': need a {shape, data} object"),
    ({**CHECKPOINT_HEAD, "tensors": {"embedding": {"data": [1, 2]}}},
     "tensor 'embedding': need a {shape, data} object"),
    ({**CHECKPOINT_HEAD, "tensors": [1, 2]}, "'tensors' must be an object, got list"),
    ({**CHECKPOINT_HEAD, "tensors": {"embedding": {"shape": [1], "data": [10 ** 400]}}},
     "tensor 'embedding': int too large to convert to float"),
], ids=["not-an-object", "data-short-of-shape", "record-not-an-object", "record-without-shape",
        "tensors-not-an-object", "int-past-float-range"])
def test_malformed_checkpoint_is_one_error_line_naming_the_file(tmp_path, config_path, capsys,
                                                                payload, message):
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload))
    rc = main(["decode", "--config", config_path, "--checkpoint", str(ckpt),
               "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "n.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: {message}\n", err


def test_corpus_line_missing_field_names_file_and_line(tmp_path, config_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('\n{"id": "u0", "words": [], "transcript": []}\n')
    rc = main(["train", "--config", config_path, "--corpus", str(corpus),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{corpus}:2:" in err and "features" in err


def test_checkpoint_missing_tensor_names_file(tmp_path, config_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", config_path, "--corpus", str(corpus_dir / "train.jsonl"),
                 "--out", str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text())
    del payload["tensors"]["embedding"]
    ckpt.write_text(json.dumps(payload))
    rc = main(["decode", "--checkpoint", str(ckpt), "--corpus", str(corpus_dir / "test.jsonl"),
               "--out", str(tmp_path / "nbest.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "embedding" in err


def test_checkpoint_extra_tensor_names_file_and_tensor(tmp_path, config_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", config_path, "--corpus", str(corpus_dir / "train.jsonl"),
                 "--out", str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text())
    payload["tensors"]["bogus.w"] = {"shape": [1], "data": [0.0]}
    ckpt.write_text(json.dumps(payload))
    rc = main(["decode", "--checkpoint", str(ckpt), "--corpus", str(corpus_dir / "test.jsonl"),
               "--out", str(tmp_path / "nbest.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "bogus.w" in err


def test_checkpoint_config_past_its_tensors_is_one_error_line(tmp_path, config_path, capsys,
                                                             monkeypatch):
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, TransducerModel(ModelConfig(hidden=4), seed=1))
    payload = json.loads(ckpt.read_text())
    payload["config"]["hidden"] = 1_000_000  # over tensors of hidden 4
    ckpt.write_text(json.dumps(payload))
    built = []
    # a model at the config's extents asks for terabytes: none may be built
    monkeypatch.setattr(model_module, "TransducerModel", lambda *args: built.append(args))
    rc = main(["decode", "--config", config_path, "--checkpoint", str(ckpt),
               "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "n.jsonl")])
    assert rc == 2 and built == []
    assert capsys.readouterr().err == (f"error: {ckpt}: parameter encoder.l0.w: stored shape "
                                       "(32, 16) != model (32, 4000000)\n")


def test_unknown_config_keys_name_file_and_keys(tmp_path, config_path, capsys):
    payload = json.loads(open(config_path).read())
    payload["bogus"] = 1
    payload["model"]["extra"] = 2
    for drop, key in (("bogus", "extra"), (None, "bogus")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({k: v for k, v in payload.items() if k != drop}))
        rc = main(["gen-corpus", "--config", str(bad), "--out-dir", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err


def test_unknown_checkpoint_config_key_names_file(tmp_path, config_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", config_path, "--corpus", str(corpus_dir / "train.jsonl"),
                 "--out", str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text())
    payload["config"]["extra"] = 2
    ckpt.write_text(json.dumps(payload))
    rc = main(["decode", "--checkpoint", str(ckpt), "--corpus", str(corpus_dir / "test.jsonl"),
               "--out", str(tmp_path / "nbest.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "extra" in err


def test_pretrain_variants_are_the_arm_names_but_random(tmp_path, config_path):
    assert set(PRETRAIN_VARIANTS) == {*ARM_INITIALIZERS, *ARM_ALIASES} - {"random"}
    with pytest.raises(SystemExit):
        main(["pretrain", "--variant", "random", "--config", config_path,
              "--corpus", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "x.json")])


@pytest.mark.parametrize("variant", ["enc-ce", "enc-ctc", "lm", "y1", "y2", "y3"])
def test_pretrain_variant_runs_the_arm_initializer(tmp_path, config_path, variant):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    train_jsonl = str(corpus_dir / "train.jsonl")
    ckpt = tmp_path / "cli.json"
    assert main(["pretrain", "--variant", variant, "--config", config_path,
                 "--corpus", train_jsonl, "--out", str(ckpt)]) == 0

    cfg = ExperimentConfig.from_json(config_path)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    arm = canonical_arm(variant)
    manifest = ARM_INITIALIZERS[arm](model, load_corpus(train_jsonl), cfg,
                                     arm_pretrain_epochs(cfg, arm))
    direct = tmp_path / "direct.json"
    save_checkpoint(direct, model, extra={"pretrain": manifest})
    assert ckpt.read_bytes() == direct.read_bytes()
    assert json.loads((tmp_path / "cli.json.manifest.json").read_text()) == manifest


CORPUS_DEFECTS = {
    "transcript-id": (lambda r: r["transcript"].append(99), "token id 99"),
    "piece-id": (lambda r: r["words"][0]["pieces"].append(7), "token id 7"),
    "feature-width": (lambda r: r.update(features=[row[:3] for row in r["features"]]),
                      "input_dim is 4"),
    "nan-feature": (lambda r: r["features"][1].__setitem__(0, float("nan")), "non-finite"),
    "text-feature": (lambda r: r["features"][1].__setitem__(0, "x"), "malformed utterance"),
    # line 2 holds two words, [2, 3] over frames [0, 6) and [4] over [9, 12) of 12
    "span-past-frames": (lambda r: r["words"][1].update(end=1000000),
                         "ends at frame 1000000, past the 12 encoder frames"),
    "span-overlap": (lambda r: r["words"][1].update(start=5), "before the previous word's end 6"),
    "transcript-spelling": (lambda r: r["transcript"].reverse(), "does not spell word"),
    "transcript-bool-id": (lambda r: r["transcript"].__setitem__(0, True), "token id True"),
    "piece-bool-id": (lambda r: r["words"][0]["pieces"].__setitem__(0, True), "token id True"),
    "span-float-start": (lambda r: r["words"][0].update(start=0.5), "span bounds 0.5, 6 must be int"),
    "span-float-end": (lambda r: r["words"][1].update(end=11.0), "span bounds 9, 11.0 must be int"),
    "span-empty": (lambda r: r["words"][1].update(end=9), "empty range [9, 9)"),
    "word-no-pieces": (lambda r: r["words"][0].update(pieces=[]), "no pieces"),
    "int-feature-past-float-range": (lambda r: r["features"][1].__setitem__(0, 10 ** 400),
                                     "int too large to convert to float"),
}


@pytest.mark.parametrize("defect", sorted(CORPUS_DEFECTS))
def test_corpus_that_does_not_fit_the_model_names_file_and_line(tmp_path, config_path,
                                                                 capsys, defect):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    corpus = corpus_dir / "train.jsonl"
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[1])
    corrupt, message = CORPUS_DEFECTS[defect]
    corrupt(record)
    lines[1] = json.dumps(record)
    corpus.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig.from_json(config_path)
    ckpt = str(tmp_path / "model.json")
    save_checkpoint(ckpt, TransducerModel(cfg.model, seed=cfg.seed))
    out = str(tmp_path / "out.json")
    for argv in (["pretrain", "--variant", "enc-ce", "--config", config_path],
                 ["train", "--config", config_path],
                 ["decode", "--checkpoint", ckpt]):
        assert main(argv + ["--corpus", str(corpus), "--out", out]) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"{corpus}:2:" in err and message in err, (argv[0], err)
    assert not (tmp_path / "out.json").exists()


def test_word_with_more_pieces_than_frames_loads_and_is_skipped(tmp_path, config_path):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    corpus = corpus_dir / "train.jsonl"
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[1])
    record["words"][0]["end"] = 1  # two pieces, one frame: degenerate, not malformed
    lines[1] = json.dumps(record)
    corpus.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "enc_ce.json")
    assert main(["pretrain", "--variant", "enc-ce", "--config", config_path,
                 "--corpus", str(corpus), "--out", out]) == 0
    manifest = json.loads((tmp_path / "enc_ce.json.manifest.json").read_text())
    assert manifest["skipped_utterances"] == 1


@pytest.mark.parametrize("variant", ["y1", "y2", "y3"])
def test_label_tensor_error_names_the_utterance(tmp_path, config_path, capsys, variant):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    corpus = corpus_dir / "train.jsonl"
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["transcript"] == [2, 3, 0, 4]
    # two encoder frames (of stride 2) of silence in front, the words two frames
    # later, but no leading space token: the line loads, its alignment spells [0, 2, 3, 0, 4]
    record["features"] = record["features"][:4] + record["features"]
    for word in record["words"]:
        word["start"] += 2
        word["end"] += 2
    lines[1] = json.dumps(record)
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["pretrain", "--variant", variant, "--config", config_path,
                 "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: utterance {record['id']}: ") and err.count("\n") == 1, err
    assert "collapses to [0, 2, 3, 0, 4]" in err and not out.exists()


def test_gap_token_other_than_space_names_file_and_line(tmp_path, config_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    corpus = corpus_dir / "train.jsonl"
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["transcript"] == [2, 3, 0, 4]
    record["transcript"] = [2, 3, 1, 4]  # the gap between the words is token 1, not space 0
    lines[1] = json.dumps(record)
    corpus.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig.from_json(config_path)
    ckpt = str(tmp_path / "model.json")
    save_checkpoint(ckpt, TransducerModel(cfg.model, seed=cfg.seed))
    out = str(tmp_path / "out.json")
    for argv in (["pretrain", "--variant", "y2"], ["train"], ["decode", "--checkpoint", ckpt]):
        assert main(argv + ["--config", config_path, "--corpus", str(corpus),
                            "--out", out]) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"{corpus}:2:" in err and "not the space token 0" in err, (argv[0], err)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("case", ["train-corpus-is-dir", "pretrain-corpus-is-dir",
                                  "gen-corpus-out-dir-is-file"])
def test_os_error_exits_2_naming_the_path(tmp_path, config_path, capsys, case):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = str(tmp_path / "out.json")
    argv, path = {
        "train-corpus-is-dir": (["train", "--config", config_path, "--corpus", str(a_dir),
                                 "--out", out], a_dir),
        "pretrain-corpus-is-dir": (["pretrain", "--variant", "y1", "--config", config_path,
                                    "--corpus", str(a_dir), "--out", out], a_dir),
        "gen-corpus-out-dir-is-file": (["gen-corpus", "--config", config_path,
                                        "--out-dir", str(a_file)], a_file),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err, err


@pytest.mark.parametrize("command", [["pretrain", "--variant", "y1"], ["train"],
                                     ["decode", "--checkpoint", "ckpt.json"]])
def test_out_that_is_a_directory_is_rejected_before_any_work(tmp_path, config_path, capsys,
                                                             monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("reached past the --out check")

    for name in ("load_corpus", "load_checkpoint", "train_transducer", "evaluate_model"):
        monkeypatch.setattr(cli, name, never)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = command + ["--config", config_path, "--corpus", str(tmp_path / "missing.jsonl"),
                      "--out", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(out_dir) in err and "is a directory" in err, err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command, companion", [
    (["pretrain", "--variant", "y1"], ".manifest.json"),
    (["decode", "--checkpoint", "ckpt.json"], ".delay.csv")])
def test_companion_output_that_is_a_directory_is_rejected_before_any_work(
        tmp_path, config_path, capsys, monkeypatch, command, companion):
    def never(*args, **kwargs):
        raise AssertionError("reached past the --out check")

    for name in ("load_corpus", "load_checkpoint", "evaluate_model", "save_checkpoint",
                 "write_nbest", "write_delay_csv"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setitem(cli.ARM_INITIALIZERS, "whole_y1", never)
    out = tmp_path / "out.json"
    companion_dir = tmp_path / (out.name + companion)
    companion_dir.mkdir()
    argv = command + ["--config", config_path, "--corpus", str(tmp_path / "missing.jsonl"),
                      "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(companion_dir) in err and "is a directory" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", companion_dir.name])
    assert list(companion_dir.iterdir()) == []


@pytest.mark.parametrize("command", [["pretrain", "--variant", "y1"], ["train"],
                                     ["decode", "--checkpoint"]], ids=lambda c: c[0])
def test_out_in_a_missing_directory_is_rejected_before_any_work(tmp_path, config_path, capsys,
                                                                monkeypatch, command):
    corpus_dir = tmp_path / "c"
    assert main(["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir)]) == 0
    checkpoint = tmp_path / "ckpt.json"
    save_checkpoint(checkpoint, TransducerModel(ExperimentConfig.from_json(config_path).model))

    def never(*args, **kwargs):
        raise AssertionError("reached past the --out check")

    monkeypatch.setattr(cli, "train_transducer", never)
    monkeypatch.setattr(cli, "evaluate_model", never)
    monkeypatch.setitem(cli.ARM_INITIALIZERS, "whole_y1", never)
    capsys.readouterr()
    out = tmp_path / "nodir" / "m.json"
    argv = command + ([str(checkpoint)] if command[0] == "decode" else []) + [
        "--config", config_path, "--corpus", str(corpus_dir / "train.jsonl"), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: directory {out.parent} does not exist\n", err
    assert not out.parent.exists()


_CRITERION_9 = ExperimentConfig(
    model=ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                      prediction_layers=1, hidden=12, projection=8, vocab_size=5),
    seed=31, num_train=6, num_test=3, words_per_utt=(1, 2), pieces_per_word=(1, 2),
    noise=0.15, pretrain_epochs=2, train_epochs=3, batch_size=4, beam_width=3,
    arms=("random", "encoder_ce", "whole_y2"))
# criterion 9's config, and a longer random-arm run of it where the beam's best
# and greedy disagree on which test utterances they recognize exactly
_CLI_CONFIGS = {
    "criterion-9": _CRITERION_9,
    "beam-greedy-disagree": dataclasses.replace(
        _CRITERION_9, model=dataclasses.replace(_CRITERION_9.model, hidden=16), num_train=40,
        num_test=12, train_epochs=25, arms=("random",)),
}


@pytest.mark.parametrize("name", sorted(_CLI_CONFIGS))
def test_cli_pipeline_reproduces_the_experiment_byte_for_byte(tmp_path, capsys, name):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_CLI_CONFIGS[name].to_dict()))
    exp_dir, corpus_dir = tmp_path / "exp", tmp_path / "corpus"
    assert main(["experiment", "--config", str(config), "--out-dir", str(exp_dir)]) == 0
    experiment_lines = dict(line.split(": ", 1)
                            for line in capsys.readouterr().out.splitlines())
    assert main(["gen-corpus", "--config", str(config), "--out-dir", str(corpus_dir)]) == 0
    for split in ("train.jsonl", "test.jsonl"):
        assert (corpus_dir / split).read_bytes() == (exp_dir / split).read_bytes()
    train_jsonl, test_jsonl = str(corpus_dir / "train.jsonl"), str(corpus_dir / "test.jsonl")

    for arm in _CLI_CONFIGS[name].arms:
        init = "random"
        if arm != "random":
            init = str(tmp_path / f"pre_{arm}.json")
            assert main(["pretrain", "--variant", arm, "--config", str(config),
                         "--corpus", train_jsonl, "--out", init]) == 0
        trained = str(tmp_path / f"trained_{arm}.json")
        assert main(["train", "--config", str(config), "--corpus", train_jsonl,
                     "--init", init, "--out", trained]) == 0
        nbest = tmp_path / f"nbest_{arm}.jsonl"
        capsys.readouterr()
        assert main(["decode", "--config", str(config), "--checkpoint", trained,
                     "--corpus", test_jsonl, "--out", str(nbest)]) == 0
        assert capsys.readouterr().out == experiment_lines[arm] + "\n"
        assert nbest.read_bytes() == (exp_dir / f"nbest_{arm}.jsonl").read_bytes(), arm
        delay_csv = tmp_path / f"nbest_{arm}.jsonl.delay.csv"
        assert delay_csv.read_bytes() == (exp_dir / f"delay_{arm}.csv").read_bytes(), arm

    if name == "beam-greedy-disagree":
        # random, the only arm, is the case a delay taken on the beam's best gets wrong
        best = {}
        for line in nbest.read_text().splitlines():
            record = json.loads(line)
            best.setdefault(record["utt_id"], record["hyp_tokens"])
        beam_exact = sum(best[utt.utt_id] == utt.transcript for utt in load_corpus(test_jsonl))
        greedy_skipped = int(delay_csv.read_text().splitlines()[-1].split(",")[1])
        assert beam_exact != len(best) - greedy_skipped
