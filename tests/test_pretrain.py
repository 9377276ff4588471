import numpy as np
import pytest

from rnnt_lab import (FrameAlignment, ModelConfig, ModelDecoder, ShapeError, TableModel,
                      TransducerModel, build_y1, build_y2, build_y3,
                      greedy_decode, label_logits, stack_frames)
from rnnt_lab import NumericsError, Tensor, pretrain
from rnnt_lab.harness import ARM_INITIALIZERS, ExperimentConfig, gen_corpus, train_transducer
from rnnt_lab.numerics import Tape, active_tape, record_scalar_loss
from rnnt_lab.pretrain import LABEL_BUILDERS


def small_experiment_config(**overrides):
    model = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                        prediction_layers=1, hidden=16, projection=8, vocab_size=6)
    defaults = dict(model=model, seed=7, num_train=6, num_test=3,
                    words_per_utt=(1, 2), pieces_per_word=(1, 2),
                    noise=0.1, pretrain_epochs=2, train_epochs=2, batch_size=4)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# label tensors
# ---------------------------------------------------------------------------


def test_y1_worked_example(worked_example):
    lt = build_y1(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    assert lt.targets.shape == (8, 5)
    assert lt.blank == worked_example["blank"]
    for u in range(4):
        assert np.array_equal(lt.targets[:, u], worked_example["fa"].labels)
    assert (lt.targets[:, 4] == worked_example["blank"]).all()
    assert lt.mask.all()  # 100% mask density


def test_y1_empty_transcript_single_blank_row():
    fa = FrameAlignment(labels=[0, 0, 0])
    lt = build_y1(fa, [], blank=4)
    assert lt.targets.shape == (3, 1)
    assert (lt.targets[:, 0] == 4).all()
    assert lt.mask.all()


def test_y1_mask_counts(worked_example):
    lt = build_y1(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    assert int(lt.mask.sum()) == 8 * 5  # T x (U+1)


def test_y2_worked_example_decodes_to_printed_string(worked_example):
    lt = build_y2(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    table = label_logits(lt)
    blank = worked_example["blank"]
    # walk the decode loop and record every emission, blanks included
    emissions = []
    t, u = 0, 0
    while t < 8:
        k = int(np.argmax(table[t, min(u, 4)]))
        emissions.append(k)
        if k == blank:
            t += 1
        else:
            u += 1
    names = worked_example["names"]
    assert " ".join(names[k] for k in emissions) == "A Φ Φ Φ B Φ Φ s Φ C Φ Φ"
    assert [k for k in emissions if k != blank] == worked_example["tokens"]  # 'A B s C'
    assert len(emissions) == 8 + 4  # exactly T+U symbols


def test_y2_mask_is_two_cells_per_frame_half_blank(worked_example):
    lt = build_y2(worked_example["fa"], worked_example["tokens"], worked_example["blank"])
    assert int(lt.mask.sum()) == 2 * 8
    masked_classes = lt.targets[lt.mask]
    assert int((masked_classes == worked_example["blank"]).sum()) == 8


def test_y2_minimal_case():
    lt = build_y2(FrameAlignment(labels=[1]), [1], blank=4)
    assert lt.mask[0, 0] and lt.mask[0, 1]
    assert lt.targets[0, 0] == 1
    assert lt.targets[0, 1] == 4


def test_y2_rejects_mismatched_tokens(worked_example):
    with pytest.raises(ShapeError):
        build_y2(worked_example["fa"], [1, 2, 3], worked_example["blank"])


def test_y3_worked_example(worked_example):
    lt = build_y3(worked_example["fa"], worked_example["tokens"], worked_example["blank"], space_id=worked_example["space"])
    assert int(lt.mask.sum()) == 8  # exactly T cells
    path_classes = lt.targets[lt.mask]
    # the single-frame space (frame 5) is short, so it becomes blank in place
    assert path_classes.tolist() == [1, 1, 1, 2, 2, worked_example["blank"], 3, 3]
    assert lt.mask[5, 2]  # position unchanged: still the space token's row


def test_y3_without_short_pauses_equals_y2_nonblank_half():
    fa = FrameAlignment(labels=[1, 1, 0, 0, 0, 2])  # 3-frame space: not short
    tokens = [1, 0, 2]
    y2 = build_y2(fa, tokens, blank=4)
    y3 = build_y3(fa, tokens, blank=4, space_id=0)
    nonblank_cells = y2.mask & (y2.targets != 4)
    assert np.array_equal(y3.mask, nonblank_cells)
    assert np.array_equal(y3.targets[y3.mask], y2.targets[nonblank_cells])


def test_y3_two_frame_pause_both_frames_blank():
    fa = FrameAlignment(labels=[1, 0, 0, 2])
    lt = build_y3(fa, [1, 0, 2], blank=4, space_id=0)
    assert lt.targets[1, 1] == 4
    assert lt.targets[2, 1] == 4
    assert int(lt.mask.sum()) == 4


def test_label_tensor_masks_scale_with_length():
    rng = np.random.default_rng(60)
    for _ in range(20):
        labels = []
        prev = None
        for _ in range(int(rng.integers(2, 12))):
            k = int(rng.integers(1, 5))
            if k == prev:
                continue
            labels.extend([k] * int(rng.integers(1, 4)))
            prev = k
        fa = FrameAlignment(labels=labels)
        tokens = [k for i, k in enumerate(labels) if i == 0 or k != labels[i - 1]]
        t_len, u_len = len(labels), len(tokens)
        assert int(build_y1(fa, tokens, 5).mask.sum()) == t_len * (u_len + 1)
        assert int(build_y2(fa, tokens, 5).mask.sum()) == 2 * t_len
        assert int(build_y3(fa, tokens, 5, space_id=0).mask.sum()) == t_len


def test_decode_path_property_on_generated_corpus():
    cfg = small_experiment_config(num_train=12)
    train, _ = gen_corpus(cfg)
    blank = cfg.model.blank_id
    for utt in train:
        fa = utt.frame_alignment(cfg.model.stack_stride, cfg.space_id)
        lt = build_y2(fa, utt.transcript, blank)
        hyp = greedy_decode(TableModel(label_logits(lt), blank=blank),
                            max_symbols_per_frame=len(utt.transcript) + 1)
        assert hyp.prefix == utt.transcript


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_zero_epochs_is_identity():
    cfg = small_experiment_config(pretrain_epochs=0)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    before = model.state_dict()
    pretrain.pretrain_encoder_ce(model, train, space_id=cfg.space_id, epochs=0)
    pretrain.pretrain_encoder_ctc(model, train, epochs=0)
    pretrain.pretrain_prediction_lm(model, train, epochs=0)
    pretrain.pretrain_whole_network(model, train, "y2", space_id=cfg.space_id, epochs=0)
    after = model.state_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_encoder_ce_overfits_one_utterance_to_full_frame_accuracy():
    cfg = small_experiment_config(num_train=1, noise=0.05)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    report = pretrain.pretrain_encoder_ce(model, train, space_id=cfg.space_id,
                                          epochs=120, lr=5e-3, seed=cfg.seed)
    assert report.skipped == 0
    assert report.extras["frame_accuracy"] == 1.0
    assert report.losses[-1] < report.losses[0]


def test_encoder_ctc_overfit_and_blank_spikes():
    cfg = small_experiment_config(num_train=1, noise=0.05)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    mc = cfg.model

    from rnnt_lab.model import Affine
    fc = Affine(mc.hidden, mc.num_classes, np.random.default_rng([cfg.seed, 0xFC]))
    from rnnt_lab import Adam, Tape, ctc_loss
    params = model.encoder_parameters() + fc.parameters()
    opt = Adam(params, lr=5e-3)
    utt = train[0]
    stacked = stack_frames(utt.features, mc.stack_factor, mc.stack_stride)
    value = None
    for _ in range(250):
        opt.zero_grad()
        with Tape() as tape:
            out = ctc_loss(fc.apply(model.encode(stacked)), utt.transcript, mc.blank_id)
            tape.backward(out.node)
        opt.step()
        value = out.value
    assert value < 0.1
    # after CTC training the frame-wise argmax is a spike train: blank dominates
    logits = fc.apply(model.encode(stacked)).data
    frames_argmax = np.argmax(logits, axis=-1)
    assert (frames_argmax == mc.blank_id).mean() > 0.5


def test_prediction_lm_checkpoint_transfers_bit_exact(tmp_path):
    cfg = small_experiment_config()
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    pretrain.pretrain_prediction_lm(model, train, epochs=1, seed=cfg.seed)
    from rnnt_lab import load_checkpoint, save_checkpoint
    path = tmp_path / "lm.json"
    save_checkpoint(path, model)
    restored = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_parameters(), restored.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_whole_network_pretraining_overfit_then_decode():
    cfg = small_experiment_config(num_train=1, noise=0.05)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    utt = train[0]
    report = pretrain.pretrain_whole_network(model, train, "y2", space_id=cfg.space_id,
                                             epochs=250, lr=5e-3, seed=cfg.seed)
    assert report.skipped == 0
    stacked = stack_frames(utt.features, cfg.model.stack_factor, cfg.model.stack_stride)
    hyp = greedy_decode(ModelDecoder(model, stacked))
    assert hyp.prefix == utt.transcript


def test_variant_flag_selects_label_builder(monkeypatch):
    cfg = small_experiment_config(num_train=3)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    calls = []

    real = LABEL_BUILDERS["y3"]

    def spy(fa, tokens, blank, space_id=None):
        calls.append("y3")
        return real(fa, tokens, blank, space_id)

    monkeypatch.setitem(LABEL_BUILDERS, "y3", spy)
    pretrain.pretrain_whole_network(model, train, "y3", space_id=cfg.space_id, epochs=1)
    assert len(calls) == len(train)


def test_whole_network_builds_each_label_once(monkeypatch):
    cfg = small_experiment_config(num_train=3)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    built = []
    real = LABEL_BUILDERS["y2"]

    def counting(fa, tokens, blank, space_id=None):
        built.append(list(tokens))
        return real(fa, tokens, blank, space_id)

    monkeypatch.setitem(LABEL_BUILDERS, "y2", counting)
    report = pretrain.pretrain_whole_network(model, train, "y2", space_id=cfg.space_id, epochs=2)
    assert report.skipped == 0 and len(report.losses) == 2
    assert sorted(built) == sorted(utt.transcript for utt in train)


def test_non_finite_gradient_error_names_the_epoch():
    param = Tensor(np.zeros(2))
    calls = []

    def loss_fn(batch):
        def item_loss(j):
            # one minibatch of two items per epoch: the third call is epoch 2's first
            calls.append(batch[j])
            grad = np.full(2, np.nan) if len(calls) > 2 else np.ones(2)
            return 1.0, record_scalar_loss("probe", param, 1.0, grad), 1.0
        return item_loss

    with pytest.raises(NumericsError, match=r"epoch 2, minibatch 1: Adam.step 2: non-finite"):
        pretrain.train_with_loss([param], [0, 1], loss_fn, epochs=3, batch_size=2)
    assert len(calls) == 4


def test_train_with_loss_gives_each_item_one_tape_and_backward(monkeypatch):
    param = Tensor(np.zeros(2))
    batches, items_run, backwards = [], [], []
    real_backward = Tape.backward

    def counting_backward(tape, output, seed=1.0):
        backwards.append(tape)
        return real_backward(tape, output, seed)

    def loss_fn(batch):
        batches.append(list(batch))

        def item_loss(j):
            items_run.append(batch[j])
            return 1.0, record_scalar_loss("probe", param, 1.0, np.ones(2)), 1.0
        return item_loss

    monkeypatch.setattr(Tape, "backward", counting_backward)
    pretrain.train_with_loss([param], list(range(5)), loss_fn, epochs=3, batch_size=2)
    assert [len(b) for b in batches] == [2, 2, 1] * 3
    assert [sorted(sum(batches[e * 3 : e * 3 + 3], [])) for e in range(3)] == [[0, 1, 2, 3, 4]] * 3
    assert items_run == sum(batches, [])
    assert len(backwards) == 15 and len(set(map(id, backwards))) == 15


def test_rnnt_training_encodes_predicts_and_joins_each_utterance_under_its_tape(monkeypatch):
    cfg = small_experiment_config(num_train=7, train_epochs=3, batch_size=3)
    train, _ = gen_corpus(cfg)
    calls = {"backward": 0, "encode": 0, "predict": 0, "joint": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            assert active_tape() is not None, name
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((Tape, "backward"), (TransducerModel, "encode"),
                        (TransducerModel, "predict"), (TransducerModel, "joint")):
        counting(owner, name)
    train_transducer(TransducerModel(cfg.model, seed=cfg.seed), train, cfg)
    assert calls == dict.fromkeys(calls, 3 * 7)


def _rnnt(model, corpus, cfg):
    return train_transducer(model, corpus, cfg)


SCHEDULES = {
    "rnnt": _rnnt,
    "enc-ce": lambda model, corpus, cfg: pretrain.pretrain_encoder_ce(
        model, corpus, space_id=cfg.space_id, epochs=2, batch_size=3).losses,
    "enc-ctc": lambda model, corpus, cfg: pretrain.pretrain_encoder_ctc(
        model, corpus, epochs=2, batch_size=3).losses,
    "lm": lambda model, corpus, cfg: pretrain.pretrain_prediction_lm(
        model, corpus, epochs=2, batch_size=3).losses,
    "whole-y2": lambda model, corpus, cfg: pretrain.pretrain_whole_network(
        model, corpus, "y2", space_id=cfg.space_id, epochs=2, batch_size=3).losses,
}


@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_batched_forward_trains_as_per_utterance_forward(schedule, layer_norm, monkeypatch):
    model_cfg = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=2,
                            prediction_layers=1, hidden=8, projection=6, vocab_size=6,
                            use_layer_norm=layer_norm)
    cfg = small_experiment_config(model=model_cfg, num_train=7, batch_size=3)
    train, _ = gen_corpus(cfg)
    base = TransducerModel(cfg.model, seed=cfg.seed)
    batched = base.clone()
    got = SCHEDULES[schedule](batched, train, cfg)
    # encode and predict drop the minibatch runs: each utterance runs its own forward pass
    encode, predict = TransducerModel.encode, TransducerModel.predict
    monkeypatch.setattr(TransducerModel, "encode", lambda self, x, runs, col: encode(self, x))
    monkeypatch.setattr(TransducerModel, "predict", lambda self, y, runs, col: predict(self, y))
    single = base.clone()
    want = SCHEDULES[schedule](single, train, cfg)
    assert np.abs(np.subtract(got, want)).max() <= 1e-12 * np.abs(want).max()
    got_state, want_state = batched.state_dict(), single.state_dict()
    for name, value in want_state.items():
        assert np.abs(got_state[name] - value).max() <= 1e-12, name
    assert any(not np.array_equal(got_state[name], value)
               for name, value in base.state_dict().items())


def test_all_variants_produce_finite_losses():
    cfg = small_experiment_config(num_train=6)
    train, _ = gen_corpus(cfg)
    for variant in ("y1", "y2", "y3"):
        model = TransducerModel(cfg.model, seed=cfg.seed)
        report = pretrain.pretrain_whole_network(model, train, variant,
                                                 space_id=cfg.space_id, epochs=1)
        assert np.isfinite(report.losses).all()


def test_pretraining_preserves_shapes_and_vocab():
    cfg = small_experiment_config(num_train=4)
    train, _ = gen_corpus(cfg)
    base = TransducerModel(cfg.model, seed=cfg.seed)
    shapes = {k: v.shape for k, v in base.state_dict().items()}
    for arm, init in ARM_INITIALIZERS.items():
        model = base.clone()
        init(model, train, cfg, 1)
        assert model.config == cfg.model, arm
        assert {k: v.shape for k, v in model.state_dict().items()} == shapes, arm


def test_encoder_ce_touches_only_encoder():
    cfg = small_experiment_config(num_train=4)
    train, _ = gen_corpus(cfg)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    before = model.state_dict()
    pretrain.pretrain_encoder_ce(model, train, space_id=cfg.space_id, epochs=1)
    after = model.state_dict()
    changed = {k for k in before if not np.array_equal(before[k], after[k])}
    assert changed and all(k.startswith("encoder.") for k in changed)


def test_encoder_ce_frame_accuracy_matches_per_utterance_recomputation(monkeypatch):
    model_cfg = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=2,
                            prediction_layers=1, hidden=16, projection=8, vocab_size=6)
    cfg = small_experiment_config(model=model_cfg, num_train=11)  # the top layer is scored
    train, _ = gen_corpus(cfg)
    heads = []

    class CapturedAffine(pretrain.Affine):
        def __init__(self, *args):
            super().__init__(*args)
            heads.append(self)

    monkeypatch.setattr(pretrain, "Affine", CapturedAffine)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    report = pretrain.pretrain_encoder_ce(model, train, space_id=cfg.space_id, epochs=4,
                                          lr=1e-2, batch_size=4, seed=cfg.seed)
    (fc,) = heads
    mc = cfg.model
    hits = total = 0
    for utt in train:  # 11 items: chunks of 4, 4 and 3
        labels = utt.frame_alignment(mc.stack_stride, cfg.space_id).labels
        stacked = stack_frames(utt.features, mc.stack_factor, mc.stack_stride)
        pred = np.argmax(fc.apply(model.encode(stacked)).data, axis=-1)
        hits += int((pred == np.array(labels)).sum())
        total += len(labels)
    assert report.skipped == 0 and 0 < hits < total
    assert report.extras["frame_accuracy"] == hits / total
