import math

import numpy as np
import pytest

from rnnt_lab import (ModelConfig, ShapeError, Tape, Tensor, TransducerModel,
                      grad_check, load_checkpoint, rnnt_loss, save_checkpoint,
                      stack_frames)
from rnnt_lab import numerics as nm


def zeroed(model):
    for _, p in model.named_parameters():
        p.data[...] = 0.0
    return model


def test_encode_rejects_empty_sequence(tiny_model):
    with pytest.raises(ShapeError):
        tiny_model.encode(Tensor(np.zeros((0, 6))))


def test_encode_rejects_wrong_width(tiny_model):
    with pytest.raises(ShapeError):
        tiny_model.encode(Tensor(np.zeros((4, 5))))


def test_encode_zero_weights_zero_output(tiny_config):
    model = zeroed(TransducerModel(tiny_config, seed=0))
    out = model.encode(Tensor(np.ones((3, 6))))
    assert np.array_equal(out.data, np.zeros((3, 5)))


def test_encode_causality_bit_exact(tiny_model):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 6))
    base = tiny_model.encode(Tensor(x)).data
    bumped = x.copy()
    bumped[4] += 1.0
    out = tiny_model.encode(Tensor(bumped)).data
    assert np.array_equal(out[:4], base[:4])
    assert not np.array_equal(out[4:], base[4:])


def test_predict_empty_prefix_single_row(tiny_model):
    out = tiny_model.predict([])
    assert out.shape == (1, 5)


def test_predict_rejects_out_of_range_ids(tiny_model):
    with pytest.raises(ShapeError):
        tiny_model.predict([4])  # vocab_size == 4, ids 0..3 only (blank never fed)


def test_predict_prefix_changes_later_rows(tiny_model):
    out = tiny_model.predict([2])
    assert out.shape == (2, 5)
    assert not np.allclose(out.data[0], out.data[1])


def test_predict_causality(tiny_model):
    base = tiny_model.predict([1, 2, 3]).data
    out = tiny_model.predict([1, 2, 0]).data
    assert np.array_equal(out[:3], base[:3])
    assert not np.array_equal(out[3], base[3])


def test_joint_minimal_lattice(tiny_model):
    h_enc = tiny_model.encode(Tensor(np.ones((1, 6))))
    h_pre = tiny_model.predict([])
    assert tiny_model.joint(h_enc, h_pre).shape == (1, 1, 5)


def test_joint_zero_weights_uniform_posterior(tiny_config):
    model = zeroed(TransducerModel(tiny_config, seed=0))
    logits = model.forward(Tensor(np.ones((2, 6))), [1])
    logp = nm.log_softmax(logits)
    assert np.allclose(logp.data, -math.log(5), atol=1e-12)


def test_joint_lattice_matches_pointwise_recomputation(tiny_model):
    rng = np.random.default_rng(31)
    h_enc = Tensor(rng.normal(size=(4, 5)))
    h_pre = Tensor(rng.normal(size=(3, 5)))
    lattice = tiny_model.joint(h_enc, h_pre).data
    for t, u in [(0, 0), (3, 2), (2, 1)]:
        point = tiny_model.joint_row(h_enc.data[t], h_pre.data[u])
        assert np.allclose(lattice[t, u], point, atol=1e-12)


def test_joint_rejects_width_mismatch(tiny_model):
    with pytest.raises(ShapeError):
        tiny_model.joint(Tensor(np.zeros((2, 7))), Tensor(np.zeros((1, 5))))


def test_stack_frames_identity():
    x = np.arange(6.0).reshape(3, 2)
    out = stack_frames(x, stack=1, stride=1)
    assert np.array_equal(out.data, x)


def test_stack_frames_hand_enumerated():
    x = np.arange(16.0).reshape(8, 2)
    out = stack_frames(x, stack=8, stride=3)
    assert out.shape == (3, 16)
    assert np.array_equal(out.data[0], x.reshape(-1))
    # row 1 starts at raw row 3 and zero-pads the 3 missing rows
    expected = np.concatenate([x[3:].reshape(-1), np.zeros(6)])
    assert np.array_equal(out.data[1], expected)


def test_stack_frames_tail_zero_padded():
    x = np.ones((7, 2))
    out = stack_frames(x, stack=8, stride=3)
    assert out.shape == (3, 16)
    assert np.array_equal(out.data[2, : 1 * 2], np.ones(2))  # only raw row 6 remains
    assert np.array_equal(out.data[2, 2:], np.zeros(14))


def test_stack_frames_rejects_empty():
    with pytest.raises(ShapeError):
        stack_frames(np.zeros((0, 2)), stack=2, stride=1)


def test_inference_stepping_matches_taped_predict(tiny_model):
    prefix = [1, 3, 2]
    taped = tiny_model.predict(prefix).data
    row, state = tiny_model.prediction_start()
    rows = [row]
    for y in prefix:
        row, state = tiny_model.prediction_step(state, y)
        rows.append(row)
    assert np.allclose(np.array(rows), taped, atol=1e-12)


def test_inference_encoder_matches_taped_encode(tiny_model):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 6))
    assert np.allclose(tiny_model.encode_frames(x), tiny_model.encode(Tensor(x)).data, atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_model, extra={"note": "test"})
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_model.config
    for (name_a, p_a), (name_b, p_b) in zip(tiny_model.named_parameters(),
                                            loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(p_a.data, p_b.data)


def test_checkpoint_stable_across_saves(tiny_model, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, tiny_model)
    save_checkpoint(p2, tiny_model)
    assert p1.read_bytes() == p2.read_bytes()


def test_layer_norm_model_gradients():
    cfg = ModelConfig(input_dim=2, stack_factor=2, stack_stride=1, encoder_layers=1,
                      prediction_layers=1, hidden=4, projection=3, vocab_size=3,
                      use_layer_norm=True)
    model = TransducerModel(cfg, seed=3)
    rng = np.random.default_rng(12)
    feats = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    targets = [0, 2]

    def f():
        with Tape() as tape:
            out = rnnt_loss(model.forward(feats, targets), targets, cfg.blank_id)
            tape.backward(out.node)
        return out.value

    params = [model.encoder.layers[0].ln_gain, model.encoder.layers[0].ln_bias,
              model.joint_params.w_out]
    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_model_seeding_is_deterministic(tiny_config):
    a = TransducerModel(tiny_config, seed=5)
    b = TransducerModel(tiny_config, seed=5)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = TransducerModel(tiny_config, seed=6)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters()))


def test_taped_utterance_writes_one_record_per_lstm_layer():
    cfg = ModelConfig()
    model = TransducerModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    feats = Tensor(rng.normal(size=(9, cfg.encoder_input_dim)))
    targets = [3, 1, 4, 1]
    with Tape() as tape:
        rnnt_loss(model.forward(feats, targets), targets, cfg.blank_id)
    # 2 encoder layers + gather + 1 prediction layer + 5 joint ops + 1 loss
    assert [rec.name for rec in tape.records] == [
        "lstm_layer", "lstm_layer", "embed_prefix", "lstm_layer",
        "matmul", "matmul", "outer_add", "add_row", "affine_last", "rnnt_loss"]


def test_clone_is_equal_and_independent(tiny_model):
    tiny_model.encoder.layers[0].w.ensure_grad()[...] = 1.0
    other = tiny_model.clone()
    assert other.config == tiny_model.config and other.config is not tiny_model.config
    for (name, a), (_, b) in zip(tiny_model.named_parameters(), other.named_parameters()):
        assert np.array_equal(a.data, b.data), name
        assert b.grad is None
    before = tiny_model.state_dict()
    for _, p in other.named_parameters():
        p.data += 1.0
    other.config.hidden += 1
    after = tiny_model.state_dict()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert tiny_model.config.hidden == 5
