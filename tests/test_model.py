import hashlib
import json
import math

import numpy as np
import pytest

from rnnt_lab import (ConfigError, ModelConfig, ShapeError, Tape, Tensor, TransducerModel,
                      grad_check, load_checkpoint, rnnt_loss, save_checkpoint,
                      stack_frames)
from rnnt_lab import model as mdl
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
    logp = nm.log_softmax_array(logits.data)
    assert np.allclose(logp, -math.log(5), atol=1e-12)


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


def reference_stack_frames(data, stack, stride):
    """Per-frame loop oracle: frame t copies raw rows [t*stride, t*stride + stack)."""
    n, d = data.shape
    t_out = -(-n // stride)
    out = np.zeros((t_out, d * stack))
    for t in range(t_out):
        lo = t * stride
        hi = min(lo + stack, n)
        out[t, : (hi - lo) * d] = data[lo:hi].reshape(-1)
    return out


@pytest.mark.parametrize("stack, stride", [(4, 2), (1, 1), (2, 3), (5, 1), (3, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 62, 63, 118])
def test_stack_frames_byte_identical_to_loop_oracle(n, stack, stride):
    x = np.random.default_rng(n * 100 + stack * 10 + stride).normal(size=(n, 3))
    out = stack_frames(x, stack=stack, stride=stride).data
    want = reference_stack_frames(x, stack, stride)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


def test_stack_frames_rejects_empty():
    with pytest.raises(ShapeError):
        stack_frames(np.zeros((0, 2)), stack=2, stride=1)


def test_inference_stepping_matches_taped_predict(tiny_model):
    prefix = [1, 3, 2]
    taped = tiny_model.predict(prefix).data
    row, state = tiny_model.prediction_start()
    rows = [row]
    for y in prefix:
        row, state = tiny_model.prediction_step(state, [y])
        rows.append(row[0])
    assert np.allclose(np.array(rows), taped, atol=1e-12)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_batched_prediction_step_matches_single_row_steps(tiny_config, layer_norm):
    config = ModelConfig(**{**tiny_config.to_dict(), "prediction_layers": 2,
                            "use_layer_norm": layer_norm})
    model = TransducerModel(config, seed=12)
    rng = np.random.default_rng(13)
    # n distinct states: each row walks its own random prefix
    singles = []
    for _ in range(4):
        row, state = model.prediction_start()
        for y in rng.integers(0, config.vocab_size, size=int(rng.integers(0, 4))):
            row, state = model.prediction_step(state, [int(y)])
        singles.append(state)
    tokens = [3, 0, 3, 1]
    batch = [(np.concatenate([s[l][0] for s in singles]),
              np.concatenate([s[l][1] for s in singles])) for l in range(2)]
    rows, new_batch = model.prediction_step(batch, tokens)
    assert rows.shape == (4, config.hidden)
    for i, (state, y) in enumerate(zip(singles, tokens)):
        row, new_state = model.prediction_step(state, [y])
        assert np.abs(rows[i] - row[0]).max() <= 1e-12
        for (hb, cb), (h, c) in zip(new_batch, new_state):
            assert np.abs(hb[i] - h[0]).max() <= 1e-12
            assert np.abs(cb[i] - c[0]).max() <= 1e-12


@pytest.mark.parametrize("token_ids", [[0, 4, 1], [-1, 0, 2], [1, 2, 7]])
def test_prediction_step_rejects_out_of_vocab_id_anywhere(tiny_model, token_ids):
    state = [(np.zeros((3, 5)), np.zeros((3, 5)))]
    with pytest.raises(ShapeError, match="outside vocab"):
        tiny_model.prediction_step(state, token_ids)


@pytest.mark.parametrize("token_ids", [2, [[1, 2]], [1.0], [1, 2]])
def test_prediction_step_rejects_non_1d_ids_or_batch_mismatch(tiny_model, token_ids):
    _, state = tiny_model.prediction_start()
    with pytest.raises(ShapeError):
        tiny_model.prediction_step(state, token_ids)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_stack_step_reproduces_forward_rows(tiny_config, layer_norm):
    # decoding's step and the taped layer run the same cell with the same gate scaling
    config = ModelConfig(**{**tiny_config.to_dict(), "encoder_layers": 2,
                            "use_layer_norm": layer_norm})
    model = TransducerModel(config, seed=21)
    stack = model.encoder
    rng = np.random.default_rng(22)
    for p in model.encoder_parameters():  # nonzero biases and layer-norm shifts
        p.data += rng.uniform(-0.5, 0.5, size=p.shape)
    x = rng.normal(size=(7, config.encoder_input_dim))
    want = stack.forward(Tensor(x)).data
    state = stack.initial_state()
    for t, row in enumerate(x):
        out, state = stack.step(state, row[None])
        assert np.abs(out[0] - want[t]).max() <= 1e-12


def test_encoder_features_get_no_grad_but_layer_inputs_do(tiny_config):
    config = ModelConfig(**{**tiny_config.to_dict(), "encoder_layers": 2})
    model = TransducerModel(config, seed=23)
    feats = Tensor(np.random.default_rng(24).normal(size=(5, config.encoder_input_dim)))
    with Tape() as tape:
        h = model.encode(feats)
        tape.backward(h, seed=np.ones(h.shape))
    layer0, layer1 = tape.records
    assert layer0.inputs[0].grad is None  # the features are data: no dX GEMM
    assert np.abs(layer1.inputs[0].grad).max() > 0.0  # layer 0's output is not a leaf
    assert feats.grad is None
    assert all(np.abs(p.grad).max() > 0.0 for p in model.encoder_parameters())


def test_inference_encoder_matches_taped_encode(tiny_model):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 6))
    assert np.array_equal(tiny_model.encode_frames(x), tiny_model.encode(Tensor(x)).data)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_encode_frames_batch_matches_per_utterance(layer_norm):
    cfg = ModelConfig(input_dim=3, stack_factor=2, stack_stride=1, encoder_layers=2,
                      prediction_layers=1, hidden=5, projection=4, vocab_size=4,
                      use_layer_norm=layer_norm)
    model = TransducerModel(cfg, seed=13)
    rng = np.random.default_rng(14)
    for p in model.encoder_parameters():
        p.data += rng.uniform(-0.3, 0.3, size=p.shape)  # nonzero biases and norm shifts
    lengths = [4, 1, 6]
    seqs = [rng.normal(size=(n, cfg.encoder_input_dim)) for n in lengths]
    out = model.encode_batch([Tensor(seq) for seq in seqs]).data
    assert out.shape == (max(lengths), len(seqs), cfg.hidden)
    for col, seq in enumerate(seqs):
        assert np.abs(out[: len(seq), col] - model.encode_frames(seq)).max() <= 1e-12
        assert np.abs(out[: len(seq), col] - model.encode(Tensor(seq)).data).max() <= 1e-12


@pytest.mark.parametrize("shape", [(0, 6), (0, 2, 6), (3, 0, 6), (6,), (1, 1, 1, 6), (4, 2, 6)])
def test_encode_frames_rejects_empty_or_wrong_rank(tiny_model, shape):
    with pytest.raises(ShapeError, match="encode_frames"):
        tiny_model.encode_frames(np.zeros(shape))


def test_checkpoint_roundtrip_bit_exact(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_model, extra={"note": "test"})
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_model.config
    for (name_a, p_a), (name_b, p_b) in zip(tiny_model.named_parameters(),
                                            loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(p_a.data, p_b.data)


@pytest.mark.parametrize("field, value, message", [
    ("shape", lambda shape: shape[::-1], "parameter embedding: stored shape"),
    ("data", lambda data: [math.nan] + data[1:], "tensor 'embedding': non-finite value"),
], ids=["shape-of-another-model", "nan"])
def test_checkpoint_bad_tensor_values_name_file_and_tensor(tiny_model, tmp_path, field, value,
                                                           message):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_model)
    payload = json.loads(path.read_text())
    record = payload["tensors"]["embedding"]
    record[field] = value(record[field])
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: {message}"), exc.value


@pytest.mark.parametrize("layer_norm", [False, True])
def test_parameter_shapes_are_the_built_model_s(layer_norm):
    config = ModelConfig(input_dim=3, stack_factor=2, stack_stride=1, encoder_layers=3,
                         prediction_layers=2, hidden=5, projection=4, vocab_size=4,
                         use_layer_norm=layer_norm)
    built = [(name, t.data.shape) for name, t in TransducerModel(config).named_parameters()]
    assert list(mdl.parameter_shapes(config)) == built


@pytest.mark.parametrize("config, seed, digest", [
    (ModelConfig(), 12345, "d6dc640f330c9c35ee226c479d131c79a18b7fc62b5741df6685d1dbfd7e5638"),
    (ModelConfig(encoder_layers=3, use_layer_norm=True), 7,
     "3d541a97f77e8e4d1eb26c3528ff6fce145892bb65093b02dcd4b83f7faa1f89"),
], ids=["default-seed-12345", "3-encoder-layers-layer-norm-seed-7"])
def test_initial_weights_are_pinned(config, seed, digest):
    # the digests were recorded before the layout table built the model; a
    # reordered draw or another init rule changes every later number
    h = hashlib.sha256()
    for name, t in TransducerModel(config, seed=seed).named_parameters():
        h.update(name.encode())
        h.update(repr(t.data.shape).encode())
        h.update(np.asarray(t.data, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("field, value, message", [
    ("hidden", 1_000_000, "parameter encoder.l0.w: stored shape (6, 20) != model (6, 4000000)"),
    ("vocab_size", 1_000_000, "parameter embedding: stored shape (4, 5) != model (1000000, 5)"),
    ("encoder_layers", 1_000_000, "checkpoint lacks 'encoder.l1.w'"),
], ids=["hidden", "vocab-size", "encoder-layers"])
def test_checkpoint_config_past_its_tensors_fails_before_a_model_is_built(
        tiny_model, tmp_path, monkeypatch, field, value, message):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_model)
    payload = json.loads(path.read_text())
    payload["config"][field] = value
    path.write_text(json.dumps(payload))
    built = []

    def refuse(config, seed=0):  # a model at these extents would not fit in memory
        built.append(config)
        raise AssertionError(f"load_checkpoint built a model of {config}")

    monkeypatch.setattr(mdl, "TransducerModel", refuse)
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}" and built == []


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

    params = [model.params["encoder.l0.ln_gain"], model.params["encoder.l0.ln_bias"],
              model.params["joint.w_out"]]
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
    # 2 encoder layers + gather + 1 prediction layer + the joint + 1 loss
    assert [rec.name for rec in tape.records] == [
        "lstm_layer", "lstm_layer", "embed_prefix", "lstm_layer", "joint", "rnnt_loss"]


def minibatch_losses_and_grads(model, feats, targets, batched):
    """rnnt_loss value per utterance, each utterance's tape records and the
    summed parameter grads of one minibatch, one tape and backward per
    utterance. Batched, encode and predict hand out columns of one
    encode_batch / predict_batch under a minibatch tape, which sweeps once
    after the utterances; otherwise each utterance runs its own passes."""
    for p in model.parameters():
        p.zero_grad()
    with Tape() as batch_tape:
        enc = model.encode_batch(feats) if batched else None
        pre = model.predict_batch(targets) if batched else None
    values, records = [], []
    for j, (x, y) in enumerate(zip(feats, targets)):
        with Tape() as tape:
            logits = model.joint(model.encode(x, enc, j), model.predict(y, pre, j))
            out = rnnt_loss(logits, y, model.config.blank_id)
            tape.backward(out.node)
        values.append(out.value)
        records.append([rec.name for rec in tape.records])
    batch_tape.sweep()
    return values, records, [rec.name for rec in batch_tape.records], \
        [p.grad for p in model.parameters()]


@pytest.mark.parametrize("layer_norm", [False, True])
def test_minibatch_bptt_matches_per_utterance_passes(layer_norm):
    cfg = ModelConfig(input_dim=3, stack_factor=2, stack_stride=1, encoder_layers=2,
                      prediction_layers=2, hidden=5, projection=4, vocab_size=4,
                      use_layer_norm=layer_norm)
    model = TransducerModel(cfg, seed=15)
    rng = np.random.default_rng(16)
    for p in model.parameters():
        p.data += rng.uniform(-0.3, 0.3, size=p.shape)  # nonzero biases and norm shifts
    # ragged T including T=1, ragged U including U=0; the longest T and U differ
    shapes = [(4, [1, 2]), (1, []), (7, [3, 0, 2]), (1, [2]), (3, [0, 1, 2, 3, 1])]
    feats = [Tensor(rng.normal(size=(t_len, cfg.encoder_input_dim))) for t_len, _ in shapes]
    targets = [y for _, y in shapes]
    got_values, got_records, batch_records, got_grads = minibatch_losses_and_grads(
        model, feats, targets, True)
    want_values, want_records, _, want_grads = minibatch_losses_and_grads(
        model, feats, targets, False)
    # the minibatch tape holds every LSTM record, once per layer
    assert batch_records == ["lstm_layer", "lstm_layer", "embed_prefix", "lstm_layer",
                             "lstm_layer"]
    assert got_records == [["batch_column", "batch_column", "joint", "rnnt_loss"]] * 5
    assert want_records == [["lstm_layer", "lstm_layer", "embed_prefix", "lstm_layer",
                             "lstm_layer", "joint", "rnnt_loss"]] * 5
    assert np.abs(np.subtract(got_values, want_values)).max() <= 1e-12
    for (name, _), got, want in zip(model.named_parameters(), got_grads, want_grads):
        assert np.abs(got - want).max() <= 1e-12, name


def test_clone_is_equal_and_independent(tiny_model):
    tiny_model.params["encoder.l0.w"].ensure_grad()[...] = 1.0
    other = tiny_model.clone()
    assert other.config == tiny_model.config and other.config is not tiny_model.config
    for (name, a), (_, b) in zip(tiny_model.named_parameters(), other.named_parameters()):
        assert np.array_equal(a.data, b.data), name
        assert b.grad is None
    before = tiny_model.state_dict()
    x = np.random.default_rng(10).normal(size=(3, 6))
    h = tiny_model.encode_frames(x)
    logits = tiny_model.joint_row(h[0], h[1])
    for _, p in other.named_parameters():
        p.data += 1.0
    # the clone's encoder and joint run on the clone's own tensors
    assert not np.array_equal(other.encode_frames(x), h)
    assert not np.array_equal(other.joint_row(h[0], h[1]), logits)
    other.config.hidden += 1
    after = tiny_model.state_dict()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert np.array_equal(tiny_model.encode_frames(x), h)
    assert np.array_equal(tiny_model.joint_row(h[0], h[1]), logits)
    assert tiny_model.config.hidden == 5
