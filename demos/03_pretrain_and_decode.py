"""Pre-train on a small synthetic corpus, fine-tune with the transducer
loss, and watch greedy decoding recover transcripts with emission times.

Runs in about a minute; shrink num_train or the epoch counts to go faster.
"""

from rnnt_lab import ModelConfig, ModelDecoder, TransducerModel, greedy_decode, stack_frames
from rnnt_lab.harness import ExperimentConfig, gen_corpus, train_transducer
from rnnt_lab.pretrain import pretrain_encoder_ce

model_cfg = ModelConfig(input_dim=6, stack_factor=3, stack_stride=2,
                        encoder_layers=1, prediction_layers=1, hidden=32,
                        projection=16, vocab_size=7)
cfg = ExperimentConfig(model=model_cfg, seed=3, num_train=40, num_test=4,
                       words_per_utt=(2, 3), noise=0.15, pretrain_epochs=30,
                       train_epochs=140, batch_size=8, arms=("random",))

train, test = gen_corpus(cfg)
print(f"corpus: {len(train)} train / {len(test)} test utterances, "
      f"vocab {model_cfg.vocab_size} + blank\n")

model = TransducerModel(model_cfg, seed=cfg.seed)
report = pretrain_encoder_ce(model, train, space_id=cfg.space_id,
                             epochs=cfg.pretrain_epochs, seed=cfg.seed)
print(f"encoder CE pre-training: loss {report.losses[0]:.3f} -> {report.final_loss:.3f}, "
      f"frame accuracy {report.extras['frame_accuracy']:.3f}\n")

losses = train_transducer(model, train, cfg)
print("transducer training loss every 10 epochs:")
print("  " + " ".join(f"{v:.2f}" for v in losses[::10]) + f" ... {losses[-1]:.3f}\n")

for utt in test:
    stacked = stack_frames(utt.features, model_cfg.stack_factor, model_cfg.stack_stride)
    hyp = greedy_decode(ModelDecoder(model, stacked))
    mark = "ok " if hyp.prefix == utt.transcript else "ERR"
    print(f"{mark} {utt.utt_id}  ref={utt.transcript}")
    print(f"      hyp={hyp.prefix} emitted at frames {hyp.emit_frames}")
    starts = [w.start_frame for w in utt.words]
    print(f"      ground-truth word starts: {starts}")
