"""A scaled-down head-to-head of initialization strategies.

Runs three arms (random, CTC encoder, CE encoder) on one small corpus and
prints final token error and mean emission delay per arm. The full-size
comparison lives in configs/default.json and takes several minutes:

    rnnt-lab experiment --config configs/default.json --out-dir /tmp/exp

Usage: python demos/04_initialization_comparison.py [OUT_DIR]
(outputs go to /tmp/rnnt_lab_demo_experiment by default).
"""

import sys

from rnnt_lab import ModelConfig
from rnnt_lab.harness import ExperimentConfig, run_experiment

model_cfg = ModelConfig(input_dim=6, stack_factor=3, stack_stride=2,
                        encoder_layers=1, prediction_layers=1, hidden=32,
                        projection=16, vocab_size=7)
cfg = ExperimentConfig(model=model_cfg, seed=21, num_train=40, num_test=12,
                       words_per_utt=(2, 3), noise=0.15, pretrain_epochs=25,
                       train_epochs=110, batch_size=8, beam_width=5,
                       arms=("random", "ctc", "encoder_ce"))

out_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp/rnnt_lab_demo_experiment"
summary = run_experiment(cfg, out_dir)
print(f"config hash {summary['config_hash']}\n")
print(f"{'arm':<12} {'token error':>12} {'mean delay':>12} {'decoded words':>14}")
for arm, info in summary["arms"].items():
    delay = info["mean_delay"]
    delay_txt = "n/a" if delay is None else f"{delay:.2f}"
    print(f"{arm:<12} {info['token_error_rate']:>12.4f} {delay_txt:>12} "
          f"{info['delay_samples']:>14}")
print(f"\nfull metrics: {out_dir}/metrics.csv")
