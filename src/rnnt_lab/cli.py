"""Command-line entry points. Every rejected precondition exits nonzero."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import load_corpus, save_corpus
from .decoding import write_delay_csv, write_nbest
from .errors import ConfigError, LabError
from .harness import (ARM_INITIALIZERS, PRETRAIN_VARIANTS, ExperimentConfig,
                      arm_pretrain_epochs, canonical_arm, evaluate_model, gen_corpus,
                      run_experiment, train_transducer)
from .model import TransducerModel, load_checkpoint, save_checkpoint


def _load_config(path: str | None) -> ExperimentConfig:
    return ExperimentConfig.from_json(path) if path else ExperimentConfig()


MANIFEST_SUFFIX = ".manifest.json"  # pretrain writes <out> and <out>.manifest.json
DELAY_SUFFIX = ".delay.csv"  # decode writes <out> and <out>.delay.csv


def _check_out(path: str, companion_suffix: str = "") -> None:
    """Refuse an output path, or the companion file written next to it, that
    is a directory or lies in no existing directory, before any work is done."""
    for target in (path, path + companion_suffix):
        if Path(target).is_dir():
            raise ConfigError(f"--out {path}: {target} is a directory, not a file path")
        folder = os.path.dirname(target) or "."
        if not Path(folder).is_dir():
            raise ConfigError(f"--out {path}: directory {folder} does not exist")


def _score_line(token_error: float, mean_delay: float | None) -> str:
    delay_txt = "n/a" if mean_delay is None else f"{mean_delay:.2f}"
    return f"token error {token_error:.4f}, mean delay {delay_txt}"


def _cmd_gen_corpus(args) -> int:
    cfg = _load_config(args.config)
    train, test = gen_corpus(cfg)  # a rejected config leaves no directory behind
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(out / "train.jsonl", train)
    save_corpus(out / "test.jsonl", test)
    print(f"wrote {len(train)} train / {len(test)} test utterances to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    _check_out(args.out, MANIFEST_SUFFIX)
    cfg = _load_config(args.config)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    corpus = load_corpus(args.corpus, cfg.model, cfg.space_id)
    arm = canonical_arm(args.variant)
    epochs = arm_pretrain_epochs(cfg, arm)
    manifest = ARM_INITIALIZERS[arm](model, corpus, cfg, epochs)
    save_checkpoint(args.out, model, extra={"pretrain": manifest})
    manifest_path = args.out + MANIFEST_SUFFIX
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.variant}: pre-trained arm {arm} for {epochs} epochs; "
          f"checkpoint {args.out}, manifest {manifest_path}")
    return 0


def _cmd_train(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args.config)
    if args.init == "random":
        model = TransducerModel(cfg.model, seed=cfg.seed)
    else:
        model = load_checkpoint(args.init)
    corpus = load_corpus(args.corpus, model.config, cfg.space_id)
    losses = train_transducer(model, corpus, cfg)
    save_checkpoint(args.out, model, extra={"train_losses": losses})
    final = losses[-1] if losses else None
    print(f"trained {cfg.train_epochs} epochs, final loss {final}; checkpoint {args.out}")
    return 0


def _cmd_decode(args) -> int:
    _check_out(args.out, DELAY_SUFFIX)
    cfg = _load_config(args.config)
    model = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus, model.config, cfg.space_id)
    token_error, delay, nbest_entries = evaluate_model(model, corpus, cfg)
    write_nbest(args.out, nbest_entries)
    write_delay_csv(args.out + DELAY_SUFFIX, delay)
    print(_score_line(token_error, delay.mean()))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    summary = run_experiment(cfg, args.out_dir)
    for arm, info in summary["arms"].items():
        if "error" in info:
            print(f"{arm}: FAILED ({info['error']})")
        else:
            print(f"{arm}: {_score_line(info['token_error_rate'], info['mean_delay'])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rnnt-lab",
                                     description="Desk-scale RNN-T training laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate train/test JSONL corpora")
    p.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="run one pre-training schedule")
    p.add_argument("--variant", required=True, choices=PRETRAIN_VARIANTS)
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--corpus", required=True, help="training corpus JSONL")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train", help="main RNN-T training")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", default="random",
                   help="'random' or a checkpoint path to start from")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="score a corpus as the experiment scores an arm")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True,
                   help="n-best JSONL path; the delay CSV goes to <out>.delay.csv")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("experiment", help="run all configured arms head-to-head")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
