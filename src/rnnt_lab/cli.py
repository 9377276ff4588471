"""Command-line entry points. Every rejected precondition exits nonzero."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import load_corpus, piece_word_map, save_corpus
from .decoding import (DelayStats, Hypothesis, beam_decode, measure_delay, read_nbest,
                       write_delay_csv, write_nbest)
from .errors import ConfigError, LabError
from .harness import (ARM_INITIALIZERS, PRETRAIN_VARIANTS, ExperimentConfig,
                      arm_pretrain_epochs, canonical_arm, gen_corpus, run_experiment,
                      train_transducer)
from .model import TransducerModel, load_checkpoint, save_checkpoint, stack_frames


def _load_config(path: str | None) -> ExperimentConfig:
    return ExperimentConfig.from_json(path) if path else ExperimentConfig()


def _cmd_gen_corpus(args) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = gen_corpus(cfg)
    save_corpus(out / "train.jsonl", train)
    save_corpus(out / "test.jsonl", test)
    print(f"wrote {len(train)} train / {len(test)} test utterances to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    model = TransducerModel(cfg.model, seed=cfg.seed)
    corpus = load_corpus(args.corpus, cfg.model, cfg.space_id)
    arm = canonical_arm(args.variant)
    epochs = arm_pretrain_epochs(cfg, arm)
    manifest = ARM_INITIALIZERS[arm](model, corpus, cfg, epochs)
    save_checkpoint(args.out, model, extra={"pretrain": manifest})
    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.variant}: pre-trained arm {arm} for {epochs} epochs; "
          f"checkpoint {args.out}, manifest {manifest_path}")
    return 0


def _cmd_train(args) -> int:
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
    model = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus, model.config)
    entries = []
    for utt in corpus:
        stacked = stack_frames(utt.features, model.config.stack_factor,
                               model.config.stack_stride)
        _, nbest = beam_decode(model, stacked, beam_width=args.beam)
        entries.append((utt.utt_id, nbest))
    write_nbest(args.out, entries)
    print(f"decoded {len(corpus)} utterances with beam {args.beam} -> {args.out}")
    return 0


def _cmd_delay_stats(args) -> int:
    corpus = {utt.utt_id: utt for utt in load_corpus(args.corpus)}
    best_lines: dict[str, dict] = {}
    for line in read_nbest(args.nbest):
        prev = best_lines.get(line["utt_id"])
        if prev is None or line["log_prob"] > prev["log_prob"]:
            best_lines[line["utt_id"]] = line
    stats = DelayStats()
    for utt_id, line in best_lines.items():
        utt = corpus.get(utt_id)
        if utt is None:
            raise ConfigError(f"{args.nbest}: utterance '{utt_id}' is not in corpus {args.corpus}")
        hyp = Hypothesis(prefix=line["hyp_tokens"], log_prob=line["log_prob"],
                         emit_frames=line["emit_frames"])
        stats = stats.merge(measure_delay(hyp, utt.words, piece_word_map(utt),
                                          utt.transcript))
    write_delay_csv(args.out, stats)
    print(f"delay over {len(stats.delays)} words "
          f"({stats.skipped} utterances skipped) -> {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    summary = run_experiment(cfg, args.out_dir)
    for arm, info in summary["arms"].items():
        if "error" in info:
            print(f"{arm}: FAILED ({info['error']})")
        else:
            delay = info["mean_delay"]
            delay_txt = "n/a" if delay is None else f"{delay:.2f}"
            print(f"{arm}: token error {info['token_error_rate']:.4f}, "
                  f"mean delay {delay_txt}")
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

    p = sub.add_parser("decode", help="beam-decode a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--out", required=True, help="n-best JSONL path")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("delay-stats", help="emission-delay histogram from n-best output")
    p.add_argument("--nbest", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=_cmd_delay_stats)

    p = sub.add_parser("experiment", help="run all configured arms head-to-head")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LabError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
