"""Write the eval-decode checkpoint, the shape profiles and the default-seed references.

The checkpoint is the ``random`` arm of the default experiment after its 60
training epochs: the shared base initialization, cloned and trained by
``harness.train_transducer`` on the default train corpus, as
``run_experiment`` does it. Training is deterministic, so rerunning this script
reproduces the pinned content hash (``workloads.CHECKPOINT_SHA256``).

The same training run gives the train-rnnt references: with the default seed,
train-rnnt trains this corpus from this initialization. The script also records
the first pretrain-mix rounds and the eval-decode token error rate.

    python3 perfbench/make_checkpoint.py           # retrain; check the pinned hash (~2.5 min)
    python3 perfbench/make_checkpoint.py --write   # rewrite the data files, print the new hash
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import harness, mdl  # noqa: E402


def _dump(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def reference_pretrain_rounds(rounds: int) -> list[list[float]]:
    inputs = wl.setup_training(wl.DEFAULT_SEED)
    model = inputs.model.clone()
    return [wl.pretrain_round(model, inputs.corpus, inputs.cfg)[0] for _ in range(rounds)]


def reference_ter() -> float:
    probes = tracing.Probes()
    out = wl.Measured()
    with tracing.patched(probes.hooks()):
        ter = wl.decode_pass(wl.setup_decode(wl.DEFAULT_SEED), probes, out)
    if out.problems:
        raise wl.CheckFailed("; ".join(out.problems))
    return ter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the checkpoint, shapes and references under perfbench/data")
    args = ap.parse_args(argv)

    cfg = wl.base_config(wl.DEFAULT_SEED)
    train, test = harness.gen_corpus(cfg)
    model = mdl.TransducerModel(cfg.model, seed=cfg.seed).clone()
    train_losses = harness.train_transducer(model, train, cfg)

    if args.write:
        path = wl.CHECKPOINT
    else:
        wl.OUT_DIR.mkdir(exist_ok=True)
        path = wl.OUT_DIR / "checkpoint_rebuilt.json"
    mdl.save_checkpoint(path, model, extra={"arm": "random", "seed": cfg.seed,
                                            "train_epochs": cfg.train_epochs,
                                            "final_train_loss": train_losses[-1]})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"{path.name}: sha256 {digest}")
    if not args.write:
        if digest != wl.CHECKPOINT_SHA256:
            print(f"MISMATCH: pinned sha256 is {wl.CHECKPOINT_SHA256}")
            return 1
        print("matches the pinned hash")
        return 0

    stride = cfg.model.stack_stride
    _dump(wl.SHAPES, {"train": [wl.encoder_shape(u, stride) for u in train],
                      "test": [wl.encoder_shape(u, stride) for u in test]})
    _dump(wl.REFERENCES, {
        "seed": wl.DEFAULT_SEED,
        "train_rnnt_epoch_losses": train_losses,
        "pretrain_mix_round_losses": reference_pretrain_rounds(wl.REFERENCE_PRETRAIN_ROUNDS),
        "eval_decode_ter": reference_ter(),
    })
    print(f"wrote {wl.SHAPES.name} and {wl.REFERENCES.name}; "
          f"pin CHECKPOINT_SHA256 = {digest!r} in workloads.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
