"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-rnnt --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Lines above it give the same numbers for people: the environment
stamp, the tail percentile and its sample count, the output checks and, in a
traced run, the time split by layer and the tracing overhead. A full record
(and, when traced, every span) is written under ``perfbench/out/``.

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the program cannot be imported, 3 when a wrapped layer is missing.
See README.md beside this file for the workloads and the metric->layer map.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("train-rnnt", "pretrain-mix", "eval-decode")
# Set-up runs this often before measuring, and once more between every two
# epochs, schedule epochs or decode passes of an untraced run: the host's speed
# drifts over tens of seconds, and samples spread over the run follow it.
SETUP_REPEATS = 3
# Tail percentile per workload: the highest of p90/p95/p98/p99 that kept at
# least ten samples beyond it in every baseline run (130-280 optimizer steps
# per training run, 1,000-1,400 utterance decodes per eval-decode run). Fixed,
# so that tails stay comparable when the sample count moves.
TAIL_PERCENTILE = {"train-rnnt": 90, "pretrain-mix": 90, "eval-decode": 98}
SMOKE_UTTS = 8

END_TO_END_UNITS = {
    "utt_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "numerics.backward_ms": "ms",
    "numerics.tape_records_per_utt": "count",
    "numerics.adam_step_ms": "ms",
    "model.encode_ms": "ms",
    "model.predict_ms": "ms",
    "model.joint_ms": "ms",
    "model.encode_frames_ms": "ms",
    "model.prediction_step_ms": "ms",
    "model.prediction_step_calls_per_utt": "count",
    "model.joint_row_ms": "ms",
    "model.joint_row_calls_per_utt": "count",
    "loss.rnnt_loss_ms": "ms",
    "loss.lattice_cells_per_utt": "count",
    "loss.ctc_loss_ms": "ms",
    "loss.frame_ce_ms": "ms",
    "loss.masked_ce_3d_ms": "ms",
    "loss.lm_ce_ms": "ms",
    "pretrain.enc_ce_epoch_s": "s",
    "pretrain.enc_ctc_epoch_s": "s",
    "pretrain.lm_epoch_s": "s",
    "pretrain.whole_y2_epoch_s": "s",
    "decoding.beam_ms": "ms",
    "decoding.greedy_ms": "ms",
    "decoding.beam_self_ms": "ms",
    "decoding.pred_step_yield": "ratio",
    "harness.gen_corpus_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    """BLAS name, version and thread count as numpy's BLAS reports them.
    The benchmark leaves the thread count at the library default."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception:  # noqa: BLE001 - the stamp is best effort, the run goes on
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(measured, setup_times, tail: int) -> dict:
    ops_ms = [t * 1e3 for t in measured.op_s]
    return {
        "utt_per_s": measured.utterances / measured.wall_s,
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_tail": float(np.percentile(ops_ms, tail)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - measured.failed / max(measured.attempted, 1),
    }


def per_layer(tracer, setup_tracer, traced, plain) -> dict:
    totals = {**setup_tracer.totals(), **tracer.totals()}
    utts = max(traced.utterances, 1)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ms_per_utt(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0) * 1e3 / utts

    def mean_call(name):
        rec = totals.get(name)
        return rec["total_s"] / rec["calls"] if rec else 0.0

    def median_call(name):
        rec = totals.get(name)
        return statistics.median(rec["durations"]) if rec else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    beam_steps = tracer.children_calls("decoding.beam", "model.prediction_step")
    return {
        "numerics.backward_ms": ms_per_utt("numerics.backward"),
        "numerics.tape_records_per_utt": ratio(counts["numerics.backward"],
                                               calls("numerics.backward")),
        "numerics.adam_step_ms": mean_call("numerics.adam_step") * 1e3,
        "model.encode_ms": ms_per_utt("model.encode"),
        "model.predict_ms": ms_per_utt("model.predict"),
        "model.joint_ms": ms_per_utt("model.joint"),
        "model.encode_frames_ms": ms_per_utt("model.encode_frames"),
        "model.prediction_step_ms": ms_per_utt("model.prediction_step"),
        "model.prediction_step_calls_per_utt": calls("model.prediction_step") / utts,
        "model.joint_row_ms": ms_per_utt("model.joint_row"),
        "model.joint_row_calls_per_utt": calls("model.joint_row") / utts,
        "loss.rnnt_loss_ms": ms_per_utt("loss.rnnt_loss"),
        "loss.lattice_cells_per_utt": ratio(counts["loss.rnnt_loss"], calls("loss.rnnt_loss")),
        "loss.ctc_loss_ms": ms_per_utt("loss.ctc_loss"),
        "loss.frame_ce_ms": ms_per_utt("loss.frame_ce"),
        "loss.masked_ce_3d_ms": ms_per_utt("loss.masked_ce_3d"),
        "loss.lm_ce_ms": ms_per_utt("loss.lm_ce"),
        "pretrain.enc_ce_epoch_s": mean_call("pretrain.enc_ce_epoch"),
        "pretrain.enc_ctc_epoch_s": mean_call("pretrain.enc_ctc_epoch"),
        "pretrain.lm_epoch_s": mean_call("pretrain.lm_epoch"),
        "pretrain.whole_y2_epoch_s": mean_call("pretrain.whole_y2_epoch"),
        "decoding.beam_ms": ms_per_utt("decoding.beam"),
        "decoding.greedy_ms": ms_per_utt("decoding.greedy"),
        "decoding.beam_self_ms": ms_per_utt("decoding.beam", "self_s"),
        "decoding.pred_step_yield": ratio(counts["decoding.beam"], beam_steps),
        "harness.gen_corpus_ms": median_call("harness.gen_corpus") * 1e3,
        "model.load_checkpoint_ms": median_call("model.load_checkpoint") * 1e3,
        "trace.overhead_pct": 100.0 * (plain.utterances / plain.wall_s
                                       / (traced.utterances / traced.wall_s) - 1.0),
    }


def _merged(parts):
    """Pool the timings of several measured segments."""
    parts = list(parts)
    out = type(parts[0])()
    for m in parts:
        out.wall_s += m.wall_s
        out.utterances += m.utterances
        out.op_s += m.op_s
        out.attempted += m.attempted
        out.failed += m.failed
    return out


def layer_table(tracer, wall_s: float) -> list[dict]:
    rows = []
    for name, rec in sorted(tracer.totals().items(), key=lambda kv: -kv[1]["total_s"]):
        rows.append({"span": name, "calls": rec["calls"],
                     "total_s": rec["total_s"], "self_s": rec["self_s"],
                     "share_pct": 100.0 * rec["total_s"] / wall_s,
                     "self_share_pct": 100.0 * rec["self_s"] / wall_s})
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="rnnt-lab benchmark: run one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure at least this long (whole epochs, rounds or passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"self-check at tiny size: {SMOKE_UTTS} utterances, one set-up")
    return ap.parse_args(argv)


def run(args, wl, tracing) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, record)."""
    num_utts = SMOKE_UTTS if args.smoke else None
    decode = args.workload == "eval-decode"
    if decode:
        wl.verify_checkpoint()
    setup = wl.setup_decode if decode else wl.setup_training
    measure = {"train-rnnt": wl.measure_train, "pretrain-mix": wl.measure_pretrain,
               "eval-decode": wl.measure_decode}[args.workload]

    # set-up spans go to their own tracer so they stay out of the measured split
    setup_tracer = tracing.Tracer() if args.trace else None
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []

    def timed_setup():
        started = perf_counter()
        inputs = setup(args.seed, num_utts)
        setup_times.append(perf_counter() - started)
        return inputs

    with tracing.patched(setup_tracer.hooks() if setup_tracer else {}):
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            inputs = timed_setup()

    def measured_run(seconds, traced):
        probes = tracing.Probes()
        with tracing.patched(probes.hooks()):
            if traced:
                with tracing.patched(tracer.hooks()):
                    return measure(inputs, seconds, probes, tracer)
            return measure(inputs, seconds, probes,
                           between=None if args.trace else timed_setup)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "corpus_utterances": len(inputs.corpus), "setup_s": setup_times}
    tail = TAIL_PERCENTILE[args.workload]
    problems = []
    order = (False,) if tracer is None else (False, True, True, False)
    runs = [measured_run(args.seconds / len(order), traced) for traced in order]
    for m in runs:
        if not m.op_s:
            raise wl.CheckFailed("no operation completed: " + "; ".join(m.problems))
    if tracer is None:
        main = runs[0]
        metrics = end_to_end(main, setup_times, tail)
        units = END_TO_END_UNITS
        record["tail"] = {"percentile": tail, "samples": len(main.op_s),
                          "beyond": sum(1 for t in main.op_s
                                        if t * 1e3 > metrics["op_ms_tail"])}
    else:
        # The traced run measures the same work untraced and traced, in quarters
        # ordered ABBA so that a steady drift of the host's speed cancels out of
        # the tracing overhead.
        main = _merged(m for m, traced in zip(runs, order) if traced)
        plain = _merged(m for m, traced in zip(runs, order) if not traced)
        metrics = per_layer(tracer, setup_tracer, main, plain)
        units = PER_LAYER_UNITS
        record["overhead"] = {
            "untraced": end_to_end(plain, setup_times, tail),
            "traced": end_to_end(main, setup_times, tail)}
        record["layers"] = layer_table(tracer, main.wall_s)
        totals = {**setup_tracer.totals(), **tracer.totals()}
        for name in tracing.EXPECTED[args.workload]:
            if name not in totals:
                problems.append(f"span {name} never fired on {args.workload}")
        wl.OUT_DIR.mkdir(exist_ok=True)
        spans_path = wl.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            setup_tracer.write(fh, "setup")
            tracer.write(fh, "measure")
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    problems += [p for m in runs for p in m.problems]
    if args.seed == wl.DEFAULT_SEED and not args.smoke:
        for m in runs:
            problems += wl.check_references(args.workload, m)
    record.update({
        "utterances": main.utterances, "wall_s": main.wall_s, "op_s": main.op_s,
        "losses": [m.losses for m in runs], "token_error_rate": [m.ter for m in runs],
        "skipped_degenerate": runs[0].skipped, "problems": problems,
    })
    result = {
        "correct": not problems,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def report(result, record) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"utterances={record['corpus_utterances']} git={env['git_sha']} src={env['src_sha256']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']['name']} "
          f"{env['blas']['version']} threads={env['blas']['threads']}, nproc={env['nproc']}, "
          f"cpu={env['cpu']}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    if "tail" in record:
        tail = record["tail"]
        print(f"# op_ms_tail is p{tail['percentile']} of {tail['samples']} operations "
              f"({tail['beyond']} beyond it)")
    if "overhead" in record:
        for key in ("utt_per_s", "op_ms_p50"):
            plain, traced = (record["overhead"][k][key] for k in ("untraced", "traced"))
            print(f"# tracing overhead {key}: traced {traced:.6g} - untraced {plain:.6g} "
                  f"= {traced - plain:+.6g}")
        for row in record["layers"]:
            print(f"# span {row['span']:26s} calls={row['calls']:7d} "
                  f"total={row['share_pct']:6.2f}% self={row['self_share_pct']:6.2f}%")
    if record["skipped_degenerate"]:
        print(f"# degenerate utterances skipped (intended filtering): "
              f"{record['skipped_degenerate']}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# checks {'passed' if result['correct'] else 'FAILED'}; "
          f"attempted={result['attempted']} failed={result['failed']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        import workloads as wl
        import tracing
    except ImportError as exc:
        print(f"benchmark: the program is not importable: {exc}", file=sys.stderr)
        return 2
    try:
        tracing.check_layers_present()
    except tracing.LayerMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    try:
        result, record = run(args, wl, tracing)
    except (wl.CheckFailed, tracing.LayerMissing) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    wl.OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(wl.OUT_DIR / name, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    report(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
