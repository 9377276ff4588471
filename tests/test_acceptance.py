"""The acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 5-7 share a single head-to-head experiment on the default config
checked in at configs/default.json; it is module-scoped because it carries
the full 15-minute runtime budget.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from rnnt_lab import (FrameAlignment, ModelConfig, Tape, Tensor,
                      TransducerModel, build_y2, build_y3, ctc_brute_force,
                      ctc_loss, frame_ce_loss, grad_check, greedy_decode,
                      label_logits, lm_ce_loss, logsumexp, masked_ce_3d,
                      rnnt_brute_force, rnnt_lattice, rnnt_loss)
from rnnt_lab.decoding import TableModel, beam_decode
from rnnt_lab.harness import ExperimentConfig, run_experiment
from rnnt_lab.model import Affine

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "default.json"


class criterion:
    """Prints one ACCEPTANCE line per criterion, PASS or FAIL."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.title}): {verdict}")
        return False


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One shared experiment over every arm of the published default config."""
    cfg = ExperimentConfig.from_json(CONFIG_PATH)
    out_dir = tmp_path_factory.mktemp("default_experiment")
    started = time.perf_counter()
    summary = run_experiment(cfg, out_dir)
    elapsed = time.perf_counter() - started
    return cfg, summary, elapsed, out_dir


def test_criterion_1_oracle_equivalence():
    with criterion(1, "DP losses equal brute-force enumeration"):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        rnnt_checked = 0
        while rnnt_checked < 200:
            t_len = int(rng.integers(1, 6))
            u_len = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            targets = [int(v) for v in rng.integers(0, k, size=u_len)]
            logits = 2.0 * rng.normal(size=(t_len, u_len + 1, k + 1))
            dp = rnnt_loss(logits, targets, blank=k).value
            bf = rnnt_brute_force(logits, targets, blank=k)
            assert abs(dp - bf) < 1e-10
            rnnt_checked += 1
        ctc_checked = 0
        while ctc_checked < 200:
            t_len = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            u_len = int(rng.integers(0, 4))
            targets = [int(v) for v in rng.integers(0, k, size=u_len)]
            repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
            if t_len < u_len + repeats:
                continue
            logits = 2.0 * rng.normal(size=(t_len, k + 1))
            dp = ctc_loss(logits, targets, blank=k).value
            bf = ctc_brute_force(logits, targets, blank=k)
            assert abs(dp - bf) < 1e-10
            ctc_checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    with criterion(2, "finite-difference gradients through the full model"):
        started = time.perf_counter()
        cfg = ModelConfig(input_dim=3, stack_factor=2, stack_stride=1,
                          encoder_layers=1, prediction_layers=1, hidden=5,
                          projection=4, vocab_size=4)
        model = TransducerModel(cfg, seed=11)
        rng = np.random.default_rng(77)
        feats = Tensor(rng.uniform(-1, 1, size=(4, 6)))
        targets = [1, 3]
        fc = Affine(cfg.hidden, cfg.num_classes, rng)
        fa_labels = [1, 1, 3, 0]
        label = build_y2(FrameAlignment(labels=[1, 3, 3, 0]), [1, 3, 0],
                         blank=cfg.blank_id)

        def run(build):
            def f():
                with Tape() as tape:
                    out = build()
                    tape.backward(out.node)
                return out.value
            return f

        checks = {
            "rnnt_loss": (run(lambda: rnnt_loss(model.forward(feats, targets),
                                                targets, cfg.blank_id)),
                          model.parameters()),
            "ctc_loss": (run(lambda: ctc_loss(fc.apply(model.encode(feats)),
                                              targets, cfg.blank_id)),
                         model.encoder_parameters() + fc.parameters()),
            "frame_ce_loss": (run(lambda: frame_ce_loss(model.encode(feats), fc,
                                                        fa_labels)),
                              model.encoder_parameters() + fc.parameters()),
            "masked_ce_3d": (run(lambda: masked_ce_3d(model.forward(feats, [1, 3, 0]),
                                                      label)),
                             model.parameters()),
            "lm_ce_loss": (run(lambda: lm_ce_loss(model.predict(targets), fc, targets)),
                           model.prediction_parameters() + fc.parameters()),
        }
        for name, (f, params) in checks.items():
            err = grad_check(f, params, eps=1e-5)
            assert err < 1e-4, f"{name}: max relative error {err:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_3_alpha_beta_consistency():
    # The literal per-cell reading (alpha[t,u]+beta[t,u] equal everywhere) is
    # not a true property of the transducer forward-backward recursion when
    # U >= 1: alpha+beta at a cell is the mass of paths through that cell
    # only. What is constant is the log-sum over each anti-diagonal (every
    # path crosses each one exactly once), which reduces to the per-cell
    # statement on single-row lattices. That identity is checked here.
    with criterion(3, "forward/backward lattice consistency"):
        rng = np.random.default_rng(3003)
        for _ in range(100):
            t_len = int(rng.integers(1, 6))
            u_len = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            targets = [int(v) for v in rng.integers(0, k, size=u_len)]
            logits = 2.0 * rng.normal(size=(t_len, u_len + 1, k + 1))
            lat = rnnt_lattice(logits, targets, blank=k)
            alpha, beta, lp = lat.alpha, lat.beta, lat.log_probs
            loglik = lat.log_likelihood()
            value = rnnt_loss(logits, targets, blank=k).value
            assert abs(loglik + value) < 1e-8
            assert abs(alpha[t_len - 1, u_len] + lp[t_len - 1, u_len, k] - loglik) < 1e-8
            cells = alpha + beta
            for n in range(t_len + u_len):
                diag = [cells[t, n - t] for t in range(t_len) if 0 <= n - t <= u_len]
                assert abs(logsumexp(diag) - loglik) < 1e-8
            if u_len == 0:
                assert np.abs(cells[:, 0] - loglik).max() < 1e-8


def test_criterion_4_label_tensor_round_trip(worked_example):
    with criterion(4, "worked label-tensor example decodes to the printed string"):
        blank = worked_example["blank"]
        y2 = build_y2(worked_example["fa"], worked_example["tokens"], blank)
        table = label_logits(y2)
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

        y3 = build_y3(worked_example["fa"], worked_example["tokens"], blank, space_id=worked_example["space"])
        assert int(y3.mask.sum()) == 8  # exactly T cells
        path = y3.targets[y3.mask]
        assert path.tolist() == [1, 1, 1, 2, 2, blank, 3, 3]  # 1-frame space -> blank


@pytest.mark.slow
def test_criterion_5_encoder_init_trend(default_run):
    with criterion(5, "encoder CE beats random; CTC within 10% of random"):
        cfg, summary, elapsed, _ = default_run
        arms = summary["arms"]
        random_err = arms["random"]["token_error_rate"]
        ce_err = arms["encoder_ce"]["token_error_rate"]
        ctc_err = arms["ctc"]["token_error_rate"]
        print(f"\n  random={random_err:.4f} encoder_ce={ce_err:.4f} "
              f"ctc={ctc_err:.4f} runtime={elapsed:.0f}s")
        assert ce_err < random_err
        assert abs(ctc_err - random_err) <= 0.10 * random_err
        assert elapsed < 900.0, f"experiment took {elapsed:.0f}s (budget 15 min)"


@pytest.mark.slow
def test_criterion_6_whole_network_trend(default_run):
    with criterion(6, "every whole-network variant at or below random"):
        _, summary, _, _ = default_run
        arms = summary["arms"]
        random_err = arms["random"]["token_error_rate"]
        for variant in ("whole_y1", "whole_y2", "whole_y3"):
            err = arms[variant]["token_error_rate"]
            print(f"\n  {variant}={err:.4f} vs random={random_err:.4f}")
            assert err <= random_err


@pytest.mark.slow
def test_criterion_7_delay_trend(default_run):
    with criterion(7, "pre-trained models emit earlier than random"):
        _, summary, _, _ = default_run
        arms = summary["arms"]
        random_delay = arms["random"]["mean_delay"]
        ce_delay = arms["encoder_ce"]["mean_delay"]
        whole_delay = arms["whole_y3"]["mean_delay"]
        print(f"\n  delay random={random_delay} encoder_ce={ce_delay} "
              f"whole_y3={whole_delay}")
        assert random_delay is not None and ce_delay is not None and whole_delay is not None
        assert ce_delay < random_delay
        assert whole_delay < random_delay


def test_criterion_8_beam_properties():
    with criterion(8, "beam width 1 equals greedy; width 5 never below greedy"):
        rng = np.random.default_rng(8008)
        for _ in range(50):
            t_len = int(rng.integers(1, 5))
            z = 1.5 * rng.normal(size=(t_len, 8, int(rng.integers(2, 6))))
            table = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            tm = TableModel(table)
            greedy = greedy_decode(tm)
            w1, _ = beam_decode(tm, beam_width=1)
            w5, _ = beam_decode(tm, beam_width=5)
            assert w1.prefix == greedy.prefix
            assert abs(w1.log_prob - greedy.log_prob) < 1e-12
            assert w5.log_prob >= greedy.log_prob - 1e-12


@pytest.mark.slow
def test_criterion_9_experiment_determinism(tmp_path):
    with criterion(9, "same config and seed give a byte-identical metrics CSV"):
        model = ModelConfig(input_dim=4, stack_factor=2, stack_stride=2,
                            encoder_layers=1, prediction_layers=1, hidden=12,
                            projection=8, vocab_size=5)
        cfg = ExperimentConfig(model=model, seed=31, num_train=6, num_test=3,
                               words_per_utt=(1, 2), pieces_per_word=(1, 2),
                               noise=0.15, pretrain_epochs=2, train_epochs=3,
                               batch_size=4, beam_width=3,
                               arms=("random", "encoder_ce", "whole_y2"))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert csv_a == csv_b
