"""Desk-scale RNN-T training laboratory.

A numpy-backed sequence-transducer stack small enough to read end to end:
tape-based reverse-mode numerics, LSTM encoder / prediction / joint model,
transducer and CTC losses with enumeration oracles, alignment-derived label
tensors for pre-training, frame-synchronous decoders with emission-delay
analysis, and a synthetic-corpus experiment harness.
"""

from .alignment import (WordSpan, allocate_frames, build_frame_alignment, collapse,
                        short_pause_spans)
from .corpus import Utterance, load_corpus, piece_word_map, save_corpus
from .decoding import (DelayStats, Hypothesis, ModelDecoder, TableModel,
                       beam_decode, greedy_decode, measure_delay)
from .errors import (ConfigError, DegenerateUtterance, LabError,
                     NumericsError, ShapeError)
from .harness import (ExperimentConfig, MetricsRow, edit_distance, gen_corpus,
                      run_experiment, train_transducer)
from .loss import (LogLattice, LossOutput, ctc_brute_force, ctc_loss,
                   frame_ce_loss, lm_ce_loss, masked_ce_3d, rnnt_brute_force,
                   rnnt_lattice, rnnt_loss)
from .model import (Affine, ModelConfig, TransducerModel, load_checkpoint,
                    save_checkpoint, stack_frames)
from .numerics import Adam, Tape, Tensor, grad_check, logsumexp
from .pretrain import (LabelTensor, build_y1, build_y2, build_y3, label_logits,
                       pretrain_encoder_ce, pretrain_encoder_ctc,
                       pretrain_prediction_lm, pretrain_whole_network)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
