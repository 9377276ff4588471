"""Mutation sweep over the program's three kinds of input file.

Each example sets one field of a config (run through ``experiment``), of one
corpus line (through ``train``, ``decode`` and ``pretrain --variant y3``) or
of a checkpoint's config (through ``decode`` and ``train --init``) to a value
drawn from fixed value classes: negative, zero, huge, bool, null, string,
short lists and reversed lists. The classes are chosen without reference to
any field's declared bounds. The property holds for every input:

* ``cli.main`` returns 0, or returns 2 after exactly one ``error:`` line;
* it never raises and never emits a ``RuntimeWarning``;
* a 0 exit writes only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnt_lab.cli import main
from rnnt_lab.harness import ExperimentConfig
from rnnt_lab.model import ModelConfig

# one tiny experiment, with a pre-trained arm so the pre-training fields are read
BASE_CONFIG = ExperimentConfig(
    model=ModelConfig(input_dim=4, stack_factor=2, stack_stride=2, encoder_layers=1,
                      prediction_layers=1, hidden=10, projection=6, vocab_size=5),
    seed=5, num_train=4, num_test=2, words_per_utt=(1, 2), pieces_per_word=(1, 2), noise=0.1,
    pretrain_epochs=1, train_epochs=1, batch_size=2, beam_width=2,
    arms=("random", "enc-ce")).to_dict()

# 22 values a field; every test below sets max_examples above its number of
# (field, value) pairs, so hypothesis runs each pair once and then stops
VALUE_CLASSES = {
    "negative": st.sampled_from([-1, -0.5, -1e300, -10**400]),
    "zero": st.sampled_from([0, 0.0]),
    "huge": st.sampled_from([10**9, 10**30, 1e300, 10**400]),
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.sampled_from(["", "x", "1"]),
    "short list": st.sampled_from([[], [0], [1], [-1, 2], [0.5, 0.5]]),
    "reversed list": st.just("reversed"),  # the field's own list reversed, else [3, 1]
}

# The largest number the sweep gives a field. A larger one is valid input
# whose cost grows with it: it would test the host's memory and time, not
# the input checks.
CAPS = {
    # model extents size every weight and activation: hidden 10**6 asks for a
    # (10**6, 4 * 10**6) recurrent matrix, and each raw frame is repeated
    # stack_stride times
    "input_dim": 8, "stack_factor": 4, "stack_stride": 4, "encoder_layers": 3,
    "prediction_layers": 3, "hidden": 16, "projection": 16, "vocab_size": 12,
    # counts and epochs multiply the work: every utterance is generated,
    # trained in every epoch and decoded
    "num_train": 8, "num_test": 4, "pretrain_epochs": 3, "train_epochs": 3,
    # the beam scores beam_width hypotheses at every expansion
    "beam_width": 8,
    # an untrained model never empties the expansion pool, so each frame
    # expands up to this many symbols; 10**6 exhausts the host's memory
    "max_symbols_per_frame": 8,
}


def _mutation(paths, current):
    """A (path, value) strategy over the given field paths of a record, where
    ``current(path)`` reads the field's present value."""
    @st.composite
    def draw_mutation(draw):
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(sorted(VALUE_CLASSES)).flatmap(VALUE_CLASSES.get))
        if value == "reversed":
            old = current(path)
            value = old[::-1] if isinstance(old, list) else [3, 1]
        cap = CAPS.get(path[-1])
        if cap is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
            value = min(value, cap)
        return path, value
    return draw_mutation()


def _get(record, path):
    for key in path:
        record = record[key]
    return record


def _set(record, path, value):
    record = json.loads(json.dumps(record))
    _get(record, path[:-1])[path[-1]] = value
    return record


def _floats(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for entry in value:
            yield from _floats(entry)
    elif isinstance(value, float):
        yield value


def _assert_finite_numbers(path: Path):
    """Every number in a written JSON, JSON-lines or CSV file is finite."""
    text = path.read_text()
    if path.suffix == ".csv":
        numbers = []
        for cell in text.replace("\n", ",").split(","):
            try:
                numbers.append(float(cell))  # "nan" and "inf" parse too
            except ValueError:  # a header, an arm name or a hex hash
                pass
    else:
        lines = text.splitlines() if path.suffix == ".jsonl" else [text]
        numbers = [x for line in lines if line for x in _floats(json.loads(line))]
    assert all(map(math.isfinite, numbers)), path


def _check_cli(argv, outputs):
    """Run ``main(argv)`` and check the sweep's property; ``outputs`` are the
    paths (files, or directories of files) the command writes."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught[0].message
    if rc == 0:
        for out in map(Path, outputs):
            for path in sorted(out.iterdir()) if out.is_dir() else [out]:
                _assert_finite_numbers(path)
    else:
        assert rc == 2, rc
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """The base config, its corpus, and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("sweep")
    config = root / "cfg.json"
    config.write_text(json.dumps(BASE_CONFIG))
    assert main(["gen-corpus", "--config", str(config), "--out-dir", str(root)]) == 0
    ckpt = root / "model.json"
    assert main(["train", "--config", str(config), "--corpus", str(root / "train.jsonl"),
                 "--out", str(ckpt)]) == 0
    return root


CONFIG_PATHS = [(name,) for name in BASE_CONFIG if name != "model"] + [
    ("model", name) for name in BASE_CONFIG["model"]]


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(mutation=_mutation(CONFIG_PATHS, lambda path: _get(BASE_CONFIG, path)))
def test_config_field_mutation_runs_or_is_one_error_line(base_files, mutation):
    with tempfile.TemporaryDirectory(dir=base_files) as tmp:
        config = Path(tmp, "cfg.json")
        config.write_text(json.dumps(_set(BASE_CONFIG, *mutation)))
        out_dir = Path(tmp, "exp")
        _check_cli(["experiment", "--config", str(config), "--out-dir", str(out_dir)],
                   [out_dir])


# line 2 of the base corpus holds two words; the paths reach every field of it
CORPUS_PATHS = [("id",), ("features",), ("features", 1), ("features", 1, 0), ("words",),
                ("words", 0), ("words", 0, "word"), ("words", 0, "pieces"),
                ("words", 0, "pieces", 0), ("words", 0, "start"), ("words", 0, "end"),
                ("words", 1, "start"), ("words", 1, "end"), ("transcript",),
                ("transcript", 0)]


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_corpus_field_mutation_runs_or_is_one_error_line(base_files, data):
    lines = (base_files / "train.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    assert len(record["words"]) == 2
    lines[1] = json.dumps(_set(record, *data.draw(
        _mutation(CORPUS_PATHS, lambda path: _get(record, path)))))
    config, ckpt = str(base_files / "cfg.json"), str(base_files / "model.json")
    with tempfile.TemporaryDirectory(dir=base_files) as tmp:
        corpus = Path(tmp, "train.jsonl")
        corpus.write_text("\n".join(lines) + "\n")
        model, nbest, pre = (str(Path(tmp, name)) for name in ("m.json", "n.jsonl", "p.json"))
        for argv, outputs in [
                (["train", "--config", config, "--out", model], [model]),
                (["decode", "--config", config, "--checkpoint", ckpt, "--out", nbest],
                 [nbest, nbest + ".delay.csv"]),
                (["pretrain", "--variant", "y3", "--config", config, "--out", pre],
                 [pre, pre + ".manifest.json"])]:
            _check_cli(argv + ["--corpus", str(corpus)], outputs)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_checkpoint_config_mutation_runs_or_is_one_error_line(base_files, data):
    payload = json.loads((base_files / "model.json").read_text())
    paths = [("config", name) for name in payload["config"]]
    payload = _set(payload, *data.draw(_mutation(paths, lambda path: _get(payload, path))))
    config = str(base_files / "cfg.json")
    with tempfile.TemporaryDirectory(dir=base_files) as tmp:
        ckpt = Path(tmp, "model.json")
        ckpt.write_text(json.dumps(payload))
        model, nbest = str(Path(tmp, "m.json")), str(Path(tmp, "n.jsonl"))
        _check_cli(["decode", "--config", config, "--checkpoint", str(ckpt),
                    "--corpus", str(base_files / "test.jsonl"), "--out", nbest],
                   [nbest, nbest + ".delay.csv"])
        _check_cli(["train", "--config", config, "--corpus", str(base_files / "train.jsonl"),
                    "--init", str(ckpt), "--out", model], [model])
