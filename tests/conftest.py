import json
import os
import shutil
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from pivotlab import corpus, model

# The same examples on every run, and nothing written into the checkout: no
# example database, and hypothesis's cache of source constants goes to a
# temporary directory instead of ./.hypothesis.
settings.register_profile("pivotlab", derandomize=True, database=None, deadline=None)
settings.load_profile("pivotlab")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "pivotlab-hypothesis"))


@pytest.fixture
def pivotlab_command(tmp_path_factory, monkeypatch):
    """Put a `pivotlab` shim on PATH when the console script is not installed.

    The shim runs this interpreter on `pivotlab.cli` and inherits the
    environment, PYTHONPATH included. Tests that shell out to `pivotlab` at a
    small config request it; the full-scale criteria 6 and 7 do not, so a
    plain run stays within seconds and they run only where the package is
    installed.
    """
    if shutil.which("pivotlab") is not None:
        return
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "pivotlab"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m pivotlab.cli "$@"\n')
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")


@pytest.fixture(scope="session")
def languages():
    return corpus.default_languages()


@pytest.fixture(scope="session")
def vocab(languages):
    return corpus.build_vocab(languages)


@pytest.fixture(scope="session")
def tiny_config(vocab):
    return model.ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2,
                             d_ff=16, max_context=128, rng_seed=3, dtype="float64")


@pytest.fixture()
def tiny_ckpt(tiny_config):
    return model.init(tiny_config)


# One way each to break a stored PIVOTED row; load_jsonl must reject all.
MALFORMED_ROWS = {
    "unknown_regime": lambda row: {**row, "regime": "MIXED"},
    "answer_lang_unknown": lambda row: {**row, "answer_lang": "FRENCH"},
    "answer_lang_off_regime": lambda row: {**row, "answer_lang": "PIVOT"},
    "separator_inside_cot": lambda row: {**row, "cot": row["cot"].replace(";", "</think>", 1)},
    "row_not_object": lambda row: list(row.values()),
    "question_not_string": lambda row: {**row, "question": 5},
    "target_word_in_pivot_trace":
        lambda row: {**row, "cot": row["cot"].replace("step", "pasi", 1)},
    "native_row_with_pivot_trace": lambda row: {**row, "regime": "NATIVE", "cot_lang": "TARGET"},
    "answer_phrase_alone": lambda row: {**row, "answer": row["answer"].rsplit(" ", 1)[0]},
    "answer_two_numbers": lambda row: {**row, "answer": row["answer"] + " 7"},
    "answer_number_first": lambda row: {**row, "answer": "41 tena vasti den"},
}


@pytest.fixture(params=sorted(MALFORMED_ROWS))
def malformed_dataset(request, tmp_path, vocab, languages):
    """Path of a one-row dataset file broken in one way."""
    sample = corpus.make_sample(corpus.gen_problem(1), "PIVOTED", "row-0", vocab, languages)
    path = tmp_path / "malformed.jsonl"
    corpus.save_jsonl([sample], str(path))
    row = MALFORMED_ROWS[request.param](json.loads(path.read_text()))
    path.write_text(json.dumps(row) + "\n")
    return str(path)


# One way each to break a checkpoint manifest; model.load must reject all.
MALFORMED_MANIFESTS = {
    "missing_step": lambda m: {k: v for k, v in m.items() if k != "step"},
    "unknown_config_key": lambda m: {**m, "config": {**m["config"], "colour": "blue"}},
    "config_not_object": lambda m: {**m, "config": [1, 2]},
    "n_layers_bool": lambda m: {**m, "config": {**m["config"], "n_layers": True}},
    # refused before the 8 * n_layers parameter paths are listed
    "n_layers_huge": lambda m: {**m, "config": {**m["config"], "n_layers": 10**9}},
    "d_model_float": lambda m: {**m, "config": {**m["config"], "d_model": 8.0}},
    "step_not_int": lambda m: {**m, "step": "x"},
    "step_negative": lambda m: {**m, "step": -1},
    "v1_magic": lambda m: {**m, "magic": "pivotlab-checkpoint-v1"},
    "v2_magic": lambda m: {**m, "magic": "pivotlab-checkpoint-v2"},
}


@pytest.fixture(params=sorted(MALFORMED_MANIFESTS))
def malformed_checkpoint(request, tmp_path, tiny_ckpt):
    """Path of a checkpoint file whose manifest line is broken in one way."""
    path = tmp_path / "malformed.ckpt"
    model.save(tiny_ckpt, str(path))
    manifest_line, payload = path.read_bytes().split(b"\n", 1)
    manifest = MALFORMED_MANIFESTS[request.param](json.loads(manifest_line))
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    return str(path)
