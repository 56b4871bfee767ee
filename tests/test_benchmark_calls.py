"""The benchmark's calls into pivotlab.

perfbench/child.py builds each workload's inputs with corpus and model
functions, and its tracer reads the decode results of `evaluate` and the
training calls of `train` and `model`. A change to a signature, a result
field or a calling thread that they rely on breaks the benchmark; these
tests run those calls as the benchmark does, on seed 1.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402


def _child(*args) -> None:
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_builds_the_inputs(tmp_path, workload):
    _child("setup", workload, "1", str(tmp_path))
    assert json.loads((tmp_path / "config.json").read_text()) == workloads.config(workload)
    assert "decodes" in json.loads((tmp_path / "inputs.json").read_text())


def test_traced_decode_ends_every_item(tmp_path):
    inputs, trace = tmp_path / "inputs", tmp_path / "op.spans.json"
    _child("setup", "decode", "1", str(inputs))
    _child("--spans", str(trace), "cli", "--",
           *workloads.cli_args("decode", 1, str(inputs), str(tmp_path / "out")))
    counts = spans.layer_metrics(spans.load_spans(str(trace)))
    assert sum(counts[f"evaluate.terminated.{t}"] for t in spans.TERMINATIONS) == 200


def test_traced_train_runs_every_forward_as_training(tmp_path):
    """The tracer keeps one span stack for one thread: each `model.forward` span finds
    `train.train` as its parent only while forward stays on the caller's thread and
    runs its row parts on the pool."""
    inputs, trace = tmp_path / "inputs", tmp_path / "op.spans.json"
    _child("setup", "train", "1", str(inputs))
    _child("--spans", str(trace), "cli", "--",
           *workloads.cli_args("train", 1, str(inputs), str(tmp_path / "out")))
    recorded = spans.load_spans(str(trace))
    counts = spans.layer_metrics(recorded)
    want = json.loads((inputs / "inputs.json").read_text())
    assert (want["steps"], want["tokens"]) == (34, 55510)
    assert (counts["train.steps"], counts["train.tokens"]) == (want["steps"], want["tokens"])
    roles = [s.attrs["role"] for s in recorded if s.name == "model.forward"]
    assert roles == ["train"] * want["steps"]
