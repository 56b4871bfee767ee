"""Checks on the benchmark's own tracing code.

    python -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spans  # noqa: E402


def _span(i, name, start, end, parent=None, **attrs):
    return spans.Span(id=i, name=name, start=start, end=end, parent=parent, run="t", attrs=attrs)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "train.train", 1.0, 4.0, parent=0),
        _span(2, "model.forward", 1.5, 2.0, parent=1, role="train", positions=6),
        _span(3, "model.backward", 2.0, 3.5, parent=1),
        # Children that overlap each other or run past the parent count once.
        _span(4, "evaluate.score", 5.0, 8.0, parent=0),
        _span(5, "evaluate.generate_batch", 6.0, 9.0, parent=4),
        _span(6, "model.forward", 7.0, 8.5, parent=5, role="decode", positions=4),
        _span(7, "analysis.delta_map", 7.5, 9.0, parent=0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5 - 1.5)
    assert selfs[4] == pytest.approx(3.0 - 2.0)
    assert selfs[5] == pytest.approx(3.0 - 1.5)
    assert selfs[6] == pytest.approx(1.5)

    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["train.train.self_s"] == pytest.approx(1.0)
    assert m["model.forward.train.s"] == pytest.approx(0.5)
    assert m["model.forward.train.positions"] == 6
    assert m["model.forward.decode.calls"] == 1


def test_traced_restores_module_attributes():
    from pivotlab import cli, model, train

    originals = {(mod, name): getattr(__import__(f"pivotlab.{mod}", fromlist=[name]), name)
                 for mod, names in spans.TRACED.items() for name in names}
    recorder = spans.Recorder("t")
    with pytest.raises(RuntimeError):
        with spans.traced(recorder):
            assert model.forward is not originals[("model", "forward")]
            assert model.forward.__wrapped__ is originals[("model", "forward")]
            raise RuntimeError("leave the block by an error")
    for (mod, name), fn in originals.items():
        assert getattr(__import__(f"pivotlab.{mod}", fromlist=[name]), name) is fn
    assert cli.main is originals[("cli", "main")]
    assert train.train is originals[("train", "train")]


def test_forward_role_and_errors_are_recorded(tiny_ckpt):
    from pivotlab import model

    recorder = spans.Recorder("t")
    with spans.traced(recorder):
        model.forward(tiny_ckpt, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [])
    m = spans.layer_metrics(recorder.spans)
    assert m["model.errors"] == 1
    assert recorder.spans[0].attrs == {"role": "other", "positions": 6}


@pytest.fixture()
def tiny_ckpt():
    from pivotlab import corpus, model

    vocab = corpus.build_vocab(corpus.default_languages())
    cfg = model.ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                            d_ff=16, max_context=16, rng_seed=1)
    return model.init(cfg)


def test_peak_rss_adds_up_processes_that_run_side_by_side(tmp_path):
    import run

    # Two workers of ~80 MB each live at the same time for half a second.
    hold = "import time; b = bytearray(80 << 20); b[::4096] = b'x' * len(b[::4096]); time.sleep(0.5)"
    parent = ("import subprocess, sys; "
              f"ps = [subprocess.Popen([sys.executable, '-c', {hold!r}]) for _ in range(2)]; "
              "[p.wait() for p in ps]")
    res = run.run_process([sys.executable, "-c", parent], str(tmp_path / "log"),
                          deadline=run.time.monotonic() + 30)
    assert res["code"] == 0
    assert res["peak_rss_mb"] > 150
