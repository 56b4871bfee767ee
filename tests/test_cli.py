import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import pivotlab
from pivotlab import cli, corpus, model, train


TINY_CFG = {
    "corpus": {"n_target": 12, "mix_ratio": 0.5, "regime": "PIVOTED",
               "max_steps": 2, "value_cap": 50},
    "model": {"d_model": 8, "n_layers": 2, "n_heads": 2, "d_ff": 16,
              "max_context": 128, "dtype": "float32"},
    "train": {"epochs": 1, "batch_size": 6, "lr": 1e-3},
    "eval": {"mode": "sample", "max_new_tokens": 24},
    "analysis": {"n_retrieval_items": 4, "scope": "QUESTION_ONLY"},
    "reproduce": {"seeds": [5], "epochs": 1, "n_test": 4},
    "seed": 5,
}


# One way each to break the config schema, laid over TINY_CFG. Each must be
# rejected with exit 3 before any work. The comment says what `reproduce`
# does with the value when the config is not checked at load: exit 0 means
# the value is silently ignored or misread, 1 a traceback, 5 a late
# rejection as bad data.
MALFORMED_CONFIGS = {
    "max_context_string": {"model": {"max_context": "big"}},  # 1
    "max_context_zero": {"model": {"max_context": 0}},  # 5
    "n_heads_zero": {"model": {"n_heads": 0}},  # 1
    "model_key_typo": {"model": {"d_modle": 999}},  # 0
    "train_key_typo": {"train": {"lr_typo": 1.0}},  # 0
    "batch_size_zero": {"train": {"batch_size": 0}},  # 5
    "betas_string": {"train": {"betas": "x"}},  # 1
    "betas_one_value": {"train": {"betas": [0.9]}},  # 1
    "epochs_string": {"train": {"epochs": "3"}},  # 0
    "epochs_bool": {"train": {"epochs": True}},  # 0
    "reproduce_epochs_zero": {"reproduce": {"epochs": 0}},  # 1
    "reproduce_n_test_zero": {"reproduce": {"n_test": 0}},  # 5
    "seeds_string": {"reproduce": {"seeds": "5"}},  # 1
    "seeds_of_strings": {"reproduce": {"seeds": ["5"]}},  # 1
    "seeds_empty": {"reproduce": {"seeds": []}},  # 1
    "seeds_repeated": {"reproduce": {"seeds": [5, 5]}},  # 0, the same seed run twice
    "seed_negative": {"seed": -1},  # 1
    "eval_mode_beam": {"reproduce": {"eval_mode": "beam"}},  # 5, after training
    "nucleus_p_two": {"eval": {"nucleus_p": 2.0}},  # 5, after training
    "eval_n_test": {"eval": {"n_test": 1}},  # 0
    "temperature_nan": {"eval": {"temperature": float("nan")}},  # 0
    "scope_bogus": {"analysis": {"scope": "BOGUS"}},  # 5, after training and evals
    "retrieval_items_zero": {"analysis": {"n_retrieval_items": 0}},  # 1
    "mix_ratio_two": {"corpus": {"mix_ratio": 2.0}},  # 5
}


def _tiny_with(override: dict) -> dict:
    cfg = json.loads(json.dumps(TINY_CFG))
    for key, value in override.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _key_paths(cfg: dict, prefix=()) -> list:
    paths = []
    for key, value in cfg.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(_key_paths(value, prefix + (key,)))
    return paths


# Python's json also reads NaN and Infinity; st.floats() alone rarely draws them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=6)


def _run_module(argv: list) -> subprocess.CompletedProcess:
    """`python -m pivotlab.cli` on this source tree, in a subprocess."""
    src = os.path.dirname(os.path.dirname(pivotlab.__file__))
    return subprocess.run([sys.executable, "-m", "pivotlab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(TINY_CFG))
    return str(p)


@pytest.fixture
def workspace(tmp_path, cfg_path):
    """Config path plus a generated dataset and a trained checkpoint."""
    data_dir = tmp_path / "data"
    train_dir = tmp_path / "model"
    assert cli.main(["gen-data", "--config", cfg_path, "--out", str(data_dir)]) == 0
    assert cli.main(["train", "--config", cfg_path, "--out", str(train_dir),
                     "--data", str(data_dir / "dataset.jsonl")]) == 0
    return {
        "cfg": cfg_path,
        "data": str(data_dir / "dataset.jsonl"),
        "ckpt": str(train_dir / "final.ckpt"),
        "tmp": tmp_path,
    }


class TestConfig:
    def test_defaults_complete(self):
        cfg = cli.load_config(None)
        assert set(cfg) == {"corpus", "model", "train", "eval", "analysis",
                            "reproduce", "seed"}

    def test_deep_merge_preserves_unset_keys(self, cfg_path):
        cfg = cli.load_config(cfg_path)
        assert cfg["train"]["epochs"] == 1
        assert cfg["train"]["alpha"] == cli.DEFAULT_CONFIG["train"]["alpha"]

    def test_seed_override(self, cfg_path):
        assert cli.load_config(cfg_path, seed_override=99)["seed"] == 99

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"optimizer": {}}')
        with pytest.raises(cli.CliError) as exc:
            cli.load_config(str(p))
        assert exc.value.exit_code == cli.EXIT_BAD_CONFIG

    def test_missing_config_file(self):
        with pytest.raises(cli.CliError) as exc:
            cli.load_config("/nonexistent/config.json")
        assert exc.value.exit_code == cli.EXIT_MISSING_FILE

    def test_int_stands_for_float(self, tmp_path):
        p = tmp_path / "int_lr.json"
        p.write_text('{"train": {"lr": 1}, "corpus": {"mix_ratio": 0}}')
        cfg = cli.load_config(str(p))
        assert cfg["train"]["lr"] == 1 and cfg["corpus"]["mix_ratio"] == 0

    def test_default_config_hash_is_pinned(self):
        # Changes when any default changes; artifacts carry this hash in `meta`.
        assert cli.config_hash(cli.load_config(None)) == "9d12fd2e65112273"

    @pytest.mark.parametrize("override", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
    def test_malformed_config_rejected_before_work(self, tmp_path, capsys, override):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(_tiny_with(override)))
        out = tmp_path / "repro"
        rc = cli.main(["reproduce", "--config", str(p), "--out", str(out)])
        assert rc == cli.EXIT_BAD_CONFIG
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_CONFIG
        assert not out.exists()

    @settings(max_examples=1000)  # a value that only one type rule rejects is rare
    @given(path=st.sampled_from(_key_paths(cli.DEFAULT_CONFIG)), value=JSON_VALUES)
    def test_any_value_is_taken_as_typed_or_rejected(self, tmp_path_factory, path, value):
        user = value
        for key in reversed(path):
            user = {key: user}
        p = tmp_path_factory.getbasetemp() / "any_value.json"
        p.write_text(json.dumps(user))
        try:
            cfg = cli.load_config(str(p))
        except cli.CliError as exc:
            assert exc.exit_code == cli.EXIT_BAD_CONFIG
            return
        default, got = cli.DEFAULT_CONFIG, cfg
        for key in path:
            default, got = default[key], got[key]
        if isinstance(default, dict):
            assert set(got) == set(default)
        else:
            assert got == value
            assert type(value) is type(default) or (type(default) is float
                                                    and type(value) is int)
            assert not isinstance(value, float) or math.isfinite(value)

    def test_config_hash_stable_and_order_free(self):
        a = cli.config_hash({"x": 1, "y": {"z": 2}})
        b = cli.config_hash({"y": {"z": 2}, "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != cli.config_hash({"x": 1, "y": {"z": 3}})


class TestGenData:
    def test_outputs_and_determinism(self, tmp_path, cfg_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(out1)]) == 0
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(out2)]) == 0
        for name in ("dataset.jsonl", "vocab.json"):
            assert (out1 / name).exists()
            assert (out1 / (name + ".meta.json")).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        lines = (out1 / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 12 + 6  # n_target + ceil(mix * n_target)

    def test_sidecar_metadata(self, tmp_path, cfg_path):
        out = tmp_path / "o"
        cli.main(["gen-data", "--config", cfg_path, "--out", str(out)])
        meta = json.loads((out / "dataset.jsonl.meta.json").read_text())
        assert set(meta) == {"config_hash", "seed", "tool_version", "created_unix"}
        assert meta["seed"] == 5


class TestTrainCommand:
    def test_artifacts(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        train_dir = os.path.dirname(workspace["ckpt"])
        assert os.path.exists(os.path.join(train_dir, "train_log.csv"))
        assert os.path.exists(os.path.join(train_dir, "epoch1.ckpt"))
        ckpt = model.load(workspace["ckpt"])
        assert ckpt.config.d_model == 8
        assert ckpt.step == 3  # 18 samples / batch 6 * 1 epoch
        names = os.listdir(train_dir)
        for name in (n for n in names if not n.endswith(".meta.json")):
            assert name + ".meta.json" in names, name

    def test_missing_data_file(self, tmp_path, cfg_path):
        rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "t"),
                       "--data", str(tmp_path / "nope.jsonl")])
        assert rc == cli.EXIT_MISSING_FILE

    def test_malformed_dataset(self, tmp_path, cfg_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "t"),
                       "--data", str(bad)])
        assert rc == cli.EXIT_BAD_CONFIG

    def test_undecodable_dataset(self, tmp_path, cfg_path, capsys):
        # a dataset that is not UTF-8 exits 3, like a line that is not JSON
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + json.dumps({"id": "x"}).encode() + b"\n")
        rc = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "t"),
                       "--data", str(bad)])
        assert rc == cli.EXIT_BAD_CONFIG
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_CONFIG

    def test_over_length_sample(self, tmp_path, cfg_path):
        cfg = json.loads(json.dumps(TINY_CFG))
        cfg["model"]["max_context"] = 32
        cfg["corpus"]["max_steps"] = 5
        p = tmp_path / "small_ctx.json"
        p.write_text(json.dumps(cfg))
        data = tmp_path / "d"
        assert cli.main(["gen-data", "--config", str(p), "--out", str(data)]) == 0
        rc = cli.main(["train", "--config", str(p), "--out", str(tmp_path / "t"),
                       "--data", str(data / "dataset.jsonl")])
        assert rc == cli.EXIT_OVER_LENGTH

    def test_overflow_fails_with_one_stderr_line(self, tmp_path):
        # In a subprocess: in-process, pytest's own warning capture would hide
        # numpy's overflow warnings, which the training pool's threads raise.
        cfg = _tiny_with({"train": {"epochs": 2, "batch_size": 32, "lr": 1e30}})
        p = tmp_path / "huge_lr.json"
        p.write_text(json.dumps(cfg))
        data, out = tmp_path / "data", tmp_path / "t"
        assert cli.main(["gen-data", "--config", str(p), "--out", str(data)]) == 0
        proc = _run_module(["train", "--config", str(p), "--out", str(out),
                            "--data", str(data / "dataset.jsonl")])
        assert proc.returncode == cli.EXIT_BAD_DATA
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["exit_code"] == cli.EXIT_BAD_DATA
        # the one epoch that finished left its checkpoint, with its sidecar
        assert sorted(os.listdir(out)) == ["epoch1.ckpt", "epoch1.ckpt.meta.json"]


def _save_init_ckpt(path, max_context: int = 128, vocab_size: int = len(cli.VOCAB),
                    scale: float = 1.0) -> str:
    """A freshly initialised tiny checkpoint, every weight multiplied by `scale`."""
    mcfg = model.ModelConfig(vocab_size=vocab_size,
                             **{**TINY_CFG["model"], "max_context": max_context})
    ckpt = model.init(mcfg)
    for w in ckpt.params.values():
        w *= scale
    model.save(ckpt, str(path))
    return str(path)


def _error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# One way each to misuse the command line; "{out}" stands for an --out directory.
USAGE_ERRORS = {
    "unknown_command": ["bogus", "--out", "{out}"],
    "no_command": [],
    "unknown_flag": ["gen-data", "--out", "{out}", "--bogus"],
    "missing_required_flag": ["eval", "--out", "{out}", "--ckpt", "a.ckpt"],
    "seed_not_int": ["train", "--out", "{out}", "--data", "d.jsonl", "--seed", "x"],
    "bad_scope": ["retrieval", "--out", "{out}", "--ckpt", "a.ckpt", "--scope", "BAD"],
    "bad_cot_lang": ["eval", "--out", "{out}", "--ckpt", "a.ckpt", "--testset", "t.jsonl",
                     "--cot-lang", "FRENCH"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_exit_3_with_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [str(out) if a == "{out}" else a for a in argv]
        assert cli.main(argv) == cli.EXIT_BAD_CONFIG
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_CONFIG
        proc = _run_module(argv)
        assert proc.returncode == cli.EXIT_BAD_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["exit_code"] == cli.EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["eval", "--help"]])
    def test_help_and_version_exit_0(self, argv):
        proc = _run_module(argv)
        assert proc.returncode == cli.EXIT_OK
        assert proc.stdout and not proc.stderr


# Each command that reads a checkpoint, with the flags it needs besides the checkpoint.
CHECKPOINT_COMMANDS = {
    "eval": lambda ckpt, data: ["eval", "--ckpt", ckpt, "--testset", data],
    "retrieval_question_only": lambda ckpt, data: ["retrieval", "--ckpt", ckpt,
                                                   "--scope", "QUESTION_ONLY"],
    "retrieval_question_plus_cot": lambda ckpt, data: ["retrieval", "--ckpt", ckpt,
                                                       "--scope", "QUESTION_PLUS_COT"],
    "delta": lambda ckpt, data: ["delta", "--ckpt-a", ckpt, "--ckpt-b", ckpt],
}


class TestUnusableCheckpoint:
    """A checkpoint that `model.load` accepts but that the commands cannot use is bad data."""

    @pytest.fixture
    def refused(self, tmp_path, cfg_path, capsys):
        """Check that a command exits 5 with one error line on a checkpoint."""
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
        capsys.readouterr()

        def check(command, ckpt):
            argv = CHECKPOINT_COMMANDS[command](ckpt, str(data / "dataset.jsonl"))
            rc = cli.main(argv + ["--config", cfg_path, "--out", str(tmp_path / "out")])
            assert rc == cli.EXIT_BAD_DATA
            assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA
        return check

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    def test_other_vocabulary(self, tmp_path, refused, command):
        refused(command, _save_init_ckpt(tmp_path / "v60.ckpt", vocab_size=60))

    # Weights 1e10 times their init are finite, so `load` takes them, but the float32
    # forward overflows to NaN after the embedding.
    @pytest.mark.parametrize("command", sorted(set(CHECKPOINT_COMMANDS) - {"delta"}))
    def test_non_finite_forward(self, tmp_path, refused, command):
        refused(command, _save_init_ckpt(tmp_path / "huge.ckpt", scale=1e10))

    # From 1e20 up the float32 layernorm variance overflows to inf instead, which
    # would make the forward finite zeros: eval would score "accuracy 0.0000".
    @pytest.mark.parametrize("scale", [1e20, 1e25, 1e30])
    @pytest.mark.parametrize("command", sorted(set(CHECKPOINT_COMMANDS) - {"delta"}))
    def test_layernorm_overflow(self, tmp_path, refused, command, scale):
        refused(command, _save_init_ckpt(tmp_path / "huge.ckpt", scale=scale))


class TestEvalCommand:
    def test_report_and_records(self, workspace):
        out = workspace["tmp"] / "eval"
        rc = cli.main(["eval", "--config", workspace["cfg"], "--out", str(out),
                       "--ckpt", workspace["ckpt"], "--testset", workspace["data"]])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["n"] == 18
        assert set(report["by_regime"]) <= {"PIVOTED", "PIVOT_ONLY"}
        assert report["meta"]["seed"] == 5
        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 18
        assert all(r["terminated"] in {"EOS", "SEPARATOR_MISSING", "LENGTH"}
                   for r in records)

    def test_eval_deterministic(self, workspace):
        out1 = workspace["tmp"] / "e1"
        out2 = workspace["tmp"] / "e2"
        for out in (out1, out2):
            assert cli.main(["eval", "--config", workspace["cfg"], "--out", str(out),
                             "--ckpt", workspace["ckpt"],
                             "--testset", workspace["data"]]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()

    def test_default_cot_lang_is_each_rows_own(self, tmp_path):
        """A NATIVE file with its pivot-only mix scores each row against its own trace
        language, so the records do not depend on which row comes first."""
        p = tmp_path / "native.json"
        p.write_text(json.dumps(_tiny_with({"corpus": {"regime": "NATIVE"}})))
        assert cli.main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == 0
        rows = (tmp_path / "d" / "dataset.jsonl").read_text().splitlines()
        rows.sort(key=lambda line: json.loads(line)["regime"])
        assert json.loads(rows[0])["regime"] != json.loads(rows[-1])["regime"]
        ckpt = _save_init_ckpt(tmp_path / "init.ckpt")
        records = []
        for order, lines in (("fwd", rows), ("rev", rows[::-1])):
            testset = tmp_path / f"{order}.jsonl"
            testset.write_text("".join(line + "\n" for line in lines))
            out = tmp_path / f"e-{order}"
            assert cli.main(["eval", "--config", str(p), "--out", str(out), "--ckpt", ckpt,
                             "--testset", str(testset)]) == 0
            recs = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
            records.append({r["id"]: r for r in recs})
        assert records[0] == records[1]
        assert len({r["conformance"] for r in records[0].values()}) > 1

    def test_bad_cot_lang(self, workspace):
        rc = cli.main(["eval", "--config", workspace["cfg"],
                       "--out", str(workspace["tmp"] / "e3"),
                       "--ckpt", workspace["ckpt"], "--testset", workspace["data"],
                       "--cot-lang", "FRENCH"])
        assert rc == cli.EXIT_BAD_CONFIG

    def test_bad_cot_lang_checked_before_any_load(self, tmp_path, capsys):
        out = tmp_path / "e5"
        rc = cli.main(["eval", "--out", str(out), "--ckpt", "/nope.ckpt",
                       "--testset", "/nope.jsonl", "--cot-lang", "FRENCH"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_CONFIG
        assert not out.exists()

    def test_missing_checkpoint(self, workspace):
        rc = cli.main(["eval", "--config", workspace["cfg"],
                       "--out", str(workspace["tmp"] / "e4"),
                       "--ckpt", "/nope.ckpt", "--testset", workspace["data"]])
        assert rc == cli.EXIT_MISSING_FILE

    def test_prompt_longer_than_context(self, tmp_path, cfg_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
        rc = cli.main(["eval", "--config", cfg_path, "--out", str(tmp_path / "e"),
                       "--ckpt", _save_init_ckpt(tmp_path / "short.ckpt", max_context=8),
                       "--testset", str(data / "dataset.jsonl")])
        assert rc == cli.EXIT_OVER_LENGTH
        assert _error_line(capsys)["exit_code"] == cli.EXIT_OVER_LENGTH

    def test_empty_testset(self, tmp_path, cfg_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = cli.main(["eval", "--config", cfg_path, "--out", str(tmp_path / "e"),
                       "--ckpt", _save_init_ckpt(tmp_path / "init.ckpt"),
                       "--testset", str(empty)])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA

    def test_malformed_checkpoint(self, tmp_path, cfg_path, malformed_checkpoint, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
        capsys.readouterr()
        rc = cli.main(["eval", "--config", cfg_path, "--out", str(tmp_path / "e"),
                       "--ckpt", malformed_checkpoint, "--testset", str(data / "dataset.jsonl")])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA

    def test_malformed_row(self, tmp_path, cfg_path, malformed_dataset, capsys):
        rc = cli.main(["eval", "--config", cfg_path, "--out", str(tmp_path / "e"),
                       "--ckpt", _save_init_ckpt(tmp_path / "init.ckpt"),
                       "--testset", malformed_dataset])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA


class _DiskFull:
    """A real file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    """A write that fails midway leaves the old file as it was and no temporary file."""

    def test_every_writer(self, tmp_path, vocab, languages, tiny_ckpt, monkeypatch):
        cfg = cli.load_config(None)
        samples = [corpus.make_sample(corpus.gen_problem(i), "PIVOTED", f"s-{i}", vocab,
                                      languages) for i in range(3)]
        rows = [{"step": n, "epoch": 1, "loss_cot": 1.0, "loss_answer": 1.0, "loss_total": 2.0,
                 "ema_cot": 1.0, "ema_answer": 1.0} for n in range(3)]
        writers = {
            "checkpoint": lambda p: model.save(tiny_ckpt, p),
            "vocab": vocab.save,
            "jsonl": lambda p: corpus.save_jsonl(samples, p),
            "csv": lambda p: train.write_log_csv(rows, p),
            "lines": lambda p: cli._write_lines(["a", "b", "c"], p, cfg),
            "json": lambda p: cli.write_json({"a": [1, 2, 3]}, p, cfg),
            "sidecar": lambda p: cli._write_sidecar(p[:-len(".meta.json")], cfg),
        }
        for name, write in writers.items():
            path = tmp_path / name / ("artifact.meta.json" if name == "sidecar" else "artifact")
            path.parent.mkdir()
            write(str(path))
            before = {f: f.read_bytes() for f in path.parent.iterdir()}
            assert path in before, name
            with monkeypatch.context() as m:
                m.setattr(pivotlab, "open", lambda *a, **k: _DiskFull(open(*a, **k)),
                          raising=False)
                with pytest.raises(OSError):
                    write(str(path))
            assert {f: f.read_bytes() for f in path.parent.iterdir()} == before, name


class TestAnalysisCommands:
    def test_retrieval_pairs_honour_value_cap(self, vocab, languages):
        cfg = cli.load_config(None)
        cfg["corpus"]["value_cap"] = 10
        pivot = languages[0]
        ops = {pivot.op_word(op): op for op in corpus.OPS}
        for _, _, pq in cli._paired_items(cfg, 64, seed=3):
            # "start with S then OP X ... then OP X . what is the result ?"
            words = vocab.detokenize(pq[1:]).split()
            v = int(words[2])
            for i in range(3, words.index("."), 3):
                op, x = ops[words[i + 1]], int(words[i + 2])
                v = {"ADD": v + x, "SUB": v - x, "MUL": v * x}[op]
                assert abs(v) <= 10

    def test_retrieval(self, workspace):
        out = workspace["tmp"] / "ret"
        rc = cli.main(["retrieval", "--config", workspace["cfg"], "--out", str(out),
                       "--ckpt", workspace["ckpt"]])
        assert rc == 0
        rep = json.loads((out / "retrieval.json").read_text())
        assert len(rep["per_layer_accuracy"]) == 3  # n_layers + 1
        assert rep["n"] == 4
        csv_lines = (out / "retrieval.csv").read_text().splitlines()
        assert csv_lines[0] == "layer,accuracy"
        assert len(csv_lines) == 4

    def test_delta(self, workspace):
        out = workspace["tmp"] / "delta"
        rc = cli.main(["delta", "--config", workspace["cfg"], "--out", str(out),
                       "--ckpt-a", workspace["ckpt"], "--ckpt-b", workspace["ckpt"]])
        assert rc == 0
        rep = json.loads((out / "delta.json").read_text())
        assert rep["grand_total"] == 0.0
        assert "L0.att_q" in rep["per_path"]

    def test_correction(self, workspace):
        tmp = workspace["tmp"]
        base = tmp / "base.jsonl"
        new = tmp / "new.jsonl"
        base.write_text('{"id": "a", "correct": true}\n{"id": "b", "correct": false}\n')
        new.write_text('{"id": "a", "correct": false}\n{"id": "b", "correct": true}\n')
        out = tmp / "corr"
        rc = cli.main(["correction", "--config", workspace["cfg"], "--out", str(out),
                       "--base-records", str(base), "--new-records", str(new)])
        assert rc == 0
        rep = json.loads((out / "correction.json").read_text())
        assert rep["rates"]["ic"] == 0.5 and rep["rates"]["ci"] == 0.5

    def test_correction_id_mismatch(self, workspace, capsys):
        tmp = workspace["tmp"]
        base = tmp / "b2.jsonl"
        new = tmp / "n2.jsonl"
        base.write_text('{"id": "a", "correct": true}\n')
        new.write_text('{"id": "z", "correct": true}\n')
        rc = cli.main(["correction", "--config", workspace["cfg"],
                       "--out", str(tmp / "c2"),
                       "--base-records", str(base), "--new-records", str(new)])
        assert rc == cli.EXIT_BAD_DATA
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == cli.EXIT_BAD_DATA
        assert "message" in err and "error" in err

    @pytest.mark.parametrize("line", ['{not json', '{"id": "a"}', '{"correct": true}',
                                      '["a", true]',
                                      pytest.param(b'\xff\xfe{"id": "a", "correct": true}',
                                                   id="not_utf8")])
    def test_correction_malformed_record(self, tmp_path, cfg_path, capsys, line):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        good.write_text('{"id": "a", "correct": true}\n')
        bad.write_bytes((line if isinstance(line, bytes) else line.encode()) + b"\n")
        rc = cli.main(["correction", "--config", cfg_path, "--out", str(tmp_path / "c"),
                       "--base-records", str(good), "--new-records", str(bad)])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA

    def test_correction_repeated_id(self, tmp_path, cfg_path, capsys):
        base = tmp_path / "base.jsonl"
        new = tmp_path / "new.jsonl"
        base.write_text('{"id": "a", "correct": true}\n{"id": "b", "correct": true}\n'
                        '{"id": "a", "correct": false}\n')
        new.write_text('{"id": "a", "correct": true}\n{"id": "b", "correct": true}\n')
        rc = cli.main(["correction", "--config", cfg_path, "--out", str(tmp_path / "c"),
                       "--base-records", str(base), "--new-records", str(new)])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA
        assert not (tmp_path / "c" / "correction.json").exists()

    def test_delta_malformed_manifest(self, tmp_path, cfg_path, capsys, malformed_checkpoint):
        rc = cli.main(["delta", "--config", cfg_path, "--out", str(tmp_path / "d"),
                       "--ckpt-a", malformed_checkpoint,
                       "--ckpt-b", _save_init_ckpt(tmp_path / "init.ckpt")])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA


class TestThreadEnv:
    def test_train_bytes_do_not_depend_on_blas_threads(self, tmp_path, pivotlab_command):
        """`pivotlab train` writes the same bytes whatever OPENBLAS_NUM_THREADS says.

        Each batch half (24 rows) is just large enough for OpenBLAS to thread
        its products, which the tiny test model never is. On a 2-core host an
        unset variable means 2 threads, so 1 is compared as well.
        """
        cfg = {"corpus": {"n_target": 48, "mix_ratio": 0.5, "max_steps": 3},
               "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 128},
               "train": {"epochs": 1, "batch_size": 48}, "seed": 7}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
        digests = {}
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(["pivotlab", "train", "--config", str(cfg_path),
                                   "--out", str(out), "--data", str(data / "dataset.jsonl")],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            digests[threads] = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in ("final.ckpt", "train_log.csv")]
        assert digests[None] == digests["1"] == digests["2"], digests


class TestSharedSteps:
    """The single commands and `reproduce` run one code path per job: at the same
    config and seed they write the same bytes."""

    @pytest.fixture(scope="class")
    def seed_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shared")
        p = tmp / "config.json"
        p.write_text(json.dumps(_tiny_with({"eval": {"mode": "greedy"}})))
        cfg = cli.load_config(str(p))
        assert cfg["train"]["epochs"] == cfg["reproduce"]["epochs"]
        assert cfg["eval"]["mode"] == cfg["reproduce"]["eval_mode"]
        assert cli.main(["reproduce", "--config", str(p), "--out", str(tmp / "repro")]) == 0
        return {"cfg": str(p), "config": cfg, "dir": tmp / "repro" / "seed5", "tmp": tmp}

    def test_train_matches_reproduce(self, seed_dir):
        d, out = seed_dir["dir"], seed_dir["tmp"] / "train"
        assert cli.main(["train", "--config", seed_dir["cfg"], "--out", str(out),
                         "--data", str(d / "dataset_pivoted.jsonl")]) == 0
        assert (out / "final.ckpt").read_bytes() == (d / "model_pivoted.ckpt").read_bytes()
        assert (out / "train_log.csv").read_bytes() == (d / "train_log_pivoted.csv").read_bytes()

    def test_retrieval_matches_reproduce(self, seed_dir):
        d, out = seed_dir["dir"], seed_dir["tmp"] / "ret"
        assert cli.main(["retrieval", "--config", seed_dir["cfg"], "--seed", "5",
                         "--out", str(out), "--ckpt", str(d / "model_pivoted.ckpt")]) == 0
        assert (out / "retrieval.json").read_bytes() == (d / "retrieval_pivoted.json").read_bytes()

    def test_eval_matches_reproduce(self, seed_dir):
        cfg, d, tmp = seed_dir["config"], seed_dir["dir"], seed_dir["tmp"]
        testset = tmp / "target_test.jsonl"
        corpus.save_jsonl(cli._build(cfg, cfg["reproduce"]["n_test"], 0.0, "PIVOTED",
                                     cfg["seed"] + 2), str(testset))
        out = tmp / "eval"
        assert cli.main(["eval", "--config", seed_dir["cfg"], "--out", str(out),
                         "--ckpt", str(d / "model_native.ckpt"), "--testset", str(testset),
                         "--cot-lang", "TARGET"]) == 0
        assert (out / "records.jsonl").read_bytes() == \
            (d / "records_native_target.jsonl").read_bytes()
        assert (out / "report.json").read_bytes() == (d / "eval_native_target.json").read_bytes()

    def test_delta_matches_reproduce(self, seed_dir):
        d, tmp = seed_dir["dir"], seed_dir["tmp"]
        init = tmp / "init.ckpt"
        model.save(cli._init(seed_dir["config"]), str(init))
        out = tmp / "delta"
        assert cli.main(["delta", "--config", seed_dir["cfg"], "--out", str(out),
                         "--ckpt-a", str(d / "model_pivoted.ckpt"), "--ckpt-b", str(init)]) == 0
        assert (out / "delta.json").read_bytes() == (d / "delta_pivoted.json").read_bytes()


class TestReproduce:
    def test_single_seed_end_to_end(self, tmp_path, cfg_path):
        out = tmp_path / "repro"
        rc = cli.main(["reproduce", "--config", cfg_path, "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
        combined = json.loads((out / "combined_report.json").read_text())
        assert combined["seeds"] == [5]
        checks = combined["outcomes"][0]["checks"]
        assert set(checks) == {"a_target_accuracy", "b_pivot_preserved",
                               "c_retrieval", "d_ema_cot_step10"}
        assert set(combined["majority"]) == set(checks)
        diag = combined["outcomes"][0]["diagnostics"]
        assert "delta_ratio_native_over_pivoted" in diag
        seed_dir = out / "seed5"
        for name in ("model_pivoted.ckpt", "model_native.ckpt", "model_control.ckpt",
                     "train_log_pivoted.csv", "eval_pivoted_target.json",
                     "eval_control_pivot.json", "retrieval_pivoted.json",
                     "delta_native.json", "correction.json"):
            assert (seed_dir / name).exists(), name

    def test_each_seed_of_a_multi_seed_run_matches_its_single_seed_run(self, tmp_path):
        def artifacts(d):
            return {n: (d / n).read_bytes() for n in os.listdir(d) if not n.endswith(".meta.json")}

        p = tmp_path / "two_seeds.json"
        p.write_text(json.dumps(_tiny_with({"reproduce": {"seeds": [5, 7]}})))
        assert cli.main(["reproduce", "--config", str(p), "--out", str(tmp_path / "all")]) == 0
        for seed in (5, 7):
            single = tmp_path / f"only{seed}"
            assert cli.main(["reproduce", "--config", str(p), "--seed", str(seed),
                             "--out", str(single)]) == 0
            assert artifacts(tmp_path / "all" / f"seed{seed}") == artifacts(single / f"seed{seed}")
