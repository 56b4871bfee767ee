import json
import os

import pytest

from pivotlab import cli, corpus, model


TINY_CFG = {
    "corpus": {"n_target": 12, "mix_ratio": 0.5, "regime": "PIVOTED",
               "max_steps": 2, "value_cap": 50},
    "model": {"d_model": 8, "n_layers": 2, "n_heads": 2, "d_ff": 16,
              "max_context": 128, "dtype": "float32"},
    "train": {"epochs": 1, "batch_size": 6, "lr": 1e-3},
    "eval": {"mode": "sample", "max_new_tokens": 24, "n_test": 4},
    "analysis": {"n_retrieval_items": 4, "scope": "QUESTION_ONLY"},
    "reproduce": {"seeds": [5], "epochs": 1, "n_test": 4},
    "seed": 5,
}


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

    def test_output_root_env(self, tmp_path, cfg_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        assert cli.main(["gen-data", "--config", cfg_path, "--out", "rel"]) == 0
        assert (tmp_path / "rel" / "dataset.jsonl").exists()


class TestTrainCommand:
    def test_artifacts(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        train_dir = os.path.dirname(workspace["ckpt"])
        assert os.path.exists(os.path.join(train_dir, "train_log.csv"))
        assert os.path.exists(os.path.join(train_dir, "epoch1.ckpt"))
        ckpt = model.load(workspace["ckpt"])
        assert ckpt.config.d_model == 8
        assert ckpt.step == 3  # 18 samples / batch 6 * 1 epoch

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


def _save_init_ckpt(path, max_context: int = 128) -> str:
    vocab = corpus.build_vocab(corpus.default_languages())
    mcfg = model.ModelConfig(vocab_size=len(vocab),
                             **{**TINY_CFG["model"], "max_context": max_context})
    model.save(model.init(mcfg), str(path))
    return str(path)


def _error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


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

    def test_bad_cot_lang(self, workspace):
        rc = cli.main(["eval", "--config", workspace["cfg"],
                       "--out", str(workspace["tmp"] / "e3"),
                       "--ckpt", workspace["ckpt"], "--testset", workspace["data"],
                       "--cot-lang", "FRENCH"])
        assert rc == cli.EXIT_BAD_CONFIG

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

    def test_malformed_row(self, tmp_path, cfg_path, malformed_dataset, capsys):
        rc = cli.main(["eval", "--config", cfg_path, "--out", str(tmp_path / "e"),
                       "--ckpt", _save_init_ckpt(tmp_path / "init.ckpt"),
                       "--testset", malformed_dataset])
        assert rc == cli.EXIT_BAD_DATA
        assert _error_line(capsys)["exit_code"] == cli.EXIT_BAD_DATA


class TestAnalysisCommands:
    def test_retrieval_pairs_honour_value_cap(self, vocab, languages):
        cfg = cli.load_config(None)
        cfg["corpus"]["value_cap"] = 10
        pivot = languages[0]
        ops = {pivot.op_word(op): op for op in corpus.OPS}
        for _, _, pq in cli._paired_items(cfg, vocab, languages, 64, seed=3):
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
