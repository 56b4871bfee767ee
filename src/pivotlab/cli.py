"""Command-line entry point wiring corpus -> train -> eval -> analysis.

All commands are deterministic given (config, seed): reports are JSON with
sorted keys, datasets are JSONL, curves are CSV. Each artifact gets a sidecar
<name>.meta.json carrying {config_hash, seed, tool_version} plus a timestamp;
the artifacts themselves are timestamp-free so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

from . import __version__, analysis, corpus, evaluate, model, train

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_OVER_LENGTH = 4
EXIT_BAD_DATA = 5

OUTPUT_ROOT_ENV = "PIVOTLAB_OUT"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_ERROR):
        super().__init__(message)
        self.exit_code = exit_code


DEFAULT_CONFIG = {
    "seed": 0,
    "corpus": {
        "n_target": 20000,
        "mix_ratio": 1.0,
        "regime": "PIVOTED",
        "max_steps": 5,
        "value_cap": corpus.DEFAULT_VALUE_CAP,
    },
    "model": {
        "d_model": 64,
        "n_layers": 4,
        "n_heads": 4,
        "d_ff": 256,
        "max_context": 256,
        "dtype": "float32",
    },
    "train": {
        "alpha": 1.0,
        "beta": 1.0,
        "lr": 3e-4,
        "betas": [0.9, 0.999],
        "eps": 1e-8,
        "weight_decay": 0.01,
        "epochs": 3,
        "batch_size": 24,
        "ema_weight": 0.95,
    },
    "eval": {
        "mode": "sample",
        "temperature": 0.6,
        "nucleus_p": 0.95,
        "max_new_tokens": 192,
        "n_test": 200,
    },
    "analysis": {
        "n_retrieval_items": 64,
        "scope": "QUESTION_PLUS_COT",
    },
    "reproduce": {
        "seeds": [101, 202, 303],
        "epochs": 2,
        "n_test": 200,
        "eval_mode": "greedy",
    },
}


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}", EXIT_MISSING_FILE)
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config is not valid JSON: {exc}", EXIT_BAD_CONFIG)
        if not isinstance(user, dict):
            raise CliError("config root must be a JSON object", EXIT_BAD_CONFIG)
        unknown = set(user) - set(cfg)
        if unknown:
            raise CliError(f"unknown config sections: {sorted(unknown)}", EXIT_BAD_CONFIG)
        cfg = _merge(cfg, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def _meta(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"], "tool_version": __version__}


def write_json(obj: dict, path: str, cfg: dict) -> None:
    payload = dict(obj)
    payload["meta"] = _meta(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    _write_sidecar(path, cfg)


def _write_sidecar(path: str, cfg: dict) -> None:
    meta = _meta(cfg)
    meta["created_unix"] = int(time.time())
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(lines, path: str, cfg: dict) -> None:
    """Text artifact of one line per item (JSONL records, CSV rows)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    _write_sidecar(path, cfg)


def _save_training(ckpt, rows, ckpt_path: str, log_path: str, cfg: dict) -> None:
    model.save(ckpt, ckpt_path)
    _write_sidecar(ckpt_path, cfg)
    train.write_log_csv(rows, log_path)
    _write_sidecar(log_path, cfg)


def _save_eval(report: dict, records: list, rec_path: str, report_path: str, cfg: dict) -> None:
    _write_lines((json.dumps(r, sort_keys=True) for r in records), rec_path, cfg)
    write_json(report, report_path, cfg)


def _outdir(path: str) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"required file not found: {path}", EXIT_MISSING_FILE)
    return path


def _setup():
    languages = corpus.default_languages()
    vocab = corpus.build_vocab(languages)
    return languages, vocab


def _model_config(cfg: dict, vocab, seed: int) -> model.ModelConfig:
    m = cfg["model"]
    return model.ModelConfig(vocab_size=len(vocab), d_model=m["d_model"],
                             n_layers=m["n_layers"], n_heads=m["n_heads"], d_ff=m["d_ff"],
                             max_context=m["max_context"], rng_seed=seed, dtype=m["dtype"])


def _train_config(cfg: dict, seed: int, epochs: int | None = None) -> train.TrainConfig:
    t = cfg["train"]
    return train.TrainConfig(alpha=t["alpha"], beta=t["beta"], lr=t["lr"],
                             betas=tuple(t["betas"]), eps=t["eps"],
                             weight_decay=t["weight_decay"],
                             epochs=t["epochs"] if epochs is None else epochs,
                             batch_size=t["batch_size"], seed=seed,
                             ema_weight=t["ema_weight"])


def _gen_config(cfg: dict, seed: int, mode: str = None) -> evaluate.GenConfig:
    e = cfg["eval"]
    return evaluate.GenConfig(mode=mode or e["mode"], temperature=e["temperature"],
                              nucleus_p=e["nucleus_p"], max_new_tokens=e["max_new_tokens"],
                              seed=seed)


def _build(cfg: dict, vocab, languages, n: int, mix: float, regime: str, seed: int):
    c = cfg["corpus"]
    return corpus.build_dataset(n, mix, regime, seed, vocab, languages,
                                max_steps=c["max_steps"], value_cap=c["value_cap"])


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.seed)
    languages, vocab = _setup()
    out = _outdir(args.out)
    c = cfg["corpus"]
    samples = _build(cfg, vocab, languages, c["n_target"], c["mix_ratio"],
                     c["regime"], cfg["seed"])
    data_path = os.path.join(out, "dataset.jsonl")
    corpus.save_jsonl(samples, data_path)
    _write_sidecar(data_path, cfg)
    vocab_path = os.path.join(out, "vocab.json")
    vocab.save(vocab_path)
    _write_sidecar(vocab_path, cfg)
    print(f"wrote {len(samples)} samples to {data_path}")
    return EXIT_OK


def _load_dataset(path: str, vocab) -> list:
    _require(path)
    try:
        return corpus.load_jsonl(path, vocab)
    except (json.JSONDecodeError, KeyError) as exc:
        raise CliError(f"malformed dataset {path}: {exc}", EXIT_BAD_CONFIG)
    except corpus.CorpusError as exc:
        raise CliError(f"bad dataset {path}: {exc}", EXIT_BAD_DATA)


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    languages, vocab = _setup()
    out = _outdir(args.out)
    dataset = _load_dataset(args.data, vocab)
    ckpt = model.init(_model_config(cfg, vocab, cfg["seed"]))
    tcfg = _train_config(cfg, cfg["seed"])
    ckpt, rows = train.train(dataset, ckpt, tcfg, vocab, checkpoint_dir=out)
    ckpt_path = os.path.join(out, "final.ckpt")
    _save_training(ckpt, rows, ckpt_path, os.path.join(out, "train_log.csv"), cfg)
    print(f"trained {len(rows)} steps; checkpoint at {ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.seed)
    languages, vocab = _setup()
    out = _outdir(args.out)
    ckpt = model.load(_require(args.ckpt))
    testset = _load_dataset(args.testset, vocab)
    if args.cot_lang and args.cot_lang not in ("PIVOT", "TARGET"):
        raise CliError("--cot-lang must be PIVOT or TARGET", EXIT_BAD_CONFIG)
    # By default only NATIVE testsets expect target traces; `score` rejects an empty one.
    native = bool(testset) and testset[0].regime == "NATIVE"
    cot_lang = args.cot_lang or ("TARGET" if native else "PIVOT")
    expected = languages[0] if cot_lang == "PIVOT" else languages[1]
    gcfg = _gen_config(cfg, cfg["seed"])
    report, records = evaluate.score(ckpt, testset, gcfg, vocab, languages, expected)
    _save_eval(report, records, os.path.join(out, "records.jsonl"),
               os.path.join(out, "report.json"), cfg)
    print(f"accuracy {report['accuracy']:.4f} over {report['n']} items")
    return EXIT_OK


def _paired_items(cfg: dict, vocab, languages, n: int, seed: int) -> list:
    pivot, target = languages
    c = cfg["corpus"]
    pairs = []
    for i in range(n):
        p = corpus.gen_problem(seed * 7_654_321 + i, c["max_steps"], c["value_cap"])
        tq = [vocab.bos] + vocab.tokenize(corpus.render(p, "QUESTION", target))
        pq = [vocab.bos] + vocab.tokenize(corpus.render(p, "QUESTION", pivot))
        pairs.append((f"pair-{i:04d}", tq, pq))
    return pairs


def cmd_retrieval(args) -> int:
    cfg = load_config(args.config, args.seed)
    languages, vocab = _setup()
    out = _outdir(args.out)
    ckpt = model.load(_require(args.ckpt))
    scope = args.scope or cfg["analysis"]["scope"]
    pairs = _paired_items(cfg, vocab, languages, cfg["analysis"]["n_retrieval_items"],
                          cfg["seed"])
    report = analysis.retrieval_report(ckpt, pairs, scope, vocab,
                                       max_new_tokens=cfg["eval"]["max_new_tokens"])
    write_json(report, os.path.join(out, "retrieval.json"), cfg)
    _write_lines(["layer,accuracy"] + [f"{layer},{acc!r}" for layer, acc
                                       in enumerate(report["per_layer_accuracy"])],
                 os.path.join(out, "retrieval.csv"), cfg)
    print(f"best layer {report['best_layer']} accuracy {report['best_accuracy']:.4f}")
    return EXIT_OK


def cmd_delta(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _outdir(args.out)
    ckpt_a = model.load(_require(args.ckpt_a))
    ckpt_b = model.load(_require(args.ckpt_b))
    report = analysis.delta_map(ckpt_a, ckpt_b)
    write_json(report.to_json(), os.path.join(out, "delta.json"), cfg)
    _write_lines(["path,delta"] + [f"{path},{val!r}" for path, val
                                   in sorted(report.per_path.items())],
                 os.path.join(out, "delta.csv"), cfg)
    print(f"grand total {report.grand_total:.6e}")
    return EXIT_OK


def _load_records(path: str) -> list:
    _require(path)
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records


def cmd_correction(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _outdir(args.out)
    base = _load_records(args.base_records)
    new = _load_records(args.new_records)
    matrix = evaluate.correction_matrix(base, new)
    write_json(matrix.to_json(), os.path.join(out, "correction.json"), cfg)
    print(f"ic {float(matrix.ic):.4f} ci {float(matrix.ci):.4f}")
    return EXIT_OK


def _ema_cot_at(rows: list, step: int) -> float:
    """Smoothed trace loss at a given step, or at the last step of short runs."""
    return rows[min(step, len(rows)) - 1]["ema_cot"]


def _run_seed(cfg: dict, vocab, languages, seed: int, out: str) -> dict:
    """One full experiment at one seed: three trainings plus all probes."""
    pivot, target = languages
    c, rcfg = cfg["corpus"], cfg["reproduce"]
    n_test = rcfg["n_test"]
    epochs = rcfg["epochs"]
    # Deterministic decoding: at this scale, sampling noise on a small test
    # set can swamp the accuracy gaps the report is meant to compare.
    gcfg = _gen_config(cfg, seed, mode=rcfg["eval_mode"])

    datasets = {
        "pivoted": _build(cfg, vocab, languages, c["n_target"], c["mix_ratio"], "PIVOTED", seed),
        "native": _build(cfg, vocab, languages, c["n_target"], c["mix_ratio"], "NATIVE", seed),
        "control": _build(cfg, vocab, languages, c["n_target"], 0.0, "PIVOT_ONLY", seed + 1),
    }
    target_test = _build(cfg, vocab, languages, n_test, 0.0, "PIVOTED", seed + 2)
    pivot_test = _build(cfg, vocab, languages, n_test, 0.0, "PIVOT_ONLY", seed + 3)

    data_path = os.path.join(out, "dataset_pivoted.jsonl")
    corpus.save_jsonl(datasets["pivoted"], data_path)
    _write_sidecar(data_path, cfg)

    init_ckpt = model.init(_model_config(cfg, vocab, seed))
    models, logs = {}, {}
    for name, data in datasets.items():
        ckpt = init_ckpt.copy()
        tcfg = _train_config(cfg, seed, epochs=epochs)
        ckpt, rows = train.train(data, ckpt, tcfg, vocab)
        models[name], logs[name] = ckpt, rows
        _save_training(ckpt, rows, os.path.join(out, f"model_{name}.ckpt"),
                       os.path.join(out, f"train_log_{name}.csv"), cfg)

    # accuracy on target-language and pivot-language tests
    evals, records = {}, {}
    for name, tset, expected in (
        ("pivoted_target", target_test, pivot),
        ("native_target", target_test, target),
        ("pivoted_pivot", pivot_test, pivot),
        ("control_pivot", pivot_test, pivot),
    ):
        mdl = models[name.split("_")[0]]
        rep, recs = evaluate.score(mdl, tset, gcfg, vocab, languages, expected)
        evals[name], records[name] = rep, recs
        _save_eval(rep, recs, os.path.join(out, f"records_{name}.jsonl"),
                   os.path.join(out, f"eval_{name}.json"), cfg)

    # retrieval probe
    pairs = _paired_items(cfg, vocab, languages, cfg["analysis"]["n_retrieval_items"], seed)
    retrieval = {}
    for name in ("pivoted", "native"):
        retrieval[name] = analysis.retrieval_report(
            models[name], pairs, cfg["analysis"]["scope"], vocab,
            max_new_tokens=cfg["eval"]["max_new_tokens"])
        write_json(retrieval[name], os.path.join(out, f"retrieval_{name}.json"), cfg)

    # parameter deltas against the shared init
    deltas = {name: analysis.delta_map(models[name], init_ckpt)
              for name in ("pivoted", "native")}
    for name, rep in deltas.items():
        write_json(rep.to_json(), os.path.join(out, f"delta_{name}.json"), cfg)

    matrix = evaluate.correction_matrix(records["native_target"], records["pivoted_target"])
    write_json(matrix.to_json(), os.path.join(out, "correction.json"), cfg)

    outcome = {
        "seed": seed,
        "target_accuracy": {"pivoted": evals["pivoted_target"]["accuracy"],
                            "native": evals["native_target"]["accuracy"]},
        "pivot_accuracy": {"pivoted": evals["pivoted_pivot"]["accuracy"],
                           "control": evals["control_pivot"]["accuracy"]},
        "ema_cot_step10": {"pivoted": _ema_cot_at(logs["pivoted"], 10),
                           "native": _ema_cot_at(logs["native"], 10)},
        "best_retrieval": {"pivoted": retrieval["pivoted"]["best_accuracy"],
                           "native": retrieval["native"]["best_accuracy"]},
        "delta_grand_total": {"pivoted": deltas["pivoted"].grand_total,
                              "native": deltas["native"].grand_total},
        "pivoted_conformance": evals["pivoted_target"]["conformance_mean"],
        "correction": matrix.to_json(),
    }
    outcome["checks"] = {
        "a_target_accuracy": outcome["target_accuracy"]["pivoted"]
        >= outcome["target_accuracy"]["native"],
        "b_pivot_preserved": outcome["pivot_accuracy"]["control"]
        - outcome["pivot_accuracy"]["pivoted"] < 0.05,
        "c_retrieval": outcome["best_retrieval"]["pivoted"]
        > outcome["best_retrieval"]["native"],
        "d_ema_cot_step10": outcome["ema_cot_step10"]["pivoted"]
        < outcome["ema_cot_step10"]["native"],
    }
    outcome["diagnostics"] = {
        "delta_ratio_native_over_pivoted": analysis.delta_ratio(deltas["native"],
                                                                deltas["pivoted"]),
        "pivoted_conformance_ge_095": outcome["pivoted_conformance"] >= 0.95,
    }
    return outcome


def cmd_reproduce(args) -> int:
    cfg = load_config(args.config, args.seed)
    languages, vocab = _setup()
    out = _outdir(args.out)
    seeds = [cfg["seed"]] if args.seed is not None else cfg["reproduce"]["seeds"]
    vocab_path = os.path.join(out, "vocab.json")
    vocab.save(vocab_path)
    _write_sidecar(vocab_path, cfg)
    outcomes = []
    for seed in seeds:
        seed_dir = os.path.join(out, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        outcomes.append(_run_seed(cfg, vocab, languages, seed, seed_dir))
    combined = {
        "seeds": seeds,
        "outcomes": outcomes,
        "majority": {
            key: sum(o["checks"][key] for o in outcomes) > len(outcomes) / 2
            for key in outcomes[0]["checks"]
        },
    }
    write_json(combined, os.path.join(out, "combined_report.json"), cfg)
    for o in outcomes:
        print(f"seed {o['seed']}: " + " ".join(f"{k}={v}" for k, v in o["checks"].items()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pivotlab",
                                     description="Bilingual chain-of-thought training lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data)
    add("train", cmd_train, **{"--data": {"required": True}})
    add("eval", cmd_eval, **{"--ckpt": {"required": True}, "--testset": {"required": True},
                             "--cot-lang": {"default": None, "dest": "cot_lang"}})
    add("retrieval", cmd_retrieval, **{"--ckpt": {"required": True},
                                       "--scope": {"default": None, "choices": analysis.SCOPES}})
    add("delta", cmd_delta, **{"--ckpt-a": {"required": True, "dest": "ckpt_a"},
                               "--ckpt-b": {"required": True, "dest": "ckpt_b"}})
    add("correction", cmd_correction,
        **{"--base-records": {"required": True, "dest": "base_records"},
           "--new-records": {"required": True, "dest": "new_records"}})
    add("reproduce", cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": exc.exit_code}), file=sys.stderr)
        return exc.exit_code
    except (corpus.CorpusError, model.ModelError, train.TrainError,
            evaluate.EvalError, analysis.AnalysisError) as exc:
        code = EXIT_OVER_LENGTH if isinstance(exc, model.ContextLengthError) else EXIT_BAD_DATA
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": EXIT_ERROR, "trace": traceback.format_exc()}),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
