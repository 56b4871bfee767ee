"""Command-line entry point wiring corpus -> train -> eval -> analysis.

All commands are deterministic given (config, seed): reports are JSON with
sorted keys, datasets are JSONL, curves are CSV. Each artifact gets a sidecar
<name>.meta.json carrying {config_hash, seed, tool_version} plus a timestamp;
the artifacts themselves are timestamp-free so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
import warnings

from . import __version__, analysis, atomic_open, corpus, evaluate, model, train

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_OVER_LENGTH = 4
EXIT_BAD_DATA = 5

LANGUAGES = corpus.default_languages()
VOCAB = corpus.build_vocab(LANGUAGES)


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_ERROR):
        super().__init__(message)
        self.exit_code = exit_code


def _defaults(cls, *filled_by_cli: str) -> dict:
    """Config section of a dataclass's field defaults, minus the fields the CLI fills in."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.name not in filled_by_cli}


# The model, train and eval sections take their keys and defaults from the
# dataclasses they build; the other sections have no dataclass.
DEFAULT_CONFIG = {
    "seed": 0,
    "corpus": {
        "n_target": 20000,
        "mix_ratio": 1.0,
        "regime": "PIVOTED",
        "max_steps": corpus.DEFAULT_MAX_STEPS,
        "value_cap": corpus.DEFAULT_VALUE_CAP,
    },
    "model": _defaults(model.ModelConfig, "vocab_size", "rng_seed"),
    "train": _defaults(train.TrainConfig, "seed"),
    "eval": _defaults(evaluate.GenConfig, "seed"),
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

# What the modules raise on a bad value, whether it comes from the config or the data.
MODULE_ERRORS = (corpus.CorpusError, model.ModelError, train.TrainError, evaluate.EvalError,
                 analysis.AnalysisError)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _same_type(default, value) -> bool:
    """Whether `value` has the JSON type of `default`: an int may stand for a float, a bool
    never for a number, numbers are finite, and list elements match the default's first."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_type(default[0], v) for v in value)
    if type(default) is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(default)


def _overlay(cfg: dict, user, where: str = "config") -> None:
    """Lay `user` over `cfg` in place; each key must exist in `cfg` and keep its JSON type."""
    if not isinstance(user, dict):
        raise CliError(f"{where} must be a JSON object", EXIT_BAD_CONFIG)
    for key, value in user.items():
        name = f"{where}.{key}"
        if key not in cfg:
            raise CliError(f"unknown config key {name}", EXIT_BAD_CONFIG)
        if isinstance(cfg[key], dict):
            _overlay(cfg[key], value, name)
        elif _same_type(cfg[key], value):
            cfg[key] = value
        else:
            raise CliError(f"{name} = {value!r} does not have the JSON type of its default "
                           f"{cfg[key]!r}", EXIT_BAD_CONFIG)


def _check(cfg: dict) -> None:
    """Range-check every value any command may use, by the checks of the module that owns it."""
    r = cfg["reproduce"]
    if not r["seeds"] or len(set(r["seeds"])) < len(r["seeds"]):
        raise CliError("config.reproduce.seeds must be distinct and not empty", EXIT_BAD_CONFIG)
    for seed in [cfg["seed"], *r["seeds"]]:
        # vocab_size comes from the vocab, not the config
        model.ModelConfig(**cfg["model"], vocab_size=1, rng_seed=seed).validate()
    for epochs in (cfg["train"]["epochs"], r["epochs"]):
        train.TrainConfig(**{**cfg["train"], "epochs": epochs}).validate()
    for mode in (cfg["eval"]["mode"], r["eval_mode"]):
        evaluate.GenConfig(**{**cfg["eval"], "mode": mode}).validate()
    for n in (cfg["corpus"]["n_target"], r["n_test"]):
        corpus.check_settings(**{**cfg["corpus"], "n_target": n})
    analysis.check_settings(**cfg["analysis"])


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    """DEFAULT_CONFIG with the JSON object at `path` laid over it, checked in full."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        with open(_require(path), encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:
                raise CliError(f"config is not valid JSON: {exc}", EXIT_BAD_CONFIG)
        _overlay(cfg, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    try:
        _check(cfg)
    except MODULE_ERRORS as exc:
        raise CliError(f"bad config: {exc}", EXIT_BAD_CONFIG) from exc
    return cfg


def _meta(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"], "tool_version": __version__}


def write_json(obj: dict, path: str, cfg: dict) -> None:
    payload = dict(obj)
    payload["meta"] = _meta(cfg)
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    _write_sidecar(path, cfg)


def _write_sidecar(path: str, cfg: dict) -> None:
    meta = _meta(cfg)
    meta["created_unix"] = int(time.time())
    with atomic_open(path + ".meta.json", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(lines, path: str, cfg: dict) -> None:
    """Text artifact of one line per item (JSONL records, CSV rows)."""
    with atomic_open(path, encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    _write_sidecar(path, cfg)


def _save(save, obj, path: str, cfg: dict) -> None:
    """Artifact written by `save(obj, path)`, plus its sidecar."""
    save(obj, path)
    _write_sidecar(path, cfg)


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"required file not found: {path}", EXIT_MISSING_FILE)
    return path


def _make_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file stands in its way
        raise CliError(f"cannot make output directory {path}: {exc}", EXIT_BAD_CONFIG) from exc
    return path


def _load_checkpoint(path: str) -> model.Checkpoint:
    """A checkpoint whose token ids are this vocabulary's; another vocabulary's is bad data."""
    ckpt = model.load(_require(path))
    if ckpt.config.vocab_size != len(VOCAB):
        raise CliError(f"checkpoint {path} has vocab_size {ckpt.config.vocab_size}, but the "
                       f"vocabulary has {len(VOCAB)} ids", EXIT_BAD_DATA)
    return ckpt


def _build(cfg: dict, n: int, mix: float, regime: str, seed: int):
    c = cfg["corpus"]
    return corpus.build_dataset(n, mix, regime, seed, VOCAB, LANGUAGES,
                                max_steps=c["max_steps"], value_cap=c["value_cap"])


def _load_dataset(path: str) -> list:
    _require(path)
    try:
        return corpus.load_jsonl(path, VOCAB, LANGUAGES)
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        raise CliError(f"malformed dataset {path}: {exc}", EXIT_BAD_CONFIG)
    except corpus.CorpusError as exc:
        raise CliError(f"bad dataset {path}: {exc}", EXIT_BAD_DATA)


def _paired_items(cfg: dict, n: int, seed: int) -> list:
    """(id, target prompt, pivot prompt): a NATIVE and a PIVOT_ONLY sample's, per problem."""
    c = cfg["corpus"]
    pairs = []
    for i in range(n):
        p = corpus.gen_problem(seed * 7_654_321 + i, c["max_steps"], c["value_cap"])
        sid = f"pair-{i:04d}"
        tq, pq = (corpus.make_sample(p, regime, sid, VOCAB, LANGUAGES).prompt
                  for regime in ("NATIVE", "PIVOT_ONLY"))
        pairs.append((sid, tq, pq))
    return pairs


# One function per job, called by its single command and by `reproduce`: it builds the
# job's config, runs the module and writes the artifacts and sidecars at the given paths.

def _init(cfg: dict) -> model.Checkpoint:
    return model.init(model.ModelConfig(**cfg["model"], vocab_size=len(VOCAB),
                                        rng_seed=cfg["seed"]))


def _keep_freed_pages() -> None:
    """Keep freed heap pages mapped while training, or glibc hands each step's freed
    activations back to the OS and faults them in again on the next step."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library, or one without mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD; a default step's largest array is 12.6 MB


def _train(cfg: dict, dataset, ckpt, epochs: int, ckpt_path: str, log_path: str,
           on_epoch=None):
    """Train `ckpt` in place; write the final checkpoint and the loss log."""
    _keep_freed_pages()
    tcfg = train.TrainConfig(**{**cfg["train"], "epochs": epochs}, seed=cfg["seed"])
    ckpt, rows = train.train(dataset, ckpt, tcfg, on_epoch=on_epoch)
    _save(model.save, ckpt, ckpt_path, cfg)
    _save(train.write_log_csv, rows, log_path, cfg)
    return ckpt, rows


def _eval(cfg: dict, ckpt, testset, mode: str, cot_lang: str | None, records_path: str,
          report_path: str):
    """Score `ckpt` on `testset`; traces are held to `cot_lang` (PIVOT or TARGET), or by
    default to each item's own trace language. Writes the records and the report."""
    gcfg = evaluate.GenConfig(**{**cfg["eval"], "mode": mode}, seed=cfg["seed"])
    report, records = evaluate.score(ckpt, testset, gcfg, VOCAB, LANGUAGES, cot_lang)
    _write_lines((json.dumps(r, sort_keys=True) for r in records), records_path, cfg)
    write_json(report, report_path, cfg)
    return report, records


def _retrieval(cfg: dict, ckpt, scope: str, path: str) -> dict:
    pairs = _paired_items(cfg, cfg["analysis"]["n_retrieval_items"], cfg["seed"])
    report = analysis.retrieval_report(ckpt, pairs, scope, cfg["eval"]["max_new_tokens"])
    write_json(report, path, cfg)
    return report


def _delta(cfg: dict, ckpt_a, ckpt_b, path: str):
    report = analysis.delta_map(ckpt_a, ckpt_b)
    write_json(report, path, cfg)
    return report


def _correction(cfg: dict, base: list, new: list, path: str):
    matrix = evaluate.correction_matrix(base, new)
    write_json(matrix, path, cfg)
    return matrix


def cmd_gen_data(args, cfg: dict, out: str) -> None:
    c = cfg["corpus"]
    samples = _build(cfg, c["n_target"], c["mix_ratio"], c["regime"], cfg["seed"])
    data_path = os.path.join(out, "dataset.jsonl")
    _save(corpus.save_jsonl, samples, data_path, cfg)
    _save(corpus.Vocab.save, VOCAB, os.path.join(out, "vocab.json"), cfg)
    print(f"wrote {len(samples)} samples to {data_path}")


def cmd_train(args, cfg: dict, out: str) -> None:
    def save_epoch(epoch, ckpt):
        _save(model.save, ckpt, os.path.join(out, f"epoch{epoch}.ckpt"), cfg)

    ckpt_path = os.path.join(out, "final.ckpt")
    _, rows = _train(cfg, _load_dataset(args.data), _init(cfg), cfg["train"]["epochs"],
                     ckpt_path, os.path.join(out, "train_log.csv"), on_epoch=save_epoch)
    print(f"trained {len(rows)} steps; checkpoint at {ckpt_path}")


def cmd_eval(args, cfg: dict, out: str) -> None:
    ckpt = _load_checkpoint(args.ckpt)
    report, _ = _eval(cfg, ckpt, _load_dataset(args.testset), cfg["eval"]["mode"],
                      args.cot_lang, os.path.join(out, "records.jsonl"),
                      os.path.join(out, "report.json"))
    print(f"accuracy {report['accuracy']:.4f} over {report['n']} items")


def cmd_retrieval(args, cfg: dict, out: str) -> None:
    report = _retrieval(cfg, _load_checkpoint(args.ckpt),
                        args.scope or cfg["analysis"]["scope"], os.path.join(out, "retrieval.json"))
    _write_lines(["layer,accuracy"] + [f"{layer},{acc!r}" for layer, acc
                                       in enumerate(report["per_layer_accuracy"])],
                 os.path.join(out, "retrieval.csv"), cfg)
    print(f"best layer {report['best_layer']} accuracy {report['best_accuracy']:.4f}")


def cmd_delta(args, cfg: dict, out: str) -> None:
    report = _delta(cfg, _load_checkpoint(args.ckpt_a), _load_checkpoint(args.ckpt_b),
                    os.path.join(out, "delta.json"))
    _write_lines(["path,delta"] + [f"{path},{val!r}" for path, val
                                   in sorted(report["per_path"].items())],
                 os.path.join(out, "delta.csv"), cfg)
    print(f"grand total {report['grand_total']:.6e}")


def _load_records(path: str) -> list:
    """Per-item eval records; each needs a string `id` and a boolean `correct`."""
    _require(path)
    records = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CliError(f"{path} line {n} is not UTF-8 JSON: {exc}", EXIT_BAD_DATA)
            if not (isinstance(rec, dict) and isinstance(rec.get("id"), str)
                    and isinstance(rec.get("correct"), bool)):
                raise CliError(f"{path} line {n}: a record needs a string id and a boolean "
                               "correct", EXIT_BAD_DATA)
            records.append(rec)
    return records


def cmd_correction(args, cfg: dict, out: str) -> None:
    matrix = _correction(cfg, _load_records(args.base_records), _load_records(args.new_records),
                         os.path.join(out, "correction.json"))
    rates = matrix["rates"]
    print(f"ic {rates['ic']:.4f} ci {rates['ci']:.4f}")


def _ema_cot_at(rows: list, step: int) -> float:
    """Smoothed trace loss at a given step, or at the last step of short runs."""
    return rows[min(step, len(rows)) - 1]["ema_cot"]


def _run_seed(cfg: dict, out: str) -> dict:
    """One full experiment at the config's seed: three trainings plus all probes."""
    seed = cfg["seed"]
    c, rcfg = cfg["corpus"], cfg["reproduce"]

    def at(name: str) -> str:
        return os.path.join(out, name)

    target_test = _build(cfg, rcfg["n_test"], 0.0, "PIVOTED", seed + 2)
    pivot_test = _build(cfg, rcfg["n_test"], 0.0, "PIVOT_ONLY", seed + 3)

    init_ckpt = _init(cfg)
    models, logs = {}, {}
    # Each training set is built just before its training and freed after it.
    for name, mix, regime, data_seed in (("pivoted", c["mix_ratio"], "PIVOTED", seed),
                                         ("native", c["mix_ratio"], "NATIVE", seed),
                                         ("control", 0.0, "PIVOT_ONLY", seed + 1)):
        data = _build(cfg, c["n_target"], mix, regime, data_seed)
        if name == "pivoted":
            _save(corpus.save_jsonl, data, at("dataset_pivoted.jsonl"), cfg)
        models[name], logs[name] = _train(cfg, data, init_ckpt.copy(), rcfg["epochs"],
                                          at(f"model_{name}.ckpt"), at(f"train_log_{name}.csv"))
        del data

    # Accuracy on target- and pivot-language tests; the native model's traces are held to
    # the target language. Deterministic decoding by default: at this scale, sampling
    # noise on a small test set can swamp the accuracy gaps the report compares.
    evals, records = {}, {}
    for name, tset, cot_lang in (
        ("pivoted_target", target_test, None),
        ("native_target", target_test, "TARGET"),
        ("pivoted_pivot", pivot_test, None),
        ("control_pivot", pivot_test, None),
    ):
        evals[name], records[name] = _eval(cfg, models[name.split("_")[0]], tset,
                                           rcfg["eval_mode"], cot_lang,
                                           at(f"records_{name}.jsonl"), at(f"eval_{name}.json"))

    retrieval = {name: _retrieval(cfg, models[name], cfg["analysis"]["scope"],
                                  at(f"retrieval_{name}.json"))
                 for name in ("pivoted", "native")}
    # parameter deltas against the shared init
    deltas = {name: _delta(cfg, models[name], init_ckpt, at(f"delta_{name}.json"))
              for name in ("pivoted", "native")}
    matrix = _correction(cfg, records["native_target"], records["pivoted_target"],
                         at("correction.json"))

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
        "delta_grand_total": {"pivoted": deltas["pivoted"]["grand_total"],
                              "native": deltas["native"]["grand_total"]},
        "pivoted_conformance": evals["pivoted_target"]["conformance_mean"],
        "correction": matrix,
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


def cmd_reproduce(args, cfg: dict, out: str) -> None:
    seeds = [cfg["seed"]] if args.seed is not None else cfg["reproduce"]["seeds"]
    _save(corpus.Vocab.save, VOCAB, os.path.join(out, "vocab.json"), cfg)
    outcomes = []
    for seed in seeds:
        seed_dir = _make_dir(os.path.join(out, f"seed{seed}"))
        outcomes.append(_run_seed({**cfg, "seed": seed}, seed_dir))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors leave through `main`'s error line with exit 3, not argparse's exit 2."""
    def error(self, message):
        raise CliError(message, EXIT_BAD_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pivotlab", description="Bilingual chain-of-thought training lab")
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
                             "--cot-lang": {"default": None, "dest": "cot_lang",
                                            "choices": ("PIVOT", "TARGET")}})
    add("retrieval", cmd_retrieval, **{"--ckpt": {"required": True},
                                       "--scope": {"default": None, "choices": analysis.SCOPES}})
    add("delta", cmd_delta, **{"--ckpt-a": {"required": True, "dest": "ckpt_a"},
                               "--ckpt-b": {"required": True, "dest": "ckpt_b"}})
    add("correction", cmd_correction,
        **{"--base-records": {"required": True, "dest": "base_records"},
           "--new-records": {"required": True, "dest": "new_records"}})
    add("reproduce", cmd_reproduce)
    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, CliError):
        return exc.exit_code
    if isinstance(exc, MODULE_ERRORS):
        return EXIT_OVER_LENGTH if isinstance(exc, model.ContextLengthError) else EXIT_BAD_DATA
    return EXIT_ERROR


def main(argv=None) -> int:
    # A failing command writes one JSON line to stderr and nothing else. numpy's overflow
    # warnings also come from the training pool's threads, which no np.errstate here
    # reaches, so they are filtered process-wide; a non-finite result still fails.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            args = build_parser().parse_args(argv)
            cfg = load_config(args.config, args.seed)
            args.fn(args, cfg, _make_dir(args.out))
            return EXIT_OK
        except Exception as exc:
            code = _exit_code(exc)
            error = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
            if code == EXIT_ERROR:  # an unexpected failure
                error["trace"] = traceback.format_exc()
            print(json.dumps(error), file=sys.stderr)
            return code


if __name__ == "__main__":
    sys.exit(main())
