"""One benchmark step in its own process: build a workload's inputs, or run
the pivotlab CLI under span tracing.

    python perfbench/child.py [--spans PATH] setup WORKLOAD SEED DIR
    python perfbench/child.py --spans PATH cli -- CLI_ARGS...

Untraced CLI operations do not come through here: run.py starts them as
`python -m pivotlab.cli`, so they measure the unpatched program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pivotlab import cli, corpus, model  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _batches(n_samples: int, epochs: int) -> int:
    return math.ceil(n_samples / cli.DEFAULT_CONFIG["train"]["batch_size"]) * epochs


def setup_train(seed: int, out: str, languages, vocab) -> dict:
    samples = corpus.build_dataset(workloads.TRAIN_N_TARGET, 1.0, "PIVOTED", seed,
                                   vocab, languages)
    corpus.save_jsonl(samples, os.path.join(out, "dataset.jsonl"))
    epochs = workloads.TRAIN_CONFIG["train"]["epochs"]
    return {"tokens": sum(len(s.tokens) for s in samples) * epochs,
            "steps": _batches(len(samples), epochs), "decodes": 0}


def setup_decode(seed: int, out: str, languages, vocab) -> dict:
    # The same prompt-length histogram on every seed: the decoder batches by
    # prompt length, so this fixes the batch shapes and only content varies.
    picked = {n: [] for n in workloads.DECODE_HISTOGRAM}
    taken = set()
    for k in range(10):  # one pool is nearly always enough
        pool = corpus.build_dataset(workloads.DECODE_POOL, 0.0, "PIVOTED", seed + 7919 * k,
                                    vocab, languages)
        for s in pool:
            n = 1 + len(vocab.tokenize(s.question_text))
            if s.id not in taken and len(picked.get(n, ())) < workloads.DECODE_HISTOGRAM.get(n, 0):
                picked[n].append(s)
                taken.add(s.id)
        if all(len(picked[n]) == c for n, c in workloads.DECODE_HISTOGRAM.items()):
            break
    else:
        raise RuntimeError("decode pools too small for the prompt-length histogram")
    testset = [s for n in workloads.DECODE_HISTOGRAM for s in picked[n]]
    corpus.save_jsonl(testset, os.path.join(out, "testset.jsonl"))
    mcfg = model.ModelConfig(vocab_size=len(vocab), rng_seed=workloads.DECODE_INIT_SEED,
                             **cli.DEFAULT_CONFIG["model"])
    model.save(model.init(mcfg), os.path.join(out, "init.ckpt"))
    return {"items": len(testset), "decodes": len(testset)}


def setup_reproduce(seed: int, out: str, languages, vocab) -> dict:
    cfg = cli.load_config(None)
    for section, values in workloads.REPRODUCE_CONFIG.items():
        cfg[section].update(values)
    n, mix = cfg["corpus"]["n_target"], cfg["corpus"]["mix_ratio"]
    epochs = cfg["reproduce"]["epochs"]
    n_test = cfg["reproduce"]["n_test"]
    n_pairs = cfg["analysis"]["n_retrieval_items"]
    return {
        "steps": {"pivoted": _batches(n + math.ceil(mix * n), epochs),
                  "native": _batches(n + math.ceil(mix * n), epochs),
                  "control": _batches(n, epochs)},
        "items": 4 * n_test,
        "n_test": n_test,
        # four evals, plus a trace for each side of every retrieval pair
        # on both retrieval models
        "decodes": 4 * n_test + 2 * 2 * n_pairs,
    }


SETUPS = {"train": setup_train, "decode": setup_decode, "reproduce": setup_reproduce}


def setup(workload: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    languages = corpus.default_languages()
    vocab = corpus.build_vocab(languages)
    manifest = SETUPS[workload](seed, out, languages, vocab)
    _write_json(workloads.config(workload), os.path.join(out, "config.json"))
    _write_json(manifest, os.path.join(out, "inputs.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    parser.add_argument("step", choices=("setup", "cli"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    if args.step == "cli" and args.spans is None:
        parser.error("cli steps run here only when traced")

    def step() -> int:
        if args.step == "setup":
            setup(rest[0], int(rest[1]), rest[2])
            return 0
        return cli.main(rest)

    if args.spans is None:
        return step()
    recorder = spans.Recorder(run_id=f"{args.step}-{os.getpid()}")
    with spans.traced(recorder):
        try:
            return step()
        finally:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
