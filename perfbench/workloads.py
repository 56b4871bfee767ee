"""The benchmark's workloads: input sizes, CLI configs and command lines.

Shared by run.py (which does not import pivotlab) and child.py (which
builds the inputs). Every model runs at the CLI's default shape: d=64,
4 layers, 4 heads, d_ff=256, float32.
"""

from __future__ import annotations

import os

WORKLOADS = ("train", "decode", "reproduce")

# train: PIVOTED samples plus as many pivot-only mix samples, one epoch at
# the default batch size of 24.
TRAIN_N_TARGET = 400
TRAIN_CONFIG = {"train": {"epochs": 1}}

# decode: an untrained checkpoint decodes TARGET questions with the default
# sampled eval config. Across init seeds the decode work swings 40-fold, so
# the init seed is fixed.
DECODE_INIT_SEED = 3
# generate_batch runs one batch per prompt length, so the test set always has
# this prompt-length histogram: the mean over seeds 0-19 of a default eval
# test set (200 PIVOTED questions, which is also how reproduce builds its
# test sets), rounded by largest remainder to 200 items in 19 groups of 1-20.
# A single test set of 200 has 18 or 19 groups.
DECODE_HISTOGRAM = {13: 11, 14: 20, 15: 9, 16: 4, 17: 16, 18: 15, 19: 8, 20: 11, 21: 16,
                    22: 11, 23: 9, 24: 12, 25: 12, 26: 9, 27: 11, 28: 13, 29: 8, 30: 4,
                    31: 1}
DECODE_POOL = 2000
# Scaled down from the default of 192 to fit several operations in a run.
# From this init ~88% of the items run to the limit, so every group of two
# or more decodes the full 32 tokens on every seed.
DECODE_MAX_NEW_TOKENS = 32
DECODE_CONFIG = {"eval": {"max_new_tokens": DECODE_MAX_NEW_TOKENS}}

# reproduce: one seed of the full experiment at the default model shape,
# with a reduced corpus, test set, retrieval set and decode length.
REPRODUCE_CONFIG = {
    "corpus": {"n_target": 100},
    "reproduce": {"n_test": 4},
    "analysis": {"n_retrieval_items": 4},
    "eval": {"max_new_tokens": 32},
}

CONFIGS = {"train": TRAIN_CONFIG, "decode": DECODE_CONFIG, "reproduce": REPRODUCE_CONFIG}


def config(workload: str) -> dict:
    return CONFIGS[workload]


def cli_args(workload: str, seed: int, inputs: str, out: str) -> list:
    """pivotlab command line of one operation of the workload."""
    common = ["--config", os.path.join(inputs, "config.json"), "--seed", str(seed), "--out", out]
    if workload == "train":
        return ["train", *common, "--data", os.path.join(inputs, "dataset.jsonl")]
    if workload == "decode":
        return ["eval", *common, "--ckpt", os.path.join(inputs, "init.ckpt"),
                "--testset", os.path.join(inputs, "testset.jsonl")]
    return ["reproduce", *common]
