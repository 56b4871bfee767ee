"""Checkpoint and representation analyses.

Two probes over trained models: layer-wise cross-lingual retrieval
accuracy of mean-pooled hidden states, and per-tensor mean-absolute-difference
maps between checkpoints. Each report is the dict the CLI writes.
"""

from __future__ import annotations

import numpy as np

from . import evaluate, model


class AnalysisError(Exception):
    pass


SCOPES = ("QUESTION_ONLY", "QUESTION_PLUS_COT")


def check_settings(n_retrieval_items: int, scope: str) -> None:
    """The bounds on a retrieval probe; the names are the keys of the config's analysis section."""
    if scope not in SCOPES:
        raise AnalysisError(f"unknown scope {scope!r}")
    if n_retrieval_items < 1:
        raise AnalysisError("a retrieval probe needs at least one item")


def retrieval_accuracy(target_items: list, pivot_items: list) -> float:
    """Accuracy@1 of cosine nearest-neighbour retrieval, target -> pivot, over two
    lists of (item id, vector).

    Ties break toward the lexicographically lowest pivot id. A zero vector has no
    cosine: a zero target is a miss, and a zero pivot is never a neighbour, so a
    target with no nonzero candidate is a miss too.
    """
    t_ids = [iid for iid, _ in target_items]
    if set(t_ids) != {iid for iid, _ in pivot_items}:
        raise AnalysisError("embedding sets cover different item ids")
    pivots = sorted(pivot_items, key=lambda item: item[0])
    p_mat = np.stack([vec for _, vec in pivots]).astype(np.float64)
    p_norm = np.linalg.norm(p_mat, axis=1)
    nonzero = p_norm != 0.0
    candidates = [pid for (pid, _), ok in zip(pivots, nonzero) if ok]
    p_mat, p_norm = p_mat[nonzero], p_norm[nonzero]
    hits = 0
    for iid, vec in target_items:
        v = vec.astype(np.float64)
        nv = np.linalg.norm(v)
        if nv != 0.0 and candidates:
            sims = (p_mat @ v) / (p_norm * nv)
            # argmax keeps the first (lowest-id) maximum
            hits += candidates[int(np.argmax(sims))] == iid
    return hits / len(t_ids)


def embed(ckpt: model.Checkpoint, items: list, scope: str, max_new_tokens: int) -> list:
    """Mean token hidden state of each (id, token sequence) item, at every hidden state:
    one list of (id, vector) per layer, the input embedding's first.

    One inference forward per item, a prefill of a cache of its length. QUESTION_PLUS_COT
    first appends the model's greedy-decoded reasoning trace of at most `max_new_tokens`,
    batched across items, to each question.
    """
    check_settings(len(items), scope)
    for iid, tokens in items:
        if len(tokens) == 0:
            raise AnalysisError(f"item {iid}: empty token sequence")
    seqs = [list(t) for _, t in items]
    if scope == "QUESTION_PLUS_COT":
        cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=max_new_tokens)
        results = evaluate.generate_batch(ckpt, seqs, [iid for iid, _ in items], cfg)
        seqs = [s + r.cot_segment for s, r in zip(seqs, results)]
    per_layer = [[] for _ in range(ckpt.config.n_layers + 1)]
    for (iid, _), seq in zip(items, seqs):
        trace = model.forward(ckpt, [seq], kv=[model.KVCache(ckpt.config, 1, len(seq))])
        for layer, h in enumerate(trace.hidden_states):
            vec = h[0].mean(axis=0)
            if not np.isfinite(vec).all():
                raise AnalysisError(f"item {iid}: non-finite hidden state at layer {layer}")
            per_layer[layer].append((iid, vec))
    return per_layer


def retrieval_report(ckpt: model.Checkpoint, paired_items: list, scope: str,
                     max_new_tokens: int) -> dict:
    """Per-layer retrieval accuracy for (id, target tokens, pivot tokens) pairs."""
    t_layers, p_layers = (embed(ckpt, [(item[0], item[side]) for item in paired_items], scope,
                                max_new_tokens) for side in (1, 2))
    per_layer = [retrieval_accuracy(t, p) for t, p in zip(t_layers, p_layers)]
    return {
        "scope": scope,
        "per_layer_accuracy": per_layer,
        "best_layer": int(np.argmax(per_layer)),
        "best_accuracy": max(per_layer),
        "n": len(paired_items),
    }


def delta_map(ckpt_a: model.Checkpoint, ckpt_b: model.Checkpoint) -> dict:
    """Mean absolute difference per parameter tensor (`per_path`), with its
    count-weighted means per layer index (as str), per role and over all tensors."""
    paths_a = set(ckpt_a.params)
    if paths_a != set(ckpt_b.params):
        raise AnalysisError("checkpoints have different parameter sets")
    per_path, counts = {}, {}
    for path in sorted(paths_a):
        a, b = ckpt_a.params[path], ckpt_b.params[path]
        if a.shape != b.shape:
            raise AnalysisError(f"shape mismatch at {path}: {a.shape} vs {b.shape}")
        diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
        per_path[path] = float(diff.mean())
        counts[path] = int(a.size)

    def weighted(paths):
        total = sum(counts[p] for p in paths)
        return sum(per_path[p] * counts[p] for p in paths) / total

    layers = sorted({model.path_layer(p) for p in per_path if model.path_layer(p) is not None})
    roles = sorted({model.path_role(p) for p in per_path})
    return {
        "per_path": per_path,
        "per_layer": {str(li): weighted([p for p in per_path if model.path_layer(p) == li])
                      for li in layers},
        "per_role": {role: weighted([p for p in per_path if model.path_role(p) == role])
                     for role in roles},
        "grand_total": weighted(list(per_path)),
    }


def delta_ratio(report_a: dict, report_b: dict) -> float:
    if report_b["grand_total"] == 0.0:
        raise AnalysisError("cannot form a ratio against an all-zero delta map")
    return report_a["grand_total"] / report_b["grand_total"]
