"""Checkpoint and representation analyses.

Two probes over trained models: layer-wise cross-lingual retrieval
accuracy of mean-pooled hidden states, and per-tensor mean-absolute-difference
maps between checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corpus, evaluate, model


class AnalysisError(Exception):
    pass


SCOPES = ("QUESTION_ONLY", "QUESTION_PLUS_COT")


@dataclass
class EmbeddingSet:
    layer: int
    items: list          # list of (item id, vector)
    language: str
    scope: str


def retrieval_accuracy(target_set: EmbeddingSet, pivot_set: EmbeddingSet) -> dict:
    """Accuracy@1 of cosine nearest-neighbour retrieval, target -> pivot.

    Ties break toward the lexicographically lowest pivot id; zero vectors
    (cosine undefined) are recorded and scored as misses.
    """
    if target_set.layer != pivot_set.layer:
        raise AnalysisError("embedding sets come from different layers")
    t_ids = [iid for iid, _ in target_set.items]
    p_ids = [iid for iid, _ in pivot_set.items]
    if set(t_ids) != set(p_ids):
        raise AnalysisError("embedding sets cover different item ids")
    p_order = sorted(range(len(p_ids)), key=lambda j: p_ids[j])
    p_mat = np.stack([pivot_set.items[j][1] for j in p_order]).astype(np.float64)
    p_norm = np.linalg.norm(p_mat, axis=1)
    hits = 0
    zero_vector_items = []
    for iid, vec in target_set.items:
        v = vec.astype(np.float64)
        nv = np.linalg.norm(v)
        if nv == 0.0 or np.any(p_norm == 0.0):
            bad = [iid] if nv == 0.0 else [p_ids[p_order[j]] for j in np.where(p_norm == 0.0)[0]]
            zero_vector_items.extend(bad)
            continue
        sims = (p_mat @ v) / (p_norm * nv)
        best = int(np.argmax(sims))  # argmax keeps the first (lowest-id) maximum
        if p_ids[p_order[best]] == iid:
            hits += 1
    return {
        "accuracy": hits / len(t_ids),
        "n": len(t_ids),
        "zero_vector_items": sorted(set(zero_vector_items)),
    }


def _all_layer_embeddings(ckpt, items, scope, vocab, max_new_tokens):
    """One forward per item; mean-pooled vectors for every layer at once.

    Trace generation (when the scope asks for it) is batched across items.
    """
    if scope not in SCOPES:
        raise AnalysisError(f"unknown scope {scope!r}")
    for iid, tokens in items:
        if len(tokens) == 0:
            raise AnalysisError(f"item {iid}: empty token sequence")
    seqs = [list(t) for _, t in items]
    if scope == "QUESTION_PLUS_COT":
        if vocab is None:
            raise AnalysisError("QUESTION_PLUS_COT requires a vocab")
        cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=max_new_tokens)
        results = evaluate.generate_batch(ckpt, seqs, [iid for iid, _ in items], cfg, vocab)
        seqs = [s + r.cot_segment for s, r in zip(seqs, results)]
    per_layer = [[] for _ in range(ckpt.config.n_layers + 1)]
    for (iid, _), seq in zip(items, seqs):
        trace = model.forward(ckpt, seq, need_cache=False)
        for layer, h in enumerate(trace.hidden_states):
            per_layer[layer].append((iid, h[0].mean(axis=0)))
    return per_layer


def embed(ckpt: model.Checkpoint, items: list, layer: int, scope: str,
          language: str = "", vocab: corpus.Vocab | None = None,
          max_new_tokens: int = 192) -> EmbeddingSet:
    """Mean token hidden state at `layer` for each (id, token sequence) item.

    QUESTION_PLUS_COT appends the model's greedy-decoded reasoning trace to
    each question before embedding, which requires a vocab.
    """
    if not 0 <= layer <= ckpt.config.n_layers:
        raise AnalysisError(f"layer {layer} outside [0, {ckpt.config.n_layers}]")
    vectors = _all_layer_embeddings(ckpt, items, scope, vocab, max_new_tokens)[layer]
    return EmbeddingSet(layer=layer, items=vectors, language=language, scope=scope)


def retrieval_report(ckpt: model.Checkpoint, paired_items: list, scope: str,
                     vocab: corpus.Vocab, max_new_tokens: int = 192) -> dict:
    """Per-layer retrieval accuracy for (id, target tokens, pivot tokens) pairs."""
    target_items = [(iid, t) for iid, t, _ in paired_items]
    pivot_items = [(iid, p) for iid, _, p in paired_items]
    t_layers = _all_layer_embeddings(ckpt, target_items, scope, vocab, max_new_tokens)
    p_layers = _all_layer_embeddings(ckpt, pivot_items, scope, vocab, max_new_tokens)
    per_layer = []
    for layer in range(ckpt.config.n_layers + 1):
        t_set = EmbeddingSet(layer=layer, items=t_layers[layer], language="TARGET", scope=scope)
        p_set = EmbeddingSet(layer=layer, items=p_layers[layer], language="PIVOT", scope=scope)
        per_layer.append(retrieval_accuracy(t_set, p_set)["accuracy"])
    return {
        "scope": scope,
        "per_layer_accuracy": per_layer,
        "best_layer": int(np.argmax(per_layer)),
        "best_accuracy": max(per_layer),
        "n": len(paired_items),
    }


@dataclass
class DeltaReport:
    per_path: dict       # path -> mean |a - b|
    per_layer: dict      # layer index (as str) -> count-weighted mean
    per_role: dict       # role -> count-weighted mean
    grand_total: float
    param_counts: dict

    def to_json(self) -> dict:
        return {
            "per_path": self.per_path,
            "per_layer": self.per_layer,
            "per_role": self.per_role,
            "grand_total": self.grand_total,
        }


def delta_map(ckpt_a: model.Checkpoint, ckpt_b: model.Checkpoint) -> DeltaReport:
    """Mean absolute difference per parameter tensor, with aggregates."""
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
    per_layer = {str(li): weighted([p for p in per_path if model.path_layer(p) == li])
                 for li in layers}
    roles = sorted({model.path_role(p) for p in per_path})
    per_role = {role: weighted([p for p in per_path if model.path_role(p) == role])
                for role in roles}
    return DeltaReport(per_path=per_path, per_layer=per_layer, per_role=per_role,
                       grand_total=weighted(list(per_path)), param_counts=counts)


def delta_ratio(report_a: DeltaReport, report_b: DeltaReport) -> float:
    if report_b.grand_total == 0.0:
        raise AnalysisError("cannot form a ratio against an all-zero delta map")
    return report_a.grand_total / report_b.grand_total
