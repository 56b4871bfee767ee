"""Slow reference implementations that the production paths are checked against.

`generate` decodes one prompt by running the full prefix through
`model.forward` for every new token, with no key/value cache and no
batching. `embed` pools hidden states one item at a time on top of it.
"""

from __future__ import annotations

import numpy as np

from pivotlab import analysis, corpus, evaluate, model


def generate(ckpt: model.Checkpoint, prompt, cfg: evaluate.GenConfig, vocab: corpus.Vocab,
             rng_seed: int | None = None) -> evaluate.GenerationResult:
    """Autoregressive decode of a single prompt with its own RNG stream."""
    cfg.validate()
    prompt = list(prompt)
    if len(prompt) >= ckpt.config.max_context:
        raise evaluate.EvalError("prompt does not fit the model context")
    rng = np.random.default_rng(cfg.seed if rng_seed is None else rng_seed)
    seq = list(prompt)
    generated = []
    hit_eos = False
    for _ in range(cfg.max_new_tokens):
        if len(seq) >= ckpt.config.max_context:
            break
        trace = model.forward(ckpt, seq, need_cache=False)
        tok = evaluate._pick(trace.logits[0, -1], cfg, rng)
        generated.append(tok)
        seq.append(tok)
        if tok == vocab.eos:
            hit_eos = True
            break
    return evaluate._segment(prompt, generated, hit_eos, vocab)


def _with_trace(ckpt: model.Checkpoint, tokens, vocab: corpus.Vocab,
                max_new_tokens: int) -> list:
    """Question tokens extended by the model's own greedy trace."""
    cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=max_new_tokens)
    res = generate(ckpt, tokens, cfg, vocab)
    return list(tokens) + res.cot_segment


def embed(ckpt: model.Checkpoint, items: list, layer: int, scope: str,
          language: str = "", vocab: corpus.Vocab | None = None,
          max_new_tokens: int = 192) -> analysis.EmbeddingSet:
    """Mean token hidden state at `layer` for each (id, token sequence) item."""
    if scope not in analysis.SCOPES:
        raise analysis.AnalysisError(f"unknown scope {scope!r}")
    if not 0 <= layer <= ckpt.config.n_layers:
        raise analysis.AnalysisError(f"layer {layer} outside [0, {ckpt.config.n_layers}]")
    vectors = []
    for iid, tokens in items:
        if len(tokens) == 0:
            raise analysis.AnalysisError(f"item {iid}: empty token sequence")
        seq = tokens
        if scope == "QUESTION_PLUS_COT":
            if vocab is None:
                raise analysis.AnalysisError("QUESTION_PLUS_COT requires a vocab")
            seq = _with_trace(ckpt, tokens, vocab, max_new_tokens)
        trace = model.forward(ckpt, seq, need_cache=False)
        vectors.append((iid, trace.hidden_states[layer][0].mean(axis=0)))
    return analysis.EmbeddingSet(layer=layer, items=vectors, language=language, scope=scope)
