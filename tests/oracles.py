"""Slow reference implementations that the production paths are checked against.

`generate` decodes one prompt by running the full prefix through
`model.forward` for every new token, with no key/value cache and no
batching; `candidate_set` and `_pick` choose its tokens one row at a time.
`embed` pools the hidden states of the plain `forward` below one item at a
time, after a trace from `generate` for QUESTION_PLUS_COT.
`extract_answer` reads a decode's answer in steps: no separator, an empty
segment, an unknown id, the phrase prefix, then exactly one number after it;
`corpus.answer_value` on the detokenised answer segment must agree with it.

`forward` and `backward` are the model maths written plainly, every
intermediate in a fresh array. They run the same floating-point operations
in the same order as `model.forward`/`model.backward`, including the split
of a batch into two row halves, so the two must agree bit for bit: in the
logits and gradients of a training forward, and in the hidden states of an
inference forward, which a training trace does not keep.

`segment_labels` spells out a sample's per-token segment labels from its
three segment token counts, and `pad_batch` right-pads a batch with plain
lists into a token matrix and a label matrix. A sample's two boundaries,
`train.pad_batch`'s bounds and the target positions that `train.masked_loss`
sends to each loss term must agree with these labels.
"""

from __future__ import annotations

import numpy as np

from pivotlab import analysis, corpus, evaluate, model

# Segment labels of a sample's tokens, and of padding.
PROMPT, COT, ANSWER, PAD_LABEL = 0, 1, 2, 3


def segment_labels(n_question: int, n_cot: int, n_answer: int) -> list:
    """Labels for [BOS, question, cot, THINK_END, answer, EOS]."""
    return (
        [PROMPT] * (1 + n_question)  # BOS counts as prompt
        + [COT] * (n_cot + 1)        # separator terminates the trace
        + [ANSWER] * (n_answer + 1)  # EOS is the last answer-segment target
    )


def sample_labels(s: corpus.Sample, vocab: corpus.Vocab) -> list:
    """`segment_labels` from the token counts of the sample's three texts."""
    return segment_labels(*(len(vocab.tokenize(text))
                            for text in (s.question_text, s.cot_text, s.answer_text)))


def pad_batch(samples, vocab: corpus.Vocab):
    """Token and label rows right-padded to the longest sample, as (B, T) int64 arrays."""
    t = max(len(s.tokens) for s in samples)
    tokens = [list(s.tokens) + [corpus.PAD] * (t - len(s.tokens)) for s in samples]
    labels = [sample_labels(s, vocab) + [PAD_LABEL] * (t - len(s.tokens))
              for s in samples]
    return np.array(tokens, dtype=np.int64), np.array(labels, dtype=np.int64)


def candidate_set(logits: np.ndarray, cfg: evaluate.GenConfig):
    """Token ids and renormalized probabilities after temperature and nucleus
    truncation. Sort order breaks probability ties by lowest id."""
    z = np.asarray(logits, dtype=np.float64) / cfg.temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    order = np.lexsort((np.arange(len(p)), -p))
    probs = p[order]
    cum = np.cumsum(probs)
    cut = int(np.searchsorted(cum, cfg.nucleus_p * cum[-1] - 1e-12)) + 1
    ids = order[:cut]
    probs = probs[:cut]
    return ids, probs / probs.sum()


def _pick(logits: np.ndarray, cfg: evaluate.GenConfig, rng) -> int:
    if cfg.mode == "greedy":
        return int(np.argmax(logits))
    ids, probs = candidate_set(logits, cfg)
    u = rng.random()
    return int(ids[np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(ids) - 1)])


def generate(ckpt: model.Checkpoint, prompt, cfg: evaluate.GenConfig,
             rng_seed: int | None = None) -> evaluate.GenerationResult:
    """Autoregressive decode of a single prompt with its own RNG stream."""
    cfg.validate()
    prompt = list(prompt)
    if len(prompt) >= ckpt.config.max_context:
        raise evaluate.EvalError("prompt does not fit the model context")
    rng = np.random.default_rng(cfg.seed if rng_seed is None else rng_seed)
    seq = list(prompt)
    generated = []
    for _ in range(cfg.max_new_tokens):
        if len(seq) >= ckpt.config.max_context:
            break
        trace = model.forward(ckpt, seq)
        tok = _pick(trace.logits[0, -1], cfg, rng)
        generated.append(tok)
        seq.append(tok)
        if tok == corpus.EOS:
            break
    return evaluate.GenerationResult(generated)


def extract_answer(result: evaluate.GenerationResult, lang: corpus.Language, vocab: corpus.Vocab):
    """Signed integer parsed from the answer segment, or None."""
    if result.terminated == "SEPARATOR_MISSING" or not result.answer_segment:
        return None
    try:
        text = vocab.detokenize(result.answer_segment)
    except corpus.UnknownWordError:
        return None
    words = text.split()
    phrase = lang.lexicon["answer_phrase"].split()
    if words[: len(phrase)] != phrase:
        return None
    rest = words[len(phrase) :]
    if len(rest) != 1 or not corpus._NUMBER_RE.fullmatch(rest[0]):
        return None
    return int(rest[0])


def _with_trace(ckpt: model.Checkpoint, tokens, max_new_tokens: int) -> list:
    """Question tokens extended by the model's own greedy trace."""
    cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=max_new_tokens)
    res = generate(ckpt, tokens, cfg)
    return list(tokens) + res.cot_segment


def embed(ckpt: model.Checkpoint, items: list, layer: int, scope: str,
          max_new_tokens: int) -> list:
    """(id, mean token hidden state at `layer`) for each (id, token sequence) item."""
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
            seq = _with_trace(ckpt, tokens, max_new_tokens)
        _, hidden = forward(ckpt, [seq])
        vectors.append((iid, hidden[layer][0].mean(axis=0)))
    return vectors


def _layernorm_forward(x, w):
    gain, shift = w[0], w[1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + model.LN_EPS)
    xhat = xc * inv
    return gain * xhat + shift, xhat, inv


def _layernorm_backward(dy, w, xhat, inv):
    gain = w[0]
    dgain = (dy * xhat).sum(axis=(0, 1))
    dshift = dy.sum(axis=(0, 1))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    dw = np.stack([dgain, dshift])
    return dx, dw


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _gelu(u):
    inner = _GELU_C * (u + _GELU_A * u * u * u)
    t = np.tanh(inner)
    return 0.5 * u * (1.0 + t), t


def _gelu_backward(du_out, u, t):
    sech2 = 1.0 - t * t
    return du_out * (0.5 * (1.0 + t) + 0.5 * u * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * u * u))


def _softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _outer(x, y):
    return x.reshape(-1, x.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _halves(tok):
    """The row halves `model.forward` splits a batch of two or more rows into."""
    mid = (len(tok) + 1) // 2
    return [tok] if len(tok) < 2 else [tok[:mid], tok[mid:]]


def _forward_rows(ckpt: model.Checkpoint, tok):
    """The plain layer loop: (logits, hidden states, per-layer caches, final cache)."""
    cfg, p = ckpt.config, ckpt.params
    t = tok.shape[1]
    dt = cfg.np_dtype()
    scale = dt(cfg.head_dim ** -0.5)
    causal = np.triu(np.full((t, t), -np.inf, dtype=dt), k=1)
    h = p["emb"][tok] + p["pos"][:t][None, :, :]
    hidden, caches = [h], []
    for i in range(cfg.n_layers):
        lp = f"L{i}."
        a, xhat1, inv1 = _layernorm_forward(h, p[lp + "norm1"])
        q = _split_heads(a @ p[lp + "att_q"], cfg.n_heads)
        k = _split_heads(a @ p[lp + "att_k"], cfg.n_heads)
        v = _split_heads(a @ p[lp + "att_v"], cfg.n_heads)
        s = q @ k.transpose(0, 1, 3, 2) * scale + causal
        att = _softmax(s)
        ctx = _merge_heads(att @ v)
        h_mid = h + ctx @ p[lp + "att_o"]
        m_in, xhat2, inv2 = _layernorm_forward(h_mid, p[lp + "norm2"])
        u = m_in @ p[lp + "mlp_up"]
        g, tanh_u = _gelu(u)
        h = h_mid + g @ p[lp + "mlp_down"]
        hidden.append(h)
        caches.append({"a": a, "xhat1": xhat1, "inv1": inv1, "q": q, "k": k, "v": v,
                       "att": att, "ctx": ctx, "m_in": m_in, "xhat2": xhat2, "inv2": inv2,
                       "u": u, "g": g, "tanh_u": tanh_u})
    f, xhat_f, inv_f = _layernorm_forward(h, p["final_norm"])
    return f @ p["head"], hidden, caches, {"f": f, "xhat_f": xhat_f, "inv_f": inv_f}


def _backward_rows(ckpt: model.Checkpoint, tok, fwd, dl) -> dict:
    cfg, p = ckpt.config, ckpt.params
    _, _, caches, fc = fwd
    b, t = tok.shape
    scale = cfg.head_dim ** -0.5
    grads = {"head": _outer(fc["f"], dl)}
    df = dl @ p["head"].T
    dh, grads["final_norm"] = _layernorm_backward(df, p["final_norm"], fc["xhat_f"], fc["inv_f"])
    for i in reversed(range(cfg.n_layers)):
        lp = f"L{i}."
        c = caches[i]
        grads[lp + "mlp_down"] = _outer(c["g"], dh)
        dg = dh @ p[lp + "mlp_down"].T
        du = _gelu_backward(dg, c["u"], c["tanh_u"])
        grads[lp + "mlp_up"] = _outer(c["m_in"], du)
        dm_in = du @ p[lp + "mlp_up"].T
        dh_mid_ln, grads[lp + "norm2"] = _layernorm_backward(dm_in, p[lp + "norm2"],
                                                             c["xhat2"], c["inv2"])
        dh_mid = dh + dh_mid_ln
        grads[lp + "att_o"] = _outer(c["ctx"], dh_mid)
        dctx = _split_heads(dh_mid @ p[lp + "att_o"].T, cfg.n_heads)
        datt = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["att"].transpose(0, 1, 3, 2) @ dctx
        ds = c["att"] * (datt - (datt * c["att"]).sum(axis=-1, keepdims=True))
        dq = ds @ c["k"] * scale
        dk = ds.transpose(0, 1, 3, 2) @ c["q"] * scale
        mdq, mdk, mdv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        da = mdq @ p[lp + "att_q"].T + mdk @ p[lp + "att_k"].T + mdv @ p[lp + "att_v"].T
        grads[lp + "att_q"] = _outer(c["a"], mdq)
        grads[lp + "att_k"] = _outer(c["a"], mdk)
        grads[lp + "att_v"] = _outer(c["a"], mdv)
        dx_ln, grads[lp + "norm1"] = _layernorm_backward(da, p[lp + "norm1"], c["xhat1"],
                                                         c["inv1"])
        dh = dh_mid + dx_ln
    grads["pos"] = np.zeros_like(p["pos"])
    grads["pos"][:t] = dh.sum(axis=0)
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], tok.reshape(-1), dh.reshape(b * t, -1))
    return grads


def forward(ckpt: model.Checkpoint, tokens):
    """Logits and hidden states of a (B, T) batch, one row half after the other."""
    outs = [_forward_rows(ckpt, rows) for rows in _halves(np.asarray(tokens, dtype=np.int64))]
    return (np.concatenate([o[0] for o in outs]),
            [np.concatenate(hs) for hs in zip(*(o[1] for o in outs))])


def backward(ckpt: model.Checkpoint, tokens, dlogits) -> dict:
    """Gradients of sum(logits * dlogits): per row half, then half 0 + half 1."""
    tok = np.asarray(tokens, dtype=np.int64)
    grads, start = [], 0
    for rows in _halves(tok):
        dl = dlogits[start:start + len(rows)]
        grads.append(_backward_rows(ckpt, rows, _forward_rows(ckpt, rows), dl))
        start += len(rows)
    if len(grads) == 1:
        return grads[0]
    return {path: grads[0][path] + grads[1][path] for path in grads[0]}
