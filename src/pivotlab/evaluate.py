"""Decoding, scoring, and correction-rate matrices."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import corpus, model
from .corpus import EOS, THINK_END


# Rows decoded side by side. Each adds its KV cache to peak memory, and more gain no
# speed: all 200 rows of the decode benchmark at once peak at 62 MB, 48 rows at 47.
DECODE_ROWS = 48


class EvalError(Exception):
    pass


@dataclass
class GenConfig:
    mode: str = "sample"          # "greedy" or "sample"
    temperature: float = 0.6
    nucleus_p: float = 0.95
    max_new_tokens: int = 192
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("greedy", "sample"):
            raise EvalError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.temperature <= 0:
            raise EvalError("temperature must be > 0 when sampling")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise EvalError("nucleus_p must lie in (0, 1]")
        if self.max_new_tokens < 1:
            raise EvalError("max_new_tokens must be >= 1")


@dataclass
class GenerationResult:
    """A decode's generated tokens, and its segments and ending read off them."""
    generated: list

    @property
    def cot_segment(self) -> list:
        """The tokens before the first separator; with no separator, every token but EOS."""
        g = self.generated
        return g[:g.index(THINK_END)] if THINK_END in g else [t for t in g if t != EOS]

    @property
    def answer_segment(self) -> list:
        """The tokens after the first separator, EOS left out; empty with no separator."""
        g = self.generated
        return [t for t in g[g.index(THINK_END) + 1:] if t != EOS] if THINK_END in g else []

    @property
    def terminated(self) -> str:
        """How the decode ended: "EOS" at EOS after a separator, "SEPARATOR_MISSING" at EOS
        with none (the trace never ended properly), "LENGTH" when the budget ran out."""
        if self.generated[-1:] != [EOS]:
            return "LENGTH"
        return "EOS" if THINK_END in self.generated else "SEPARATOR_MISSING"


def item_seed(base_seed: int, item_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{item_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _select(logits: np.ndarray, cfg: GenConfig, rngs) -> np.ndarray:
    """Next token of each row of `logits` (M, V): the argmax, or a draw with rngs[j] from
    the renormalized nucleus of the tempered softmax (ties in order of id)."""
    if cfg.mode == "greedy":
        return logits.argmax(axis=1)
    z = logits.astype(np.float64) / cfg.temperature
    top = z.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():  # a -inf logit is a token of probability 0
        raise EvalError(f"temperature {cfg.temperature!r} overflows the tempered logits")
    z -= top
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    order = np.argsort(-p, axis=1, kind="stable")
    probs = np.take_along_axis(p, order, axis=1)
    cum = np.cumsum(probs, axis=1)
    cut = (cum < cfg.nucleus_p * cum[:, -1:] - 1e-12).sum(axis=1) + 1
    # each row's kept mass, summed as a slice so the rounding is the per-row one
    kept = np.array([row[:c].sum() for row, c in zip(probs, cut)])
    cdf = np.cumsum(probs / kept[:, None], axis=1)
    u = np.array([rng.random() for rng in rngs])
    pos = np.minimum((cdf <= u[:, None]).sum(axis=1), cut - 1)
    return order[np.arange(len(order)), pos]


def generate_batch(ckpt: model.Checkpoint, prompts: list, ids: list, cfg: GenConfig) -> list:
    """Decode many prompts with key/value caches, DECODE_ROWS rows side by side.

    The prompts, sorted by length, are cut into decode batches of at most
    DECODE_ROWS rows. In a batch each prompt length is a group with one prefill
    forward and its own cache, with room for the prompt and every token that is
    fed; the last pick is never fed. Each step feeds every group of the batch
    one token per row in one forward. A row leaves its group's cache when it
    picks EOS, and a group leaves when it has no rows or its cache is full, so
    no finished row is fed. Each item draws from its own seeded RNG stream, so
    results do not depend on how the prompts are grouped.
    """
    cfg.validate()
    n_ctx = ckpt.config.max_context
    if any(len(p) >= n_ctx for p in prompts):
        raise model.ContextLengthError("prompt does not fit the model context")
    rngs = [np.random.default_rng(item_seed(cfg.seed, i)) for i in ids]
    gens = [[] for _ in prompts]
    order = sorted(range(len(prompts)), key=lambda i: len(prompts[i]))
    for start in range(0, len(order), DECODE_ROWS):
        groups = [np.array(list(g)) for _, g in itertools.groupby(
            order[start:start + DECODE_ROWS], key=lambda i: len(prompts[i]))]
        live = [(g, model.KVCache(ckpt.config, len(g), min(n_ctx, len(prompts[g[0]]) +
                                                          cfg.max_new_tokens) - 1)) for g in groups]
        logits = np.concatenate([model.forward(ckpt, [prompts[i] for i in g], kv=[c]).logits[:, -1]
                                 for g, c in live])
        while live:
            if not np.isfinite(logits).all():
                raise EvalError("non-finite logits: the checkpoint's forward overflows")
            rows = np.concatenate([g for g, _ in live])
            picks = _select(logits, cfg, [rngs[i] for i in rows])
            for i, tok in zip(rows.tolist(), picks.tolist()):
                gens[i].append(tok)
            # A row leaves its cache at EOS, and a cache with no rows or no room leaves the
            # batch, releasing its buffers before the next batch allocates its own.
            stay = np.split(picks != EOS, np.cumsum([len(g) for g, _ in live])[:-1])
            live = [(g[k], c.keep(k)) for (g, c), k in zip(live, stay)
                    if k.any() and c.filled < c.capacity]
            if live:
                logits = model.forward(ckpt, [[gens[i][-1]] for g, _ in live for i in g],
                                       kv=[c for _, c in live]).logits[:, -1]
    return [GenerationResult(g) for g in gens]


def generate(ckpt: model.Checkpoint, prompt, cfg: GenConfig) -> GenerationResult:
    """One prompt through `generate_batch`."""
    return generate_batch(ckpt, [prompt], [""], cfg)[0]


def conformance(cot_tokens, expected: corpus.Language, vocab: corpus.Vocab) -> float:
    """Fraction of lexical trace tokens drawn from the expected lexicon."""
    word_ids = [t for t in cot_tokens if corpus.FIRST_WORD <= t < len(vocab)]
    if not word_ids:
        return 0.0
    expected_words = expected.words()
    hits = sum(1 for t in word_ids if vocab.id_to_word[t] in expected_words)
    return hits / len(word_ids)


def score(ckpt: model.Checkpoint, testset, cfg: GenConfig, vocab: corpus.Vocab,
          languages, cot_lang: str | None = None):
    """Exact-match accuracy plus trace-language conformance to the language `cot_lang`
    names, or by default to each sample's own trace language.

    Returns (report dict, per-item record list). The gold answer and the decoded one
    are both read by `corpus.answer_value` in the sample's answer language.
    """
    if not testset:
        raise EvalError("empty testset")
    by_id = {lang.id: lang for lang in languages}
    if cot_lang is not None and cot_lang not in by_id:
        raise EvalError(f"unknown trace language {cot_lang!r}")
    results = generate_batch(ckpt, [s.prompt for s in testset], [s.id for s in testset], cfg)
    records = []
    for s, res in zip(testset, results):
        _, trace_lang, answer_lang = s.langs
        gold = corpus.answer_value(s.answer_text, by_id[answer_lang])
        predicted = corpus.answer_value(vocab.detokenize(res.answer_segment), by_id[answer_lang])
        records.append({
            "id": s.id,
            "gold": gold,
            "predicted": predicted,
            "correct": bool(predicted is not None and predicted == gold),
            "terminated": res.terminated,
            "conformance": conformance(res.cot_segment, by_id[cot_lang or trace_lang], vocab),
            "regime": s.regime,
        })
    report = _summarize(records)
    return report, records


def _summarize(records) -> dict:
    def agg(rs):
        return {
            "accuracy": sum(r["correct"] for r in rs) / len(rs),
            "n": len(rs),
            "conformance_mean": sum(r["conformance"] for r in rs) / len(rs),
        }

    regimes = sorted({r["regime"] for r in records})
    out = agg(records)
    out["by_regime"] = {reg: agg([r for r in records if r["regime"] == reg]) for reg in regimes}
    return out


def correction_matrix(base_records, new_records) -> dict:
    """Correctness transitions between two per-item record sets: the count and the rate
    of each (cc: base correct -> new correct, ci, ic, ii), and both accuracies."""
    base = {r["id"]: bool(r["correct"]) for r in base_records}
    new = {r["id"]: bool(r["correct"]) for r in new_records}
    if len(base) < len(base_records) or len(new) < len(new_records):
        raise EvalError("a record id repeats")
    if set(base) != set(new):
        raise EvalError("record id sets differ")
    if not base:
        raise EvalError("empty record sets")
    counts = {"cc": 0, "ci": 0, "ic": 0, "ii": 0}
    for iid, b in base.items():
        counts[("c" if b else "i") + ("c" if new[iid] else "i")] += 1
    n = len(base)
    return {
        "n_items": n,
        "counts": counts,
        "rates": {key: c / n for key, c in counts.items()},
        "acc_base": (counts["cc"] + counts["ci"]) / n,
        "acc_new": (counts["cc"] + counts["ic"]) / n,
    }
