"""Decoding, answer extraction, scoring, and correction-rate matrices."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import corpus, model


# Rows decoded side by side. Each adds its KV cache to peak memory, and more gain no
# speed: all 200 rows of the decode benchmark at once peak at 62 MB, 48 rows at 47.
DECODE_ROWS = 48


class EvalError(Exception):
    pass


class PromptTooLongError(EvalError, model.ContextLengthError):
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
    prompt: list
    generated: list
    cot_segment: list      # generated tokens before the first separator
    answer_segment: list   # generated tokens after it (separator and EOS excluded)
    terminated: str        # "EOS", "SEPARATOR_MISSING", or "LENGTH"


def item_seed(base_seed: int, item_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{item_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _select(logits: np.ndarray, cfg: GenConfig, rngs) -> np.ndarray:
    """Next token of each row of `logits` (M, V): the argmax, or a draw with rngs[j] from
    the renormalized nucleus of the tempered softmax (ties in order of id)."""
    if cfg.mode == "greedy":
        return logits.argmax(axis=1)
    z = logits.astype(np.float64) / cfg.temperature
    z -= z.max(axis=1, keepdims=True)
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


def _segment(prompt, generated, terminated_eos: bool, vocab: corpus.Vocab) -> GenerationResult:
    if vocab.think_end in generated:
        sep = generated.index(vocab.think_end)
        cot = generated[:sep]
        answer = [t for t in generated[sep + 1 :] if t != vocab.eos]
        terminated = "EOS" if terminated_eos else "LENGTH"
    else:
        cot = [t for t in generated if t != vocab.eos]
        answer = []
        # EOS without a separator means the trace never terminated properly;
        # running out of budget is reported as LENGTH either way.
        terminated = "SEPARATOR_MISSING" if terminated_eos else "LENGTH"
    return GenerationResult(prompt=list(prompt), generated=list(generated),
                            cot_segment=cot, answer_segment=answer, terminated=terminated)


def generate_batch(ckpt: model.Checkpoint, prompts: list, ids: list, cfg: GenConfig,
                   vocab: corpus.Vocab) -> list:
    """Decode many prompts with key/value caches, DECODE_ROWS rows side by side.

    The prompts, sorted by length, are cut into decode batches of at most
    DECODE_ROWS rows. In a batch each prompt length is a group with one prefill
    forward and its own cache; then each step feeds every group of the batch
    one token per row in one forward, rows that reached EOS being fed pads. A
    group leaves when all its rows are done or its context is full. Each item
    draws from its own seeded RNG stream, so results do not depend on how the
    prompts are grouped.
    """
    cfg.validate()
    n_ctx = ckpt.config.max_context
    if any(len(p) >= n_ctx for p in prompts):
        raise PromptTooLongError("prompt does not fit the model context")
    rngs = [np.random.default_rng(item_seed(cfg.seed, i)) for i in ids]
    gens = [[] for _ in prompts]
    done = np.zeros(len(prompts), dtype=bool)
    order = sorted(range(len(prompts)), key=lambda i: len(prompts[i]))
    for start in range(0, len(order), DECODE_ROWS):
        groups = [np.array(list(g)) for _, g in itertools.groupby(
            order[start:start + DECODE_ROWS], key=lambda i: len(prompts[i]))]
        caches = [model.KVCache(ckpt.config, len(g), min(n_ctx, len(prompts[g[0]]) +
                                                         cfg.max_new_tokens)) for g in groups]
        logits = np.concatenate([model.forward(ckpt, [prompts[i] for i in g], kv=[c]).logits[:, -1]
                                 for g, c in zip(groups, caches)])
        for step in range(cfg.max_new_tokens):
            rows = np.concatenate(groups)
            live = ~done[rows]
            if not np.isfinite(logits[live]).all():
                raise EvalError("non-finite logits: the checkpoint's forward overflows")
            picks = _select(logits[live], cfg, [rngs[i] for i in rows[live]])
            for i, tok in zip(rows[live].tolist(), picks.tolist()):
                gens[i].append(tok)
            done[rows[live]] = picks == vocab.eos
            feed = np.full(len(rows), vocab.pad, dtype=np.int64)
            feed[live] = picks
            # the last step releases every cache before the next batch allocates its own
            stay = [step + 1 < cfg.max_new_tokens and not done[g].all() and c.filled + 1 < n_ctx
                    for g, c in zip(groups, caches)]
            feed = feed[np.repeat(stay, [len(g) for g in groups])]
            groups = [g for g, keep in zip(groups, stay) if keep]
            caches = [c for c, keep in zip(caches, stay) if keep]
            if not groups:
                break
            logits = model.forward(ckpt, feed[:, None], kv=caches).logits[:, -1]
    return [_segment(p, g, d, vocab) for p, g, d in zip(prompts, gens, done)]


def generate(ckpt: model.Checkpoint, prompt, cfg: GenConfig,
             vocab: corpus.Vocab) -> GenerationResult:
    """One prompt through `generate_batch`."""
    return generate_batch(ckpt, [prompt], [""], cfg, vocab)[0]


def extract_answer(result: GenerationResult, lang: corpus.Language, vocab: corpus.Vocab):
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


def conformance(cot_tokens, expected: corpus.Language, vocab: corpus.Vocab) -> float:
    """Fraction of lexical trace tokens drawn from the expected lexicon."""
    word_ids = [t for t in cot_tokens if t in vocab.id_to_word and vocab.is_lexical(t)]
    if not word_ids:
        return 0.0
    expected_words = expected.words()
    hits = sum(1 for t in word_ids if vocab.id_to_word[t] in expected_words)
    return hits / len(word_ids)


def score(ckpt: model.Checkpoint, testset, cfg: GenConfig, vocab: corpus.Vocab,
          languages, expected_cot_lang: corpus.Language | None = None):
    """Exact-match accuracy plus trace-language conformance to `expected_cot_lang`, or
    by default to each sample's own `cot_lang`.

    Returns (report dict, per-item record list). Gold answers come from the
    testset samples' answer segments.
    """
    if not testset:
        raise EvalError("empty testset")
    by_id = {lang.id: lang for lang in languages}
    prompts = [[vocab.bos] + vocab.tokenize(s.question_text) for s in testset]
    results = generate_batch(ckpt, prompts, [s.id for s in testset], cfg, vocab)
    records = []
    for s, res in zip(testset, results):
        gold = s.answer_value()
        predicted = extract_answer(res, by_id[s.answer_lang], vocab)
        records.append({
            "id": s.id,
            "gold": gold,
            "predicted": predicted,
            "correct": bool(predicted is not None and predicted == gold),
            "terminated": res.terminated,
            "conformance": conformance(res.cot_segment, expected_cot_lang or by_id[s.cot_lang],
                                       vocab),
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


@dataclass
class CorrectionMatrix:
    n_items: int
    n_cc: int  # base correct -> new correct
    n_ci: int  # base correct -> new incorrect
    n_ic: int  # base incorrect -> new correct
    n_ii: int  # base incorrect -> new incorrect

    @property
    def cc(self) -> Fraction:
        return Fraction(self.n_cc, self.n_items)

    @property
    def ci(self) -> Fraction:
        return Fraction(self.n_ci, self.n_items)

    @property
    def ic(self) -> Fraction:
        return Fraction(self.n_ic, self.n_items)

    @property
    def ii(self) -> Fraction:
        return Fraction(self.n_ii, self.n_items)

    @property
    def acc_base(self) -> Fraction:
        return self.cc + self.ci

    @property
    def acc_new(self) -> Fraction:
        return self.cc + self.ic

    def to_json(self) -> dict:
        return {
            "n_items": self.n_items,
            "counts": {"cc": self.n_cc, "ci": self.n_ci, "ic": self.n_ic, "ii": self.n_ii},
            "rates": {"cc": float(self.cc), "ci": float(self.ci),
                      "ic": float(self.ic), "ii": float(self.ii)},
            "acc_base": float(self.acc_base),
            "acc_new": float(self.acc_new),
        }


def correction_matrix(base_records, new_records) -> CorrectionMatrix:
    """Correctness-transition counts between two per-item record sets."""
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
        n = new[iid]
        key = ("c" if b else "i") + ("c" if n else "i")
        counts[key] += 1
    return CorrectionMatrix(n_items=len(base), n_cc=counts["cc"], n_ci=counts["ci"],
                            n_ic=counts["ic"], n_ii=counts["ii"])
