"""Synthetic bilingual multi-step arithmetic corpus.

Two constructed languages with disjoint word lexicons stand in for a
high-resource pivot language and a low-resource target language. Questions,
chain-of-thought traces, and answers are rendered from the same underlying
integer problems, so answer correctness and per-token language membership
are exactly checkable.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

# Segment labels carried per token alongside the token ids.
PROMPT, COT, ANSWER, PAD_LABEL = 0, 1, 2, 3
LABEL_NAMES = ("PROMPT", "COT", "ANSWER", "PAD")

REGIMES = ("NATIVE", "PIVOTED", "PIVOT_ONLY")
SEGMENTS = ("QUESTION", "COT", "ANSWER")

OPS = ("ADD", "SUB", "MUL")

PAD_WORD, BOS_WORD, THINK_END_WORD, EOS_WORD = "<pad>", "<bos>", "</think>", "<eos>"
SIGN_WORD = "-"
PUNCT = (".", "?", ":", "=", ";")
DIGITS = tuple(str(d) for d in range(10))

VALUE_LIMIT = 999
# Generation keeps running values at most two digits so the task stays
# learnable by a minutes-scale model; the validation bound above is looser.
DEFAULT_VALUE_CAP = 99
OPERAND_MAX = 20
DEFAULT_MAX_STEPS = 5

_NUMBER_RE = re.compile(r"-?\d+")

# Lexicon concepts every language must define. "question_template" arranges
# the step list and the query phrase; the two languages use different orders.
LEXICON_KEYS = (
    "q_start",
    "q_then",
    "op_add",
    "op_sub",
    "op_mul",
    "q_query",
    "question_template",
    "step_word",
    "restate",
    "answer_phrase",
)


class CorpusError(Exception):
    pass


class UnknownWordError(CorpusError):
    pass


def _apply_op(value: int, op: str, operand: int) -> int:
    if op == "ADD":
        return value + operand
    if op == "SUB":
        return value - operand
    if op == "MUL":
        return value * operand
    raise CorpusError(f"unknown op {op!r}")


@dataclass
class Problem:
    start: int
    steps: list  # list of (op, operand)
    intermediate_values: list  # values after steps[0..i], excluding the last
    final_answer: int

    def validate(self, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        if not 1 <= len(self.steps) <= max_steps:
            raise CorpusError(f"step count {len(self.steps)} outside [1, {max_steps}]")
        trajectory = []
        v = self.start
        for op, operand in self.steps:
            if not 0 <= operand <= OPERAND_MAX:
                raise CorpusError(f"operand {operand} outside [0, {OPERAND_MAX}]")
            v = _apply_op(v, op, operand)
            trajectory.append(v)
        for x in trajectory:
            if abs(x) > VALUE_LIMIT:
                raise CorpusError(f"value {x} outside [-{VALUE_LIMIT}, {VALUE_LIMIT}]")
        if trajectory[:-1] != self.intermediate_values or trajectory[-1] != self.final_answer:
            raise CorpusError("recorded values disagree with the step list")

    def trajectory(self) -> list:
        return self.intermediate_values + [self.final_answer]


@dataclass(frozen=True)
class Language:
    id: str  # "PIVOT" or "TARGET"
    lexicon: dict

    def words(self) -> set:
        out = set()
        for key in LEXICON_KEYS:
            if key == "question_template":
                continue
            for w in self.lexicon[key].split():
                if w not in PUNCT:
                    out.add(w)
        return out

    def op_word(self, op: str) -> str:
        return self.lexicon[f"op_{op.lower()}"]


def default_languages() -> tuple:
    """The shipped pivot/target language pair (disjoint word sets)."""
    pivot = Language(
        id="PIVOT",
        lexicon={
            "q_start": "start with",
            "q_then": "then",
            "op_add": "add",
            "op_sub": "minus",
            "op_mul": "times",
            "q_query": "what is the result ?",
            "question_template": "{steps} . {query}",
            "step_word": "step",
            "restate": "so the result is",
            "answer_phrase": "the answer is",
        },
    )
    target = Language(
        id="TARGET",
        lexicon={
            "q_start": "zunto ka",
            "q_then": "rem",
            "op_add": "bexa",
            "op_sub": "doril",
            "op_mul": "mukto",
            "q_query": "kemo ne vasti ?",
            "question_template": "{query} : {steps} .",
            "step_word": "pasi",
            "restate": "sato vasti den",
            "answer_phrase": "tena vasti den",
        },
    )
    overlap = pivot.words() & target.words()
    if overlap:
        raise CorpusError(f"languages share surface words: {sorted(overlap)}")
    return pivot, target


class Vocab:
    """Closed word-level vocabulary with digit-by-digit numerals."""

    def __init__(self, word_to_id: dict, specials: dict):
        self.word_to_id = dict(word_to_id)
        self.specials = dict(specials)
        self.id_to_word = {i: w for w, i in self.word_to_id.items()}
        if len(self.id_to_word) != len(self.word_to_id):
            raise CorpusError("vocab is not bijective")
        self.pad = specials["pad"]
        self.bos = specials["bos"]
        self.think_end = specials["think_end"]
        self.eos = specials["eos"]
        self.sign = self.word_to_id[SIGN_WORD]
        self.digit_ids = {self.word_to_id[d] for d in DIGITS}
        self.punct_ids = {self.word_to_id[p] for p in PUNCT}
        self.special_ids = {self.pad, self.bos, self.think_end, self.eos}

    def __len__(self) -> int:
        return len(self.word_to_id)

    def is_lexical(self, token_id: int) -> bool:
        """True for ordinary words (not digits, sign, punctuation, specials)."""
        return not (
            token_id in self.digit_ids
            or token_id == self.sign
            or token_id in self.punct_ids
            or token_id in self.special_ids
        )

    def tokenize(self, text: str) -> list:
        ids = []
        for piece in text.split():
            if piece in self.word_to_id:
                ids.append(self.word_to_id[piece])
            elif _NUMBER_RE.fullmatch(piece):
                if piece.startswith("-"):
                    ids.append(self.sign)
                    piece = piece[1:]
                ids.extend(self.word_to_id[ch] for ch in piece)
            else:
                raise UnknownWordError(f"word {piece!r} not in vocabulary")
        return ids

    def detokenize(self, ids: list) -> str:
        pieces = []
        prev_numeric = False
        for i in ids:
            w = self.id_to_word.get(i)
            if w is None:
                raise UnknownWordError(f"token id {i} not in vocabulary")
            if w in DIGITS and prev_numeric:
                pieces[-1] += w
            else:
                pieces.append(w)
            prev_numeric = w in DIGITS or w == SIGN_WORD
        return " ".join(pieces)

    def to_json(self) -> dict:
        return {
            "words": {w: i for w, i in sorted(self.word_to_id.items(), key=lambda kv: kv[1])},
            "specials": dict(self.specials),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        return cls(obj["words"], obj["specials"])


def build_vocab(languages) -> Vocab:
    words = [PAD_WORD, BOS_WORD, THINK_END_WORD, EOS_WORD]
    words += list(DIGITS)
    words.append(SIGN_WORD)
    words += list(PUNCT)
    lexical = set()
    for lang in languages:
        lexical |= lang.words()
    words += sorted(lexical)
    word_to_id = {w: i for i, w in enumerate(words)}
    specials = {"pad": 0, "bos": 1, "think_end": 2, "eos": 3}
    return Vocab(word_to_id, specials)


def gen_problem(rng_seed: int, max_steps: int = DEFAULT_MAX_STEPS,
                value_cap: int = DEFAULT_VALUE_CAP) -> Problem:
    """Seeded multi-step integer problem; per-step rejection keeps values in range."""
    if max_steps < 1:
        raise CorpusError("max_steps must be >= 1")
    if not 1 <= value_cap <= VALUE_LIMIT:
        raise CorpusError(f"value_cap must lie in [1, {VALUE_LIMIT}]")
    rng = random.Random(rng_seed)
    n_steps = rng.randint(1, max_steps)
    start = rng.randint(0, OPERAND_MAX)
    steps = []
    trajectory = []
    v = start
    for _ in range(n_steps):
        while True:
            op = rng.choice(OPS)
            operand = rng.randint(0, OPERAND_MAX)
            nv = _apply_op(v, op, operand)
            if abs(nv) <= value_cap:
                break
        steps.append((op, operand))
        v = nv
        trajectory.append(v)
    problem = Problem(start=start, steps=steps,
                      intermediate_values=trajectory[:-1], final_answer=trajectory[-1])
    problem.validate(max_steps)
    return problem


def render(problem: Problem, segment: str, lang: Language) -> str:
    lex = lang.lexicon
    for key in LEXICON_KEYS:
        if key not in lex:
            raise CorpusError(f"language {lang.id} missing lexicon entry {key!r}")
    if segment == "QUESTION":
        parts = [lex["q_start"], str(problem.start)]
        for op, operand in problem.steps:
            parts += [lex["q_then"], lang.op_word(op), str(operand)]
        return lex["question_template"].format(steps=" ".join(parts), query=lex["q_query"])
    if segment == "COT":
        lines = []
        v = problem.start
        for i, ((op, operand), nv) in enumerate(zip(problem.steps, problem.trajectory())):
            lines.append(f"{lex['step_word']} {i + 1} : {v} {lang.op_word(op)} {operand} = {nv} ;")
            v = nv
        lines.append(f"{lex['restate']} {problem.final_answer} ;")
        return " ".join(lines)
    if segment == "ANSWER":
        return f"{lex['answer_phrase']} {problem.final_answer}"
    raise CorpusError(f"unknown segment {segment!r}")


@dataclass
class Sample:
    id: str
    regime: str
    question_text: str
    cot_text: str
    answer_text: str
    question_lang: str
    cot_lang: str
    answer_lang: str
    tokens: list = field(default_factory=list)
    mask: list = field(default_factory=list)

    def answer_value(self):
        m = _NUMBER_RE.search(self.answer_text)
        return int(m.group()) if m else None


def segment_labels(n_question: int, n_cot: int, n_answer: int) -> list:
    """Labels for [BOS, question, cot, THINK_END, answer, EOS]."""
    return (
        [PROMPT] * (1 + n_question)  # BOS counts as prompt
        + [COT] * (n_cot + 1)        # separator terminates the trace
        + [ANSWER] * (n_answer + 1)  # EOS is the last answer-segment target
    )


def _regime_langs(regime: str) -> tuple:
    if regime == "NATIVE":
        return "TARGET", "TARGET", "TARGET"
    if regime == "PIVOTED":
        return "TARGET", "PIVOT", "TARGET"
    if regime == "PIVOT_ONLY":
        return "PIVOT", "PIVOT", "PIVOT"
    raise CorpusError(f"unknown regime {regime!r}")


def _assemble(sid: str, regime: str, q: str, c: str, a: str, vocab: Vocab) -> Sample:
    """Tokens and segment labels of one sample; the regime sets its languages."""
    q_lang, c_lang, a_lang = _regime_langs(regime)
    q_ids, c_ids, a_ids = vocab.tokenize(q), vocab.tokenize(c), vocab.tokenize(a)
    if vocab.special_ids.intersection(q_ids + c_ids + a_ids):
        raise CorpusError(f"sample {sid}: special token inside a segment")
    return Sample(
        id=sid, regime=regime,
        question_text=q, cot_text=c, answer_text=a,
        question_lang=q_lang, cot_lang=c_lang, answer_lang=a_lang,
        tokens=[vocab.bos] + q_ids + c_ids + [vocab.think_end] + a_ids + [vocab.eos],
        mask=segment_labels(len(q_ids), len(c_ids), len(a_ids)),
    )


def make_sample(problem: Problem, regime: str, sid: str, vocab: Vocab, languages) -> Sample:
    by_id = {lang.id: lang for lang in languages}
    texts = [render(problem, seg, by_id[lang])
             for seg, lang in zip(SEGMENTS, _regime_langs(regime))]
    return _assemble(sid, regime, *texts, vocab)


def build_dataset(n_target: int, mix_ratio: float, regime: str, seed: int,
                  vocab: Vocab, languages, max_steps: int = DEFAULT_MAX_STEPS,
                  value_cap: int = DEFAULT_VALUE_CAP) -> list:
    """n_target samples in `regime` plus ceil(mix_ratio * n_target) pivot-only samples."""
    if n_target <= 0:
        raise CorpusError("n_target must be positive")
    if not 0.0 <= mix_ratio <= 1.0:
        raise CorpusError("mix_ratio must lie in [0, 1]")
    if regime not in REGIMES:
        raise CorpusError(f"unknown regime {regime!r}")
    n_mix = 0 if regime == "PIVOT_ONLY" else math.ceil(mix_ratio * n_target)
    base = random.Random(seed)
    samples = []
    for i in range(n_target):
        p = gen_problem(base.getrandbits(62), max_steps, value_cap)
        samples.append(make_sample(p, regime, f"{regime.lower()}-{i:06d}", vocab, languages))
    for i in range(n_mix):
        p = gen_problem(base.getrandbits(62), max_steps, value_cap)
        samples.append(make_sample(p, "PIVOT_ONLY", f"mix-{i:06d}", vocab, languages))
    base.shuffle(samples)
    return samples


def save_jsonl(samples, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps({
                "id": s.id,
                "regime": s.regime,
                "question": s.question_text,
                "cot": s.cot_text,
                "answer": s.answer_text,
                "question_lang": s.question_lang,
                "cot_lang": s.cot_lang,
                "answer_lang": s.answer_lang,
            }, ensure_ascii=False) + "\n")


def load_jsonl(path: str, vocab: Vocab) -> list:
    """Samples of a JSONL file; rows that disagree with their regime are rejected."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            s = _assemble(obj["id"], obj["regime"], obj["question"], obj["cot"],
                          obj["answer"], vocab)
            stored = (obj["question_lang"], obj["cot_lang"], obj["answer_lang"])
            if stored != (s.question_lang, s.cot_lang, s.answer_lang):
                raise CorpusError(f"sample {s.id}: languages {stored} do not match "
                                  f"regime {s.regime}")
            samples.append(s)
    return samples
