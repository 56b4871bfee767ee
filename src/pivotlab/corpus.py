"""Synthetic bilingual multi-step arithmetic corpus.

Two constructed languages with disjoint word lexicons stand in for a
high-resource pivot language and a low-resource target language. A language is
its lexicon, a plain dict of phrases; `default_languages` maps each language id
("PIVOT", "TARGET") to its lexicon. Questions, chain-of-thought traces, and
answers are rendered from the same underlying integer problems, so answer
correctness and per-token language membership are exactly checkable.
"""

from __future__ import annotations

import json
import math
import random
import re
from array import array
from dataclasses import dataclass

from . import atomic_open, read_jsonl

# The language of each segment (question, trace, answer) under each regime.
REGIME_LANGS = {
    "NATIVE": ("TARGET", "TARGET", "TARGET"),
    "PIVOTED": ("TARGET", "PIVOT", "TARGET"),
    "PIVOT_ONLY": ("PIVOT", "PIVOT", "PIVOT"),
}
SEGMENTS = ("QUESTION", "COT", "ANSWER")

OPS = ("ADD", "SUB", "MUL")

SPECIAL_WORDS = ("<pad>", "<bos>", "</think>", "<eos>")
PAD, BOS, THINK_END, EOS = range(len(SPECIAL_WORDS))
SIGN_WORD = "-"
PUNCT = (".", "?", ":", "=", ";")
DIGITS = tuple(str(d) for d in range(10))
# Every vocabulary lists these words first, so each one's id is its position: an id is
# special exactly when it is at most EOS, and a language's word exactly when it is at
# least FIRST_WORD.
_LAYOUT = (*SPECIAL_WORDS, *DIGITS, SIGN_WORD, *PUNCT)
SIGN = _LAYOUT.index(SIGN_WORD)
FIRST_WORD = len(_LAYOUT)

VALUE_LIMIT = 999
# Generation keeps running values at most two digits so the task stays
# learnable by a minutes-scale model; `value_cap` may go up to the limit above.
DEFAULT_VALUE_CAP = 99
OPERAND_MAX = 20
DEFAULT_MAX_STEPS = 5

_NUMBER_RE = re.compile(r"-?\d+")


class CorpusError(Exception):
    pass


class UnknownWordError(CorpusError):
    pass


def _apply_op(value: int, op: str, operand: int) -> int:
    if op == "ADD":
        return value + operand
    if op == "SUB":
        return value - operand
    return value * operand  # op is "MUL", the last of OPS


@dataclass
class Problem:
    start: int
    steps: list   # list of (op, operand)
    values: list  # the value after each step; the last is the answer


def default_languages() -> dict:
    """The shipped lexicon of each language id: no word is in both, each has an "op_<op>"
    entry per op in OPS, and their "question_template"s order the steps and query apart."""
    return {
        "PIVOT": {
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
        "TARGET": {
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
    }


def words(lexicon: dict) -> set:
    """The lexical words of a lexicon: those of every entry but the template, less PUNCT."""
    return {w for key, text in lexicon.items() if key != "question_template"
            for w in text.split() if w not in PUNCT}


class Vocab:
    """Closed word-level vocabulary with digit-by-digit numerals."""

    def __init__(self, word_to_id: dict):
        self.word_to_id = dict(word_to_id)
        self.id_to_word = {i: w for w, i in self.word_to_id.items()}

    def __len__(self) -> int:
        return len(self.word_to_id)

    def tokenize(self, text: str) -> list:
        ids = []
        for piece in text.split():
            if piece in self.word_to_id:
                ids.append(self.word_to_id[piece])
            elif _NUMBER_RE.fullmatch(piece):
                if piece.startswith("-"):
                    ids.append(SIGN)
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
            "specials": {"pad": PAD, "bos": BOS, "think_end": THINK_END, "eos": EOS},
        }

    def save(self, path: str) -> None:
        with atomic_open(path, encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")


def build_vocab(languages) -> Vocab:
    lexical = set().union(*map(words, languages.values()))
    return Vocab({w: i for i, w in enumerate((*_LAYOUT, *sorted(lexical)))})


def gen_problem(rng_seed: int, max_steps: int = DEFAULT_MAX_STEPS,
                value_cap: int = DEFAULT_VALUE_CAP) -> Problem:
    """Seeded multi-step integer problem; per-step rejection keeps values in range."""
    check_settings(max_steps=max_steps, value_cap=value_cap)
    rng = random.Random(rng_seed)
    n_steps = rng.randint(1, max_steps)
    start = rng.randint(0, OPERAND_MAX)
    steps, values = [], []
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
        values.append(v)
    return Problem(start=start, steps=steps, values=values)


def render(problem: Problem, segment: str, lex: dict) -> str:
    if segment == "QUESTION":
        parts = [lex["q_start"], str(problem.start)]
        for op, operand in problem.steps:
            parts += [lex["q_then"], lex["op_" + op.lower()], str(operand)]
        return lex["question_template"].format(steps=" ".join(parts), query=lex["q_query"])
    if segment == "COT":
        lines = []
        v = problem.start
        for i, ((op, operand), nv) in enumerate(zip(problem.steps, problem.values)):
            lines.append(f"{lex['step_word']} {i + 1} : {v} {lex['op_' + op.lower()]} {operand} "
                         f"= {nv} ;")
            v = nv
        lines.append(f"{lex['restate']} {problem.values[-1]} ;")
        return " ".join(lines)
    if segment == "ANSWER":
        return f"{lex['answer_phrase']} {problem.values[-1]}"
    raise CorpusError(f"unknown segment {segment!r}")


def answer_value(text: str, lexicon: dict):
    """The number of a text that is the lexicon's answer phrase and one number, else None."""
    *phrase, number = text.split() or [""]
    if phrase != lexicon["answer_phrase"].split() or not _NUMBER_RE.fullmatch(number):
        return None
    return int(number)


@dataclass
class Sample:
    id: str
    regime: str
    question_text: str
    cot_text: str
    answer_text: str
    tokens: array      # ids of [BOS, question, cot, THINK_END, answer, EOS], one byte each
    cot_start: int     # index of the first trace token, after BOS and the question
    answer_start: int  # index of the first answer token, after THINK_END

    @property
    def langs(self) -> tuple:
        """Language ids of the question, the trace and the answer."""
        return REGIME_LANGS[self.regime]

    @property
    def prompt(self) -> list:
        """BOS and the question."""
        return self.tokens[:self.cot_start].tolist()


def _assemble(sid: str, regime: str, q: str, c: str, a: str, vocab: Vocab) -> Sample:
    """Tokens and segment boundaries of one sample."""
    q_ids, c_ids, a_ids = vocab.tokenize(q), vocab.tokenize(c), vocab.tokenize(a)
    if min(q_ids + c_ids + a_ids, default=EOS + 1) <= EOS:
        raise CorpusError(f"sample {sid}: special token inside a segment")
    return Sample(
        id=sid, regime=regime,
        question_text=q, cot_text=c, answer_text=a,
        tokens=array("B", [BOS, *q_ids, *c_ids, THINK_END, *a_ids, EOS]),
        cot_start=1 + len(q_ids), answer_start=2 + len(q_ids) + len(c_ids),
    )


def make_sample(problem: Problem, regime: str, sid: str, vocab: Vocab, languages) -> Sample:
    texts = [render(problem, seg, languages[lang])
             for seg, lang in zip(SEGMENTS, REGIME_LANGS[regime])]
    return _assemble(sid, regime, *texts, vocab)


def check_settings(n_target: int = 1, mix_ratio: float = 0.0, regime: str = "PIVOTED",
                   max_steps: int = DEFAULT_MAX_STEPS, value_cap: int = DEFAULT_VALUE_CAP) -> None:
    """The bounds on a dataset build; the names are the keys of the config's corpus section."""
    if n_target <= 0:
        raise CorpusError("n_target must be positive")
    if not 0.0 <= mix_ratio <= 1.0:
        raise CorpusError("mix_ratio must lie in [0, 1]")
    if regime not in REGIME_LANGS:
        raise CorpusError(f"unknown regime {regime!r}")
    if max_steps < 1:
        raise CorpusError("max_steps must be >= 1")
    if not 1 <= value_cap <= VALUE_LIMIT:
        raise CorpusError(f"value_cap must lie in [1, {VALUE_LIMIT}]")


def build_dataset(n_target: int, mix_ratio: float, regime: str, seed: int,
                  vocab: Vocab, languages, max_steps: int = DEFAULT_MAX_STEPS,
                  value_cap: int = DEFAULT_VALUE_CAP) -> list:
    """n_target samples in `regime` plus ceil(mix_ratio * n_target) pivot-only samples."""
    check_settings(n_target, mix_ratio, regime, max_steps, value_cap)
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


ROW_KEYS = ("id", "regime", "question", "cot", "answer", "question_lang", "cot_lang",
            "answer_lang")


def save_jsonl(samples, path: str) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        for s in samples:
            row = (s.id, s.regime, s.question_text, s.cot_text, s.answer_text, *s.langs)
            fh.write(json.dumps(dict(zip(ROW_KEYS, row)), ensure_ascii=False) + "\n")


def load_jsonl(path: str, vocab: Vocab, languages) -> list:
    """Samples of a JSONL file. A row is rejected, naming the file and the line, unless its
    fields are strings, its id is new, its languages are its regime's, each segment's lexical
    words are in its language, and `answer_value` reads its answer."""
    lexical = {w for w, i in vocab.word_to_id.items() if i >= FIRST_WORD}
    foreign = {lang: lexical - words(lex) for lang, lex in languages.items()}
    samples = {}
    for n, obj in read_jsonl(path, CorpusError):
        try:
            sid, regime, q, c, a, *stored = row = [obj.get(k) for k in ROW_KEYS]
            if not all(isinstance(v, str) for v in row):
                raise CorpusError(f"a row needs a string for each of {', '.join(ROW_KEYS)}")
            if sid in samples:
                raise CorpusError(f"sample {sid}: the id repeats")
            if tuple(stored) != REGIME_LANGS.get(regime):
                raise CorpusError(f"sample {sid}: languages {tuple(stored)} do not match "
                                  f"regime {regime!r}")
            s = _assemble(sid, regime, q, c, a, vocab)
            for seg, text, lang in zip(SEGMENTS, (q, c, a), stored):
                stray = foreign[lang].intersection(text.split())
                if stray:
                    raise CorpusError(f"sample {sid}: {seg} words {sorted(stray)} are not {lang}")
            if answer_value(a, languages[stored[2]]) is None:
                raise CorpusError(f"sample {sid}: answer {a!r} is not a {stored[2]} answer")
        except CorpusError as exc:
            raise CorpusError(f"{path} line {n}: {exc}") from None
        samples[sid] = s
    return list(samples.values())
