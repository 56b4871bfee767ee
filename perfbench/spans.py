"""Span recording around pivotlab's public module functions.

`traced(recorder)` replaces each function named in TRACED with a wrapper
that records one span per call and puts the original back on exit. Callers
inside pivotlab look these functions up as module attributes at call time
(`model.forward(...)`, `train.train(...)`), so wrapping them from outside
sees every call from cli down to model without editing the program.

Spans are kept in memory; `Recorder.dump` writes them out once, at the end.
`layer_metrics` turns a span list into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

TRACED = {
    "cli": ("main",),
    "corpus": ("build_dataset", "save_jsonl", "load_jsonl"),
    "model": ("init", "forward", "backward", "save", "load"),
    "train": ("train", "pad_batch", "masked_loss", "adamw_step"),
    "evaluate": ("generate", "generate_batch", "score"),
    "analysis": ("embed", "retrieval_report", "delta_map"),
}

# A model.forward call takes its role from its nearest enclosing span.
FORWARD_ROLES = {
    "train.train": "train",
    "evaluate.generate": "decode",
    "evaluate.generate_batch": "decode",
    "analysis.embed": "embed",
    "analysis.retrieval_report": "embed",
}
TERMINATIONS = ("EOS", "LENGTH", "SEPARATOR_MISSING")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)


def _observe(name: str, args: tuple, result) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name == "model.forward":
        b, t = result.tokens.shape
        return {"positions": b * t}
    if name == "train.pad_batch":
        return {"tokens": sum(len(s.tokens) for s in args[0])}
    if name in ("evaluate.generate", "evaluate.generate_batch"):
        results = [result] if name == "evaluate.generate" else result
        ended = Counter(r.terminated for r in results)
        return {"generated": sum(len(r.generated) for r in results), **ended}
    return {}


class Recorder:
    """In-memory span list for one run; one open-span stack (single thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn):
        def traced_call(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(id=len(self.spans), name=name, start=time.perf_counter(), end=0.0,
                        parent=parent.id if parent else None, run=self.run_id)
            if name == "model.forward":
                span.attrs["role"] = FORWARD_ROLES.get(parent.name if parent else "", "other")
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.attrs["error"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs.update(_observe(name, args, result))
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap every TRACED function for the duration of the block."""
    originals = []
    try:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"pivotlab.{module_name}")
            for name in names:
                fn = getattr(module, name)
                originals.append((module, name, fn))
                setattr(module, name, recorder.wrap(f"{module_name}.{name}", fn))
        yield recorder
    finally:
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**s) for s in json.load(fh)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


PER_LAYER = (
    "model.forward.train.s", "model.forward.train.positions", "model.backward.s",
    "train.adamw_step.s", "train.masked_loss.s", "train.pad_batch.s", "train.train.self_s",
    "train.steps", "train.tokens", "train.useful_position_ratio",
    "model.forward.decode.s", "model.forward.decode.calls", "model.forward.decode.positions",
    "evaluate.generate_batch.s", "evaluate.generate_batch.self_s",
    "evaluate.generated_tokens", "evaluate.useful_position_ratio",
    *(f"evaluate.terminated.{t}" for t in TERMINATIONS),
    "evaluate.score.self_s",
    "analysis.retrieval_report.s", "analysis.retrieval_report.self_s",
    "model.forward.embed.s", "model.forward.embed.calls", "analysis.delta_map.s",
    "corpus.build_dataset.s", "corpus.save_jsonl.s", "corpus.load_jsonl.s",
    "model.init.s", "model.save.s", "model.load.s",
    "cli.main.s", "cli.self_s",
    *(f"{m}.errors" for m in TRACED),
)

# Per-layer metrics that are counts of work: they must repeat exactly.
EXACT_COUNTS = (
    "train.steps", "train.tokens", "model.forward.train.positions",
    "model.forward.decode.positions", "model.forward.embed.positions",
    "evaluate.generated_tokens", *(f"evaluate.terminated.{t}" for t in TERMINATIONS),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Sum spans into the PER_LAYER metrics (and the counts in EXACT_COUNTS)."""
    selfs = self_times(spans)
    m: Counter = Counter()
    for s in spans:
        dur = s.end - s.start
        module = s.name.split(".", 1)[0]
        m[f"{s.name}.s"] += dur
        m[f"{s.name}.self_s"] += selfs[s.id]
        m[f"{module}.errors"] += s.attrs.get("error", 0)
        if s.name == "model.forward":
            role = s.attrs["role"]
            m[f"model.forward.{role}.s"] += dur
            m[f"model.forward.{role}.calls"] += 1
            m[f"model.forward.{role}.positions"] += s.attrs.get("positions", 0)
        elif s.name == "train.adamw_step":
            m["train.steps"] += 1
        elif s.name == "train.pad_batch":
            m["train.tokens"] += s.attrs.get("tokens", 0)
        elif s.name in ("evaluate.generate", "evaluate.generate_batch"):
            m["evaluate.generated_tokens"] += s.attrs.get("generated", 0)
            for t in TERMINATIONS:
                m[f"evaluate.terminated.{t}"] += s.attrs.get(t, 0)
    m["cli.self_s"] = m["cli.main.self_s"]
    m["train.useful_position_ratio"] = (
        m["train.tokens"] / m["model.forward.train.positions"]
        if m["model.forward.train.positions"] else 0.0)
    m["evaluate.useful_position_ratio"] = (
        m["evaluate.generated_tokens"] / m["model.forward.decode.positions"]
        if m["model.forward.decode.positions"] else 0.0)
    keep = set(PER_LAYER) | set(EXACT_COUNTS)
    return {k: float(m[k]) for k in sorted(keep)}
