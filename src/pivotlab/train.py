"""Segment-masked training objective and loop.

The loss splits next-token cross-entropy into a trace term and an answer
term, weighted by alpha and beta. A sample's two boundaries say which term a
target position feeds: the trace runs from `cot_start` up to `answer_start`
(THINK_END is its last token), and the answer from there to the end (EOS is
its last token). With alpha = beta = 1 the total is exactly the sum of the
two terms. Each term is a per-token mean over its own target positions within
the batch, so the weights stay comparable across samples with different
segment lengths.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field

import numpy as np

from . import atomic_open, model
from .corpus import PAD


class TrainError(Exception):
    pass


@dataclass
class TrainConfig:
    alpha: float = 1.0
    beta: float = 1.0
    lr: float = 3e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 3
    batch_size: int = 24
    seed: int = 0
    ema_weight: float = 0.95

    def validate(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise TrainError("alpha and beta must be >= 0")
        if not 0.0 <= self.ema_weight < 1.0:
            raise TrainError("ema_weight must lie in [0, 1)")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainError("epochs must be >= 1")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise TrainError("betas must be two values in [0, 1)")
        if self.lr <= 0 or self.eps <= 0:
            raise TrainError("lr and eps must be > 0")
        if self.weight_decay < 0:
            raise TrainError("weight_decay must be >= 0")


@dataclass
class LossBreakdown:
    loss_cot: float
    loss_answer: float
    loss_total: float
    n_cot: int
    n_answer: int


def pad_batch(samples):
    """Right-pad a list of samples to a (B, T) token array, plus a (B, 3) array of each
    sample's (cot_start, answer_start, len(tokens))."""
    t = max(len(s.tokens) for s in samples)
    tokens = np.full((len(samples), t), PAD, dtype=np.int64)
    for i, s in enumerate(samples):
        tokens[i, : len(s.tokens)] = s.tokens
    bounds = np.array([(s.cot_start, s.answer_start, len(s.tokens)) for s in samples],
                      dtype=np.int64)
    return tokens, bounds


def masked_loss(logits, tokens, bounds, alpha: float, beta: float):
    """Split cross-entropy of (B, T, V) logits under the next-token convention.

    Position i predicts token i+1, so target j feeds the segment that token j
    lies in under `pad_batch`'s bounds. Returns (LossBreakdown, d(loss)/d(logits)).
    """
    b, t, v = logits.shape
    targets = tokens[:, 1:]
    j = np.arange(1, t)
    cot_start, answer_start, end = bounds.T[:, :, None]
    cot_pos = (cot_start <= j) & (j < answer_start)
    ans_pos = (answer_start <= j) & (j < end)
    pred = logits[:, :-1, :]
    zmax = pred.max(axis=-1, keepdims=True)
    z = pred - zmax
    ez = np.exp(z)
    sez = ez.sum(axis=-1, keepdims=True)
    logp_target = (
        np.take_along_axis(z, targets[:, :, None], axis=-1)[:, :, 0]
        - np.log(sez[:, :, 0])
    )

    n_cot = int(cot_pos.sum())
    n_ans = int(ans_pos.sum())
    if n_cot == 0:
        raise TrainError("batch has no trace target positions")
    if n_ans == 0:
        raise TrainError("batch has no answer target positions")
    loss_cot = float(-logp_target[cot_pos].sum(dtype=np.float64) / n_cot)
    loss_answer = float(-logp_target[ans_pos].sum(dtype=np.float64) / n_ans)
    breakdown = LossBreakdown(
        loss_cot=loss_cot, loss_answer=loss_answer,
        loss_total=alpha * loss_cot + beta * loss_answer,
        n_cot=n_cot, n_answer=n_ans,
    )
    probs = ez / sez
    weight = np.zeros((b, t - 1), dtype=logits.dtype)
    weight[cot_pos] = alpha / n_cot
    weight[ans_pos] = beta / n_ans
    dpred = probs * weight[:, :, None]
    np.subtract.at(dpred, (np.arange(b)[:, None], np.arange(t - 1)[None, :], targets), weight)
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1, :] = dpred
    return breakdown, dlogits


@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(ckpt: model.Checkpoint, grads: dict, cfg: TrainConfig,
               step_index: int, state: AdamWState):
    """Decoupled-weight-decay Adam with bias correction; updates in place."""
    if step_index < 1:
        raise TrainError("step_index must be >= 1")
    b1, b2 = cfg.betas
    for path in model.param_paths(ckpt.config):
        g = grads.get(path)
        if g is None:
            raise TrainError(f"missing gradient for parameter {path}")
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for parameter {path}")
        p = ckpt.params[path]
        if path not in state.m:
            state.m[path] = np.zeros_like(p)
            state.v[path] = np.zeros_like(p)
        m, v = state.m[path], state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** step_index)
        vhat = v / (1.0 - b2 ** step_index)
        p -= cfg.lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p)
    ckpt.step = step_index
    return ckpt, state


def ema_series(values, weight: float) -> list:
    """y_0 = x_0; y_t = w * y_{t-1} + (1 - w) * x_t."""
    out = []
    for x in values:
        out.append(x if not out else weight * out[-1] + (1.0 - weight) * x)
    return out


def make_batches(samples, batch_size: int):
    """Length-sorted batches (stable by id) to keep padding waste low."""
    order = sorted(samples, key=lambda s: (len(s.tokens), s.id))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _step(batch, ckpt: model.Checkpoint, cfg: TrainConfig, step_index: int,
          state: AdamWState) -> LossBreakdown:
    """One AdamW step on `batch`. Its activations, loss gradient and parameter gradients
    are locals, so they are freed on return, before the next step's forward."""
    tokens, bounds = pad_batch(batch)
    trace = model.forward(ckpt, tokens)
    breakdown, dlogits = masked_loss(trace.logits, tokens, bounds, cfg.alpha, cfg.beta)
    adamw_step(ckpt, model.backward(trace, dlogits), cfg, step_index, state)
    return breakdown


def train(dataset, ckpt: model.Checkpoint, cfg: TrainConfig, on_epoch=None):
    """Run the full (epochs x batches) loop on `ckpt` in place; returns (ckpt, log rows).

    Each log row: step, epoch, loss_cot, loss_answer, loss_total, ema_cot,
    ema_answer. Batch order is shuffled per epoch from cfg.seed. After each
    epoch, `on_epoch(epoch, ckpt)` gets its 1-based number and the checkpoint.
    """
    cfg.validate()
    if not dataset:
        raise TrainError("empty dataset")
    for s in dataset:
        if len(s.tokens) > ckpt.config.max_context:
            raise model.ContextLengthError(
                f"sample {s.id} has {len(s.tokens)} tokens, exceeding max_context "
                f"{ckpt.config.max_context}")
    batches = make_batches(dataset, cfg.batch_size)
    state = AdamWState()
    rows = []
    step = 0
    for epoch in range(cfg.epochs):
        order = list(range(len(batches)))
        random.Random(cfg.seed * 1_000_003 + epoch).shuffle(order)
        for bi in order:
            step += 1
            breakdown = _step(batches[bi], ckpt, cfg, step, state)
            rows.append({
                "step": step, "epoch": epoch + 1,
                "loss_cot": breakdown.loss_cot, "loss_answer": breakdown.loss_answer,
                "loss_total": breakdown.loss_total,
            })
        if on_epoch is not None:
            on_epoch(epoch + 1, ckpt)
    for seg in ("cot", "answer"):
        emas = ema_series([r[f"loss_{seg}"] for r in rows], cfg.ema_weight)
        for r, y in zip(rows, emas):
            r[f"ema_{seg}"] = y
    return ckpt, rows


def write_log_csv(rows, path: str) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["step", "epoch", "loss_cot", "loss_answer", "loss_total",
                            "ema_cot", "ema_answer"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
