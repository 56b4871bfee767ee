"""Segment-masked training objective and loop.

The loss splits next-token cross-entropy into a trace term (targets labeled
COT) and an answer term (targets labeled ANSWER), weighted by alpha and beta.
With alpha = beta = 1 the total is exactly the sum of the two terms. Each
term is a per-token mean over its own target positions within the batch, so
the weights stay comparable across samples with different segment lengths.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field

import numpy as np

from . import corpus, model
from .corpus import COT, ANSWER, PAD_LABEL


class TrainError(Exception):
    pass


class SampleTooLongError(TrainError, model.ContextLengthError):
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


@dataclass
class LossBreakdown:
    loss_cot: float
    loss_answer: float
    loss_total: float
    n_cot: int
    n_answer: int


def pad_batch(samples, vocab: corpus.Vocab):
    """Right-pad a list of samples to a (B, T) token array plus label array."""
    t = max(len(s.tokens) for s in samples)
    tokens = np.full((len(samples), t), vocab.pad, dtype=np.int64)
    labels = np.full((len(samples), t), PAD_LABEL, dtype=np.int64)
    for i, s in enumerate(samples):
        tokens[i, : len(s.tokens)] = s.tokens
        labels[i, : len(s.mask)] = s.mask
    return tokens, labels


def masked_loss(trace: model.ForwardTrace, tokens, labels, alpha: float, beta: float,
                with_grad: bool = False):
    """Split cross-entropy under the next-token convention.

    Position i predicts token i+1; a target position carries the label of the
    token being predicted. Returns a LossBreakdown, plus d(loss)/d(logits)
    when with_grad is set.
    """
    logits = trace.logits
    if logits.ndim == 2:
        logits = logits[None]
    tokens = np.asarray(tokens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if tokens.ndim == 1:
        tokens, labels = tokens[None], labels[None]
    b, t, v = logits.shape

    targets = tokens[:, 1:]
    tlabels = labels[:, 1:]
    pred = logits[:, :-1, :]
    zmax = pred.max(axis=-1, keepdims=True)
    z = pred - zmax
    ez = np.exp(z)
    sez = ez.sum(axis=-1, keepdims=True)
    logp_target = (
        np.take_along_axis(z, targets[:, :, None], axis=-1)[:, :, 0]
        - np.log(sez[:, :, 0])
    )

    cot_pos = tlabels == COT
    ans_pos = tlabels == ANSWER
    n_cot = int(cot_pos.sum())
    n_ans = int(ans_pos.sum())
    if n_cot == 0:
        raise TrainError("batch has no trace-labeled target positions")
    if n_ans == 0:
        raise TrainError("batch has no answer-labeled target positions")
    loss_cot = float(-logp_target[cot_pos].sum(dtype=np.float64) / n_cot)
    loss_answer = float(-logp_target[ans_pos].sum(dtype=np.float64) / n_ans)
    breakdown = LossBreakdown(
        loss_cot=loss_cot, loss_answer=loss_answer,
        loss_total=alpha * loss_cot + beta * loss_answer,
        n_cot=n_cot, n_answer=n_ans,
    )
    if not with_grad:
        return breakdown

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


def train(dataset, ckpt: model.Checkpoint, cfg: TrainConfig, vocab: corpus.Vocab,
          checkpoint_dir: str | None = None):
    """Run the full (epochs x batches) loop; returns (ckpt, log rows).

    Each log row: step, epoch, loss_cot, loss_answer, loss_total, ema_cot,
    ema_answer. Batch order is shuffled per epoch from cfg.seed.
    """
    cfg.validate()
    if not dataset:
        raise TrainError("empty dataset")
    for s in dataset:
        if len(s.tokens) > ckpt.config.max_context:
            raise SampleTooLongError(
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
            batch = batches[bi]
            tokens, labels = pad_batch(batch, vocab)
            trace = model.forward(ckpt, tokens)
            breakdown, dlogits = masked_loss(trace, tokens, labels, cfg.alpha, cfg.beta,
                                             with_grad=True)
            grads = model.backward(ckpt, trace, dlogits)
            step += 1
            adamw_step(ckpt, grads, cfg, step, state)
            rows.append({
                "step": step, "epoch": epoch + 1,
                "loss_cot": breakdown.loss_cot, "loss_answer": breakdown.loss_answer,
                "loss_total": breakdown.loss_total,
            })
        if checkpoint_dir is not None:
            model.save(ckpt, f"{checkpoint_dir}/epoch{epoch + 1}.ckpt")
    for seg in ("cot", "answer"):
        emas = ema_series([r[f"loss_{seg}"] for r in rows], cfg.ema_weight)
        for r, y in zip(rows, emas):
            r[f"ema_{seg}"] = y
    return ckpt, rows


def write_log_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["step", "epoch", "loss_cot", "loss_answer", "loss_total",
                            "ema_cot", "ema_answer"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
