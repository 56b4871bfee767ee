"""Miniature decoder-only transformer in numpy with hand-written gradients.

Pre-norm residual blocks, learned absolute positions, untied embedding and
output head, no biases on linear maps, no dropout. Every parameter lives in
a flat registry keyed by path strings ("emb", "pos", "L0.att_q", ...,
"final_norm", "head") so checkpoints can be diffed tensor by tensor.
LayerNorm parameters are stored as a (2, dim) tensor: row 0 gain, row 1 shift.

A checkpoint file ("pivotlab-checkpoint-v2") is one JSON manifest line of `magic`,
`config` and `step`, then the payload: every tensor of `param_paths(config)` in
order, each `_param_shape(path, config)` in size, little-endian in `config.dtype`.
The config decides the whole layout, so the file stores no other.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field, fields, replace

import numpy as np

from . import atomic_open

LAYER_ROLES = ("att_q", "att_k", "att_v", "att_o", "mlp_up", "mlp_down", "norm1", "norm2")

LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715

CHECKPOINT_MAGIC = "pivotlab-checkpoint-v2"

# The two threads of a split batch: they start on first use and then stay. Its
# tasks never submit to it, so callers in several threads cannot deadlock it.
_POOL = ThreadPoolExecutor(2)


class ModelError(Exception):
    pass


class CheckpointIOError(ModelError):
    pass


class ContextLengthError(ModelError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    max_context: int = 256
    rng_seed: int = 0
    dtype: str = "float32"

    def validate(self) -> None:
        for f in fields(self):  # a bool or a float would make the tensor shapes wrong
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise ModelError(f"{f.name} must be an int, not {getattr(self, f.name)!r}")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_context"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if self.rng_seed < 0:
            raise ModelError("rng_seed must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unsupported dtype {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def param_paths(config: ModelConfig) -> list:
    paths = ["emb", "pos"]
    for i in range(config.n_layers):
        paths += [f"L{i}.{role}" for role in LAYER_ROLES]
    paths += ["final_norm", "head"]
    return paths


def path_role(path: str) -> str:
    return (path.split(".", 1)[1] if "." in path else path).upper()


def path_layer(path: str):
    """Layer index, or None for global parameters."""
    if path.startswith("L") and "." in path:
        return int(path.split(".", 1)[0][1:])
    return None


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict  # path -> np.ndarray
    step: int = 0

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            config=ModelConfig(**asdict(self.config)),
            params={p: v.copy() for p, v in self.params.items()},
            step=self.step,
        )

    def validate(self) -> None:
        """The parameters are the config's paths in its shapes and dtype, all finite."""
        if type(self.step) is not int or self.step < 0:
            raise ModelError(f"step must be an int >= 0, not {self.step!r}")
        expected = set(param_paths(self.config))
        got = set(self.params)
        if expected != got:
            raise ModelError(f"parameter set mismatch: missing {expected - got}, extra {got - expected}")
        for p, v in self.params.items():
            if v.shape != _param_shape(p, self.config) or v.dtype != self.config.np_dtype():
                raise ModelError(f"parameter {p} is {v.dtype}{list(v.shape)}, the config needs "
                                 f"{self.config.dtype}{list(_param_shape(p, self.config))}")
            if not np.all(np.isfinite(v)):
                raise ModelError(f"non-finite values in parameter {p}")


def _param_shape(path: str, cfg: ModelConfig) -> tuple:
    role = path_role(path)
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    return {
        "EMB": (v, d), "POS": (cfg.max_context, d), "HEAD": (d, v),
        "ATT_Q": (d, d), "ATT_K": (d, d), "ATT_V": (d, d), "ATT_O": (d, d),
        "MLP_UP": (d, f), "MLP_DOWN": (f, d),
        "NORM1": (2, d), "NORM2": (2, d), "FINAL_NORM": (2, d),
    }[role]


def _n_elements(cfg: ModelConfig) -> int:
    """Number of parameter elements, worked out without listing all 8 * n_layers paths."""
    return sum(math.prod(_param_shape(p, cfg)) * (1 if path_layer(p) is None else cfg.n_layers)
               for p in param_paths(replace(cfg, n_layers=1)))


def init(config: ModelConfig) -> Checkpoint:
    """Seeded small-variance init; norms start as identity maps."""
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    dt = config.np_dtype()
    params = {}
    for path in param_paths(config):
        shape = _param_shape(path, config)
        role = path_role(path)
        if role.startswith("NORM") or role == "FINAL_NORM":
            w = np.zeros(shape)
            w[0, :] = 1.0
        else:
            fan_in = shape[0]
            w = rng.normal(0.0, fan_in ** -0.5, size=shape)
        params[path] = np.ascontiguousarray(w, dtype=dt)
    return Checkpoint(config=config, params=params, step=0)


class KVCache:
    """Keys and values of `rows` sequences at positions 0..filled-1, per layer, in
    buffers of `capacity` positions allocated once; decoding forwards append to it."""

    def __init__(self, config: ModelConfig, rows: int, capacity: int):
        # a buffer per layer stays under the 4 MB from which numpy asks for huge pages
        shape, n = (rows, config.n_heads, capacity, config.head_dim), config.n_layers
        self.k = [np.empty(shape, dtype=config.np_dtype()) for _ in range(n)]
        self.v = [np.empty(shape, dtype=config.np_dtype()) for _ in range(n)]
        self.rows, self.capacity, self.filled = rows, capacity, 0


@dataclass
class ForwardTrace:
    logits: np.ndarray          # (B, T, V)
    hidden_states: list         # n_layers + 1 arrays of (B, T, d); [0] = embeddings
    tokens: np.ndarray          # (B, T)
    caches: list                # per-layer dicts of cached activations
    final_cache: dict
    checkpoint: Checkpoint      # the producer, whose parameters backward differentiates
    halves: list = field(default_factory=list)  # a split batch's two row-half traces


# These kernels write into arrays they own, but run the floating-point operations of
# the plain versions in tests/oracles.py in the same order, so the bits are the same.

def _layernorm_forward(x, w):
    """(gain * xhat + shift, xhat, 1 / sqrt(var + eps)) over the last axis of x."""
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(y.sum(axis=-1, keepdims=True) / d + LN_EPS)
    if not inv.all():  # an infinite variance would turn the row into the shift alone
        raise ModelError("layernorm variance overflows: the checkpoint's forward is not finite")
    xhat *= inv
    np.multiply(xhat, w[0], out=y)
    y += w[1]
    return y, xhat, inv


def _layernorm_backward(dy, w, xhat, inv):
    """(dx, dw) of _layernorm_forward; dx is written over dy."""
    tmp = dy * xhat
    dw = np.stack([tmp.sum(axis=(0, 1)), dy.sum(axis=(0, 1))])
    dy *= w[0]
    m1 = dy.sum(axis=-1, keepdims=True) / dy.shape[-1]
    m2 = np.multiply(dy, xhat, out=tmp).sum(axis=-1, keepdims=True) / dy.shape[-1]
    dy -= m1
    dy -= np.multiply(xhat, m2, out=tmp)
    dy *= inv
    return dy, dw


def _gelu(u, _with_grad=True):
    """(GELU(u), GELU'(u) for the backward pass, or None without `_with_grad`), tanh form."""
    t = np.multiply(u, _GELU_A)
    t *= u
    t *= u
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    g = np.multiply(u, 0.5)
    if not _with_grad:
        t += 1.0
        g *= t
        return g, None
    gp = np.multiply(t, t)
    np.subtract(1.0, gp, out=gp)
    gp *= g
    gp *= _GELU_C
    poly = np.multiply(u, 3.0 * _GELU_A)
    poly *= u
    poly += 1.0
    gp *= poly
    t += 1.0
    g *= t
    t *= 0.5
    gp += t
    return g, gp


def _outer(x, y):
    """Sum over batch and time of outer products: (B,T,m),(B,T,n) -> (m,n)."""
    return x.reshape(-1, x.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _softmax(x):
    """Softmax over the last axis, written over x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attend(q, k, v, scale, mask):
    """(attention weights, weighted values) of (B, H, t, hd) queries over (B, H, n, hd) keys."""
    s = q @ k.transpose(0, 1, 3, 2)
    s *= scale
    if mask is not None:
        s += mask
    att = _softmax(s)
    return att, att @ v


def forward(ckpt: Checkpoint, tokens, kv: list | None = None) -> ForwardTrace:
    """Causal forward pass. Accepts a single id sequence or a (B, T) batch.

    Without `kv` the trace keeps what `backward` needs, and B >= 2 rows run as
    two fixed row halves, [:ceil(B/2)] and [ceil(B/2):], on two threads; the
    trace concatenates their logits and hidden states and keeps each half's
    trace in `halves`.

    With `kv`, a list of KVCache whose rows, in order, are the B rows, the call
    is one decoding step: each cache's rows are its positions filled..filled+T-1,
    attend to that cache's prefix and append their keys and values to it. The
    position-wise work runs once over all B rows, the attention once per cache.
    Its trace covers the new positions only and keeps nothing, as backward
    cannot cross a cached prefix.
    """
    cfg = ckpt.config
    tok = np.asarray(tokens, dtype=np.int64)
    if tok.ndim == 1:
        tok = tok[None, :]
    if tok.ndim != 2:
        raise ModelError("tokens must be a sequence or a 2-D batch")
    b, t = tok.shape
    if t == 0:
        raise ModelError("empty input sequence")
    if kv is not None and sum(c.rows for c in kv) != b:
        raise ModelError(f"the caches hold {sum(c.rows for c in kv)} rows, the batch has {b}")
    t0 = max(c.filled for c in kv) if kv else 0
    if t0 + t > cfg.max_context:
        raise ContextLengthError(f"sequence length {t0 + t} exceeds max_context {cfg.max_context}")
    if kv and any(c.filled + t > c.capacity for c in kv):
        raise ModelError(f"{t} more positions exceed a cache's capacity")
    if tok.min() < 0 or tok.max() >= cfg.vocab_size:
        raise ModelError("token id outside vocabulary")
    if kv is None and b >= 2:
        # Two fixed row halves on two threads; numpy releases the GIL in BLAS
        # and ufuncs, so they overlap. The split depends only on the shape.
        mid = (b + 1) // 2
        halves = list(_POOL.map(lambda rows: _forward_rows(ckpt, rows, None),
                                (tok[:mid], tok[mid:])))
        return ForwardTrace(
            logits=np.concatenate([h.logits for h in halves]),
            hidden_states=[np.concatenate(hs) for hs in zip(*(h.hidden_states for h in halves))],
            tokens=tok, caches=[], final_cache={}, checkpoint=ckpt, halves=halves)
    return _forward_rows(ckpt, tok, kv)


def _forward_rows(ckpt: Checkpoint, tok, kv) -> ForwardTrace:
    """The layer loop over a validated (B, T) batch; it keeps activations unless `kv` is set."""
    cfg, p = ckpt.config, ckpt.params
    t = tok.shape[1]
    dt = cfg.np_dtype()
    scale = dt(cfg.head_dim ** -0.5)
    # causal masks of t queries at the last t of n keys; a one-token step needs none
    masks = [None if t == 1 else np.triu(np.full((t, n), -np.inf, dtype=dt), k=n - t + 1)
             for n in ([c.filled + t for c in kv] if kv else [t])]
    starts = np.repeat([c.filled for c in kv], [c.rows for c in kv])[:, None] if kv else 0

    h = p["emb"][tok]
    h += p["pos"][starts + np.arange(t)]
    hidden = [h]
    caches = []
    for i in range(cfg.n_layers):
        lp = f"L{i}."
        a, xhat1, inv1 = _layernorm_forward(h, p[lp + "norm1"])
        q = _split_heads(a @ p[lp + "att_q"], cfg.n_heads)
        k = _split_heads(a @ p[lp + "att_k"], cfg.n_heads)
        v = _split_heads(a @ p[lp + "att_v"], cfg.n_heads)
        if kv is None:
            att, ctx = _attend(q, k, v, scale, masks[0])
        else:
            ctx, r = np.empty_like(q), 0
            for c, mask in zip(kv, masks):
                rows, end = slice(r, r + c.rows), c.filled + t
                c.k[i][:, :, c.filled:end], c.v[i][:, :, c.filled:end] = k[rows], v[rows]
                ctx[rows] = _attend(q[rows], c.k[i][:, :, :end], c.v[i][:, :, :end], scale, mask)[1]
                r += c.rows
        ctx = _merge_heads(ctx)
        h_mid = ctx @ p[lp + "att_o"]
        h_mid += h
        m_in, xhat2, inv2 = _layernorm_forward(h_mid, p[lp + "norm2"])
        g, gp = _gelu(m_in @ p[lp + "mlp_up"], kv is None)
        h = g @ p[lp + "mlp_down"]
        h += h_mid
        hidden.append(h)
        if kv is None:
            caches.append(dict(a=a, xhat1=xhat1, inv1=inv1, q=q, k=k, v=v, att=att, ctx=ctx,
                               m_in=m_in, xhat2=xhat2, inv2=inv2, g=g, gp=gp))
    for c in kv or ():
        c.filled += t
    f, xhat_f, inv_f = _layernorm_forward(h, p["final_norm"])
    final_cache = {"f": f, "xhat_f": xhat_f, "inv_f": inv_f} if kv is None else {}
    return ForwardTrace(logits=f @ p["head"], hidden_states=hidden, tokens=tok,
                        caches=caches, final_cache=final_cache, checkpoint=ckpt)


def backward(trace: ForwardTrace, dlogits) -> dict:
    """Exact gradients of a scalar loss for `trace.checkpoint`, given d(loss)/d(logits)."""
    dl = np.asarray(dlogits, dtype=trace.checkpoint.config.np_dtype())
    if dl.shape != trace.logits.shape:
        raise ModelError("dlogits shape mismatch with trace logits")
    if not trace.halves:
        return _backward(trace, dl)
    mid = trace.halves[0].tokens.shape[0]
    g0, g1 = _POOL.map(_backward, trace.halves, (dl[:mid], dl[mid:]))
    return {path: g0[path] + g1[path] for path in g0}


def _backward(trace: ForwardTrace, dl) -> dict:
    if not trace.caches:
        raise ModelError("trace has no cached activations (a decoding step keeps none)")
    cfg, p = trace.checkpoint.config, trace.checkpoint.params
    tok = trace.tokens
    b, t = tok.shape
    scale = cfg.head_dim ** -0.5

    fc = trace.final_cache
    grads = {"head": _outer(fc["f"], dl)}
    dh, grads["final_norm"] = _layernorm_backward(dl @ p["head"].T, p["final_norm"],
                                                  fc["xhat_f"], fc["inv_f"])

    for i in reversed(range(cfg.n_layers)):
        lp = f"L{i}."
        c = trace.caches[i]
        # MLP branch
        grads[lp + "mlp_down"] = _outer(c["g"], dh)
        du = dh @ p[lp + "mlp_down"].T
        du *= c["gp"]
        grads[lp + "mlp_up"] = _outer(c["m_in"], du)
        dx_ln, grads[lp + "norm2"] = _layernorm_backward(du @ p[lp + "mlp_up"].T, p[lp + "norm2"],
                                                         c["xhat2"], c["inv2"])
        dh += dx_ln
        # attention branch
        grads[lp + "att_o"] = _outer(c["ctx"], dh)
        dctx = _split_heads(dh @ p[lp + "att_o"].T, cfg.n_heads)
        ds = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["att"].transpose(0, 1, 3, 2) @ dctx
        ds -= (ds * c["att"]).sum(axis=-1, keepdims=True)
        ds *= c["att"]
        dq = ds @ c["k"]
        dq *= scale
        dk = ds.transpose(0, 1, 3, 2) @ c["q"]
        dk *= scale
        mdq, mdk, mdv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        da = mdq @ p[lp + "att_q"].T
        da += mdk @ p[lp + "att_k"].T
        da += mdv @ p[lp + "att_v"].T
        grads[lp + "att_q"] = _outer(c["a"], mdq)
        grads[lp + "att_k"] = _outer(c["a"], mdk)
        grads[lp + "att_v"] = _outer(c["a"], mdv)
        dx_ln, grads[lp + "norm1"] = _layernorm_backward(da, p[lp + "norm1"], c["xhat1"], c["inv1"])
        dh += dx_ln

    grads["pos"] = np.zeros_like(p["pos"])
    grads["pos"][:t] = dh.sum(axis=0)
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], tok.reshape(-1), dh.reshape(b * t, -1))
    return grads


def save(ckpt: Checkpoint, path: str) -> None:
    """Write the checkpoint file described in the module docstring."""
    ckpt.validate()
    manifest = {"magic": CHECKPOINT_MAGIC, "config": asdict(ckpt.config), "step": ckpt.step}
    dt = np.dtype(ckpt.config.dtype).newbyteorder("<")
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
        for p in param_paths(ckpt.config):
            fh.write(ckpt.params[p].astype(dt).tobytes())


def load(path: str) -> Checkpoint:
    """The checkpoint `save` wrote; a file that does not hold one raises CheckpointIOError."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIOError(f"corrupt checkpoint manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointIOError(f"not a {CHECKPOINT_MAGIC} file (bad magic)")
    try:
        config = ModelConfig(**manifest["config"])
        config.validate()
        dt = np.dtype(config.dtype).newbyteorder("<")
        need = _n_elements(config) * dt.itemsize
        if len(payload) != need:
            raise ModelError(f"payload of {len(payload)} bytes, but the config needs {need}")
        shapes = {p: _param_shape(p, config) for p in param_paths(config)}
        sizes = [math.prod(shape) for shape in shapes.values()]
        flat = np.split(np.frombuffer(payload, dt), np.cumsum(sizes)[:-1])
        params = {p: a.astype(config.np_dtype()).reshape(shapes[p]) for p, a in zip(shapes, flat)}
        ckpt = Checkpoint(config=config, params=params, step=manifest["step"])
        ckpt.validate()
    except (KeyError, TypeError, ModelError) as exc:
        raise CheckpointIOError(f"malformed checkpoint ({type(exc).__name__}): {exc}") from exc
    return ckpt
