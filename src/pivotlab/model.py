"""Miniature decoder-only transformer in numpy with hand-written gradients.

Pre-norm residual blocks, learned absolute positions, untied embedding and
output head, no biases on linear maps, no dropout. Every parameter lives in
a flat registry keyed by path strings ("emb", "pos", "L0.att_q", ...,
"final_norm", "head") so checkpoints can be diffed tensor by tensor.
LayerNorm parameters are stored as a (2, dim) tensor: row 0 gain, row 1 shift.

A checkpoint file ("pivotlab-checkpoint-v3") is one JSON manifest line of `magic`,
`config`, `step` and `sha256`, then the payload: every tensor of `param_paths(config)`
in order, each `_param_shape(path, config)` in size, little-endian in `config.dtype`.
The config decides the whole layout, so the file stores no other. `sha256` is the
digest of the canonical config JSON, the step and the payload (`_digest`).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, asdict, field, fields, replace

import numpy as np

from . import atomic_open

LAYER_ROLES = ("att_q", "att_k", "att_v", "att_o", "mlp_up", "mlp_down", "norm1", "norm2")

LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715

CHECKPOINT_MAGIC = "pivotlab-checkpoint-v3"

# The two threads of a training batch's row parts: they start on first use and then
# stay. Its tasks never submit to it, so callers in several threads cannot deadlock it.
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

    def keep(self, mask) -> "KVCache":
        """Only the rows where `mask` holds stay, in order; keeping every row copies nothing."""
        n = int(np.count_nonzero(mask))
        if n < self.rows:
            for buf in self.k + self.v:
                buf[:n, :, :self.filled] = buf[mask, :, :self.filled]
            self.k, self.v, self.rows = [k[:n] for k in self.k], [v[:n] for v in self.v], n
        return self


@dataclass
class ForwardTrace:
    logits: np.ndarray          # (B, T, V)
    tokens: np.ndarray          # (B, T)
    checkpoint: Checkpoint      # the producer, whose parameters backward differentiates
    # Training only: per row part (`_parts`), per layer then for the final norm, only what
    # backward cannot cheaply rebuild (no norm output, MLP activation or att @ v); it consumes them.
    caches: list = field(default_factory=list)
    # Inference only: n_layers + 1 arrays of (B, T, d), [0] = embeddings.
    hidden_states: list = field(default_factory=list)


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
    return _norm_out(xhat, w, y), xhat, inv


def _norm_out(xhat, w, out=None):
    """gain * xhat + shift: the layernorm's output, rebuilt by backward from its cached xhat."""
    y = np.multiply(xhat, w[0], out=out)
    y += w[1]
    return y


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
    """(GELU(u), GELU'(u), or None without `_with_grad`), tanh form. Every forward skips the
    derivative; backward takes both from the activation's input, rebuilt from xhat2."""
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


def _parts(b: int) -> list:
    """The fixed row parts of a training batch of b rows: [:ceil(b/2)] and [ceil(b/2):],
    or the single row. They depend only on the shape, so the bits do too."""
    mid = (b + 1) // 2
    return [slice(0, mid), slice(mid, b)] if b > 1 else [slice(0, 1)]


def _on_pool(fn, calls) -> list:
    futures = [_POOL.submit(fn, *args) for args in calls]  # numpy releases the GIL: they overlap
    wait(futures)  # a call's error is raised only once every call has ended
    return [f.result() for f in futures]


def forward(ckpt: Checkpoint, tokens, kv: list | None = None) -> ForwardTrace:
    """Causal forward pass. Accepts a single id sequence or a (B, T) batch.

    Without `kv` it is a training forward: the batch's row parts (`_parts`) run on the
    pool's two threads, and the trace keeps the parts' concatenated logits, one cache
    list per part for `backward`, and no hidden states.

    With `kv`, a list of KVCache whose rows, in order, are the B rows, the call
    is one decoding step: each cache's rows are its positions filled..filled+T-1,
    attend to that cache's prefix and append their keys and values to it. The
    position-wise work runs once over all B rows, the attention once per cache.
    Its trace covers the new positions only and keeps their hidden states and no
    caches, as backward cannot cross a cached prefix.
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
    if kv is None:
        logits, caches = zip(*_on_pool(_forward_rows, [(ckpt, tok[r], None) for r in _parts(b)]))
        return ForwardTrace(np.concatenate(logits), tok, ckpt, caches=list(caches))
    logits, hidden = _forward_rows(ckpt, tok, kv)
    return ForwardTrace(logits, tok, ckpt, hidden_states=hidden)


def _forward_rows(ckpt: Checkpoint, tok, kv) -> tuple:
    """The layer loop over a validated (B, T) batch: its logits and what it keeps, the
    backward's caches without `kv` and the hidden states with it."""
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
    kept = [] if kv is None else [h]
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
        g, _ = _gelu(m_in @ p[lp + "mlp_up"], False)
        h = g @ p[lp + "mlp_down"]
        h += h_mid
        kept.append(dict(xhat1=xhat1, inv1=inv1, q=q, k=k, v=v, att=att, xhat2=xhat2,
                         inv2=inv2) if kv is None else h)
    for c in kv or ():
        c.filled += t
    f, xhat_f, inv_f = _layernorm_forward(h, p["final_norm"])
    if kv is None:
        kept.append({"xhat_f": xhat_f, "inv_f": inv_f})
    return f @ p["head"], kept


def backward(trace: ForwardTrace, dlogits) -> dict:
    """Exact gradients of a scalar loss for `trace.checkpoint`, given d(loss)/d(logits):
    each row part's on the pool, then part 0 + part 1 per path. It consumes the trace's
    caches, freeing each activation at its last use: call it once."""
    part_caches, trace.caches = trace.caches, []  # the trace is consumed, even if this call fails
    dl = np.asarray(dlogits, dtype=trace.checkpoint.config.np_dtype())
    if dl.shape != trace.logits.shape:
        raise ModelError("dlogits shape mismatch with trace logits")
    if not part_caches:
        raise ModelError("trace has no cached activations: a decoding step keeps none, "
                         "and backward consumes them")
    g0, *rest = _on_pool(_backward, [(trace.checkpoint, trace.tokens[r], caches, dl[r])
                                     for r, caches in zip(_parts(len(dl)), part_caches)])
    return {path: sum((g[path] for g in rest), g0[path]) for path in g0}


def _backward(ckpt: Checkpoint, tok, caches: list, dl) -> dict:  # a row part's; empties caches
    cfg, p = ckpt.config, ckpt.params
    b, t = tok.shape
    scale = cfg.head_dim ** -0.5
    fc = caches.pop()  # the final norm's, after the layers'

    grads = {"head": _outer(_norm_out(fc["xhat_f"], p["final_norm"]), dl)}
    dh, grads["final_norm"] = _layernorm_backward(dl @ p["head"].T, p["final_norm"],
                                                  fc.pop("xhat_f"), fc.pop("inv_f"))

    for i in reversed(range(cfg.n_layers)):
        lp = f"L{i}."
        c = caches.pop()  # entries are popped at their last use; xhat1 and inv1 go with c
        # MLP branch: the forward's own product of the rebuilt norm output, so the same bits
        m_in = _norm_out(c["xhat2"], p[lp + "norm2"])
        g, gp = _gelu(m_in @ p[lp + "mlp_up"])
        grads[lp + "mlp_down"] = _outer(g, dh)
        del g
        du = dh @ p[lp + "mlp_down"].T
        du *= gp
        del gp
        grads[lp + "mlp_up"] = _outer(m_in, du)
        del m_in
        du = du @ p[lp + "mlp_up"].T
        dx_ln, grads[lp + "norm2"] = _layernorm_backward(du, p[lp + "norm2"],
                                                         c.pop("xhat2"), c.pop("inv2"))
        dh += dx_ln
        # attention branch; its output is the forward's own product on the same two arrays
        grads[lp + "att_o"] = _outer(_merge_heads(c["att"] @ c["v"]), dh)
        dctx = _split_heads(dh @ p[lp + "att_o"].T, cfg.n_heads)
        ds = dctx @ c.pop("v").transpose(0, 1, 3, 2)
        dv = c["att"].transpose(0, 1, 3, 2) @ dctx
        ds -= (ds * c["att"]).sum(axis=-1, keepdims=True)
        ds *= c.pop("att")
        dq = ds @ c.pop("k")
        dq *= scale
        dk = ds.transpose(0, 1, 3, 2) @ c.pop("q")
        dk *= scale
        del ds
        mdq, mdk, mdv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        da = mdq @ p[lp + "att_q"].T
        da += mdk @ p[lp + "att_k"].T
        da += mdv @ p[lp + "att_v"].T
        a = _norm_out(c["xhat1"], p[lp + "norm1"])
        grads[lp + "att_q"] = _outer(a, mdq)
        grads[lp + "att_k"] = _outer(a, mdk)
        grads[lp + "att_v"] = _outer(a, mdv)
        dx_ln, grads[lp + "norm1"] = _layernorm_backward(da, p[lp + "norm1"], c["xhat1"], c["inv1"])
        dh += dx_ln

    grads["pos"] = np.zeros_like(p["pos"])
    grads["pos"][:t] = dh.sum(axis=0)
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], tok.reshape(-1), dh.reshape(b * t, -1))
    return grads


def _digest(config: ModelConfig, step: int, payload: bytes) -> str:
    """sha256 hex digest of the canonical JSON of the config and the step, then the payload."""
    h = hashlib.sha256(json.dumps([asdict(config), step], sort_keys=True).encode("utf-8") + b"\n")
    h.update(payload)
    return h.hexdigest()


def save(ckpt: Checkpoint, path: str) -> None:
    """Write the checkpoint file described in the module docstring."""
    ckpt.validate()
    dt = np.dtype(ckpt.config.dtype).newbyteorder("<")
    payload = b"".join(ckpt.params[p].astype(dt).tobytes() for p in param_paths(ckpt.config))
    manifest = {"magic": CHECKPOINT_MAGIC, "config": asdict(ckpt.config), "step": ckpt.step,
                "sha256": _digest(ckpt.config, ckpt.step, payload)}
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


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
        if manifest["sha256"] != _digest(config, ckpt.step, payload):
            raise ModelError("sha256 does not match the config, step and payload")
    except (KeyError, TypeError, ModelError) as exc:
        raise CheckpointIOError(f"malformed checkpoint ({type(exc).__name__}): {exc}") from exc
    return ckpt
