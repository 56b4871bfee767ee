"""Miniature decoder-only transformer in numpy with hand-written gradients.

Pre-norm residual blocks, learned absolute positions, untied embedding and
output head, no biases on linear maps, no dropout. Every parameter lives in
a flat registry keyed by path strings ("emb", "pos", "L0.att_q", ...,
"final_norm", "head") so checkpoints can be diffed tensor by tensor.
LayerNorm parameters are stored as a (2, dim) tensor: row 0 gain, row 1 shift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

LAYER_ROLES = ("att_q", "att_k", "att_v", "att_o", "mlp_up", "mlp_down", "norm1", "norm2")
GLOBAL_ROLES = ("emb", "pos", "final_norm", "head")

LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715

CHECKPOINT_MAGIC = "pivotlab-checkpoint-v1"


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
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_context"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")
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
        expected = set(param_paths(self.config))
        got = set(self.params)
        if expected != got:
            raise ModelError(f"parameter set mismatch: missing {expected - got}, extra {got - expected}")
        for p, v in self.params.items():
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


@dataclass
class ForwardTrace:
    logits: np.ndarray          # (B, T, V)
    hidden_states: list         # n_layers + 1 arrays of (B, T, d); [0] = embeddings
    tokens: np.ndarray          # (B, T)
    caches: list                # per-layer dicts of cached activations
    final_cache: dict
    checkpoint_id: int


def _layernorm_forward(x, w):
    gain, shift = w[0], w[1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
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


def _gelu(u):
    inner = _GELU_C * (u + _GELU_A * u * u * u)
    t = np.tanh(inner)
    return 0.5 * u * (1.0 + t), t


def _gelu_backward(du_out, u, t):
    sech2 = 1.0 - t * t
    return du_out * (0.5 * (1.0 + t) + 0.5 * u * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * u * u))


def _outer(x, y):
    """Sum over batch and time of outer products: (B,T,m),(B,T,n) -> (m,n)."""
    return x.reshape(-1, x.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def forward(ckpt: Checkpoint, tokens, need_cache: bool = True, kv: list | None = None) -> ForwardTrace:
    """Causal forward pass. Accepts a single id sequence or a (B, T) batch.

    `kv` turns on incremental decoding: a per-layer list of (k, v) arrays of
    shape (B, n_heads, t0, head_dim) for positions 0..t0-1 (an empty list for
    t0 = 0). The tokens are then positions t0..t0+T-1, attend to the cached
    prefix, and their keys and values are appended to `kv` in place; the
    trace covers the new positions only. Backward cannot run through a cached
    prefix, so `kv` requires need_cache=False.
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
    if kv is not None and need_cache:
        raise ModelError("a key/value cache requires need_cache=False")
    t0 = kv[0][0].shape[2] if kv else 0
    if t0 + t > cfg.max_context:
        raise ContextLengthError(f"sequence length {t0 + t} exceeds max_context {cfg.max_context}")
    if tok.min() < 0 or tok.max() >= cfg.vocab_size:
        raise ModelError("token id outside vocabulary")

    p = ckpt.params
    dt = cfg.np_dtype()
    scale = dt(cfg.head_dim ** -0.5)
    neg = -np.inf
    causal = np.triu(np.full((t, t0 + t), neg, dtype=dt), k=t0 + 1)

    h = p["emb"][tok] + p["pos"][t0:t0 + t][None, :, :]
    hidden = [h]
    caches = []
    for i in range(cfg.n_layers):
        lp = f"L{i}."
        a, xhat1, inv1 = _layernorm_forward(h, p[lp + "norm1"])
        q = _split_heads(a @ p[lp + "att_q"], cfg.n_heads)
        k = _split_heads(a @ p[lp + "att_k"], cfg.n_heads)
        v = _split_heads(a @ p[lp + "att_v"], cfg.n_heads)
        if kv is not None:
            if i < len(kv):
                k = np.concatenate([kv[i][0], k], axis=2)
                v = np.concatenate([kv[i][1], v], axis=2)
                kv[i] = (k, v)
            else:
                kv.append((k, v))
        s = q @ k.transpose(0, 1, 3, 2) * scale + causal
        att = _softmax(s)
        ctx = _merge_heads(att @ v)
        h_mid = h + ctx @ p[lp + "att_o"]
        m_in, xhat2, inv2 = _layernorm_forward(h_mid, p[lp + "norm2"])
        u = m_in @ p[lp + "mlp_up"]
        g, tanh_u = _gelu(u)
        h = h_mid + g @ p[lp + "mlp_down"]
        hidden.append(h)
        if need_cache:
            caches.append({
                "a": a, "xhat1": xhat1, "inv1": inv1,
                "q": q, "k": k, "v": v, "att": att, "ctx": ctx,
                "h_mid": h_mid, "m_in": m_in, "xhat2": xhat2, "inv2": inv2,
                "u": u, "g": g, "tanh_u": tanh_u,
            })
    f, xhat_f, inv_f = _layernorm_forward(h, p["final_norm"])
    logits = f @ p["head"]
    final_cache = {"f": f, "xhat_f": xhat_f, "inv_f": inv_f} if need_cache else {}
    return ForwardTrace(
        logits=logits, hidden_states=hidden, tokens=tok,
        caches=caches, final_cache=final_cache,
        checkpoint_id=id(ckpt),
    )


def backward(ckpt: Checkpoint, trace: ForwardTrace, dlogits) -> dict:
    """Exact reverse-mode gradients of a scalar loss, given d(loss)/d(logits)."""
    if trace.checkpoint_id != id(ckpt):
        raise ModelError("trace was not produced by this checkpoint")
    if not trace.caches:
        raise ModelError("trace has no cached activations (forward with need_cache=True)")
    cfg = ckpt.config
    p = ckpt.params
    dl = np.asarray(dlogits, dtype=cfg.np_dtype())
    if dl.ndim == 2:
        dl = dl[None, :, :]
    if dl.shape != trace.logits.shape:
        raise ModelError("dlogits shape mismatch with trace logits")

    tok = trace.tokens
    b, t = tok.shape
    scale = cfg.head_dim ** -0.5
    grads = {}

    fc = trace.final_cache
    grads["head"] = _outer(fc["f"], dl)
    df = dl @ p["head"].T
    dh, grads["final_norm"] = _layernorm_backward(df, p["final_norm"], fc["xhat_f"], fc["inv_f"])

    for i in reversed(range(cfg.n_layers)):
        lp = f"L{i}."
        c = trace.caches[i]
        # MLP branch
        ddn = dh
        grads[lp + "mlp_down"] = _outer(c["g"], ddn)
        dg = ddn @ p[lp + "mlp_down"].T
        du = _gelu_backward(dg, c["u"], c["tanh_u"])
        grads[lp + "mlp_up"] = _outer(c["m_in"], du)
        dm_in = du @ p[lp + "mlp_up"].T
        dh_mid_ln, grads[lp + "norm2"] = _layernorm_backward(dm_in, p[lp + "norm2"], c["xhat2"], c["inv2"])
        dh_mid = dh + dh_mid_ln
        # attention branch
        do = dh_mid
        grads[lp + "att_o"] = _outer(c["ctx"], do)
        dctx = _split_heads(do @ p[lp + "att_o"].T, cfg.n_heads)
        datt = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["att"].transpose(0, 1, 3, 2) @ dctx
        ds = c["att"] * (datt - (datt * c["att"]).sum(axis=-1, keepdims=True))
        dq = ds @ c["k"] * scale
        dk = ds.transpose(0, 1, 3, 2) @ c["q"] * scale
        mdq, mdk, mdv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        da = (
            mdq @ p[lp + "att_q"].T
            + mdk @ p[lp + "att_k"].T
            + mdv @ p[lp + "att_v"].T
        )
        grads[lp + "att_q"] = _outer(c["a"], mdq)
        grads[lp + "att_k"] = _outer(c["a"], mdk)
        grads[lp + "att_v"] = _outer(c["a"], mdv)
        dx_ln, grads[lp + "norm1"] = _layernorm_backward(da, p[lp + "norm1"], c["xhat1"], c["inv1"])
        dh = dh_mid + dx_ln

    grads["pos"] = np.zeros_like(p["pos"])
    grads["pos"][:t] = dh.sum(axis=0)
    demb = np.zeros_like(p["emb"])
    np.add.at(demb, tok.reshape(-1), dh.reshape(b * t, -1))
    grads["emb"] = demb
    return grads


def save(ckpt: Checkpoint, path: str) -> None:
    """Single file: one-line JSON manifest, then a raw little-endian payload."""
    ckpt.validate()
    order = param_paths(ckpt.config)
    tensors = []
    offset = 0
    blobs = []
    for p in order:
        arr = np.ascontiguousarray(ckpt.params[p])
        raw = arr.astype("<" + arr.dtype.str[1:]).tobytes()
        tensors.append({
            "path": p, "shape": list(arr.shape), "dtype": str(arr.dtype),
            "byte_offset": offset, "byte_length": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "magic": CHECKPOINT_MAGIC,
        "config": asdict(ckpt.config),
        "step": ckpt.step,
        "payload_bytes": offset,
        "tensors": tensors,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
        for raw in blobs:
            fh.write(raw)


def load(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIOError(f"corrupt checkpoint manifest: {exc}") from exc
    if manifest.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointIOError("not a checkpoint file (bad magic)")
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointIOError(
            f"truncated payload: expected {manifest['payload_bytes']} bytes, got {len(payload)}")
    config = ModelConfig(**manifest["config"])
    params = {}
    for entry in manifest["tensors"]:
        n = int(np.prod(entry["shape"])) if entry["shape"] else 1
        dt = np.dtype(entry["dtype"])
        if entry["byte_length"] != n * dt.itemsize:
            raise CheckpointIOError(f"shape/payload mismatch for tensor {entry['path']!r}")
        start, end = entry["byte_offset"], entry["byte_offset"] + entry["byte_length"]
        if end > len(payload):
            raise CheckpointIOError(f"payload overrun for tensor {entry['path']!r}")
        arr = np.frombuffer(payload[start:end], dtype=dt.newbyteorder("<")).astype(dt)
        params[entry["path"]] = arr.reshape(entry["shape"])
    ckpt = Checkpoint(config=config, params=params, step=manifest["step"])
    ckpt.validate()
    return ckpt
