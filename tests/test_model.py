import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pivotlab import model

import oracles


def finite_difference_grads(ckpt, tokens, dlogits, paths, eps=1e-5):
    """Central-difference gradient oracle for loss = sum(logits * dlogits).

    The truncation error falls as eps**2; at eps=1e-4 it can reach ~1e-4
    relative on `emb` for a few-row float64 batch, as large as the bound the
    tests hold the analytic gradient to.
    """
    grads = {}
    for path in paths:
        p = ckpt.params[path]
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = float(np.sum(model.forward(ckpt, tokens).logits * dlogits))
            p[idx] = orig - eps
            lo = float(np.sum(model.forward(ckpt, tokens).logits * dlogits))
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads[path] = g
    return grads


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / denom))


class TestConfigAndPaths:
    def test_paths_and_shapes(self, tiny_config):
        paths = model.param_paths(tiny_config)
        assert paths[0] == "emb" and paths[1] == "pos"
        assert paths[-2:] == ["final_norm", "head"]
        assert len(paths) == 2 + 8 * tiny_config.n_layers + 2
        ckpt = model.init(tiny_config)
        assert set(ckpt.params) == set(paths)
        assert ckpt.params["emb"].shape == (tiny_config.vocab_size, tiny_config.d_model)
        assert ckpt.params["pos"].shape == (tiny_config.max_context, tiny_config.d_model)
        assert ckpt.params["head"].shape == (tiny_config.d_model, tiny_config.vocab_size)
        assert ckpt.params["L0.norm1"].shape == (2, tiny_config.d_model)
        assert ckpt.params["L1.mlp_up"].shape == (tiny_config.d_model, tiny_config.d_ff)

    def test_path_role_and_layer(self):
        assert model.path_role("L2.att_q") == "ATT_Q"
        assert model.path_layer("L2.att_q") == 2
        assert model.path_role("emb") == "EMB"
        assert model.path_layer("emb") is None

    def test_bad_config(self):
        cfg = {"vocab_size": 10, "d_model": 8, "n_layers": 1, "n_heads": 4, "d_ff": 8,
               "max_context": 16}
        model.ModelConfig(**cfg).validate()
        # d_model not divisible by n_heads; a bool or a float where an int belongs
        for bad in ({"d_model": 6}, {"n_layers": True}, {"d_model": 8.0}):
            with pytest.raises(model.ModelError):
                model.ModelConfig(**{**cfg, **bad}).validate()

    def test_init_deterministic(self, tiny_config):
        a = model.init(tiny_config)
        b = model.init(tiny_config)
        for path in a.params:
            assert np.array_equal(a.params[path], b.params[path])

    def test_norms_initialized_to_identity(self, tiny_ckpt):
        for path in ("L0.norm1", "L1.norm2", "final_norm"):
            w = tiny_ckpt.params[path]
            assert np.array_equal(w[0], np.ones_like(w[0]))
            assert np.array_equal(w[1], np.zeros_like(w[1]))


class TestPrimitives:
    """The reference primitives of tests/oracles.py against their definitions;
    TestMatchesOracle holds the in-place production kernels to them bit for bit."""

    def test_layernorm_forward_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 8))
        w = np.stack([rng.normal(size=8) + 1.0, rng.normal(size=8)])
        y, _, _ = oracles._layernorm_forward(x, w)
        mean = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5) * w[0] + w[1]
        assert np.allclose(y, expected, atol=1e-10)
        assert np.allclose(y.mean(), expected.mean())

    def test_layernorm_backward_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 6))
        w = np.stack([rng.normal(size=6) + 1.0, rng.normal(size=6)])
        dy = rng.normal(size=x.shape)

        def loss(xv):
            y, _, _ = oracles._layernorm_forward(xv, w)
            return float(np.sum(y * dy))

        _, xhat, inv = oracles._layernorm_forward(x, w)
        dx, _ = oracles._layernorm_backward(dy, w, xhat, inv)
        eps = 1e-6
        fd = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + eps
            hi = loss(x)
            x[idx] = orig - eps
            lo = loss(x)
            x[idx] = orig
            fd[idx] = (hi - lo) / (2 * eps)
        assert rel_err(dx, fd) < 1e-6

    def test_gelu_matches_tanh_definition(self):
        u = np.linspace(-4, 4, 101)
        y, _ = oracles._gelu(u)
        expected = 0.5 * u * (1 + np.tanh(math.sqrt(2 / math.pi) * (u + 0.044715 * u**3)))
        assert np.allclose(y, expected, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 7)) * 30
        p = oracles._softmax(x)
        assert np.allclose(p.sum(-1), 1.0)
        assert np.all(p >= 0)


class TestMatchesOracle:
    """Production forward and backward equal the plain oracle bit for bit."""

    @staticmethod
    def check(ckpt, b, t, seed):
        rng = np.random.default_rng(seed)
        for path, w in ckpt.params.items():  # norms off identity, so gain and shift count
            if "norm" in path:
                ckpt.params[path] = (w + rng.normal(scale=0.2, size=w.shape)).astype(w.dtype)
        tokens = rng.integers(0, ckpt.config.vocab_size, size=(b, t))
        dlogits = rng.normal(size=(b, t, ckpt.config.vocab_size)).astype(ckpt.config.np_dtype())
        trace = model.forward(ckpt, tokens)
        logits, hidden = oracles.forward(ckpt, tokens)
        assert np.array_equal(trace.logits, logits)
        prefill = model.forward(ckpt, tokens, kv=[model.KVCache(ckpt.config, b, t)])
        assert len(prefill.hidden_states) == len(hidden)
        for got, want in zip(prefill.hidden_states, hidden):
            assert np.array_equal(got, want)
        grads = model.backward(trace, dlogits)
        want = oracles.backward(ckpt, tokens, dlogits)
        assert set(grads) == set(want)
        for path in want:
            assert grads[path].dtype == want[path].dtype, path
            assert np.array_equal(grads[path], want[path]), path

    @pytest.mark.parametrize("b", [24, 5, 1])
    def test_default_shape_float32(self, vocab, b):
        ckpt = model.init(model.ModelConfig(vocab_size=len(vocab), rng_seed=7))
        assert ckpt.config.dtype == "float32"
        self.check(ckpt, b, 71 if b == 24 else 23, seed=b)

    @pytest.mark.parametrize("b", [4, 1])
    def test_tiny_float64(self, tiny_ckpt, b):
        self.check(tiny_ckpt, b, 9, seed=100 + b)

    def test_gelu_without_derivative(self):
        """Every forward skips GELU's derivative, which backward's rebuild computes, and
        keeps the activation's bits."""
        u = np.random.default_rng(0).normal(size=(3, 5, 16)).astype(np.float32)
        g, _ = model._gelu(u)
        g_only, gp = model._gelu(u, False)
        assert gp is None
        assert np.array_equal(g_only, g) and np.array_equal(g, oracles._gelu(u)[0])


class TestForward:
    def test_shapes_1d_and_2d(self, tiny_ckpt, tiny_config):
        t1 = model.forward(tiny_ckpt, [1, 2, 3])
        assert t1.logits.shape == (1, 3, tiny_config.vocab_size)
        t2 = model.forward(tiny_ckpt, np.array([[1, 2, 3], [4, 5, 6]]))
        assert t2.logits.shape == (2, 3, tiny_config.vocab_size)
        assert t2.hidden_states == []
        t3 = model.forward(tiny_ckpt, np.array([[1, 2, 3], [4, 5, 6]]),
                           kv=[model.KVCache(tiny_config, 2, 3)])
        assert len(t3.hidden_states) == tiny_config.n_layers + 1

    def test_batched_matches_single(self, tiny_ckpt):
        rows = [[1, 2, 3, 4], [5, 6, 7, 8]]
        batched = model.forward(tiny_ckpt, np.array(rows)).logits
        for i, row in enumerate(rows):
            single = model.forward(tiny_ckpt, row).logits[0]
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_causality(self, tiny_ckpt):
        base = model.forward(tiny_ckpt, [1, 2, 3, 4, 5]).logits[0]
        altered = model.forward(tiny_ckpt, [1, 2, 3, 9, 9]).logits[0]
        assert np.allclose(base[:3], altered[:3], atol=1e-12)
        assert not np.allclose(base[3:], altered[3:])

    def test_over_length_rejected(self, tiny_ckpt, tiny_config):
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, list(range(2)) * tiny_config.max_context)

    def test_deterministic(self, tiny_ckpt):
        a = model.forward(tiny_ckpt, [3, 1, 4, 1, 5]).logits
        b = model.forward(tiny_ckpt, [3, 1, 4, 1, 5]).logits
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e20, 1e25, 1e30])
    def test_layernorm_overflow_refused(self, vocab, scale):
        """Weights this large are finite, but overflow the float32 layernorm variance to
        inf, which would make each row the norm's shift and the logits finite zeros."""
        cfg = model.ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=16)
        ckpt = model.init(cfg)
        for w in ckpt.params.values():
            w *= scale
        ckpt.validate()
        for tokens, kv in (([[1, 2, 3]], None), ([[1, 2, 3], [4, 5, 6]], None),
                           ([[1, 2, 3]], [model.KVCache(cfg, 1, 3)])):
            with pytest.raises(model.ModelError, match="layernorm"):
                model.forward(ckpt, tokens, kv=kv)


def incremental_forward(ckpt, tokens, chunks):
    """Run a (B, T) batch through a key/value cache in chunks of the given sizes.

    Returns logits and hidden states concatenated over time, as full-forward
    shaped arrays.
    """
    cache, start, traces = model.KVCache(ckpt.config, tokens.shape[0], tokens.shape[1]), 0, []
    for n in chunks:
        traces.append(model.forward(ckpt, tokens[:, start:start + n], kv=[cache]))
        start += n
        assert cache.filled == start
    assert start == tokens.shape[1] == cache.capacity
    logits = np.concatenate([t.logits for t in traces], axis=1)
    hidden = [np.concatenate([t.hidden_states[i] for t in traces], axis=1)
              for i in range(ckpt.config.n_layers + 1)]
    return logits, hidden


class TestKVCache:
    # prefill, single tokens, a multi-token chunk on a non-empty cache, singles
    CHUNKS = (5, 1, 1, 4, 1, 1)

    def check_matches_full(self, ckpt, batch_sizes, tol):
        rng = np.random.default_rng(13)
        t = sum(self.CHUNKS)
        for b in batch_sizes:
            tokens = rng.integers(0, ckpt.config.vocab_size, size=(b, t))
            full_logits, full_hidden = oracles.forward(ckpt, tokens)
            logits, hidden = incremental_forward(ckpt, tokens, self.CHUNKS)
            assert np.max(np.abs(logits - full_logits)) <= tol
            assert len(hidden) == len(full_hidden)
            for got, want in zip(hidden, full_hidden):
                assert np.max(np.abs(got - want)) <= tol

    def test_incremental_matches_full_float64(self, tiny_ckpt):
        self.check_matches_full(tiny_ckpt, (1, 3), 1e-10)

    def test_incremental_matches_full_default_float32(self, vocab):
        ckpt = model.init(model.ModelConfig(vocab_size=len(vocab), rng_seed=4))
        assert ckpt.config.dtype == "float32" and ckpt.config.d_model == 64
        self.check_matches_full(ckpt, (1, 4), 1e-5)

    def test_cache_past_context_rejected(self, tiny_ckpt, tiny_config):
        n = tiny_config.max_context
        cache = model.KVCache(tiny_config, 1, n + 4)  # room past the context
        model.forward(tiny_ckpt, [[1] * (n - 2)], kv=[cache])
        with pytest.raises(model.ContextLengthError):
            model.forward(tiny_ckpt, [[2, 3, 4]], kv=[cache])
        assert cache.filled == n - 2
        model.forward(tiny_ckpt, [[2, 3]], kv=[cache])
        assert cache.filled == n
        with pytest.raises(model.ContextLengthError):
            model.forward(tiny_ckpt, [[2]], kv=[cache])

    def test_cache_past_capacity_rejected(self, tiny_ckpt, tiny_config):
        cache = model.KVCache(tiny_config, 2, 6)
        model.forward(tiny_ckpt, [[1, 2, 3], [4, 5, 6]], kv=[cache])
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [[7] * 4, [8] * 4], kv=[cache])
        assert cache.filled == 3
        model.forward(tiny_ckpt, [[7] * 3, [8] * 3], kv=[cache])
        assert cache.filled == 6
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [[7], [8]], kv=[cache])

    def test_rows_must_be_the_caches(self, tiny_ckpt, tiny_config):
        caches = [model.KVCache(tiny_config, 2, 8), model.KVCache(tiny_config, 1, 8)]
        for rows in (2, 4):
            with pytest.raises(model.ModelError):
                model.forward(tiny_ckpt, [[1, 2]] * rows, kv=caches)
        assert [c.filled for c in caches] == [0, 0]

    def test_decoding_step_cannot_be_backpropagated(self, tiny_ckpt):
        cache = model.KVCache(tiny_ckpt.config, 2, 4)
        for feed in ([[1, 2, 3], [4, 5, 6]], [[7], [8]]):
            trace = model.forward(tiny_ckpt, feed, kv=[cache])
            assert trace.caches == []
            with pytest.raises(model.ModelError):
                model.backward(trace, np.ones_like(trace.logits))

    def test_keep_matches_a_cache_without_the_dropped_rows(self, vocab):
        """After `keep`, the kept rows step with the bits of a cache that only ever held
        them, and a forward of the old row count is refused."""
        cfg = model.ModelConfig(vocab_size=len(vocab), rng_seed=6)
        ckpt = model.init(cfg)
        rng = np.random.default_rng(8)
        prompts = rng.integers(0, cfg.vocab_size, size=(5, 4))
        full, part = model.KVCache(cfg, 5, 12), model.KVCache(cfg, 2, 12)
        model.forward(ckpt, prompts, kv=[full])
        model.forward(ckpt, prompts[[1, 3]], kv=[part])
        held = np.arange(5)  # the prompt of each row of `full`
        for mask in ([False, True, True, True, False], [True, False, True]):
            assert full.keep(np.array(mask)) is full
            with pytest.raises(model.ModelError):
                model.forward(ckpt, [[1]] * len(held), kv=[full])
            held = held[mask]
            both = np.isin(held, [1, 3])
            for t in (1, 3):  # a single token, and a chunk with a causal mask
                feed = rng.integers(0, cfg.vocab_size, size=(len(held), t))
                got = model.forward(ckpt, feed, kv=[full])
                want = model.forward(ckpt, feed[both], kv=[part])
                assert np.array_equal(got.logits[both], want.logits)
                for g, w in zip(got.hidden_states, want.hidden_states, strict=True):
                    assert np.array_equal(g[both], w)
        assert full.rows == part.rows == 2 and full.filled == part.filled == 12

    def test_keeping_every_row_copies_nothing(self, tiny_ckpt, tiny_config):
        cache = model.KVCache(tiny_config, 3, 6)
        model.forward(tiny_ckpt, [[1, 2], [3, 4], [5, 6]], kv=[cache])
        buffers = cache.k + cache.v
        assert cache.keep(np.ones(3, dtype=bool)) is cache
        assert all(a is b for a, b in zip(cache.k + cache.v, buffers, strict=True))
        assert cache.rows == 3 and cache.filled == 2


class TestSideBySideCaches:
    """One forward over several caches gives each cache's rows the bits of a forward
    over that cache alone; this keeps decoded records byte-identical however the
    prompts are batched."""

    def test_bit_equal_to_one_cache_at_a_time(self, vocab):
        cfg = model.ModelConfig(vocab_size=len(vocab), rng_seed=6)
        ckpt = model.init(cfg)
        assert cfg.dtype == "float32" and cfg.d_model == 64
        rng = np.random.default_rng(21)
        prompts = [rng.integers(0, cfg.vocab_size, size=(3, 5)),
                   rng.integers(0, cfg.vocab_size, size=(2, 9))]
        joint = [model.KVCache(cfg, len(p), 20) for p in prompts]
        solo = [model.KVCache(cfg, len(p), 20) for p in prompts]
        for p, cj, cs in zip(prompts, joint, solo):
            model.forward(ckpt, p, kv=[cj])
            model.forward(ckpt, p, kv=[cs])
        for t in (1, 1, 3, 1):  # single tokens, and a chunk whose masks differ per cache
            feed = rng.integers(0, cfg.vocab_size, size=(5, t))
            both = model.forward(ckpt, feed, kv=joint)
            for rows, cache in ((slice(0, 3), solo[0]), (slice(3, 5), solo[1])):
                alone = model.forward(ckpt, feed[rows], kv=[cache])
                assert np.array_equal(both.logits[rows], alone.logits)
                for got, want in zip(both.hidden_states, alone.hidden_states, strict=True):
                    assert np.array_equal(got[rows], want)
        assert [c.filled for c in joint] == [c.filled for c in solo] == [11, 15]


class TestBackward:
    def test_finite_difference_all_paths(self, tiny_config):
        ckpt = model.init(tiny_config)
        tokens = [2, 7, 1, 9, 4, 0]
        rng = np.random.default_rng(5)
        trace = model.forward(ckpt, tokens)
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(trace, dlogits)
        fd = finite_difference_grads(ckpt, tokens, dlogits, model.param_paths(tiny_config))
        for path in fd:
            assert rel_err(grads[path], fd[path]) < 1e-4, path

    def test_unused_positions_have_zero_grads(self, tiny_ckpt, tiny_config):
        tokens = [1, 2, 3]
        trace = model.forward(tiny_ckpt, tokens)
        dlogits = np.ones_like(trace.logits)
        grads = model.backward(trace, dlogits)
        assert grads["pos"].shape == tiny_ckpt.params["pos"].shape
        assert np.all(grads["pos"][3:] == 0)
        used = set(tokens)
        for tid in range(tiny_config.vocab_size):
            if tid not in used:
                assert np.all(grads["emb"][tid] == 0)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_backward_consumes_the_trace(self, tiny_ckpt, rows):
        """After backward the trace holds no part's cache, and a second backward is
        refused with the error a decoding step gets."""
        trace = model.forward(tiny_ckpt, [[1, 2, 3, 4]] * rows)
        assert len(trace.caches) == (2 if rows > 1 else 1)
        dlogits = np.ones_like(trace.logits)
        model.backward(trace, dlogits)
        assert trace.caches == []
        with pytest.raises(model.ModelError, match="decoding step keeps none.*consumes them"):
            model.backward(trace, dlogits)

    def test_a_failed_backward_consumes_the_trace(self, tiny_ckpt):
        trace = model.forward(tiny_ckpt, [[1, 2, 3]] * 2)
        with pytest.raises(model.ModelError, match="shape mismatch"):
            model.backward(trace, np.ones((1, 3, tiny_ckpt.config.vocab_size)))
        assert trace.caches == []

    def test_suffix_padding_grads_vanish(self, tiny_ckpt):
        """Zero dlogits at pad positions => grads identical to the unpadded run."""
        tokens = [1, 2, 3, 4]
        rng = np.random.default_rng(9)
        trace = model.forward(tiny_ckpt, tokens)
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(trace, dlogits)

        padded = tokens + [0, 0, 0]
        trace_p = model.forward(tiny_ckpt, padded)
        dlogits_p = np.zeros_like(trace_p.logits)
        dlogits_p[:, :4] = dlogits
        grads_p = model.backward(trace_p, dlogits_p)
        emb_pad_only = grads_p["emb"].copy()
        # token 0 also appears as pad; remove its (zero-target) contribution check
        for path in grads:
            if path == "emb":
                continue
            assert np.allclose(grads[path], grads_p[path], atol=1e-10), path
        assert np.allclose(grads["emb"][1:], emb_pad_only[1:], atol=1e-10)


class TestBatchSplit:
    """A forward without `kv` runs a batch's row parts on two threads: two row halves
    for B >= 2, the one row for B = 1."""

    @pytest.mark.parametrize("b", [2, 5])
    def test_matches_sum_of_single_rows(self, tiny_ckpt, b):
        rng = np.random.default_rng(b)
        tokens = rng.integers(0, tiny_ckpt.config.vocab_size, size=(b, 7))
        dlogits = rng.normal(size=(b, 7, tiny_ckpt.config.vocab_size))
        trace = model.forward(tiny_ckpt, tokens)
        grads = model.backward(trace, dlogits)
        cfg = tiny_ckpt.config
        hidden = model.forward(tiny_ckpt, tokens, kv=[model.KVCache(cfg, b, 7)]).hidden_states
        want = {path: np.zeros_like(v) for path, v in tiny_ckpt.params.items()}
        for i in range(b):
            single = model.forward(tiny_ckpt, tokens[i])
            assert len(single.caches) == 1
            assert np.max(np.abs(trace.logits[i] - single.logits[0])) <= 1e-12
            single_hidden = model.forward(tiny_ckpt, tokens[i],
                                          kv=[model.KVCache(cfg, 1, 7)]).hidden_states
            for got, h in zip(hidden, single_hidden, strict=True):
                assert np.max(np.abs(got[i] - h[0])) <= 1e-12
            for path, g in model.backward(single, dlogits[i:i + 1]).items():
                want[path] += g
        assert set(grads) == set(want)
        for path in want:
            assert np.max(np.abs(grads[path] - want[path])) <= 1e-12, path

    def test_split_point_is_fixed_by_batch_size(self, tiny_ckpt):
        rows = np.arange(5 * 4).reshape(5, 4) % tiny_ckpt.config.vocab_size

        def part_rows(trace):
            return [len(part[-1]["xhat_f"]) for part in trace.caches]

        assert part_rows(model.forward(tiny_ckpt, rows)) == [3, 2]
        assert part_rows(model.forward(tiny_ckpt, rows[:1])) == [1]
        cache = model.KVCache(tiny_ckpt.config, 5, 4)
        assert model.forward(tiny_ckpt, rows, kv=[cache]).caches == []

    def test_halves_cache_no_mlp_activation(self, vocab):
        """A training part caches per layer the norms' inputs and the attention's arrays
        but not its output, then the final norm's, and nothing d_ff wide: backward
        rebuilds the attention output, the MLP's input and its activation."""
        cfg = model.ModelConfig(vocab_size=len(vocab))
        trace = model.forward(model.init(cfg), np.ones((4, 9), dtype=np.int64))
        assert len(trace.caches) == 2
        for part in trace.caches:
            assert len(part) == cfg.n_layers + 1
            for c in part[:-1]:
                assert set(c) == {"xhat1", "inv1", "q", "k", "v", "att", "xhat2", "inv2"}
            assert set(part[-1]) == {"xhat_f", "inv_f"}
            for c in part:
                assert all(a.shape[-1] != cfg.d_ff for a in c.values())

    def test_both_halves_end_before_backward_raises(self, tiny_ckpt):
        """As in forward, a half's error is raised only once the other half has ended."""
        trace = model.forward(tiny_ckpt, [[1, 2, 3]] * 4)
        first, ended = trace.caches[0], threading.Event()

        def half(ckpt, tok, caches, dl):
            if caches is first:
                raise model.ModelError("half 0 failed")
            time.sleep(0.5)
            ended.set()
            return {}

        with mock.patch.object(model, "_backward", half):
            with pytest.raises(model.ModelError, match="half 0 failed"):
                model.backward(trace, np.ones_like(trace.logits))
            assert ended.is_set()

    def test_finite_difference_on_split_batch(self, tiny_config):
        ckpt = model.init(tiny_config)
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(3, 5))
        trace = model.forward(ckpt, tokens)
        assert len(trace.caches) == 2
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(trace, dlogits)
        fd = finite_difference_grads(ckpt, tokens, dlogits, model.param_paths(tiny_config))
        worst = max(rel_err(grads[path], fd[path]) for path in fd)
        assert worst < 1e-4


class TestPool:
    """Split batches share one persistent two-thread pool."""

    @staticmethod
    def step(ckpt, tokens, dlogits):
        trace = model.forward(ckpt, tokens)
        return trace.logits, model.backward(trace, dlogits)

    def test_import_starts_no_thread(self):
        code = "import threading, pivotlab.cli; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "1"

    def test_threads_do_not_pile_up(self, tiny_ckpt):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, tiny_ckpt.config.vocab_size, size=(3, 6))
        dlogits = rng.normal(size=(3, 6, tiny_ckpt.config.vocab_size))
        start = threading.active_count()
        for _ in range(50):
            self.step(tiny_ckpt, tokens, dlogits)
        assert threading.active_count() <= start + 2

    def test_concurrent_callers_get_sequential_bits(self, tiny_ckpt):
        """More callers than pool threads, switching often, all stepping at once."""
        rng = np.random.default_rng(4)
        jobs = [(rng.integers(0, tiny_ckpt.config.vocab_size, size=(b, 8)),
                 rng.normal(size=(b, 8, tiny_ckpt.config.vocab_size))) for b in (3, 4, 5)]
        want = [self.step(tiny_ckpt, *job) for job in jobs]
        got = [[] for _ in jobs]
        barrier = threading.Barrier(len(jobs))

        def caller(k):
            barrier.wait()
            for _ in range(10):
                got[k].append(self.step(tiny_ckpt, *jobs[k]))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, (logits, grads) in enumerate(want):
            assert len(got[k]) == 10
            for got_logits, got_grads in got[k]:
                assert np.array_equal(got_logits, logits)
                assert all(np.array_equal(got_grads[path], grads[path]) for path in grads)


class TestCheckpointIO:
    def test_round_trip_byte_identical(self, tiny_ckpt, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        model.save(tiny_ckpt, str(a))
        model.save(tiny_ckpt, str(b))
        assert a.read_bytes() == b.read_bytes()
        loaded = model.load(str(a))
        assert loaded.config == tiny_ckpt.config
        assert loaded.step == tiny_ckpt.step
        for path in tiny_ckpt.params:
            assert np.array_equal(loaded.params[path], tiny_ckpt.params[path])

    def test_corrupt_manifest(self, tiny_ckpt, tmp_path):
        p = tmp_path / "c.ckpt"
        model.save(tiny_ckpt, str(p))
        raw = p.read_bytes()
        p.write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
        with pytest.raises(model.CheckpointIOError):
            model.load(str(p))

    def test_truncated_payload(self, tiny_ckpt, tmp_path):
        p = tmp_path / "t.ckpt"
        model.save(tiny_ckpt, str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(model.CheckpointIOError):
            model.load(str(p))

    def test_payload_one_element_off_names_both_sizes(self, tiny_ckpt, tmp_path):
        p = tmp_path / "s.ckpt"
        model.save(tiny_ckpt, str(p))
        raw = p.read_bytes()
        n = len(raw.split(b"\n", 1)[1])  # float64: 8 bytes an element
        for damaged, size in ((raw[:-8], n - 8), (raw + bytes(8), n + 8)):
            p.write_bytes(damaged)
            with pytest.raises(model.CheckpointIOError) as exc:
                model.load(str(p))
            assert f"{size} bytes" in str(exc.value) and f"needs {n}" in str(exc.value)

    def test_layout_is_the_configs(self, tiny_ckpt, tmp_path):
        p = tmp_path / "l.ckpt"
        tiny_ckpt.step = 7
        model.save(tiny_ckpt, str(p))
        manifest_line, payload = p.read_bytes().split(b"\n", 1)
        config = dataclasses.asdict(tiny_ckpt.config)
        digest = hashlib.sha256(json.dumps([config, 7], sort_keys=True).encode() + b"\n"
                                + payload).hexdigest()
        assert json.loads(manifest_line) == {"magic": model.CHECKPOINT_MAGIC, "step": 7,
                                             "config": config, "sha256": digest}
        assert payload == b"".join(tiny_ckpt.params[path].astype("<f8").tobytes()
                                   for path in model.param_paths(tiny_ckpt.config))

    def test_save_refuses_what_load_would_misread(self, tiny_ckpt, tmp_path):
        for path, value in (("emb", tiny_ckpt.params["emb"].T.copy()),
                            ("head", tiny_ckpt.params["head"].astype(np.float32)),
                            ("step", "x"), ("step", -1)):
            ckpt = tiny_ckpt.copy()
            if path == "step":
                ckpt.step = value
            else:
                ckpt.params[path] = value
            with pytest.raises(model.ModelError, match=path):
                model.save(ckpt, str(tmp_path / "x.ckpt"))
        assert not (tmp_path / "x.ckpt").exists()

    def test_malformed_manifest(self, malformed_checkpoint):
        with pytest.raises(model.CheckpointIOError):
            model.load(malformed_checkpoint)


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    """The bytes of a saved 1-layer, d=4 float32 checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    model.save(model.init(model.ModelConfig(vocab_size=5, d_model=4, n_layers=1, n_heads=2,
                                            d_ff=8, max_context=6, rng_seed=3)), str(path))
    return path.read_bytes()


def _load_bytes(data: bytes):
    """model.load of a file holding `data`: the checkpoint, or None if it raised ModelError.

    load reads the bytes through `open`, which serves them from memory here, so
    tens of thousands of damaged files cost no disk writes."""
    with mock.patch.object(model, "open", create=True, new=lambda _, mode: io.BytesIO(data)):
        try:
            ckpt = model.load("damaged.ckpt")
        except model.ModelError:  # CheckpointIOError included
            return None
    for path, value in ckpt.params.items():
        assert value.shape == model._param_shape(path, ckpt.config)
        assert value.dtype == ckpt.config.np_dtype()
    return ckpt


def _same_checkpoint(a: model.Checkpoint, b: model.Checkpoint) -> bool:
    return (a.config == b.config and a.step == b.step and a.params.keys() == b.params.keys()
            and all(np.array_equal(a.params[p], b.params[p]) for p in a.params))


class TestDamagedCheckpoint:
    """A damaged checkpoint is refused with ModelError, and no other exception escapes
    `load`; only a manifest change that leaves its meaning alone (whitespace) loads, and
    then to the checkpoint that was saved."""

    def test_every_truncation_is_refused(self, saved_tiny):
        assert _load_bytes(saved_tiny) is not None
        for end in range(len(saved_tiny)):
            assert _load_bytes(saved_tiny[:end]) is None, end

    def test_every_byte_of_the_manifest_line(self, saved_tiny):
        original = _load_bytes(saved_tiny)
        for i in range(saved_tiny.index(b"\n") + 1):
            for byte in range(256):
                if byte != saved_tiny[i]:
                    ckpt = _load_bytes(saved_tiny[:i] + bytes([byte]) + saved_tiny[i + 1:])
                    assert ckpt is None or _same_checkpoint(ckpt, original), (i, byte)

    @given(st.data())
    def test_a_payload_byte(self, saved_tiny, data):
        start = saved_tiny.index(b"\n") + 1
        i = data.draw(st.integers(start, len(saved_tiny) - 1), label="position")
        byte = data.draw(st.integers(0, 255), label="byte")
        assume(byte != saved_tiny[i])
        assert _load_bytes(saved_tiny[:i] + bytes([byte]) + saved_tiny[i + 1:]) is None
