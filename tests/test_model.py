import json
import math

import numpy as np
import pytest

from pivotlab import model


def finite_difference_grads(ckpt, tokens, dlogits, paths, eps=1e-4):
    """Central-difference gradient oracle for loss = sum(logits * dlogits)."""
    grads = {}
    for path in paths:
        p = ckpt.params[path]
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = float(np.sum(model.forward(ckpt, tokens, need_cache=False).logits * dlogits))
            p[idx] = orig - eps
            lo = float(np.sum(model.forward(ckpt, tokens, need_cache=False).logits * dlogits))
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
        with pytest.raises(model.ModelError):
            model.ModelConfig(vocab_size=10, d_model=6, n_layers=1, n_heads=4,
                              d_ff=8, max_context=16).validate()

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
    def test_layernorm_forward_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 8))
        w = np.stack([rng.normal(size=8) + 1.0, rng.normal(size=8)])
        y, _, _ = model._layernorm_forward(x, w)
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
            y, _, _ = model._layernorm_forward(xv, w)
            return float(np.sum(y * dy))

        _, xhat, inv = model._layernorm_forward(x, w)
        dx, _ = model._layernorm_backward(dy, w, xhat, inv)
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
        y, _ = model._gelu(u)
        expected = 0.5 * u * (1 + np.tanh(math.sqrt(2 / math.pi) * (u + 0.044715 * u**3)))
        assert np.allclose(y, expected, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 7)) * 30
        p = model._softmax(x)
        assert np.allclose(p.sum(-1), 1.0)
        assert np.all(p >= 0)


class TestForward:
    def test_shapes_1d_and_2d(self, tiny_ckpt, tiny_config):
        t1 = model.forward(tiny_ckpt, [1, 2, 3])
        assert t1.logits.shape == (1, 3, tiny_config.vocab_size)
        t2 = model.forward(tiny_ckpt, np.array([[1, 2, 3], [4, 5, 6]]))
        assert t2.logits.shape == (2, 3, tiny_config.vocab_size)
        assert len(t2.hidden_states) == tiny_config.n_layers + 1

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


def incremental_forward(ckpt, tokens, chunks):
    """Run a (B, T) batch through a key/value cache in chunks of the given sizes.

    Returns logits and hidden states concatenated over time, as full-forward
    shaped arrays.
    """
    kv, start, traces = [], 0, []
    for n in chunks:
        traces.append(model.forward(ckpt, tokens[:, start:start + n], need_cache=False, kv=kv))
        start += n
    assert start == tokens.shape[1]
    assert len(kv) == ckpt.config.n_layers
    assert all(k.shape[2] == v.shape[2] == start for k, v in kv)
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
            full = model.forward(ckpt, tokens, need_cache=False)
            logits, hidden = incremental_forward(ckpt, tokens, self.CHUNKS)
            assert np.max(np.abs(logits - full.logits)) <= tol
            assert len(hidden) == len(full.hidden_states)
            for got, want in zip(hidden, full.hidden_states):
                assert np.max(np.abs(got - want)) <= tol

    def test_incremental_matches_full_float64(self, tiny_ckpt):
        self.check_matches_full(tiny_ckpt, (1, 3), 1e-10)

    def test_incremental_matches_full_default_float32(self, vocab):
        ckpt = model.init(model.ModelConfig(vocab_size=len(vocab), rng_seed=4))
        assert ckpt.config.dtype == "float32" and ckpt.config.d_model == 64
        self.check_matches_full(ckpt, (1, 4), 1e-5)

    def test_cache_past_context_rejected(self, tiny_ckpt, tiny_config):
        n = tiny_config.max_context
        kv = []
        model.forward(tiny_ckpt, [[1] * (n - 2)], need_cache=False, kv=kv)
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [[2, 3, 4]], need_cache=False, kv=kv)
        model.forward(tiny_ckpt, [[2, 3]], need_cache=False, kv=kv)
        assert kv[0][0].shape[2] == n
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [[2]], need_cache=False, kv=kv)

    def test_cache_with_need_cache_rejected(self, tiny_ckpt):
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [1, 2, 3], kv=[])
        kv = []
        model.forward(tiny_ckpt, [1, 2, 3], need_cache=False, kv=kv)
        with pytest.raises(model.ModelError):
            model.forward(tiny_ckpt, [4], need_cache=True, kv=kv)


class TestBackward:
    def test_finite_difference_all_paths(self, tiny_config):
        ckpt = model.init(tiny_config)
        tokens = [2, 7, 1, 9, 4, 0]
        rng = np.random.default_rng(5)
        trace = model.forward(ckpt, tokens)
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(ckpt, trace, dlogits)
        fd = finite_difference_grads(ckpt, tokens, dlogits, model.param_paths(tiny_config))
        for path in fd:
            assert rel_err(grads[path], fd[path]) < 1e-4, path

    def test_unused_positions_have_zero_grads(self, tiny_ckpt, tiny_config):
        tokens = [1, 2, 3]
        trace = model.forward(tiny_ckpt, tokens)
        dlogits = np.ones_like(trace.logits)
        grads = model.backward(tiny_ckpt, trace, dlogits)
        assert grads["pos"].shape == tiny_ckpt.params["pos"].shape
        assert np.all(grads["pos"][3:] == 0)
        used = set(tokens)
        for tid in range(tiny_config.vocab_size):
            if tid not in used:
                assert np.all(grads["emb"][tid] == 0)

    def test_suffix_padding_grads_vanish(self, tiny_ckpt):
        """Zero dlogits at pad positions => grads identical to the unpadded run."""
        tokens = [1, 2, 3, 4]
        rng = np.random.default_rng(9)
        trace = model.forward(tiny_ckpt, tokens)
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(tiny_ckpt, trace, dlogits)

        padded = tokens + [0, 0, 0]
        trace_p = model.forward(tiny_ckpt, padded)
        dlogits_p = np.zeros_like(trace_p.logits)
        dlogits_p[:, :4] = dlogits
        grads_p = model.backward(tiny_ckpt, trace_p, dlogits_p)
        emb_pad_only = grads_p["emb"].copy()
        # token 0 also appears as pad; remove its (zero-target) contribution check
        for path in grads:
            if path == "emb":
                continue
            assert np.allclose(grads[path], grads_p[path], atol=1e-10), path
        assert np.allclose(grads["emb"][1:], emb_pad_only[1:], atol=1e-10)


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

    def test_shape_mismatch_names_path(self, tiny_ckpt, tmp_path):
        p = tmp_path / "s.ckpt"
        model.save(tiny_ckpt, str(p))
        raw = p.read_bytes()
        manifest_line, payload = raw.split(b"\n", 1)
        manifest = json.loads(manifest_line)
        manifest["tensors"][0]["shape"] = [1, 1]
        p.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(model.CheckpointIOError) as exc:
            model.load(str(p))
        assert manifest["tensors"][0]["path"] in str(exc.value)
