import csv
import math
import statistics
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pivotlab import corpus, model, train


def small_dataset(vocab, languages, n=24, seed=5, max_steps=2):
    problems = [corpus.gen_problem(seed * 10_000 + i, max_steps=max_steps) for i in range(n)]
    return [
        corpus.make_sample(p, "NATIVE", f"s-{i:03d}", vocab, languages)
        for i, p in enumerate(problems)
    ]


def manual_cross_entropy(logits_row, target):
    z = logits_row - logits_row.max()
    return float(-(z[target] - math.log(np.exp(z).sum())))


class TestMaskedLoss:
    def test_matches_manual_cross_entropy(self, tiny_ckpt, vocab, languages):
        s = small_dataset(vocab, languages, n=1, max_steps=1)[0]
        tokens, bounds = train.pad_batch([s])
        trace = model.forward(tiny_ckpt, tokens)
        bd = train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)[0]
        logits = trace.logits[0]
        labels = oracles.sample_labels(s, vocab)
        cot_terms, ans_terms = [], []
        for i in range(len(s.tokens) - 1):
            ce = manual_cross_entropy(np.asarray(logits[i], dtype=np.float64), s.tokens[i + 1])
            if labels[i + 1] == oracles.COT:
                cot_terms.append(ce)
            elif labels[i + 1] == oracles.ANSWER:
                ans_terms.append(ce)
        assert bd.loss_cot == pytest.approx(statistics.mean(cot_terms), rel=1e-9)
        assert bd.loss_answer == pytest.approx(statistics.mean(ans_terms), rel=1e-9)
        assert bd.loss_total == pytest.approx(bd.loss_cot + bd.loss_answer, rel=1e-12)
        assert bd.n_cot == len(cot_terms) and bd.n_answer == len(ans_terms)

    def test_alpha_beta_weighting(self, tiny_ckpt, vocab, languages):
        tokens, bounds = train.pad_batch(small_dataset(vocab, languages, n=1))
        trace = model.forward(tiny_ckpt, tokens)
        bd = train.masked_loss(trace.logits, tokens, bounds, 2.0, 0.5)[0]
        assert bd.loss_total == pytest.approx(2.0 * bd.loss_cot + 0.5 * bd.loss_answer)

    def test_uniform_logits_loss_is_log_vocab(self, tiny_config, vocab, languages):
        tokens, bounds = train.pad_batch(small_dataset(vocab, languages, n=1))
        ckpt = model.init(tiny_config)
        for path in ckpt.params:
            ckpt.params[path][:] = 0.0
        trace = model.forward(ckpt, tokens)
        bd = train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)[0]
        assert bd.loss_cot == pytest.approx(math.log(tiny_config.vocab_size), rel=1e-9)
        assert bd.loss_answer == pytest.approx(math.log(tiny_config.vocab_size), rel=1e-9)

    def test_gradient_matches_finite_difference(self, tiny_ckpt, vocab, languages):
        tokens, bounds = train.pad_batch(small_dataset(vocab, languages, n=1, max_steps=1))
        trace = model.forward(tiny_ckpt, tokens)
        _, dlogits = train.masked_loss(trace.logits, tokens, bounds, 1.3, 0.7)
        eps = 1e-6
        rng = np.random.default_rng(0)
        flat = trace.logits.ravel()
        for idx in rng.choice(flat.size, size=40, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = train.masked_loss(trace.logits, tokens, bounds, 1.3, 0.7)[0].loss_total
            flat[idx] = orig - eps
            lo = train.masked_loss(trace.logits, tokens, bounds, 1.3, 0.7)[0].loss_total
            flat[idx] = orig
            assert dlogits.ravel()[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-7)

    def test_prompt_and_pad_positions_carry_zero_grad(self, tiny_ckpt, vocab, languages):
        s = small_dataset(vocab, languages, n=1)[0]
        tokens, bounds = train.pad_batch([s])
        tokens = np.pad(tokens, ((0, 0), (0, 4)), constant_values=corpus.PAD)
        labels = oracles.sample_labels(s, vocab) + [oracles.PAD_LABEL] * 4
        trace = model.forward(tiny_ckpt, tokens)
        _, dlogits = train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)
        labels_arr = np.asarray(labels)
        # position i holds grad for predicting token i+1
        inert = np.where((labels_arr[1:] == oracles.PROMPT) | (labels_arr[1:] == oracles.PAD_LABEL))[0]
        assert np.all(dlogits[0, inert, :] == 0)
        assert np.all(dlogits[0, -1, :] == 0)

    def test_batch_without_answer_targets_rejected(self, tiny_ckpt, vocab):
        tokens = np.array([[corpus.BOS, vocab.word_to_id["1"], corpus.THINK_END]])
        bounds = np.array([[2, 3, 3]])  # labels PROMPT, PROMPT, COT
        trace = model.forward(tiny_ckpt, tokens)
        with pytest.raises(train.TrainError):
            train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)


def random_batch(vocab, languages, n, regime, mix, seed, pick):
    dataset = corpus.build_dataset(n, mix, regime, seed, vocab, languages)
    return pick.sample(dataset, pick.randint(1, len(dataset)))


BATCHES = dict(n=st.integers(1, 12), regime=st.sampled_from(sorted(corpus.REGIME_LANGS)),
               mix=st.floats(0.0, 1.0), seed=st.integers(0, 2**64), pick=st.randoms())


class TestPadBatch:
    @given(**BATCHES)
    def test_matches_the_list_reference(self, vocab, languages, n, regime, mix, seed, pick):
        batch = random_batch(vocab, languages, n, regime, mix, seed, pick)
        tokens, bounds = train.pad_batch(batch)
        want_tokens, want_labels = oracles.pad_batch(batch, vocab)
        assert tokens.dtype == bounds.dtype == np.int64
        assert np.array_equal(tokens, want_tokens)
        assert bounds.tolist() == [
            [row.index(oracles.COT), row.index(oracles.ANSWER),
             len(row) - row.count(oracles.PAD_LABEL)] for row in want_labels.tolist()]

    @given(**BATCHES)
    def test_masked_loss_routes_the_reference_labels(self, vocab, languages, n, regime, mix,
                                                     seed, pick):
        """Target j feeds the trace term when the reference labels token j COT and the
        answer term when they label it ANSWER; no other position carries gradient."""
        batch = random_batch(vocab, languages, n, regime, mix, seed, pick)
        tokens, bounds = train.pad_batch(batch)
        want_tokens, want_labels = oracles.pad_batch(batch, vocab)
        assert np.array_equal(tokens, want_tokens)
        logits = np.random.default_rng(seed).standard_normal((*tokens.shape, len(vocab)))
        bd, dlogits = train.masked_loss(logits.astype(np.float32), tokens, bounds, 1.0, 1.0)
        target_labels = want_labels[:, 1:]
        assert bd.n_cot == np.count_nonzero(target_labels == oracles.COT)
        assert bd.n_answer == np.count_nonzero(target_labels == oracles.ANSWER)
        live = (target_labels == oracles.COT) | (target_labels == oracles.ANSWER)
        assert np.array_equal(dlogits[:, :-1].any(axis=-1), live)
        assert not dlogits[:, -1].any()


class TestAdamW:
    def test_hand_worked_first_step(self):
        """w=1, g=1, lr=0.1, no decay: w' = 1 - 0.1/(1+1e-8) = 0.900000001."""
        cfg = model.ModelConfig(vocab_size=2, d_model=4, n_layers=1, n_heads=1,
                                d_ff=4, max_context=4, dtype="float64")
        ckpt = model.init(cfg)
        for path in ckpt.params:
            ckpt.params[path][:] = 1.0
        grads = {p: np.ones_like(v) for p, v in ckpt.params.items()}
        tcfg = train.TrainConfig(lr=0.1, weight_decay=0.0)
        train.adamw_step(ckpt, grads, tcfg, 1, train.AdamWState())
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert ckpt.params["emb"][0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.900000001, abs=1e-10)

    def test_decay_is_decoupled(self):
        """Zero gradient still shrinks weights by exactly lr * wd * w."""
        cfg = model.ModelConfig(vocab_size=2, d_model=4, n_layers=1, n_heads=1,
                                d_ff=4, max_context=4, dtype="float64")
        ckpt = model.init(cfg)
        ckpt.params["head"][:] = 2.0
        grads = {p: np.zeros_like(v) for p, v in ckpt.params.items()}
        tcfg = train.TrainConfig(lr=0.5, weight_decay=0.1)
        train.adamw_step(ckpt, grads, tcfg, 1, train.AdamWState())
        assert np.allclose(ckpt.params["head"], 2.0 - 0.5 * 0.1 * 2.0)

    def test_nonfinite_gradient_names_path(self, tiny_ckpt):
        grads = {p: np.zeros_like(v) for p, v in tiny_ckpt.params.items()}
        grads["L1.mlp_up"][0, 0] = np.nan
        with pytest.raises(train.TrainError) as exc:
            train.adamw_step(tiny_ckpt, grads, train.TrainConfig(), 1, train.AdamWState())
        assert "L1.mlp_up" in str(exc.value)

    def test_bias_correction_against_reference_loop(self):
        """Two steps of the update recurrence computed independently on scalars."""
        cfg = model.ModelConfig(vocab_size=2, d_model=4, n_layers=1, n_heads=1,
                                d_ff=4, max_context=4, dtype="float64")
        ckpt = model.init(cfg)
        ckpt.params["emb"][:] = 0.5
        tcfg = train.TrainConfig(lr=0.01, weight_decay=0.0)
        state = train.AdamWState()
        gs = [0.3, -0.7]
        for t, gval in enumerate(gs, start=1):
            grads = {p: np.full_like(v, gval if p == "emb" else 0.0)
                     for p, v in ckpt.params.items()}
            train.adamw_step(ckpt, grads, tcfg, t, state)
        w, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            w -= 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
        assert ckpt.params["emb"][0, 0] == pytest.approx(w, rel=1e-12)


class TestEma:
    def test_spec_recurrence(self):
        xs = [4.0, 2.0, 2.0]
        ys = train.ema_series(xs, 0.5)
        assert ys == [4.0, 3.0, 2.5]

    def test_first_value_passthrough(self):
        assert train.ema_series([7.5], 0.95) == [7.5]

    def test_weight_against_direct_formula(self):
        rng = np.random.default_rng(3)
        xs = list(rng.normal(size=20))
        ys = train.ema_series(xs, 0.95)
        y = xs[0]
        for x in xs[1:]:
            y = 0.95 * y + 0.05 * x
        assert ys[-1] == pytest.approx(y, rel=1e-12)


class TestTrainLoop:
    def test_loss_decreases_median_over_seeds(self, tiny_config, vocab, languages):
        """Median total loss over 5 seeds decreases from first to last step."""
        dataset = small_dataset(vocab, languages, n=48)
        firsts, lasts = [], []
        for seed in range(5):
            ckpt = model.init(tiny_config)
            cfg = train.TrainConfig(lr=3e-3, epochs=1, batch_size=12, seed=seed)
            _, rows = train.train(dataset, ckpt, cfg)
            firsts.append(rows[0]["loss_total"])
            lasts.append(rows[-1]["loss_total"])
        assert statistics.median(lasts) < statistics.median(firsts)

    def test_deterministic_given_seed(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=12)
        cfg = train.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=9)
        c1, r1 = train.train(dataset, model.init(tiny_config), cfg)
        c2, r2 = train.train(dataset, model.init(tiny_config), cfg)
        assert r1 == r2
        for path in c1.params:
            assert np.array_equal(c1.params[path], c2.params[path])

    def test_log_rows_and_ema(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=12)
        cfg = train.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=1, ema_weight=0.95)
        _, rows = train.train(dataset, model.init(tiny_config), cfg)
        assert len(rows) == 2 * 3
        assert [r["step"] for r in rows] == list(range(1, 7))
        assert rows[0]["epoch"] == 1 and rows[-1]["epoch"] == 2
        cots = [r["loss_cot"] for r in rows]
        assert [r["ema_cot"] for r in rows] == train.ema_series(cots, 0.95)
        answers = [r["loss_answer"] for r in rows]
        assert [r["ema_answer"] for r in rows] == train.ema_series(answers, 0.95)
        for r in rows:
            assert r["loss_total"] == pytest.approx(
                cfg.alpha * r["loss_cot"] + cfg.beta * r["loss_answer"])

    def test_epoch_checkpoints_written(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=8)
        cfg = train.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=1)
        calls = []

        def on_epoch(epoch, ckpt):
            calls.append((epoch, ckpt.step, {k: v.copy() for k, v in ckpt.params.items()}))

        ckpt, _ = train.train(dataset, model.init(tiny_config), cfg, on_epoch=on_epoch)
        assert [(epoch, step) for epoch, step, _ in calls] == [(1, 2), (2, 4)]
        last = calls[-1][2]
        for path in ckpt.params:
            assert np.array_equal(last[path], ckpt.params[path])

    def test_each_forward_finds_the_last_steps_activations_freed(self, tiny_config, vocab,
                                                                 languages, monkeypatch):
        forward, last, freed = model.forward, [], []

        def watched(ckpt, tokens, kv=None):
            freed.append(all(ref() is None for ref in last))
            trace = forward(ckpt, tokens, kv)
            last[:] = [weakref.ref(trace), weakref.ref(trace.logits)]
            return trace

        monkeypatch.setattr(model, "forward", watched)
        cfg = train.TrainConfig(epochs=2, batch_size=4, seed=1)
        train.train(small_dataset(vocab, languages, n=12), model.init(tiny_config), cfg)
        assert freed == [True] * 6

    def test_split_step_peaks_under_48_mib(self, vocab):
        """A default-shape float32 split step (forward, loss, backward) on 24 x 106 tokens
        peaks as the backward rebuilds the top layer's MLP activation: the forward caches
        no norm output, no attention output and nothing d_ff wide, and backward frees each
        layer's activations before the layer below allocates its temporaries."""
        ckpt = model.init(model.ModelConfig(vocab_size=len(vocab)))
        tokens = np.random.default_rng(0).integers(0, len(vocab), size=(24, 106))
        bounds = np.repeat([[20, 90, 106]], 24, axis=0)  # 20 prompt, 70 trace, 16 answer
        tracemalloc.start()
        try:
            trace = model.forward(ckpt, tokens)
            _, dlogits = train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)
            model.backward(trace, dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_log_csv_round_trip(self, tmp_path):
        rows = [
            {"step": 1, "epoch": 1, "loss_cot": 3.25, "loss_answer": 1.5,
             "loss_total": 4.75, "ema_cot": 3.25, "ema_answer": 1.5},
        ]
        path = tmp_path / "log.csv"
        train.write_log_csv(rows, str(path))
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert float(got[0]["loss_total"]) == 4.75
        assert int(got[0]["step"]) == 1

    def test_over_length_sample_rejected(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=2)
        dataset[0].tokens = dataset[0].tokens * 40
        cfg = train.TrainConfig(epochs=1, batch_size=2)
        with pytest.raises(model.ContextLengthError):
            train.train(dataset, model.init(tiny_config), cfg)

    def test_batches_are_length_sorted(self, vocab, languages):
        dataset = small_dataset(vocab, languages, n=20, max_steps=4)
        batches = train.make_batches(dataset, 6)
        lengths = [len(s.tokens) for b in batches for s in b]
        assert lengths == sorted(lengths)
        assert sum(len(b) for b in batches) == 20
