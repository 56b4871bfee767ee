import csv
import math
import statistics

import numpy as np
import pytest

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
        trace = model.forward(tiny_ckpt, s.tokens)
        bd = train.masked_loss(trace, s.tokens, s.mask, 1.0, 1.0)
        logits = trace.logits[0]
        cot_terms, ans_terms = [], []
        for i in range(len(s.tokens) - 1):
            ce = manual_cross_entropy(np.asarray(logits[i], dtype=np.float64), s.tokens[i + 1])
            if s.mask[i + 1] == corpus.COT:
                cot_terms.append(ce)
            elif s.mask[i + 1] == corpus.ANSWER:
                ans_terms.append(ce)
        assert bd.loss_cot == pytest.approx(statistics.mean(cot_terms), rel=1e-9)
        assert bd.loss_answer == pytest.approx(statistics.mean(ans_terms), rel=1e-9)
        assert bd.loss_total == pytest.approx(bd.loss_cot + bd.loss_answer, rel=1e-12)
        assert bd.n_cot == len(cot_terms) and bd.n_answer == len(ans_terms)

    def test_alpha_beta_weighting(self, tiny_ckpt, vocab, languages):
        s = small_dataset(vocab, languages, n=1)[0]
        trace = model.forward(tiny_ckpt, s.tokens)
        bd = train.masked_loss(trace, s.tokens, s.mask, 2.0, 0.5)
        assert bd.loss_total == pytest.approx(2.0 * bd.loss_cot + 0.5 * bd.loss_answer)

    def test_uniform_logits_loss_is_log_vocab(self, tiny_config, vocab, languages):
        s = small_dataset(vocab, languages, n=1)[0]
        ckpt = model.init(tiny_config)
        for path in ckpt.params:
            ckpt.params[path][:] = 0.0
        trace = model.forward(ckpt, s.tokens)
        bd = train.masked_loss(trace, s.tokens, s.mask, 1.0, 1.0)
        assert bd.loss_cot == pytest.approx(math.log(tiny_config.vocab_size), rel=1e-9)
        assert bd.loss_answer == pytest.approx(math.log(tiny_config.vocab_size), rel=1e-9)

    def test_gradient_matches_finite_difference(self, tiny_ckpt, vocab, languages):
        s = small_dataset(vocab, languages, n=1, max_steps=1)[0]
        trace = model.forward(tiny_ckpt, s.tokens)
        _, dlogits = train.masked_loss(trace, s.tokens, s.mask, 1.3, 0.7, with_grad=True)
        eps = 1e-6
        rng = np.random.default_rng(0)
        flat = trace.logits.ravel()
        for idx in rng.choice(flat.size, size=40, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = train.masked_loss(trace, s.tokens, s.mask, 1.3, 0.7).loss_total
            flat[idx] = orig - eps
            lo = train.masked_loss(trace, s.tokens, s.mask, 1.3, 0.7).loss_total
            flat[idx] = orig
            assert dlogits.ravel()[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-7)

    def test_prompt_and_pad_positions_carry_zero_grad(self, tiny_ckpt, vocab, languages):
        s = small_dataset(vocab, languages, n=1)[0]
        tokens = s.tokens + [vocab.pad] * 4
        labels = s.mask + [corpus.PAD_LABEL] * 4
        trace = model.forward(tiny_ckpt, tokens)
        _, dlogits = train.masked_loss(trace, tokens, labels, 1.0, 1.0, with_grad=True)
        labels_arr = np.asarray(labels)
        # position i holds grad for predicting token i+1
        inert = np.where((labels_arr[1:] == corpus.PROMPT) | (labels_arr[1:] == corpus.PAD_LABEL))[0]
        assert np.all(dlogits[0, inert, :] == 0)
        assert np.all(dlogits[0, -1, :] == 0)

    def test_batch_without_answer_targets_rejected(self, tiny_ckpt, vocab):
        tokens = [vocab.bos, vocab.word_to_id["1"], vocab.think_end]
        labels = [corpus.PROMPT, corpus.PROMPT, corpus.COT]
        trace = model.forward(tiny_ckpt, tokens)
        with pytest.raises(train.TrainError):
            train.masked_loss(trace, tokens, labels, 1.0, 1.0)


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
            _, rows = train.train(dataset, ckpt, cfg, vocab)
            firsts.append(rows[0]["loss_total"])
            lasts.append(rows[-1]["loss_total"])
        assert statistics.median(lasts) < statistics.median(firsts)

    def test_deterministic_given_seed(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=12)
        cfg = train.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=9)
        c1, r1 = train.train(dataset, model.init(tiny_config), cfg, vocab)
        c2, r2 = train.train(dataset, model.init(tiny_config), cfg, vocab)
        assert r1 == r2
        for path in c1.params:
            assert np.array_equal(c1.params[path], c2.params[path])

    def test_log_rows_and_ema(self, tiny_config, vocab, languages):
        dataset = small_dataset(vocab, languages, n=12)
        cfg = train.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=1, ema_weight=0.95)
        _, rows = train.train(dataset, model.init(tiny_config), cfg, vocab)
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

    def test_epoch_checkpoints_written(self, tiny_config, vocab, languages, tmp_path):
        dataset = small_dataset(vocab, languages, n=8)
        cfg = train.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=1)
        ckpt, _ = train.train(dataset, model.init(tiny_config), cfg, vocab,
                              checkpoint_dir=str(tmp_path))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 2
        last = model.load(str(tmp_path / files[-1]))
        for path in ckpt.params:
            assert np.array_equal(last.params[path], ckpt.params[path])

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
        dataset[0].mask = dataset[0].mask * 40
        cfg = train.TrainConfig(epochs=1, batch_size=2)
        with pytest.raises(train.TrainError):
            train.train(dataset, model.init(tiny_config), cfg, vocab)

    def test_batches_are_length_sorted(self, vocab, languages):
        dataset = small_dataset(vocab, languages, n=20, max_steps=4)
        batches = train.make_batches(dataset, 6)
        lengths = [len(s.tokens) for b in batches for s in b]
        assert lengths == sorted(lengths)
        assert sum(len(b) for b in batches) == 20
