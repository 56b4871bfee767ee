import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pivotlab import corpus, evaluate, model

import oracles


class TestCandidateSet:
    """The one-row reference selection of tests/oracles.py; TestSelect holds the
    batched production selection to it."""

    def test_nucleus_cut_on_known_distribution(self):
        # probs after softmax of log([0.5, 0.3, 0.15, 0.05]) at T=1
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        cfg = evaluate.GenConfig(mode="sample", temperature=1.0, nucleus_p=0.8, seed=0)
        ids, probs = oracles.candidate_set(logits, cfg)
        assert list(ids) == [0, 1]
        assert probs == pytest.approx([0.5 / 0.8, 0.3 / 0.8])

    def test_nucleus_boundary_inclusive(self):
        logits = np.log(np.array([0.5, 0.3, 0.2]))
        cfg = evaluate.GenConfig(temperature=1.0, nucleus_p=0.5, seed=0)
        ids, probs = oracles.candidate_set(logits, cfg)
        assert list(ids) == [0]
        assert probs == pytest.approx([1.0])

    def test_probability_ties_break_to_lowest_id(self):
        logits = np.zeros(5)
        cfg = evaluate.GenConfig(temperature=1.0, nucleus_p=0.4, seed=0)
        ids, _ = oracles.candidate_set(logits, cfg)
        assert list(ids) == [0, 1]

    def test_temperature_sharpens(self):
        logits = np.array([2.0, 1.0, 0.0])
        hot = oracles.candidate_set(logits, evaluate.GenConfig(temperature=2.0, nucleus_p=1.0, seed=0))[1]
        cold = oracles.candidate_set(logits, evaluate.GenConfig(temperature=0.5, nucleus_p=1.0, seed=0))[1]
        assert cold[0] > hot[0]

    def test_full_nucleus_matches_softmax_frequencies(self):
        """Chi-square oracle: sampling with p=1.0, T=1.0 reproduces softmax."""
        logits = np.array([1.0, 0.0, -1.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        cfg = evaluate.GenConfig(mode="sample", temperature=1.0, nucleus_p=1.0, seed=0)
        rng = np.random.default_rng(42)
        n = 10_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[oracles._pick(logits, cfg, rng)] += 1
        chi2 = float(((counts - n * expected) ** 2 / (n * expected)).sum())
        # df=2, p=0.999 critical value ~ 13.8
        assert chi2 < 13.8

    def test_bad_config_rejected(self):
        with pytest.raises(evaluate.EvalError):
            evaluate.GenConfig(temperature=0.0).validate()
        with pytest.raises(evaluate.EvalError):
            evaluate.GenConfig(nucleus_p=0.0).validate()
        with pytest.raises(evaluate.EvalError):
            evaluate.GenConfig(mode="beam").validate()


class FixedDraws:
    """Stands in for a generator: `random()` returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestSelect:
    """Batched selection picks what the per-row oracle picks, draw for draw."""

    CONFIGS = [evaluate.GenConfig(mode="greedy"),
               evaluate.GenConfig(mode="sample"),
               evaluate.GenConfig(mode="sample", temperature=1.0, nucleus_p=0.5),
               evaluate.GenConfig(mode="sample", temperature=1.5, nucleus_p=1.0)]

    @staticmethod
    def logits_with_ties(rng, m, v):
        logits = rng.normal(scale=3.0, size=(m, v)).astype(np.float32)
        logits[0] = 0.0                            # all tied
        logits[1, ::2] = logits[1, 0]              # half tied with the top
        logits[2] = np.round(logits[2])            # many small tie groups
        logits[3, :4] = np.log([0.5, 0.3, 0.15, 0.05])
        logits[3, 4:] = -np.inf                    # mass 0.5 / 0.8 sits on the cut
        return logits

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.mode}-{c.temperature}-{c.nucleus_p}")
    def test_matches_per_row_pick(self, cfg):
        rng = np.random.default_rng(5)
        seeds = range(7)
        batched = [np.random.default_rng(s) for s in seeds]
        per_row = [np.random.default_rng(s) for s in seeds]
        for step in range(200):
            logits = self.logits_with_ties(rng, len(batched), 46)
            live = np.flatnonzero(rng.random(len(batched)) < 0.8)  # rows that are still going
            got = evaluate._select(logits[live], cfg, [batched[j] for j in live])
            want = [oracles._pick(logits[j], cfg, per_row[j]) for j in live]
            assert got.tolist() == want, step
        assert [g.random() for g in batched] == [g.random() for g in per_row]

    def test_draws_on_the_cdf_steps(self):
        """A draw on a cumulative probability, or one ulp either side of it, picks what
        the oracle picks; so the renormalized probabilities agree to the last bit."""
        rng = np.random.default_rng(8)
        logits = np.concatenate([np.log(np.array([[0.5, 0.3, 0.15, 0.05] + [1e-300] * 42,
                                                  [1.0] * 46])),
                                 rng.normal(size=(6, 46))])
        for nucleus_p in (1.0, 0.95, 0.8, 0.5):
            cfg = evaluate.GenConfig(temperature=0.6, nucleus_p=nucleus_p)
            for row in logits:
                _, probs = oracles.candidate_set(row, cfg)
                steps = np.cumsum(probs)
                draws = [0.0, *steps, *np.nextafter(steps, 0.0), *np.nextafter(steps, 2.0),
                         np.nextafter(1.0, 0.0)]
                got = [int(evaluate._select(row[None], cfg, [FixedDraws([u])])[0])
                       for u in draws]
                assert got == [oracles._pick(row, cfg, FixedDraws([u])) for u in draws]


class TestSegmentation:
    def test_eos_after_separator(self):
        res = evaluate.GenerationResult([5, 6, corpus.THINK_END, 7, 8, corpus.EOS])
        assert res.cot_segment == [5, 6]
        assert res.answer_segment == [7, 8]
        assert res.terminated == "EOS"

    def test_budget_exhausted_without_separator(self):
        res = evaluate.GenerationResult([5, 5, 5])
        assert res.terminated == "LENGTH"
        assert res.cot_segment == [5, 5, 5]
        assert res.answer_segment == []

    def test_eos_without_separator(self):
        res = evaluate.GenerationResult([5, corpus.EOS])
        assert res.terminated == "SEPARATOR_MISSING"

    def test_budget_exhausted_after_separator(self):
        res = evaluate.GenerationResult([5, corpus.THINK_END, 6])
        assert res.terminated == "LENGTH"
        assert res.answer_segment == [6]


def assert_matches_oracle(ckpt, prompts, cfg):
    """generate_batch agrees item by item with the uncached one-prompt oracle."""
    ids = [f"x-{k}" for k in range(len(prompts))]
    batched = evaluate.generate_batch(ckpt, prompts, ids, cfg)
    for prompt, item_id, got in zip(prompts, ids, batched):
        solo = oracles.generate(ckpt, prompt, cfg,
                                rng_seed=evaluate.item_seed(cfg.seed, item_id))
        assert got.generated == solo.generated
        assert got.terminated == solo.terminated
    return batched


class TestGenerate:
    def test_deterministic_per_seed(self, tiny_ckpt):
        cfg = evaluate.GenConfig(mode="sample", seed=7, max_new_tokens=12)
        prompts = [[corpus.BOS, 5, 6], [corpus.BOS, 2, 6], [corpus.BOS, 9]]
        a = evaluate.generate_batch(tiny_ckpt, prompts, ["a", "b", "c"], cfg)
        b = evaluate.generate_batch(tiny_ckpt, prompts, ["a", "b", "c"], cfg)
        assert [r.generated for r in a] == [r.generated for r in b]

    def test_greedy_ignores_seed(self, tiny_ckpt):
        cfg1 = evaluate.GenConfig(mode="greedy", seed=1, max_new_tokens=10)
        cfg2 = evaluate.GenConfig(mode="greedy", seed=2, max_new_tokens=10)
        prompts = [[corpus.BOS, 5], [corpus.BOS, 7], [corpus.BOS, 5, 7]]
        a = evaluate.generate_batch(tiny_ckpt, prompts, ["a", "b", "c"], cfg1)
        b = evaluate.generate_batch(tiny_ckpt, prompts, ["a", "b", "c"], cfg2)
        assert [r.generated for r in a] == [r.generated for r in b]

    def test_respects_token_budget(self, tiny_ckpt):
        cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=5)
        prompts = [[corpus.BOS, 3], [corpus.BOS, 4], [corpus.BOS, 4, 4]]
        for res in evaluate.generate_batch(tiny_ckpt, prompts, ["a", "b", "c"], cfg):
            assert len(res.generated) <= 5

    def test_stops_at_context_limit(self, tiny_config):
        ckpt = model.init(tiny_config)
        cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=10_000)
        limit = tiny_config.max_context
        prompts = [[corpus.BOS, 3], [corpus.BOS, 4], [corpus.BOS] + [4] * (limit - 2)]
        results = evaluate.generate_batch(ckpt, prompts, ["a", "b", "c"], cfg)
        for prompt, res in zip(prompts, results):
            assert len(prompt) + len(res.generated) <= limit
        # The longest prompt leaves room for exactly one token, and the cached
        # forward is never asked for a position past the context.
        assert len(results[2].generated) == 1

    def test_prompt_too_long_rejected(self, tiny_config):
        ckpt = model.init(tiny_config)
        cfg = evaluate.GenConfig(mode="greedy")
        with pytest.raises(model.ContextLengthError):
            evaluate.generate_batch(ckpt, [[3] * tiny_config.max_context], ["a"], cfg)

    def test_batch_matches_single(self, tiny_ckpt):
        """Batched cached decode is item-for-item identical to the uncached oracle."""
        equal = [[corpus.BOS, 4, 9], [corpus.BOS, 5, 9], [corpus.BOS, 6, 9], [corpus.BOS, 7, 2]]
        mixed = [[corpus.BOS, 4, 9], [corpus.BOS, 2], [corpus.BOS, 4, 9, 1, 3],
                 [corpus.BOS, 6], [corpus.BOS, 6, 9], [corpus.BOS, 8, 8, 1, 3]]
        for mode in ("greedy", "sample"):
            cfg = evaluate.GenConfig(mode=mode, seed=11, max_new_tokens=16)
            for prompts in (equal, mixed):
                assert_matches_oracle(tiny_ckpt, prompts, cfg)

    def test_batch_matches_single_after_early_eos(self, tiny_ckpt):
        """Rows that end early leave without changing the rows that go on."""
        ckpt = tiny_ckpt.copy()
        # Swap the head columns of EOS and a token this model emits often, so
        # that some rows end early.
        head = ckpt.params["head"]
        head[:, [corpus.EOS, 41]] = head[:, [41, corpus.EOS]]
        prompts = [[corpus.BOS, 4, 9], [corpus.BOS, 5, 9], [corpus.BOS, 6, 9],
                   [corpus.BOS, 7, 2], [corpus.BOS, 2, 2], [corpus.BOS, 8, 1]]
        for mode in ("greedy", "sample"):
            cfg = evaluate.GenConfig(mode=mode, seed=11, max_new_tokens=16)
            results = assert_matches_oracle(ckpt, prompts, cfg)
            lengths = [len(r.generated) for r in results]
            early = [n for r, n in zip(results, lengths) if r.generated[-1] == corpus.EOS]
            assert early and min(early) < max(lengths), (mode, lengths)

    def test_item_seed_stable(self):
        assert evaluate.item_seed(3, "a-001") == evaluate.item_seed(3, "a-001")
        assert evaluate.item_seed(3, "a-001") != evaluate.item_seed(4, "a-001")
        assert evaluate.item_seed(3, "a-001") != evaluate.item_seed(3, "a-002")


class TestDecodeBatches:
    """Rows sorted by prompt length decode DECODE_ROWS at a time, every group of a
    batch in one forward per step; where the batches are cut changes no item."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Rows of each cache built, and rows of each decoding forward's caches."""
        built, fed = [], []
        real_cache, real_forward = model.KVCache, model.forward

        def cache(config, rows, capacity):
            built.append(rows)
            return real_cache(config, rows, capacity)

        def forward(ckpt, tokens, kv=None):
            if kv is not None:
                fed.append([c.rows for c in kv])
            return real_forward(ckpt, tokens, kv=kv)

        monkeypatch.setattr(model, "KVCache", cache)
        monkeypatch.setattr(model, "forward", forward)
        return built, fed

    @pytest.fixture
    def early_eos(self, tiny_ckpt, tiny_config):
        """A checkpoint on which some rows end early, as in the early-EOS test above, and
        prompts of five lengths."""
        ckpt = tiny_ckpt.copy()
        head = ckpt.params["head"]
        head[:, [corpus.EOS, 41]] = head[:, [41, corpus.EOS]]
        long = tiny_config.max_context - 4  # this group fills its context after 3 tokens
        prompts = ([[corpus.BOS, k] for k in (4, 5, 6)]
                   + [[corpus.BOS, k, 9] for k in (4, 5, 6, 7, 2, 8)]
                   + [[corpus.BOS, 4, 9, 1, 3], [corpus.BOS, 8, 8, 1, 3],
                      [corpus.BOS] + [4] * long])
        return ckpt, prompts

    def test_boundaries_change_nothing(self, monkeypatch, recorded, early_eos):
        monkeypatch.setattr(evaluate, "DECODE_ROWS", 4)
        ckpt, prompts = early_eos
        ids = [f"x-{k}" for k in range(len(prompts))]
        built, fed = recorded
        for mode in ("greedy", "sample"):
            cfg = evaluate.GenConfig(mode=mode, seed=11, max_new_tokens=16)
            built.clear()
            batched = assert_matches_oracle(ckpt, prompts, cfg)
            # batches [2, 2, 2, 3 | 3, 3, 3, 3 | 3, 5, 5, long]: the length-3 group straddles
            # all three, and the last batch's long group leaves while the other two go on
            assert built == [3, 1, 4, 1, 2, 1]
            assert max(map(len, fed)) == 3 and max(map(sum, fed)) == 4
            for k, (prompt, item_id) in enumerate(zip(prompts, ids)):
                alone = evaluate.generate_batch(ckpt, [prompt], [item_id], cfg)[0]
                assert alone.generated == batched[k].generated
                assert alone.terminated == batched[k].terminated
            lengths = [len(r.generated) for r in batched]
            assert lengths[-1] == 3 and max(lengths[-3:-1]) > 3, lengths
            early = [n for r, n in zip(batched, lengths) if r.generated[-1] == corpus.EOS]
            assert early and min(early) < max(lengths), (mode, lengths)

    def test_no_finished_row_is_fed(self, recorded, early_eos):
        """Every pick but each row's last is fed once: after the prefills, whose rows are
        the rows of the caches built, a decoding step holds no row that has ended."""
        ckpt, prompts = early_eos
        built, fed = recorded
        for mode in ("greedy", "sample"):
            cfg = evaluate.GenConfig(mode=mode, seed=11, max_new_tokens=16)
            built.clear()
            fed.clear()
            results = evaluate.generate_batch(ckpt, prompts, [str(k) for k in range(len(prompts))],
                                              cfg)
            assert any(r.generated[-1] == corpus.EOS for r in results), mode
            steps = sum(map(sum, fed)) - sum(built)
            assert steps == sum(len(r.generated) - 1 for r in results), mode

    def test_no_cache_exceeds_the_row_limit(self, tiny_ckpt, recorded):
        rng = np.random.default_rng(2)
        prompts = [[corpus.BOS] + rng.integers(4, 20, size=n).tolist()
                   for n in rng.integers(1, 4, size=110)]
        cfg = evaluate.GenConfig(mode="greedy", max_new_tokens=3)
        evaluate.generate_batch(tiny_ckpt, prompts, [str(k) for k in range(110)], cfg)
        built, fed = recorded
        assert sum(built) == 110
        assert max(built) <= evaluate.DECODE_ROWS
        assert max(map(sum, fed)) == evaluate.DECODE_ROWS


def read_answer(res, lang, vocab):
    """A decode's answer as `score` reads it."""
    return corpus.answer_value(vocab.detokenize(res.answer_segment), lang)


# Ids that may follow an answer phrase: digits, the sign, punctuation and words, specials.
N_IDS = len(corpus.build_vocab(corpus.default_languages()))
ANSWER_TAIL_IDS = st.one_of(st.integers(corpus.EOS + 1, corpus.SIGN - 1), st.just(corpus.SIGN),
                            st.integers(corpus.SIGN + 1, N_IDS - 1),
                            st.integers(corpus.PAD, corpus.EOS))


class TestExtractAnswer:
    def result_from_text(self, vocab, text, separator=True):
        """A decode that ends at EOS with `text` after its separator, or with no separator."""
        return evaluate.GenerationResult(
            [corpus.THINK_END] * separator + vocab.tokenize(text) + [corpus.EOS])

    def test_well_formed(self, vocab, languages):
        pivot = languages["PIVOT"]
        res = self.result_from_text(vocab, "the answer is -42")
        assert read_answer(res, pivot, vocab) == -42

    def test_wrong_language_phrase(self, vocab, languages):
        pivot, target = languages["PIVOT"], languages["TARGET"]
        res = self.result_from_text(vocab, "the answer is 7")
        assert read_answer(res, target, vocab) is None

    def test_trailing_garbage(self, vocab, languages):
        pivot = languages["PIVOT"]
        res = self.result_from_text(vocab, "the answer is 7 step")
        assert read_answer(res, pivot, vocab) is None

    def test_separator_missing_is_none(self, vocab, languages):
        pivot = languages["PIVOT"]
        res = self.result_from_text(vocab, "the answer is 7", separator=False)
        assert res.terminated == "SEPARATOR_MISSING"
        assert read_answer(res, pivot, vocab) is None

    def test_empty_answer(self, vocab, languages):
        pivot = languages["PIVOT"]
        res = self.result_from_text(vocab, "")
        assert read_answer(res, pivot, vocab) is None

    @settings(max_examples=500)
    @given(which=st.integers(0, 1), phrase=st.sampled_from(("full", "partial", "other")),
           cut=st.integers(0, 2), tail=st.lists(ANSWER_TAIL_IDS, max_size=4),
           separator=st.booleans())
    def test_matches_the_reference(self, vocab, languages, which, phrase, cut, tail, separator):
        """On any answer segment, `score`'s reading equals `oracles.extract_answer`."""
        pivot, target = languages["PIVOT"], languages["TARGET"]
        lang, other = (pivot, target) if which == 0 else (target, pivot)
        words = lang["answer_phrase"].split()
        head = {"full": words, "partial": words[:cut],
                "other": other["answer_phrase"].split()}[phrase]
        res = evaluate.GenerationResult([corpus.THINK_END] * separator
                                        + vocab.tokenize(" ".join(head)) + tail + [corpus.EOS])
        assert read_answer(res, lang, vocab) == oracles.extract_answer(res, lang, vocab)


class TestConformance:
    def test_pure_pivot_cot(self, vocab, languages):
        pivot = languages["PIVOT"]
        toks = vocab.tokenize("step 1 : 3 add 4 = 7 ;")
        assert evaluate.conformance(toks, pivot, vocab) == 1.0

    def test_mixed_cot(self, vocab, languages):
        pivot, target = languages["PIVOT"], languages["TARGET"]
        toks = vocab.tokenize("step pasi add rem")
        assert evaluate.conformance(toks, pivot, vocab) == 0.5
        assert evaluate.conformance(toks, target, vocab) == 0.5

    def test_digits_do_not_count(self, vocab, languages):
        pivot = languages["PIVOT"]
        toks = vocab.tokenize("1 2 3")
        assert evaluate.conformance(toks, pivot, vocab) == 0.0

    def test_empty_is_zero(self, vocab, languages):
        pivot = languages["PIVOT"]
        assert evaluate.conformance([], pivot, vocab) == 0.0


class TestScore:
    def test_gold_echo_stub_scores_perfectly(self, tiny_ckpt, vocab, languages, monkeypatch):
        """A stub generator that echoes the gold continuation must score 1.0."""
        samples = [
            corpus.make_sample(corpus.gen_problem(i, max_steps=2), "PIVOTED",
                               f"t-{i:03d}", vocab, languages)
            for i in range(8)
        ]
        gold = {s.id: s for s in samples}

        def fake_batch(ckpt, prompts, ids, cfg):
            return [evaluate.GenerationResult(list(gold[i].tokens[len(p):]))
                    for p, i in zip(prompts, ids)]

        monkeypatch.setattr(evaluate, "generate_batch", fake_batch)
        report, records = evaluate.score(
            tiny_ckpt, samples, evaluate.GenConfig(mode="greedy"), vocab, languages, "PIVOT")
        assert report["accuracy"] == 1.0
        assert report["conformance_mean"] == 1.0
        assert report["n"] == 8
        assert all(r["terminated"] == "EOS" for r in records)
        assert set(report["by_regime"]) == {"PIVOTED"}

    def test_untrained_model_scores_zero_but_runs(self, tiny_ckpt, vocab, languages):
        samples = [
            corpus.make_sample(corpus.gen_problem(i, max_steps=1), "NATIVE",
                               f"u-{i:03d}", vocab, languages)
            for i in range(4)
        ]
        cfg = evaluate.GenConfig(mode="sample", seed=0, max_new_tokens=24)
        report, records = evaluate.score(tiny_ckpt, samples, cfg, vocab, languages, "TARGET")
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(records) == 4
        for r in records:
            assert set(r) == {"id", "gold", "predicted", "correct", "terminated",
                              "conformance", "regime"}
            assert r["terminated"] in {"EOS", "SEPARATOR_MISSING", "LENGTH"}

    def test_records_round_trip(self, tiny_ckpt, vocab, languages, tmp_path):
        """Saved records read back as the records `score` returned, one sorted-key JSON
        object per line."""
        samples = [corpus.make_sample(corpus.gen_problem(i, max_steps=2), "PIVOTED",
                                      f"r-{i:03d}", vocab, languages) for i in range(6)]
        cfg = evaluate.GenConfig(mode="sample", seed=3, max_new_tokens=24)
        _, records = evaluate.score(tiny_ckpt, samples, cfg, vocab, languages)
        path = tmp_path / "records.jsonl"
        evaluate.save_records(records, str(path))
        assert evaluate.load_records(str(path)) == records
        assert path.read_text().splitlines() == [json.dumps(r, sort_keys=True)
                                                 for r in records]

    def test_empty_testset_rejected(self, tiny_ckpt, vocab, languages):
        with pytest.raises(evaluate.EvalError):
            evaluate.score(tiny_ckpt, [], evaluate.GenConfig(), vocab, languages, "PIVOT")

    def test_unknown_trace_language_rejected_before_decoding(self, tiny_ckpt, vocab, languages,
                                                             monkeypatch):
        samples = [corpus.make_sample(corpus.gen_problem(0, max_steps=1), "NATIVE", "u-000",
                                      vocab, languages)]

        def no_decode(*args):
            raise AssertionError("decoded before the trace language was checked")

        monkeypatch.setattr(evaluate, "generate_batch", no_decode)
        with pytest.raises(evaluate.EvalError, match="FRENCH"):
            evaluate.score(tiny_ckpt, samples, evaluate.GenConfig(), vocab, languages, "FRENCH")


class TestCorrectionMatrix:
    def rec(self, rid, correct):
        return {"id": rid, "correct": correct}

    def test_exact_fractions(self):
        base = [self.rec("a", True), self.rec("b", True), self.rec("c", False),
                self.rec("d", False), self.rec("e", False), self.rec("f", True)]
        new = [self.rec("a", True), self.rec("b", False), self.rec("c", True),
               self.rec("d", False), self.rec("e", True), self.rec("f", True)]
        m = evaluate.correction_matrix(base, new)
        assert m["n_items"] == 6
        assert m["counts"] == {"cc": 2, "ci": 1, "ic": 2, "ii": 1}
        # each rate is its exact fraction, correctly rounded
        for key, count in m["counts"].items():
            assert m["rates"][key] == float(Fraction(count, 6))
        assert m["acc_base"] == float(Fraction(3, 6))
        assert m["acc_new"] == float(Fraction(4, 6))

    def test_identity_decomposition_holds_randomly(self):
        import random
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 30)
            ids = [f"r{i}" for i in range(n)]
            base = [self.rec(i, rng.random() < 0.5) for i in ids]
            new = [self.rec(i, rng.random() < 0.5) for i in ids]
            m = evaluate.correction_matrix(base, new)
            c = m["counts"]
            assert sum(c.values()) == n
            assert c["cc"] + c["ci"] == sum(r["correct"] for r in base)
            assert c["cc"] + c["ic"] == sum(r["correct"] for r in new)
            assert m["acc_base"] == float(Fraction(c["cc"] + c["ci"], n))
            assert m["acc_new"] == float(Fraction(c["cc"] + c["ic"], n))

    def test_mismatched_ids_rejected(self):
        with pytest.raises(evaluate.EvalError):
            evaluate.correction_matrix([self.rec("a", True)], [self.rec("b", True)])

    def test_repeated_id_rejected(self):
        once = [self.rec("a", True), self.rec("b", False)]
        twice = once + [self.rec("a", False)]
        for base, new in ((twice, once), (once, twice)):
            with pytest.raises(evaluate.EvalError, match="repeats"):
                evaluate.correction_matrix(base, new)

    def test_to_json_shape(self):
        obj = evaluate.correction_matrix([self.rec("a", True)], [self.rec("a", False)])
        assert set(obj) == {"n_items", "counts", "rates", "acc_base", "acc_new"}
        assert obj["n_items"] == 1
        assert obj["rates"]["ci"] == 1.0
        assert obj["counts"]["ci"] == 1
        assert obj["acc_base"] == 1.0 and obj["acc_new"] == 0.0
