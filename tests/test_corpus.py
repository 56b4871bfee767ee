import json

import pytest

from pivotlab import corpus


def brute_force_eval(start, steps):
    """Independent oracle: fold the step list over plain integer ops."""
    values = []
    v = start
    for op, operand in steps:
        v = {"ADD": v + operand, "SUB": v - operand, "MUL": v * operand}[op]
        values.append(v)
    return values


class TestProblem:
    def test_identity_single_step(self):
        p = corpus.Problem(start=7, steps=[("ADD", 0)], intermediate_values=[],
                           final_answer=7)
        p.validate()
        assert p.final_answer == 7

    def test_three_step_example(self):
        steps = [("ADD", 4), ("MUL", 2), ("SUB", 5)]
        values = brute_force_eval(3, steps)
        assert values == [7, 14, 9]
        p = corpus.Problem(start=3, steps=steps, intermediate_values=values[:-1],
                           final_answer=values[-1])
        p.validate()
        assert p.intermediate_values == [7, 14]
        assert p.final_answer == 9

    def test_inconsistent_values_rejected(self):
        p = corpus.Problem(start=3, steps=[("ADD", 4)], intermediate_values=[],
                           final_answer=8)
        with pytest.raises(corpus.CorpusError):
            p.validate()


class TestGenProblem:
    def test_deterministic(self):
        a = corpus.gen_problem(123)
        b = corpus.gen_problem(123)
        assert a == b

    def test_bad_max_steps(self):
        with pytest.raises(corpus.CorpusError):
            corpus.gen_problem(0, max_steps=0)

    def test_values_in_range_over_many_draws(self):
        # exhaustive scan: every intermediate of 10,000 draws stays in range
        for seed in range(10_000):
            p = corpus.gen_problem(seed)
            assert all(abs(v) <= 999 for v in p.trajectory())
            assert all(abs(v) <= corpus.DEFAULT_VALUE_CAP for v in p.trajectory())
            assert all(0 <= operand <= 20 for _, operand in p.steps)
            p.validate()

    def test_matches_brute_force(self):
        for seed in range(200):
            p = corpus.gen_problem(seed)
            assert brute_force_eval(p.start, p.steps) == p.trajectory()


class TestLanguages:
    def test_disjoint_word_sets(self, languages):
        pivot, target = languages
        assert not (pivot.words() & target.words())

    def test_language_decidability(self, languages, vocab):
        # every lexical token belongs to exactly one language
        pivot, target = languages
        for word, tid in vocab.word_to_id.items():
            if vocab.is_lexical(tid):
                assert (word in pivot.words()) != (word in target.words())


class TestRender:
    def test_answer_pivot(self, languages):
        pivot, _ = languages
        p = corpus.Problem(start=3, steps=[("ADD", 4)], intermediate_values=[],
                           final_answer=7)
        assert corpus.render(p, "ANSWER", pivot) == "the answer is 7"

    def test_answer_target_shares_digits(self, languages):
        pivot, target = languages
        p = corpus.Problem(start=3, steps=[("ADD", 4)], intermediate_values=[],
                           final_answer=7)
        a_pivot = corpus.render(p, "ANSWER", pivot)
        a_target = corpus.render(p, "ANSWER", target)
        assert a_pivot.split()[-1] == a_target.split()[-1] == "7"

    def test_cot_line_count(self, languages):
        # line count = steps + restatement, over 100 generated problems
        pivot, _ = languages
        for seed in range(100):
            p = corpus.gen_problem(seed)
            lines = [l for l in corpus.render(p, "COT", pivot).split(";") if l.strip()]
            assert len(lines) == len(p.steps) + 1

    def test_question_injective(self, languages):
        pivot, _ = languages
        seen = {}
        for seed in range(500):
            p = corpus.gen_problem(seed)
            q = corpus.render(p, "QUESTION", pivot)
            key = (p.start, tuple(p.steps))
            if q in seen:
                assert seen[q] == key
            seen[q] = key
        assert len(seen) == len({v for v in seen.values()})

    def test_missing_lexicon_entry(self):
        broken = corpus.Language(id="PIVOT", lexicon={"q_start": "go"})
        p = corpus.gen_problem(1)
        with pytest.raises(corpus.CorpusError):
            corpus.render(p, "QUESTION", broken)


class TestTokenize:
    def test_empty(self, vocab):
        assert vocab.tokenize("") == []

    def test_negative_number(self, vocab):
        ids = vocab.tokenize("-12")
        assert ids == [vocab.sign, vocab.word_to_id["1"], vocab.word_to_id["2"]]

    def test_unknown_word(self, vocab):
        with pytest.raises(corpus.UnknownWordError):
            vocab.tokenize("xylophone")

    def test_round_trip_generated_questions(self, vocab, languages):
        for seed in range(1000):
            p = corpus.gen_problem(seed)
            lang = languages[seed % 2]
            for seg in ("QUESTION", "COT", "ANSWER"):
                text = corpus.render(p, seg, lang)
                assert vocab.detokenize(vocab.tokenize(text)) == text

    def test_vocab_json_round_trip(self, vocab, tmp_path):
        path = tmp_path / "vocab.json"
        vocab.save(str(path))
        loaded = corpus.Vocab.load(str(path))
        assert loaded.word_to_id == vocab.word_to_id
        assert loaded.specials == vocab.specials


class TestBuildDataset:
    def test_full_mix(self, vocab, languages):
        samples = corpus.build_dataset(100, 1.0, "PIVOTED", 7, vocab, languages)
        assert len(samples) == 200
        regimes = [s.regime for s in samples]
        assert regimes.count("PIVOTED") == 100
        assert regimes.count("PIVOT_ONLY") == 100

    def test_zero_mix(self, vocab, languages):
        samples = corpus.build_dataset(10, 0.0, "NATIVE", 7, vocab, languages)
        assert len(samples) == 10
        assert all(s.regime == "NATIVE" for s in samples)

    def test_empty_rejected(self, vocab, languages):
        with pytest.raises(corpus.CorpusError):
            corpus.build_dataset(0, 0.0, "NATIVE", 7, vocab, languages)

    def test_regime_language_assignment(self, vocab, languages):
        samples = corpus.build_dataset(20, 0.5, "PIVOTED", 3, vocab, languages)
        for s in samples:
            if s.regime == "PIVOTED":
                assert (s.question_lang, s.cot_lang, s.answer_lang) == ("TARGET", "PIVOT", "TARGET")
            else:
                assert (s.question_lang, s.cot_lang, s.answer_lang) == ("PIVOT", "PIVOT", "PIVOT")

    def test_pivoted_cot_tokens_in_pivot_lexicon(self, vocab, languages):
        # lexicon-membership scan over the built dataset
        pivot, _ = languages
        pivot_words = pivot.words()
        samples = corpus.build_dataset(50, 0.0, "PIVOTED", 11, vocab, languages)
        for s in samples:
            for tid in vocab.tokenize(s.cot_text):
                if vocab.is_lexical(tid):
                    assert vocab.id_to_word[tid] in pivot_words

    def test_single_separator_and_mask_order(self, vocab, languages):
        samples = corpus.build_dataset(30, 1.0, "NATIVE", 5, vocab, languages)
        for s in samples:
            assert s.tokens.count(vocab.think_end) == 1
            sep_idx = s.tokens.index(vocab.think_end)
            assert s.mask[sep_idx] == corpus.COT
            assert s.mask[sep_idx + 1] == corpus.ANSWER
            # labels are a non-decreasing PROMPT+ COT+ ANSWER+ run
            assert sorted(s.mask) == s.mask
            assert {corpus.PROMPT, corpus.COT, corpus.ANSWER} <= set(s.mask)

    def test_answer_faithfulness(self, vocab, languages):
        samples = corpus.build_dataset(100, 1.0, "PIVOTED", 13, vocab, languages)
        for s in samples:
            assert s.answer_value() is not None
            assert str(s.answer_value()) == s.answer_text.split()[-1]

    def test_jsonl_round_trip_and_determinism(self, vocab, languages, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        corpus.save_jsonl(corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages), str(a))
        corpus.save_jsonl(corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages), str(b))
        assert a.read_bytes() == b.read_bytes()
        loaded = corpus.load_jsonl(str(a), vocab)
        original = corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages)
        assert [s.tokens for s in loaded] == [s.tokens for s in original]
        assert [s.mask for s in loaded] == [s.mask for s in original]

    def test_jsonl_schema(self, vocab, languages, tmp_path):
        path = tmp_path / "d.jsonl"
        corpus.save_jsonl(corpus.build_dataset(3, 0.0, "NATIVE", 2, vocab, languages), str(path))
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"id", "regime", "question", "cot", "answer",
                                "question_lang", "cot_lang", "answer_lang"}

    def test_malformed_row_rejected(self, malformed_dataset, vocab):
        with pytest.raises(corpus.CorpusError):
            corpus.load_jsonl(malformed_dataset, vocab)
