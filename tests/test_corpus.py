import hashlib
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import pivotlab
from pivotlab import corpus

VOCAB = corpus.build_vocab(corpus.default_languages())


def boundary_labels(s):
    """The reference labels spelled out from the sample's own segment boundaries."""
    return oracles.segment_labels(s.cot_start - 1, s.answer_start - s.cot_start - 1,
                                  len(s.tokens) - s.answer_start - 1)


def brute_force_eval(start, steps):
    """Independent oracle: fold the step list over plain integer ops."""
    values = []
    v = start
    for op, operand in steps:
        v = {"ADD": v + operand, "SUB": v - operand, "MUL": v * operand}[op]
        values.append(v)
    return values


class TestProblem:
    def test_three_step_example(self, languages):
        steps = [("ADD", 4), ("MUL", 2), ("SUB", 5)]
        values = brute_force_eval(3, steps)
        assert values == [7, 14, 9]
        pivot = languages["PIVOT"]
        p = corpus.Problem(start=3, steps=steps, values=values)
        assert corpus.render(p, "COT", pivot) == (
            "step 1 : 3 add 4 = 7 ; step 2 : 7 times 2 = 14 ; step 3 : 14 minus 5 = 9 ; "
            "so the result is 9 ;")
        assert corpus.render(p, "ANSWER", pivot) == "the answer is 9"


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
            assert 1 <= len(p.steps) == len(p.values) <= corpus.DEFAULT_MAX_STEPS
            assert all(abs(v) <= 999 for v in p.values)
            assert all(abs(v) <= corpus.DEFAULT_VALUE_CAP for v in p.values)
            assert all(0 <= operand <= 20 for _, operand in p.steps)

    def test_matches_brute_force(self):
        for seed in range(200):
            p = corpus.gen_problem(seed)
            assert brute_force_eval(p.start, p.steps) == p.values


class TestLanguages:
    def test_disjoint_word_sets(self, languages):
        pivot, target = languages["PIVOT"], languages["TARGET"]
        assert not (corpus.words(pivot) & corpus.words(target))

    def test_language_decidability(self, languages, vocab):
        # every lexical token belongs to exactly one language
        pivot, target = languages["PIVOT"], languages["TARGET"]
        for word, tid in vocab.word_to_id.items():
            if tid >= corpus.FIRST_WORD:
                assert (word in corpus.words(pivot)) != (word in corpus.words(target))

    def test_lexicons_define_the_same_entries(self, languages):
        """Both lexicons have one key set, an "op_<op>" entry for each op, and a question
        template that takes the step list and the query and nothing else."""
        pivot, target = languages["PIVOT"], languages["TARGET"]
        assert set(pivot) == set(target)
        for lex in (pivot, target):
            assert all("op_" + op.lower() in lex for op in corpus.OPS)
            question = lex["question_template"].format(steps="<steps>", query="<query>")
            assert "<steps>" in question and "<query>" in question


class TestRender:
    def test_answer_pivot(self, languages):
        pivot = languages["PIVOT"]
        p = corpus.Problem(start=3, steps=[("ADD", 4)], values=[7])
        assert corpus.render(p, "ANSWER", pivot) == "the answer is 7"

    def test_answer_target_shares_digits(self, languages):
        pivot, target = languages["PIVOT"], languages["TARGET"]
        p = corpus.Problem(start=3, steps=[("ADD", 4)], values=[7])
        a_pivot = corpus.render(p, "ANSWER", pivot)
        a_target = corpus.render(p, "ANSWER", target)
        assert a_pivot.split()[-1] == a_target.split()[-1] == "7"

    def test_cot_line_count(self, languages):
        # line count = steps + restatement, over 100 generated problems
        pivot = languages["PIVOT"]
        for seed in range(100):
            p = corpus.gen_problem(seed)
            lines = [l for l in corpus.render(p, "COT", pivot).split(";") if l.strip()]
            assert len(lines) == len(p.steps) + 1

    def test_question_injective(self, languages):
        pivot = languages["PIVOT"]
        seen = {}
        for seed in range(500):
            p = corpus.gen_problem(seed)
            q = corpus.render(p, "QUESTION", pivot)
            key = (p.start, tuple(p.steps))
            if q in seen:
                assert seen[q] == key
            seen[q] = key
        assert len(seen) == len({v for v in seen.values()})


class TestTokenize:
    def test_empty(self, vocab):
        assert vocab.tokenize("") == []

    def test_negative_number(self, vocab):
        ids = vocab.tokenize("-12")
        assert ids == [corpus.SIGN, vocab.word_to_id["1"], vocab.word_to_id["2"]]

    def test_unknown_word(self, vocab):
        with pytest.raises(corpus.UnknownWordError):
            vocab.tokenize("xylophone")

    def test_round_trip_generated_questions(self, vocab, languages):
        for seed in range(1000):
            p = corpus.gen_problem(seed)
            lang = languages[("PIVOT", "TARGET")[seed % 2]]
            for seg in ("QUESTION", "COT", "ANSWER"):
                text = corpus.render(p, seg, lang)
                assert vocab.detokenize(vocab.tokenize(text)) == text

    @settings(max_examples=500)
    @given(ids=st.lists(st.integers(0, len(VOCAB) - 1), max_size=30))
    def test_any_ids_round_trip(self, ids):
        assert VOCAB.tokenize(VOCAB.detokenize(ids)) == ids

    def test_vocab_layout(self, vocab, languages, tmp_path):
        """The special words, digits, sign and punctuation take the first ids in that order,
        every later id is a word of exactly one language, and vocab.json keeps its pinned
        bytes."""
        ids = [vocab.word_to_id[w] for w in ("<pad>", "<bos>", "</think>", "<eos>")]
        assert ids == [corpus.PAD, corpus.BOS, corpus.THINK_END, corpus.EOS] == [0, 1, 2, 3]
        assert [vocab.word_to_id[str(d)] for d in range(10)] == list(range(4, 14))
        assert vocab.word_to_id["-"] == corpus.SIGN == 14
        assert [vocab.word_to_id[p] for p in ".?:=;"] == list(range(15, 20))
        assert corpus.FIRST_WORD == 20
        pivot, target = map(corpus.words, languages.values())
        words = [vocab.id_to_word[i] for i in range(corpus.FIRST_WORD, len(vocab))]
        assert all((w in pivot) != (w in target) for w in words)
        assert sorted(words) == sorted(pivot | target)
        path = tmp_path / "vocab.json"
        vocab.save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "9c0d35cd2260479b372fdbb877cba316fa9ad48e5b51539793b43fb6c2b0c781"


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
                assert s.langs == ("TARGET", "PIVOT", "TARGET")
            else:
                assert s.langs == ("PIVOT", "PIVOT", "PIVOT")

    def test_pivoted_cot_tokens_in_pivot_lexicon(self, vocab, languages):
        # lexicon-membership scan over the built dataset
        pivot = languages["PIVOT"]
        pivot_words = corpus.words(pivot)
        samples = corpus.build_dataset(50, 0.0, "PIVOTED", 11, vocab, languages)
        for s in samples:
            for tid in vocab.tokenize(s.cot_text):
                if tid >= corpus.FIRST_WORD:
                    assert vocab.id_to_word[tid] in pivot_words

    def test_single_separator_and_mask_order(self, vocab, languages):
        samples = corpus.build_dataset(30, 1.0, "NATIVE", 5, vocab, languages)
        for s in samples:
            assert s.tokens.count(corpus.THINK_END) == 1
            sep_idx = s.tokens.index(corpus.THINK_END)
            labels = boundary_labels(s)
            assert len(labels) == len(s.tokens)
            assert labels[sep_idx] == oracles.COT
            assert labels[sep_idx + 1] == oracles.ANSWER
            # labels are a non-decreasing PROMPT+ COT+ ANSWER+ run
            assert sorted(labels) == labels
            assert {oracles.PROMPT, oracles.COT, oracles.ANSWER} <= set(labels)

    @given(seed=st.integers(0, 2**62), regime=st.sampled_from(sorted(corpus.REGIME_LANGS)),
           max_steps=st.integers(1, 8), value_cap=st.integers(1, corpus.VALUE_LIMIT))
    def test_answer_faithfulness(self, vocab, languages, seed, regime, max_steps, value_cap):
        """A generated sample's answer reads, in its answer language, as the problem's
        last value."""
        problem = corpus.gen_problem(seed, max_steps, value_cap)
        s = corpus.make_sample(problem, regime, "a", vocab, languages)
        answer_lang = languages[s.langs[2]]
        assert corpus.answer_value(s.answer_text, answer_lang) == problem.values[-1]

    def test_jsonl_round_trip_and_determinism(self, vocab, languages, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        corpus.save_jsonl(corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages), str(a))
        corpus.save_jsonl(corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages), str(b))
        assert a.read_bytes() == b.read_bytes()
        loaded = corpus.load_jsonl(str(a), vocab, languages)
        original = corpus.build_dataset(40, 1.0, "PIVOTED", 21, vocab, languages)
        assert [s.tokens for s in loaded] == [s.tokens for s in original]
        assert [boundary_labels(s) for s in loaded] == [boundary_labels(s) for s in original]

    @pytest.mark.parametrize("regime, mix, digest", [
        ("PIVOTED", 1.0, "9b3ddee1d40e0da829d0dce91846ac4b2366a26b94240616e64483f3dcaaabe1"),
        ("NATIVE", 0.0, "f39b7fc2847257deb5223c564c420ed8bfa51f1f1fe83713091a63e8f35bad34"),
        ("PIVOT_ONLY", 0.0, "6ab6d4192f812de64ef8e5cf27241de6040378c3ea8abf05ccbb873eae0718d2"),
    ])
    def test_saved_dataset_bytes_are_pinned(self, vocab, languages, tmp_path, regime, mix,
                                            digest):
        """20 samples of each regime at seed 3 keep their pinned JSONL bytes."""
        path = tmp_path / "d.jsonl"
        corpus.save_jsonl(corpus.build_dataset(20, mix, regime, 3, vocab, languages), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @given(n=st.integers(1, 12), regime=st.sampled_from(sorted(corpus.REGIME_LANGS)),
           mix=st.floats(0.0, 1.0), seed=st.integers(0, 2**64))
    def test_any_dataset_round_trips(self, tmp_path_factory, vocab, languages, n, regime, mix,
                                     seed):
        samples = corpus.build_dataset(n, mix, regime, seed, vocab, languages)
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        corpus.save_jsonl(samples, str(path))
        assert corpus.load_jsonl(str(path), vocab, languages) == samples

    @given(n=st.integers(1, 12), regime=st.sampled_from(sorted(corpus.REGIME_LANGS)),
           mix=st.floats(0.0, 1.0), seed=st.integers(0, 2**64))
    def test_prompt_and_languages_follow_the_text(self, tmp_path_factory, vocab, languages, n,
                                                  regime, mix, seed):
        words = {lang: corpus.words(lex) for lang, lex in languages.items()}
        every_word = set().union(*words.values())
        samples = corpus.build_dataset(n, mix, regime, seed, vocab, languages)
        path = tmp_path_factory.getbasetemp() / "follow_the_text.jsonl"
        corpus.save_jsonl(samples, str(path))
        for s in samples + corpus.load_jsonl(str(path), vocab, languages):
            assert s.prompt == [corpus.BOS] + vocab.tokenize(s.question_text)
            assert boundary_labels(s) == oracles.sample_labels(s, vocab)
            assert s.langs == corpus.REGIME_LANGS[s.regime]
            for text, lang in zip((s.question_text, s.cot_text, s.answer_text), s.langs):
                lexical = every_word.intersection(text.split())
                assert lexical and lexical <= words[lang]

    def test_samples_are_compact(self, vocab, languages, tmp_path):
        """A sample holds its ids one byte each and no per-token label list: a 2,000-sample
        set takes under 1,000 traced bytes per sample (about 1,750 with two int lists)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = corpus.build_dataset(1000, 1.0, "PIVOTED", 101, vocab, languages)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(samples) == 2000
        assert held / len(samples) < 1000
        path = tmp_path / "d.jsonl"
        corpus.save_jsonl(samples, str(path))
        assert all(s.tokens.itemsize == 1
                   for s in samples + corpus.load_jsonl(str(path), vocab, languages))

    def test_jsonl_schema(self, vocab, languages, tmp_path):
        path = tmp_path / "d.jsonl"
        corpus.save_jsonl(corpus.build_dataset(3, 0.0, "NATIVE", 2, vocab, languages), str(path))
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"id", "regime", "question", "cot", "answer",
                                "question_lang", "cot_lang", "answer_lang"}

    def test_crlf_line_ends_load_the_same(self, vocab, languages, tmp_path):
        path = tmp_path / "d.jsonl"
        samples = corpus.build_dataset(3, 1.0, "PIVOTED", 2, vocab, languages)
        corpus.save_jsonl(samples, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert corpus.load_jsonl(str(path), vocab, languages) == samples

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'\n{"a": 1}\n  \r\n\n{"b": 2}\n\n')
        assert list(pivotlab.read_jsonl(str(path), corpus.CorpusError)) == [
            (2, {"a": 1}), (5, {"b": 2})]

    def test_malformed_row_rejected(self, malformed_dataset, vocab, languages):
        with pytest.raises(corpus.CorpusError, match=re.escape(f"{malformed_dataset} line 1")):
            corpus.load_jsonl(malformed_dataset, vocab, languages)

    def test_repeated_id_rejected(self, vocab, languages, tmp_path):
        """A row whose id an earlier row has is refused, though each row is well formed."""
        path = tmp_path / "d.jsonl"
        samples = corpus.build_dataset(3, 0.0, "NATIVE", 2, vocab, languages)
        corpus.save_jsonl(samples + samples[1:2], str(path))
        with pytest.raises(corpus.CorpusError, match=samples[1].id):
            corpus.load_jsonl(str(path), vocab, languages)
