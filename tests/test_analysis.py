import math

import numpy as np
import pytest

from pivotlab import analysis, corpus

import oracles


def paired_items(vocab, languages, n=6, seed=0):
    """(id, target question tokens, pivot question tokens) for shared problems."""
    pivot, target = languages
    out = []
    for i in range(n):
        p = corpus.gen_problem(seed * 1000 + i, max_steps=2)
        t = [vocab.bos] + vocab.tokenize(corpus.render(p, "QUESTION", target))
        q = [vocab.bos] + vocab.tokenize(corpus.render(p, "QUESTION", pivot))
        out.append((f"p-{i:03d}", t, q))
    return out


class TestEmbed:
    def test_layer_zero_is_mean_input_embedding(self, tiny_ckpt, vocab):
        """Oracle: layer 0 vectors equal hand-computed emb + pos means."""
        tokens = [3, 7, 1]
        es = analysis.embed(tiny_ckpt, [("a", tokens)], 0, "QUESTION_ONLY")
        expected = (tiny_ckpt.params["emb"][tokens] + tiny_ckpt.params["pos"][:3]).mean(axis=0)
        assert np.allclose(es.items[0][1], expected, atol=1e-12)

    def test_vector_shape_and_count(self, tiny_ckpt, tiny_config, vocab, languages):
        items = [(iid, t) for iid, t, _ in paired_items(vocab, languages, n=4)]
        es = analysis.embed(tiny_ckpt, items, 2, "QUESTION_ONLY")
        assert len(es.items) == 4
        assert all(v.shape == (tiny_config.d_model,) for _, v in es.items)
        assert es.layer == 2 and es.scope == "QUESTION_ONLY"

    def test_bad_layer_and_scope(self, tiny_ckpt, tiny_config):
        with pytest.raises(analysis.AnalysisError):
            analysis.embed(tiny_ckpt, [("a", [1])], tiny_config.n_layers + 1, "QUESTION_ONLY")
        with pytest.raises(analysis.AnalysisError):
            analysis.embed(tiny_ckpt, [("a", [1])], 0, "WHOLE_SEQUENCE")

    def test_empty_item_rejected(self, tiny_ckpt, vocab):
        for scope in analysis.SCOPES:
            with pytest.raises(analysis.AnalysisError, match="empty token sequence"):
                analysis.embed(tiny_ckpt, [("a", [])], 0, scope, vocab=vocab)

    def test_question_plus_cot_requires_vocab(self, tiny_ckpt):
        with pytest.raises(analysis.AnalysisError):
            analysis.embed(tiny_ckpt, [("a", [1, 2])], 0, "QUESTION_PLUS_COT")

    def test_question_plus_cot_extends_sequence(self, tiny_ckpt, vocab):
        tokens = [vocab.bos, 5, 9]
        plain = analysis.embed(tiny_ckpt, [("a", tokens)], 0, "QUESTION_ONLY")
        with_cot = analysis.embed(tiny_ckpt, [("a", tokens)], 0, "QUESTION_PLUS_COT",
                                  vocab=vocab, max_new_tokens=8)
        # the greedy trace of an untrained model is almost surely non-empty,
        # so the pooled vector changes
        assert not np.allclose(plain.items[0][1], with_cot.items[0][1])

    def test_matches_oracle(self, tiny_ckpt, tiny_config, vocab, languages):
        """Batched, cached embed agrees with the one-item uncached oracle."""
        items = [(iid, t) for iid, t, _ in paired_items(vocab, languages, n=4, seed=5)]
        for layer in range(tiny_config.n_layers + 1):
            for scope in analysis.SCOPES:
                got = analysis.embed(tiny_ckpt, items, layer, scope, vocab=vocab,
                                     max_new_tokens=12)
                want = oracles.embed(tiny_ckpt, items, layer, scope, vocab=vocab,
                                     max_new_tokens=12)
                for (gi, gv), (wi, wv) in zip(got.items, want.items):
                    assert gi == wi
                    assert np.allclose(gv, wv, rtol=0, atol=1e-10)


class TestRetrievalAccuracy:
    def make_set(self, vecs, layer=1, language="TARGET"):
        items = [(f"i-{k}", np.asarray(v, dtype=np.float64)) for k, v in enumerate(vecs)]
        return analysis.EmbeddingSet(layer=layer, items=items, language=language,
                                     scope="QUESTION_ONLY")

    def test_identical_sets_score_one(self):
        vecs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        r = analysis.retrieval_accuracy(self.make_set(vecs), self.make_set(vecs))
        assert r["accuracy"] == 1.0 and r["n"] == 3

    def test_scale_invariance_of_cosine(self):
        t = self.make_set([[1.0, 0.0], [0.0, 1.0]])
        p = self.make_set([[10.0, 0.0], [0.0, 0.5]])
        assert analysis.retrieval_accuracy(t, p)["accuracy"] == 1.0

    def test_known_confusion(self):
        # item 0 in the target set is closest to pivot item 1
        t = self.make_set([[0.0, 1.0], [1.0, 0.0]])
        p = self.make_set([[1.0, 0.0], [0.0, 1.0]])
        assert analysis.retrieval_accuracy(t, p)["accuracy"] == 0.0

    def test_zero_vector_is_miss_and_recorded(self):
        t = self.make_set([[0.0, 0.0], [1.0, 0.0]])
        p = self.make_set([[0.0, 1.0], [1.0, 0.0]])
        r = analysis.retrieval_accuracy(t, p)
        assert r["accuracy"] == 0.5
        assert "i-0" in r["zero_vector_items"]

    def test_layer_mismatch_rejected(self):
        with pytest.raises(analysis.AnalysisError):
            analysis.retrieval_accuracy(self.make_set([[1.0]], layer=0),
                                        self.make_set([[1.0]], layer=1))

    def test_id_mismatch_rejected(self):
        t = self.make_set([[1.0]])
        p = analysis.EmbeddingSet(layer=1, items=[("other", np.array([1.0]))],
                                  language="PIVOT", scope="QUESTION_ONLY")
        with pytest.raises(analysis.AnalysisError):
            analysis.retrieval_accuracy(t, p)


class TestRetrievalReport:
    def test_report_shape_and_consistency(self, tiny_ckpt, tiny_config, vocab, languages):
        pairs = paired_items(vocab, languages, n=5)
        rep = analysis.retrieval_report(tiny_ckpt, pairs, "QUESTION_ONLY", vocab)
        assert rep["scope"] == "QUESTION_ONLY"
        assert len(rep["per_layer_accuracy"]) == tiny_config.n_layers + 1
        assert rep["n"] == 5
        assert rep["best_accuracy"] == max(rep["per_layer_accuracy"])
        assert rep["per_layer_accuracy"][rep["best_layer"]] == rep["best_accuracy"]
        assert all(0.0 <= a <= 1.0 for a in rep["per_layer_accuracy"])

    def test_matches_per_layer_embed_path(self, tiny_ckpt, tiny_config, vocab, languages):
        """The batched all-layer path agrees with the uncached one-item oracle."""
        pairs = paired_items(vocab, languages, n=4, seed=3)
        rep = analysis.retrieval_report(tiny_ckpt, pairs, "QUESTION_PLUS_COT", vocab,
                                        max_new_tokens=16)
        for layer in range(tiny_config.n_layers + 1):
            t = oracles.embed(tiny_ckpt, [(i, tt) for i, tt, _ in pairs], layer,
                              "QUESTION_PLUS_COT", vocab=vocab, max_new_tokens=16)
            p = oracles.embed(tiny_ckpt, [(i, pp) for i, _, pp in pairs], layer,
                              "QUESTION_PLUS_COT", vocab=vocab, max_new_tokens=16)
            assert rep["per_layer_accuracy"][layer] == \
                analysis.retrieval_accuracy(t, p)["accuracy"]


class TestDeltaMap:
    def test_identical_checkpoints_are_zero(self, tiny_ckpt):
        rep = analysis.delta_map(tiny_ckpt, tiny_ckpt.copy())
        assert rep.grand_total == 0.0
        assert all(v == 0.0 for v in rep.per_path.values())

    def test_known_perturbation(self, tiny_ckpt, tiny_config):
        other = tiny_ckpt.copy()
        other.params["head"] += 0.5
        rep = analysis.delta_map(tiny_ckpt, other)
        assert rep.per_path["head"] == pytest.approx(0.5)
        assert rep.per_path["emb"] == 0.0
        # grand total is the count-weighted mean over all tensors
        n_head = tiny_config.d_model * tiny_config.vocab_size
        n_all = sum(rep.param_counts.values())
        assert rep.grand_total == pytest.approx(0.5 * n_head / n_all)

    def test_per_layer_and_role_aggregation(self, tiny_ckpt):
        other = tiny_ckpt.copy()
        other.params["L0.att_q"] += 1.0
        rep = analysis.delta_map(tiny_ckpt, other)
        assert rep.per_layer["1"] == 0.0
        assert rep.per_layer["0"] > 0.0
        assert rep.per_role["ATT_Q"] > 0.0
        assert rep.per_role["ATT_K"] == 0.0

    def test_symmetry(self, tiny_ckpt):
        other = tiny_ckpt.copy()
        other.params["L1.mlp_up"] -= 0.25
        a = analysis.delta_map(tiny_ckpt, other)
        b = analysis.delta_map(other, tiny_ckpt)
        assert a.per_path == b.per_path

    def test_ratio(self, tiny_ckpt):
        a = tiny_ckpt.copy()
        a.params["head"] += 0.4
        b = tiny_ckpt.copy()
        b.params["head"] += 0.2
        ra = analysis.delta_map(tiny_ckpt, a)
        rb = analysis.delta_map(tiny_ckpt, b)
        assert analysis.delta_ratio(ra, rb) == pytest.approx(2.0)
        with pytest.raises(analysis.AnalysisError):
            analysis.delta_ratio(ra, analysis.delta_map(tiny_ckpt, tiny_ckpt))

    def test_to_json_keys(self, tiny_ckpt):
        obj = analysis.delta_map(tiny_ckpt, tiny_ckpt).to_json()
        assert set(obj) == {"per_path", "per_layer", "per_role", "grand_total"}
