import math

import numpy as np
import pytest

from pivotlab import analysis, corpus

import oracles


def paired_items(vocab, languages, n=6, seed=0):
    """(id, target question tokens, pivot question tokens) for shared problems."""
    pivot, target = languages["PIVOT"], languages["TARGET"]
    out = []
    for i in range(n):
        p = corpus.gen_problem(seed * 1000 + i, max_steps=2)
        t = [corpus.BOS] + vocab.tokenize(corpus.render(p, "QUESTION", target))
        q = [corpus.BOS] + vocab.tokenize(corpus.render(p, "QUESTION", pivot))
        out.append((f"p-{i:03d}", t, q))
    return out


class TestEmbed:
    def test_layer_zero_is_mean_input_embedding(self, tiny_ckpt):
        """Oracle: layer 0 vectors equal hand-computed emb + pos means."""
        tokens = [3, 7, 1]
        layers = analysis.embed(tiny_ckpt, [("a", tokens)], "QUESTION_ONLY", 8)
        expected = (tiny_ckpt.params["emb"][tokens] + tiny_ckpt.params["pos"][:3]).mean(axis=0)
        assert np.allclose(layers[0][0][1], expected, atol=1e-12)

    def test_vector_shape_and_count(self, tiny_ckpt, tiny_config, vocab, languages):
        items = [(iid, t) for iid, t, _ in paired_items(vocab, languages, n=4)]
        layers = analysis.embed(tiny_ckpt, items, "QUESTION_ONLY", 8)
        assert len(layers) == tiny_config.n_layers + 1
        for vectors in layers:
            assert [iid for iid, _ in vectors] == [iid for iid, _ in items]
            assert all(v.shape == (tiny_config.d_model,) for _, v in vectors)

    def test_bad_scope_rejected(self, tiny_ckpt):
        with pytest.raises(analysis.AnalysisError):
            analysis.embed(tiny_ckpt, [("a", [1])], "WHOLE_SEQUENCE", 8)

    def test_empty_item_rejected(self, tiny_ckpt):
        for scope in analysis.SCOPES:
            with pytest.raises(analysis.AnalysisError, match="empty token sequence"):
                analysis.embed(tiny_ckpt, [("a", [])], scope, 8)

    def test_question_plus_cot_extends_sequence(self, tiny_ckpt):
        tokens = [corpus.BOS, 5, 9]
        plain = analysis.embed(tiny_ckpt, [("a", tokens)], "QUESTION_ONLY", 8)
        with_cot = analysis.embed(tiny_ckpt, [("a", tokens)], "QUESTION_PLUS_COT",
                                  max_new_tokens=8)
        # the greedy trace of an untrained model is almost surely non-empty,
        # so the pooled vector changes
        assert not np.allclose(plain[0][0][1], with_cot[0][0][1])

    def test_matches_oracle(self, tiny_ckpt, tiny_config, vocab, languages):
        """Batched, cached embed agrees with the one-item uncached oracle at every layer."""
        items = [(iid, t) for iid, t, _ in paired_items(vocab, languages, n=4, seed=5)]
        for scope in analysis.SCOPES:
            layers = analysis.embed(tiny_ckpt, items, scope, max_new_tokens=12)
            assert len(layers) == tiny_config.n_layers + 1
            for layer, got in enumerate(layers):
                want = oracles.embed(tiny_ckpt, items, layer, scope, max_new_tokens=12)
                assert len(got) == len(want)
                for (gi, gv), (wi, wv) in zip(got, want):
                    assert gi == wi
                    assert np.array_equal(gv, wv)


class TestRetrievalAccuracy:
    def make_set(self, vecs):
        return [(f"i-{k}", np.asarray(v, dtype=np.float64)) for k, v in enumerate(vecs)]

    def test_identical_sets_score_one(self):
        vecs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert analysis.retrieval_accuracy(self.make_set(vecs), self.make_set(vecs)) == 1.0

    def test_scale_invariance_of_cosine(self):
        t = self.make_set([[1.0, 0.0], [0.0, 1.0]])
        p = self.make_set([[10.0, 0.0], [0.0, 0.5]])
        assert analysis.retrieval_accuracy(t, p) == 1.0

    def test_known_confusion(self):
        # item 0 in the target set is closest to pivot item 1
        t = self.make_set([[0.0, 1.0], [1.0, 0.0]])
        p = self.make_set([[1.0, 0.0], [0.0, 1.0]])
        assert analysis.retrieval_accuracy(t, p) == 0.0

    def test_zero_vector_is_miss(self):
        # (targets, pivots, accuracy): a zero target is a miss; a zero pivot is never
        # a neighbour, and a target with no nonzero candidate is a miss
        cases = [
            ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 0.5),
            ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]], 0.5),
            ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], 0.0),
        ]
        for targets, pivots, accuracy in cases:
            got = analysis.retrieval_accuracy(self.make_set(targets), self.make_set(pivots))
            assert got == accuracy, (targets, pivots)

    def test_id_mismatch_rejected(self):
        t = self.make_set([[1.0]])
        p = [("other", np.array([1.0]))]
        with pytest.raises(analysis.AnalysisError):
            analysis.retrieval_accuracy(t, p)


class TestRetrievalReport:
    def test_report_shape_and_consistency(self, tiny_ckpt, tiny_config, vocab, languages):
        pairs = paired_items(vocab, languages, n=5)
        rep = analysis.retrieval_report(tiny_ckpt, pairs, "QUESTION_ONLY", 8)
        assert rep["scope"] == "QUESTION_ONLY"
        assert len(rep["per_layer_accuracy"]) == tiny_config.n_layers + 1
        assert rep["n"] == 5
        assert rep["best_accuracy"] == max(rep["per_layer_accuracy"])
        assert rep["per_layer_accuracy"][rep["best_layer"]] == rep["best_accuracy"]
        assert all(0.0 <= a <= 1.0 for a in rep["per_layer_accuracy"])

    def test_matches_per_layer_embed_path(self, tiny_ckpt, tiny_config, vocab, languages):
        """The batched all-layer path agrees with the uncached one-item oracle."""
        pairs = paired_items(vocab, languages, n=4, seed=3)
        rep = analysis.retrieval_report(tiny_ckpt, pairs, "QUESTION_PLUS_COT", max_new_tokens=16)
        for layer in range(tiny_config.n_layers + 1):
            t = oracles.embed(tiny_ckpt, [(i, tt) for i, tt, _ in pairs], layer,
                              "QUESTION_PLUS_COT", max_new_tokens=16)
            p = oracles.embed(tiny_ckpt, [(i, pp) for i, _, pp in pairs], layer,
                              "QUESTION_PLUS_COT", max_new_tokens=16)
            assert rep["per_layer_accuracy"][layer] == analysis.retrieval_accuracy(t, p)


class TestDeltaMap:
    def test_identical_checkpoints_are_zero(self, tiny_ckpt):
        rep = analysis.delta_map(tiny_ckpt, tiny_ckpt.copy())
        assert rep["grand_total"] == 0.0
        assert all(v == 0.0 for v in rep["per_path"].values())

    def test_known_perturbation(self, tiny_ckpt, tiny_config):
        other = tiny_ckpt.copy()
        other.params["head"] += 0.5
        rep = analysis.delta_map(tiny_ckpt, other)
        assert rep["per_path"]["head"] == pytest.approx(0.5)
        assert rep["per_path"]["emb"] == 0.0
        # grand total is the count-weighted mean over all tensors
        n_head = tiny_config.d_model * tiny_config.vocab_size
        n_all = sum(v.size for v in tiny_ckpt.params.values())
        assert rep["grand_total"] == pytest.approx(0.5 * n_head / n_all)

    def test_per_layer_and_role_aggregation(self, tiny_ckpt):
        other = tiny_ckpt.copy()
        other.params["L0.att_q"] += 1.0
        rep = analysis.delta_map(tiny_ckpt, other)
        assert rep["per_layer"]["1"] == 0.0
        assert rep["per_layer"]["0"] > 0.0
        assert rep["per_role"]["ATT_Q"] > 0.0
        assert rep["per_role"]["ATT_K"] == 0.0

    def test_symmetry(self, tiny_ckpt):
        other = tiny_ckpt.copy()
        other.params["L1.mlp_up"] -= 0.25
        a = analysis.delta_map(tiny_ckpt, other)
        b = analysis.delta_map(other, tiny_ckpt)
        assert a["per_path"] == b["per_path"]

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
        """The report is the dict the CLI writes, with exactly these keys."""
        obj = analysis.delta_map(tiny_ckpt, tiny_ckpt)
        assert set(obj) == {"per_path", "per_layer", "per_role", "grand_total"}
