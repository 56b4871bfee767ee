import json

import pytest

from pivotlab import corpus, model


@pytest.fixture(scope="session")
def languages():
    return corpus.default_languages()


@pytest.fixture(scope="session")
def vocab(languages):
    return corpus.build_vocab(languages)


@pytest.fixture(scope="session")
def tiny_config(vocab):
    return model.ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2,
                             d_ff=16, max_context=128, rng_seed=3, dtype="float64")


@pytest.fixture()
def tiny_ckpt(tiny_config):
    return model.init(tiny_config)


# One way each to break a stored PIVOTED row; load_jsonl must reject all.
MALFORMED_ROWS = {
    "unknown_regime": lambda row: {**row, "regime": "MIXED"},
    "answer_lang_unknown": lambda row: {**row, "answer_lang": "FRENCH"},
    "answer_lang_off_regime": lambda row: {**row, "answer_lang": "PIVOT"},
    "separator_inside_cot": lambda row: {**row, "cot": row["cot"].replace(";", "</think>", 1)},
}


@pytest.fixture(params=sorted(MALFORMED_ROWS))
def malformed_dataset(request, tmp_path, vocab, languages):
    """Path of a one-row dataset file broken in one way."""
    sample = corpus.make_sample(corpus.gen_problem(1), "PIVOTED", "row-0", vocab, languages)
    path = tmp_path / "malformed.jsonl"
    corpus.save_jsonl([sample], str(path))
    row = MALFORMED_ROWS[request.param](json.loads(path.read_text()))
    path.write_text(json.dumps(row) + "\n")
    return str(path)
