"""Acceptance gate for the whole package.

Each test prints one machine-greppable PASS/FAIL line. The desk-scale
replication (criterion 6) runs the full `pivotlab reproduce` pipeline once
per seed at the default 20k+20k scale and is by far the slowest part of the
suite; everything else finishes in seconds.
"""

import json
import math
import os
import random
import subprocess
import time

import numpy as np
import pytest

from pivotlab import analysis, corpus, evaluate, model, train

REPRODUCE_SEEDS = (101, 202, 303)
PER_SEED_BUDGET_S = 15 * 60


def announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sample(vocab, languages, seed, max_steps=2, regime="NATIVE"):
    p = corpus.gen_problem(seed, max_steps=max_steps)
    return corpus.make_sample(p, regime, f"acc-{seed:06d}", vocab, languages)


class TestCriterion1GradientOracle:
    def test_analytic_gradients_match_finite_differences(self, capsys):
        t0 = time.monotonic()
        cfg = model.ModelConfig(vocab_size=46, d_model=8, n_layers=2, n_heads=2,
                                d_ff=16, max_context=64, rng_seed=3, dtype="float64")
        ckpt = model.init(cfg)
        rng = np.random.default_rng(7)
        tokens = list(rng.integers(0, cfg.vocab_size, size=12))
        trace = model.forward(ckpt, tokens)
        dlogits = rng.normal(size=trace.logits.shape)
        grads = model.backward(trace, dlogits)

        eps = 1e-5  # at 1e-4 the difference's own truncation error nears the bound
        worst = 0.0
        worst_path = None
        for path in model.param_paths(cfg):
            p = ckpt.params[path]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                hi = float(np.sum(model.forward(ckpt, tokens).logits * dlogits))
                p[idx] = orig - eps
                lo = float(np.sum(model.forward(ckpt, tokens).logits * dlogits))
                p[idx] = orig
                fd = (hi - lo) / (2 * eps)
                an = float(grads[path][idx])
                err = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
                if err > worst:
                    worst, worst_path = err, path
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 60
        announce(capsys, 1, ok,
                 f"worst relative error {worst:.3e} at {worst_path} "
                 f"(bound 1e-4) in {elapsed:.1f}s (bound 60s)")
        assert ok


class TestCriterion2LossAdditivity:
    def test_total_equals_sum_on_100_random_batches(self, capsys, tiny_config,
                                                    vocab, languages):
        ckpt = model.init(tiny_config)
        worst = 0.0
        rng = random.Random(11)
        for b in range(100):
            batch = [_sample(vocab, languages, rng.getrandbits(30)) for _ in range(3)]
            tokens, bounds = train.pad_batch(batch)
            trace = model.forward(ckpt, tokens)
            bd = train.masked_loss(trace.logits, tokens, bounds, 1.0, 1.0)[0]
            worst = max(worst, abs(bd.loss_total - (bd.loss_cot + bd.loss_answer)))
        ok = worst <= 1e-12
        announce(capsys, 2, ok,
                 f"max |loss_total - (loss_cot + loss_answer)| = {worst:.3e} "
                 f"over 100 random batches")
        assert ok


class TestCriterion3MaskExclusivity:
    def test_segment_losses_blind_to_other_segment(self, capsys, tiny_config,
                                                   vocab, languages):
        ckpt = model.init(tiny_config)
        rng = random.Random(23)
        max_beta0 = 0.0
        max_alpha0 = 0.0
        for _ in range(20):
            s = _sample(vocab, languages, rng.getrandbits(30))
            tokens = list(s.tokens)
            bounds = np.array([[s.cot_start, s.answer_start, len(tokens)]])

            # beta=0: shuffling the answer tokens end-to-end (inputs and
            # targets) cannot touch the trace loss, by causality
            base = train.masked_loss(model.forward(ckpt, tokens).logits, np.array([tokens]),
                                     bounds, 1.0, 0.0)[0].loss_total
            ans_idx = [i for i in range(s.answer_start, len(tokens))
                       if tokens[i] not in (corpus.EOS,)]
            shuffled = list(tokens)
            perm = list(ans_idx)
            rng.shuffle(perm)
            for i, j in zip(ans_idx, perm):
                shuffled[i] = tokens[j]
            permuted = train.masked_loss(model.forward(ckpt, shuffled).logits,
                                         np.array([shuffled]), bounds, 1.0, 0.0)[0].loss_total
            max_beta0 = max(max_beta0, abs(permuted - base))

            # alpha=0: with the forward pass held fixed, permuting the
            # trace-segment targets cannot touch the answer loss
            trace = model.forward(ckpt, tokens)
            base_a = train.masked_loss(trace.logits, np.array([tokens]), bounds,
                                       0.0, 1.0)[0].loss_total
            cot_idx = [i for i in range(s.cot_start, s.answer_start)
                       if tokens[i] != corpus.THINK_END]
            shuffled_t = list(tokens)
            perm = list(cot_idx)
            rng.shuffle(perm)
            for i, j in zip(cot_idx, perm):
                shuffled_t[i] = tokens[j]
            permuted_a = train.masked_loss(trace.logits, np.array([shuffled_t]), bounds,
                                           0.0, 1.0)[0].loss_total
            max_alpha0 = max(max_alpha0, abs(permuted_a - base_a))
        ok = max_beta0 == 0.0 and max_alpha0 == 0.0
        announce(capsys, 3, ok,
                 f"beta=0 answer-permutation drift {max_beta0:.1e}, "
                 f"alpha=0 trace-permutation drift {max_alpha0:.1e} (both must be 0)")
        assert ok


class TestCriterion4AdamWHandCheck:
    def test_single_step_matches_hand_computation(self, capsys):
        cfg = model.ModelConfig(vocab_size=2, d_model=4, n_layers=1, n_heads=1,
                                d_ff=4, max_context=4, dtype="float64")
        ckpt = model.init(cfg)
        for path in ckpt.params:
            ckpt.params[path][:] = 1.0
        grads = {p: np.ones_like(v) for p, v in ckpt.params.items()}
        tcfg = train.TrainConfig(lr=0.1, weight_decay=0.0)
        train.adamw_step(ckpt, grads, tcfg, 1, train.AdamWState())
        # m_hat = v_hat = 1 after bias correction, so w' = 1 - 0.1 / (1 + 1e-8)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        err = max(abs(float(v.max()) - expected) for v in ckpt.params.values())
        err = max(err, max(abs(float(v.min()) - expected) for v in ckpt.params.values()))
        ok = err <= 1e-12
        announce(capsys, 4, ok,
                 f"max deviation from hand-computed update {err:.3e} (bound 1e-12)")
        assert ok


class TestCriterion5MetricOracles:
    def brute_retrieval(self, t_items, p_items):
        hits = 0
        for iid, v in t_items:
            best_id, best_sim = None, None
            for pid, w in sorted(p_items, key=lambda x: x[0]):
                nv = math.sqrt(sum(x * x for x in v))
                nw = math.sqrt(sum(x * x for x in w))
                if nv == 0 or nw == 0:
                    continue
                sim = sum(a * b for a, b in zip(v, w)) / (nv * nw)
                if best_sim is None or sim > best_sim:
                    best_id, best_sim = pid, sim
            if math.sqrt(sum(x * x for x in v)) == 0:
                continue
            hits += best_id == iid
        return hits / len(t_items)

    def test_all_four_metrics(self, capsys, tiny_config):
        rng = random.Random(31)
        nrng = np.random.default_rng(31)
        failures = []

        # retrieval accuracy vs a pure-python nearest-neighbour loop
        for trial in range(10):
            n = rng.randint(2, 40)
            d = rng.randint(2, 8)
            t_items = [(f"i{k}", nrng.normal(size=d)) for k in range(n)]
            p_items = [(f"i{k}", nrng.normal(size=d)) for k in range(n)]
            got = analysis.retrieval_accuracy(t_items, p_items)
            want = self.brute_retrieval([(i, list(v)) for i, v in t_items],
                                        [(i, list(v)) for i, v in p_items])
            if abs(got - want) > 1e-12:
                failures.append(f"retrieval trial {trial}: {got} vs {want}")

        # delta map vs per-element python sums
        a = model.init(tiny_config)
        b = a.copy()
        for path in b.params:
            b.params[path] = b.params[path] + nrng.normal(size=b.params[path].shape)
        rep = analysis.delta_map(a, b)
        total_abs, total_n = 0.0, 0
        for path in a.params:
            diffs = [abs(float(x) - float(y))
                     for x, y in zip(a.params[path].ravel(), b.params[path].ravel())]
            want = sum(diffs) / len(diffs)
            total_abs += sum(diffs)
            total_n += len(diffs)
            if abs(rep["per_path"][path] - want) > 1e-12:
                failures.append(f"delta path {path}")
        if abs(rep["grand_total"] - total_abs / total_n) > 1e-12:
            failures.append("delta grand total")

        # EMA vs a direct python recurrence
        for trial in range(10):
            xs = [rng.uniform(0, 10) for _ in range(rng.randint(1, 100))]
            w = rng.uniform(0.1, 0.99)
            got = train.ema_series(xs, w)
            y, want = None, []
            for x in xs:
                y = x if y is None else w * y + (1 - w) * x
                want.append(y)
            if any(abs(g - v) > 1e-12 for g, v in zip(got, want)):
                failures.append(f"ema trial {trial}")

        # correction matrix vs direct counting (exact)
        for trial in range(10):
            n = rng.randint(1, 100)
            ids = [f"r{k}" for k in range(n)]
            base = [{"id": i, "correct": rng.random() < 0.5} for i in ids]
            new = [{"id": i, "correct": rng.random() < 0.5} for i in ids]
            m = evaluate.correction_matrix(base, new)
            bmap = {r["id"]: r["correct"] for r in base}
            nmap = {r["id"]: r["correct"] for r in new}
            want_ic = sum(not bmap[i] and nmap[i] for i in ids)
            want_ci = sum(bmap[i] and not nmap[i] for i in ids)
            counts = m["counts"]
            if counts["ic"] != want_ic or counts["ci"] != want_ci:
                failures.append(f"correction trial {trial}")
            if sum(counts.values()) != n:
                failures.append(f"correction sum trial {trial}")

        ok = not failures
        announce(capsys, 5, ok,
                 "retrieval/delta/EMA/correction all match brute-force oracles"
                 if ok else f"oracle mismatches: {failures[:3]}")
        assert ok, failures


@pytest.fixture(scope="session")
def reproduce_runs(tmp_path_factory):
    """Full-scale `pivotlab reproduce` once per seed, with wall-clock timing."""
    root = tmp_path_factory.mktemp("reproduce")
    runs = []
    for seed in REPRODUCE_SEEDS:
        out = root / f"seed{seed}"
        t0 = time.monotonic()
        proc = subprocess.run(
            ["pivotlab", "reproduce", "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "combined_report.json").read_text())
        runs.append({"seed": seed, "elapsed": elapsed,
                     "outcome": report["outcomes"][0]})
    return runs


class TestCriterion6DeskScaleReplication:
    def test_directional_effects_across_seeds(self, capsys, reproduce_runs):
        checks = ("a_target_accuracy", "b_pivot_preserved", "c_retrieval",
                  "d_ema_cot_step10")
        votes = {c: sum(r["outcome"]["checks"][c] for r in reproduce_runs)
                 for c in checks}
        slowest = max(r["elapsed"] for r in reproduce_runs)
        within_budget = slowest <= PER_SEED_BUDGET_S
        majorities = all(v >= 2 for v in votes.values())
        ok = majorities and within_budget
        detail = ", ".join(f"{c}={votes[c]}/3" for c in checks)
        announce(capsys, 6, ok,
                 f"{detail}; slowest run {slowest / 60:.1f} min "
                 f"(budget {PER_SEED_BUDGET_S / 60:.0f} min per run)")
        assert ok, (votes, slowest)


class TestCriterion7Diagnostics:
    def test_reported_not_gating(self, capsys, reproduce_runs):
        ratios = [r["outcome"]["diagnostics"]["delta_ratio_native_over_pivoted"]
                  for r in reproduce_runs]
        conf = [r["outcome"]["pivoted_conformance"] for r in reproduce_runs]
        ratio_dir = sum(x > 1.0 for x in ratios)
        conf_ok = sum(x >= 0.95 for x in conf)
        ok = ratio_dir >= 2 and conf_ok >= 2
        announce(capsys, 7, ok,
                 f"delta ratio native/pivoted > 1 in {ratio_dir}/3 seeds "
                 f"(values {[round(x, 3) for x in ratios]}); "
                 f"conformance >= 0.95 in {conf_ok}/3 seeds "
                 f"(values {[round(x, 3) for x in conf]}) [diagnostic, not gating]")
        # diagnostic only: the criterion is reported, never failed


class TestCriterion8Determinism:
    def run_all_commands(self, cfg_path, root):
        env = dict(os.environ)
        data = os.path.join(root, "data")
        mdl = os.path.join(root, "model")
        cmds = [
            ["pivotlab", "gen-data", "--config", cfg_path, "--out", data],
            ["pivotlab", "train", "--config", cfg_path, "--out", mdl,
             "--data", os.path.join(data, "dataset.jsonl")],
            ["pivotlab", "eval", "--config", cfg_path, "--out", os.path.join(root, "eval"),
             "--ckpt", os.path.join(mdl, "final.ckpt"),
             "--testset", os.path.join(data, "dataset.jsonl")],
            ["pivotlab", "retrieval", "--config", cfg_path,
             "--out", os.path.join(root, "ret"), "--ckpt", os.path.join(mdl, "final.ckpt")],
            ["pivotlab", "delta", "--config", cfg_path, "--out", os.path.join(root, "delta"),
             "--ckpt-a", os.path.join(mdl, "final.ckpt"),
             "--ckpt-b", os.path.join(mdl, "epoch1.ckpt")],
            ["pivotlab", "correction", "--config", cfg_path,
             "--out", os.path.join(root, "corr"),
             "--base-records", os.path.join(root, "eval", "records.jsonl"),
             "--new-records", os.path.join(root, "eval", "records.jsonl")],
        ]
        for cmd in cmds:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, (cmd, proc.stderr)

    def test_reruns_are_byte_identical(self, capsys, tmp_path, pivotlab_command):
        cfg = {
            "corpus": {"n_target": 16, "mix_ratio": 0.5, "max_steps": 2},
            "model": {"d_model": 8, "n_layers": 2, "n_heads": 2, "d_ff": 16},
            "train": {"epochs": 2, "batch_size": 8},
            "eval": {"max_new_tokens": 32},
            "analysis": {"n_retrieval_items": 6},
            "seed": 13,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        r1, r2 = tmp_path / "run1", tmp_path / "run2"
        self.run_all_commands(str(cfg_path), str(r1))
        self.run_all_commands(str(cfg_path), str(r2))
        mismatched = []
        n_checked = 0
        for dirpath, _, files in os.walk(r1):
            for name in files:
                if name.endswith(".meta.json"):
                    continue  # sidecars carry a creation timestamp by design
                p1 = os.path.join(dirpath, name)
                p2 = p1.replace(str(r1), str(r2), 1)
                n_checked += 1
                if open(p1, "rb").read() != open(p2, "rb").read():
                    mismatched.append(os.path.relpath(p1, r1))
        ok = not mismatched and n_checked >= 10
        announce(capsys, 8, ok,
                 f"{n_checked} artifacts byte-identical across full command reruns"
                 if ok else f"non-deterministic artifacts: {mismatched}")
        assert ok, mismatched
