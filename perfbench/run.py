"""pivotlab benchmark.

    python3 perfbench/run.py --workload {train,decode,reproduce} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
`src/`, nothing needs to be installed). Set-up builds the workload's inputs
from the seed nine times and reports the median as `setup_s`. Then the
same pivotlab command runs again and again, one process at a time, for
`--seconds` (an operation starts only if it is expected to end in time). Every run's artifacts are checked and hashed, and
all runs must produce the same bytes.

With `--trace 0` the last line of stdout is the end-to-end result. With
`--trace 1` traced and untraced runs alternate: the traced ones wrap
pivotlab's public module functions in span recorders and give the per-layer
metrics, and the untraced ones give the tracing overhead. Scratch files go
to `.perfbench_work/` in the checkout; each result is also kept there with
the machine and environment it was measured on.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 9
HARD_LIMIT_S = 170.0

sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}
WORK_NAMES = {"train": ("train_tokens_per_s", "tokens"),
              "decode": ("eval_items_per_s", "items"),
              "reproduce": ("eval_items_per_s", "items")}
PER_LAYER_UNITS = {name: "s" if name.endswith((".s", "_s")) else
                   "ratio" if name.endswith("_ratio") else "count"
                   for name in (*spans.PER_LAYER, "trace.overhead_s")}


class Failure(Exception):
    """An operation whose exit code or outputs fail a check."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PIVOTLAB_OUT", None)  # keep every artifact inside the work directory
    return env


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants, in kB."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                total += next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError, StopIteration):
            continue  # exited, or a zombie
    return total


def run_process(argv: list, log: str, deadline: float) -> dict:
    """Run one child to completion; wall and CPU time come from wait4.

    Peak memory is the larger of wait4's ru_maxrss (the largest single
    process) and the peak of the whole process tree's summed RSS, sampled
    every 50 ms, so that worker processes running side by side add up.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        stop, tree_peak = threading.Event(), [0]

        def sample() -> None:
            while not stop.wait(0.05):
                tree_peak[0] = max(tree_peak[0], tree_rss_kb(proc.pid))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            stop.set()
            sampler.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": max(usage.ru_maxrss, tree_peak[0]) / 1024.0}


def tree_digest(path: str) -> str:
    """SHA-256 over every file's relative path and bytes; sidecars, bytecode and
    hidden directories excluded."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and d[0] != ".")
        for name in sorted(filenames):
            if name.endswith(".meta.json"):
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _final_loss(log_path: str, expected_steps: int) -> float:
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_steps:
        raise Failure(f"{os.path.basename(log_path)}: {len(rows)} steps, expected {expected_steps}")
    loss = float(rows[-1]["loss_total"])
    if not math.isfinite(loss):
        raise Failure(f"{os.path.basename(log_path)}: final loss_total is {loss}")
    return loss


def _check_records(path: str, n_items: int) -> dict:
    with open(path, encoding="utf-8") as fh:
        ended = [json.loads(line)["terminated"] for line in fh if line.strip()]
    counts = {t: ended.count(t) for t in spans.TERMINATIONS}
    if len(ended) != n_items or sum(counts.values()) != n_items:
        raise Failure(f"{os.path.basename(path)}: terminated counts {counts} "
                      f"do not sum to {n_items} items")
    return counts


def check_outputs(workload: str, out: str, inputs: dict) -> dict:
    """Workload invariants on one operation's artifacts; returns facts to report."""
    if workload == "train":
        return {"final_loss_total": _final_loss(os.path.join(out, "train_log.csv"),
                                                inputs["steps"])}
    if workload == "decode":
        counts = _check_records(os.path.join(out, "records.jsonl"), inputs["items"])
        if _read_json(os.path.join(out, "report.json"))["n"] != inputs["items"]:
            raise Failure("report.json: wrong item count")
        return {"terminated": counts}
    seed_dir = next(os.path.join(out, d) for d in sorted(os.listdir(out)) if d.startswith("seed"))
    losses = {name: _final_loss(os.path.join(seed_dir, f"train_log_{name}.csv"), steps)
              for name, steps in inputs["steps"].items()}
    for name in ("pivoted_target", "native_target", "pivoted_pivot", "control_pivot"):
        _check_records(os.path.join(seed_dir, f"records_{name}.jsonl"), inputs["n_test"])
    combined = _read_json(os.path.join(out, "combined_report.json"))
    check_keys = {"a_target_accuracy", "b_pivot_preserved", "c_retrieval", "d_ema_cot_step10"}
    for checks in [combined["majority"]] + [o["checks"] for o in combined["outcomes"]]:
        if set(checks) != check_keys:
            raise Failure(f"combined_report.json: checks keys {sorted(checks)}")
    return {"final_loss_total": losses["pivoted"]}


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform(),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
           "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset")}
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        env.setdefault("numpy", "unavailable")
        env["blas"] = f"unknown ({type(exc).__name__})"
    env["commit"] = "unknown (not a git checkout)"
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return env
    try:
        env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                       capture_output=True, text=True,
                                       timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-t{int(trace)}")
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def child(self, *args, spans_path: str | None = None) -> list:
        traced = ["--spans", spans_path] if spans_path else []
        return [sys.executable, os.path.join(HERE, "child.py"), *traced, *args]

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def setup(self) -> tuple[str, dict, list, list]:
        """Build the inputs; returns (inputs dir, manifest, set-up times, set-up spans)."""
        times, digests, traced_spans = [], set(), []
        for i in range(1 if self.trace else SETUP_REPEATS):
            out = os.path.join(self.dir, f"inputs{i}")
            spans_path = os.path.join(self.dir, "setup.spans.json") if self.trace else None
            res = run_process(self.child("setup", self.workload, str(self.seed), out,
                                         spans_path=spans_path),
                              os.path.join(self.dir, f"setup{i}.log"), self.deadline)
            if res["code"] != 0:
                raise SystemExit(f"set-up failed (exit {res['code']}); "
                                 f"see {os.path.join(self.dir, f'setup{i}.log')}")
            times.append(res["wall_s"])
            digests.add(tree_digest(out))
            if spans_path:
                traced_spans = spans.load_spans(spans_path)
        if len(digests) != 1:
            self.problems.append("set-up inputs differ between repeats")
        inputs = os.path.join(self.dir, "inputs0")
        return inputs, _read_json(os.path.join(inputs, "inputs.json")), times, traced_spans

    def operation(self, i: int, inputs: str, manifest: dict, traced: bool) -> dict | None:
        """Run operation number i; returns its measurements, or None if it failed."""
        out = os.path.join(self.dir, f"op{i}")
        args = workloads.cli_args(self.workload, self.seed, inputs, out)
        spans_path = os.path.join(self.dir, f"op{i}.spans.json") if traced else None
        argv = (self.child("cli", "--", *args, spans_path=spans_path) if traced
                else [sys.executable, "-m", "pivotlab.cli", *args])
        self.attempted += 1
        res = run_process(argv, os.path.join(self.dir, f"op{i}.log"), self.deadline)
        try:
            if res["code"] != 0:
                raise Failure(f"exit code {res['code']}")
            res.update(check_outputs(self.workload, out, manifest))
            res["digest"] = tree_digest(out)
            if traced:
                res["layers"] = spans.layer_metrics(spans.load_spans(spans_path))
        except (Failure, OSError, ValueError, KeyError, StopIteration) as exc:
            self.fail(f"op{i}: {type(exc).__name__}: {exc}")
            return None
        shutil.rmtree(out, ignore_errors=True)
        return res

    def run(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        inputs, manifest, setup_times, setup_spans = self.setup()
        ops = {False: [], True: []}
        want_traced = (False, True) if self.trace else (False,)
        start, walls = time.monotonic(), []
        budget = min(self.seconds, self.deadline - start)
        while time.monotonic() < self.deadline:
            # Start another operation only if one more is expected to end in time.
            fits = time.monotonic() - start + median(walls) <= budget
            missing = any(not ops[t] for t in want_traced)
            if not fits and not (missing and self.attempted < 2 * len(want_traced)):
                break
            traced = want_traced[self.attempted % len(want_traced)]
            res = self.operation(self.attempted, inputs, manifest, traced)
            if res is not None:
                ops[traced].append(res)
                walls.append(res["wall_s"])
        done = ops[False] + ops[True]
        if len({r["digest"] for r in done}) > 1:
            self.fail("artifact digests differ between runs of this invocation")
        losses = {r["final_loss_total"] for r in done if "final_loss_total" in r}
        return {"manifest": manifest, "setup_times": setup_times, "setup_spans": setup_spans,
                "ops": ops, "final_loss_total": losses.pop() if len(losses) == 1 else None}

    def end_to_end(self, result: dict) -> dict:
        untraced = result["ops"][False]
        wall = median([r["wall_s"] for r in untraced])
        return {
            "setup_s": median(result["setup_times"]),
            "wall_s": wall,
            "cpu_s": median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "work_per_s": result["manifest"][WORK_NAMES[self.workload][1]] / wall if wall else 0.0,
        }

    def per_layer(self, result: dict) -> dict:
        setup_layers = spans.layer_metrics(result["setup_spans"])
        traced = [r["layers"] for r in result["ops"][True]]
        counts = [{k: m[k] for k in spans.EXACT_COUNTS} for m in traced]
        if any(c != counts[0] for c in counts):
            self.fail("traced work counts differ between runs of this invocation")
        manifest = result["manifest"]
        if counts:
            self.check_counts_repeat(counts[0])
            ended = sum(counts[0][f"evaluate.terminated.{t}"] for t in spans.TERMINATIONS)
            if ended != manifest["decodes"]:
                self.fail(f"{ended} decodes terminated, expected {manifest['decodes']}")
            if self.workload == "train" and (counts[0]["train.tokens"], counts[0]["train.steps"]) \
                    != (manifest["tokens"], manifest["steps"]):
                self.fail("traced train tokens or steps differ from the inputs")
        metrics = {name: setup_layers[name] + median([m[name] for m in traced])
                   for name in spans.PER_LAYER}
        for name in ("train.useful_position_ratio", "evaluate.useful_position_ratio"):
            metrics[name] = median([m[name] for m in traced])
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in result["ops"][True]])
                                       - median([r["wall_s"] for r in result["ops"][False]]))
        return metrics

    def check_counts_repeat(self, counts: dict) -> None:
        """Exact counts must also repeat across invocations of the same program
        and benchmark sources, seed and thread setting."""
        key = "-".join([self.workload, f"s{self.seed}", tree_digest(SRC)[:16],
                        tree_digest(HERE)[:16],
                        os.environ.get("OPENBLAS_NUM_THREADS", "x"),
                        os.environ.get("OMP_NUM_THREADS", "x")])
        path = os.path.join(WORK, "counts", key + ".json")
        if os.path.exists(path):
            if _read_json(path) != counts:
                self.fail(f"traced work counts differ from an earlier run ({path})")
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, sort_keys=True)


def report(bench: Bench, env: dict, result: dict, metrics: dict, units: dict) -> dict:
    print(f"pivotlab benchmark: workload={bench.workload} seed={bench.seed} "
          f"seconds={bench.seconds} trace={int(bench.trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    n_ops = {k: len(v) for k, v in result["ops"].items()}
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed "
          f"(untraced ok {n_ops[False]}, traced ok {n_ops[True]})")
    shown = dict(metrics)
    if not bench.trace:
        alias, _ = WORK_NAMES[bench.workload]
        shown[alias] = metrics["work_per_s"]
        units = {**units, alias: "1/s"}
        if result["final_loss_total"] is not None:
            shown["final_loss_total"] = result["final_loss_total"]
            units["final_loss_total"] = "nats"
        shown["error_rate"] = bench.failed / max(bench.attempted, 1)
        units["error_rate"] = "ratio"
    for name, value in shown.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    for problem in bench.problems:
        print(f"check failed: {problem}")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        # A run-level check (digests, repeated counts) fails every operation at once.
        "failed": min(bench.failed, bench.attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pivotlab", "cli.py")):
        print(f"perfbench: pivotlab sources not found under {SRC}; "
              "run from the root of a pivotlab checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    result = bench.run()
    if bench.trace:
        metrics, units = bench.per_layer(result), PER_LAYER_UNITS
    else:
        metrics, units = bench.end_to_end(result), END_TO_END_UNITS
    line = report(bench, env, result, metrics, units)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {"workload": bench.workload, "seed": bench.seed, "seconds": bench.seconds,
              "trace": int(bench.trace), "environment": env, "result": line,
              "problems": bench.problems,
              "samples": {("traced" if k else "untraced"):
                          [{f: r[f] for f in ("wall_s", "cpu_s", "peak_rss_mb", "digest")}
                           for r in v] for k, v in result["ops"].items()},
              "setup_s_samples": result["setup_times"]}
    with open(os.path.join(WORK, "results", os.path.basename(bench.dir) + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if not bench.problems:  # keep inputs and logs only where a check failed
        shutil.rmtree(bench.dir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
