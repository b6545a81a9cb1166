#!/usr/bin/env python3
"""Seeded benchmark of the kgel pipeline, one process per CLI stage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kgel checkout; it imports nothing installed and
runs ``python -m kgel.cli`` with ``PYTHONPATH=src``. It generates the
workload's inputs from the seed (``gen.py``), then runs the five stages a
user runs (ingest, synthesize, train-scorer, link, evaluate) one process at a
time: a single closed-loop client. Inputs and artifacts live in a temporary
directory under ``.perfbench_work/`` that is removed at exit.

With ``--trace 0`` each stage is timed from outside and its peak RSS read
from the child's rusage. ``setup_s`` is the median of three invocations of
``kgel link`` on a dataset without mentions. One sample of another stage is
the mean wall time of back-to-back invocations lasting at least two seconds
together. After a sample of every stage, samples are taken in rounds (the
stage with the fewest samples next, the slowest first) while ``--seconds``
have not passed. A stage's time is the median of its samples; ``pipeline_s``
is the sum over the five user-facing stages. CPU speed on a shared host
drifts by a fifth within seconds, so the stages that weigh most in
``pipeline_s`` are sampled again first, apart in time.
Single-stage times still spread by 0.2 to 0.4 of their median between runs
on a 2-CPU host, more than any bound the benchmark may set, so they are
reported beside the result (``samples_s``) and as per-layer metrics, and only
``setup_s`` and ``pipeline_s`` carry bounds.

With ``--trace 1`` the stages run once untraced and once under ``traced.py``,
which records spans at module boundaries; the per-layer metrics come from
those spans and from the untraced pass.

Every invocation is checked: exit code 0, and the sha256 of the corpus, the
model, the predictions and the evaluate report equal to the first
invocation's in this run and to the value in ``hashes.json`` when the
workload and seed are recorded there. Predictions are checked against the
generator's own surface index, and the evaluate report against a recount.
The last line of standard output is the result as one JSON object; the line
before it holds provenance, the host-speed probe, the workload's properties
and the hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import gen  # noqa: E402

WORK = ROOT / ".perfbench_work"
HASHES = HERE / "hashes.json"

TOP_K = 10  # `kgel link --top-k` default
KS = (1, 5, 10)  # `kgel evaluate --ks` default
SETUP_REPEATS = 3
BATCH_S = 2.0

STAGES = {
    "ingest": ["ingest", "--kg", "kg"],
    "synthesize": ["synthesize", "--kg", "kg", "--mode", "{mode}", "--out", "corpus.jsonl"],
    "train": ["train-scorer", "--corpus", "corpus.jsonl", "--dataset", "train.jsonl", "--kg", "kg", "--out", "model.tsv"],
    "setup": ["link", "--kg", "kg", "--dataset", "empty.jsonl", "--model", "model.tsv", "--out", "setup.jsonl"],
    "link": ["link", "--kg", "kg", "--dataset", "dataset.jsonl", "--model", "model.tsv", "--out", "predictions.jsonl"],
    "evaluate": ["evaluate", "--preds", "predictions.jsonl", "--gold", "dataset.jsonl", "--kg", "kg"],
}
PIPELINE = ("ingest", "synthesize", "train", "link", "evaluate")
# Hashed artifact of each stage: (name, file in the work directory).
ARTIFACTS = {
    "synthesize": ("corpus", "corpus.jsonl"),
    "train": ("model", "model.tsv"),
    "link": ("predictions", "predictions.jsonl"),
    "evaluate": ("evaluate", "evaluate.stdout"),
}

# The fixed pair set and checksum of the edit-distance kernel layer.
EDITDIST_WORDS = [
    "acute", "chronic", "myocardial", "infarction", "carcinoma", "syndrome",
    "fever", "pyrexia", "cephalalgia", "nausea", "aspirin", "ibuprofen",
    "acetylsalicylic", "acid", "disorder", "disease", "lesion", "stenosis",
]
EDITDIST_PAIRS = 20_000
EDITDIST_CHECKSUM = 339403

LAYER_UNITS = {
    "stage.ingest_s": "s",
    "stage.synthesize_s": "s",
    "stage.train_s": "s",
    "stage.link_s": "s",
    "stage.evaluate_s": "s",
    "ingest.parse_kg_dir_s": "s",
    "ingest.parse_dataset_s": "s",
    "synthesis.generate_s": "s",
    "synthesis.write_corpus_s": "s",
    "synthesis.corpus_targets_s": "s",
    "synthesis.samples": "count",
    "synthesis.corpus_bytes": "bytes",
    "ngram.train_s": "s",
    "ngram.save_model_s": "s",
    "ngram.load_model_s": "s",
    "ngram.score_next_calls": "count",
    "ngram.scored_tokens": "count",
    "ngram.score_next_self_s": "s",
    "ngram.model_rows": "count",
    "trie.build_trie_s": "s",
    "trie.beam_search_self_s": "s",
    "trie.useful_ratio": "ratio",
    "trie.nodes": "count",
    "trie.root_fanout": "count",
    "similarity.calls": "count",
    "similarity.self_s": "s",
    "similarity.finetune_targets_s": "s",
    "similarity.kernel_pairs_per_s": "1/s",
    "linking.build_lookup_s": "s",
    "linking.link_mention_p50_ms": "ms",
    "linking.link_mention_tail_ms": "ms",
    "linking.link_mention_tail_pct": "pct",
    "linking.link_mention_samples": "count",
    "linking.link_mention_self_s": "s",
    "linking.write_predictions_s": "s",
    "linking.ambiguous_candidate_share": "ratio",
    "evaluate.recall_at_1": "ratio",
    "evaluate.recall_at_10": "ratio",
    "evaluate.read_predictions_s": "s",
    "evaluate.report_s": "s",
    "trace.overhead_ratio": "ratio",
    "workload.concepts": "count",
    "workload.surfaces": "count",
    "workload.ambiguous_surfaces": "count",
    "workload.triples": "count",
    "workload.mentions": "count",
}


class StageFailed(Exception):
    pass


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: context for the timings, never a
    metric or a normalizer."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i % 7
    return time.perf_counter() - start


class Pipeline:
    """Runs and checks the CLI stages of one workload in ``workdir``."""

    def __init__(self, workdir: Path, mode: str, inputs: gen.Inputs, recorded: dict | None):
        self.workdir = workdir
        self.mode = mode
        self.inputs = inputs
        self.recorded = recorded or {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.hashes: dict[str, str] = {}
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.rss_mb: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.records: list[dict] = []
        self.report: dict = {}

    def run(self, stage: str, spans: Path | None = None) -> float:
        """One invocation; returns its wall time. Raises StageFailed when the
        process fails, so later stages do not run on a missing artifact."""
        args = [part.format(mode=self.mode) for part in STAGES[stage]]
        if spans is None:
            argv = [sys.executable, "-m", "kgel.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), spans.name, f"{self.workdir.name}:{stage}", *args]
        self.attempted += 1
        with open(self.workdir / f"{stage}.stdout", "wb") as out, open(self.workdir / f"{stage}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            tail = (self.workdir / f"{stage}.stderr").read_text(encoding="utf-8", errors="replace")[-500:]
            self.errors.append(f"{stage} exited with {proc.returncode}: {tail}")
            raise StageFailed(stage)
        problem = self.check(stage)
        if problem:
            self.failed += 1
            self.errors.append(f"{stage}: {problem}")
        if spans is None:
            self.walls[stage].append(wall)
            self.rss_mb[stage].append(usage.ru_maxrss / 1024)
        return wall

    def check(self, stage: str) -> str | None:
        if stage == "ingest":
            stats = json.loads((self.workdir / "ingest.stdout").read_text(encoding="utf-8"))
            if stats.get("concepts") != self.inputs.properties["concepts"]:
                return f"ingest reports {stats.get('concepts')} concepts"
            return None
        if stage == "setup":
            lines = (self.workdir / "setup.jsonl").read_text(encoding="utf-8").splitlines()
            return None if len(lines) == 1 else f"set-up run wrote {len(lines) - 1} predictions"
        if stage == "link" and not self.records:
            problem = self.check_predictions()
        elif stage == "evaluate" and not self.report:
            problem = self.check_report()
        else:
            problem = None
        name, artifact = ARTIFACTS[stage]
        digest = sha256(self.workdir / artifact)
        first = self.hashes.setdefault(name, digest)
        if digest != first:
            return f"{name} sha256 {digest} differs from this run's first {first}"
        if self.recorded.get(name, digest) != digest:
            return f"{name} sha256 {digest} differs from the recorded {self.recorded[name]}"
        return problem

    def check_predictions(self) -> str | None:
        lines = (self.workdir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        if not lines or "kgel" not in json.loads(lines[0]):
            return "predictions lack their header record"
        records = self.records = [json.loads(line) for line in lines[1:]]
        if [(r["doc_id"], r["mention_index"], r["gold"]) for r in records] != self.inputs.golds:
            return "predictions do not follow the dataset's mentions"
        for r in records:
            candidates = r["candidates"]
            scores = [c["score"] for c in candidates]
            if len(candidates) > TOP_K or not all(math.isfinite(s) for s in scores):
                return f"{r['doc_id']}#{r['mention_index']}: bad candidate list"
            if any(a < b for a, b in zip(scores, scores[1:])):
                return f"{r['doc_id']}#{r['mention_index']}: candidates not ranked by score"
            for c in candidates:
                if c["entity"] not in self.inputs.owners.get(gen.normalize(c["surface"]), ()):
                    return f"{r['doc_id']}#{r['mention_index']}: {c['surface']!r} is not a surface of {c['entity']}"
        return None

    def check_report(self) -> str | None:
        report = self.report = json.loads((self.workdir / "evaluate.stdout").read_text(encoding="utf-8"))
        n = len(self.records)
        if not n:
            return "no predictions to recount"
        for k in KS:
            hits = sum(1 for r in self.records if any(c["entity"] == r["gold"] for c in r["candidates"][:k]))
            if report["recall_at"][str(k)] != hits / n:
                return f"recall@{k} is {report['recall_at'][str(k)]}, recount gives {hits / n}"
        if report["mentions"] != n or report["unresolved_gold"] != 0:
            return "mention counts disagree with the predictions"
        return None


def timed_metrics(p: Pipeline, seconds: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = defaultdict(list)

    def sample(stage: str) -> None:
        spent = 0.0
        count = 0
        while not count or spent < BATCH_S:
            spent += p.run(stage)
            count += 1
        samples[stage].append(spent / count)

    for stage in PIPELINE:
        sample(stage)
    for _ in range(SETUP_REPEATS):
        samples["setup"].append(p.run("setup"))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sample(min(PIPELINE, key=lambda stage: (len(samples[stage]), -sum(p.walls[stage]))))
    predictions = len(p.records)
    return {
        "setup_s": statistics.median(samples["setup"]),
        "pipeline_s": sum(statistics.median(samples[stage]) for stage in PIPELINE),
        "rss_train_mb": statistics.median(p.rss_mb["train"]),
        "rss_link_mb": statistics.median(p.rss_mb["link"]),
        "decode_success_ratio": ratio(sum(1 for r in p.records if r["candidates"]), predictions),
    }, samples


class Spans:
    """Per-name totals over the span files of a traced pass."""

    def __init__(self):
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.link_mention_ns: list[int] = []
        self.unwrapped: set[str] = set()

    def add(self, path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        names = data["names"]
        covered: Counter = Counter()
        for _, parent, _, start, end in data["spans"]:
            covered[parent] += end - start
        for span_id, _, name, start, end in data["spans"]:
            name = names[name]
            self.total[name] += end - start
            self.self_time[name] += end - start - covered[span_id]
            self.calls[name] += 1
            if name == "linking.link_mention":
                self.link_mention_ns.append(end - start)
        self.counters.update(data["counters"])
        self.unwrapped.update(data["unwrapped"])

    def s(self, name: str) -> float:
        return self.total[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_time[name] / 1e9


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (nearest rank); the median when there are fewer than twenty."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((p for p in (99.9, 99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def model_rows(workdir: Path) -> int:
    with open(workdir / ARTIFACTS["train"][1], "rb") as fp:
        return sum(1 for line in fp if line.count(b"\t") == 2)


def editdist_pairs() -> list[tuple[str, str]]:
    rng = random.Random(7)
    pairs = []
    for _ in range(EDITDIST_PAIRS):
        a = " ".join(rng.choice(EDITDIST_WORDS) for _ in range(rng.randint(1, 3)))
        b = " ".join(rng.choice(EDITDIST_WORDS) for _ in range(rng.randint(1, 3)))
        pairs.append((a, b))
    return pairs


def kernel_pairs_per_s(p: Pipeline) -> float:
    """Pairs per second of the active edit-distance kernel over the fixed
    pair set, median of three passes; each pass must give the checksum."""
    edit_distance = importlib.import_module("kgel.similarity").edit_distance
    pairs = editdist_pairs()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        checksum = sum(edit_distance(a, b) for a, b in pairs)
        times.append(time.perf_counter() - start)
        p.attempted += 1
        if checksum != EDITDIST_CHECKSUM:
            p.failed += 1
            p.errors.append(f"edit-distance checksum {checksum}, expected {EDITDIST_CHECKSUM}")
    return len(pairs) / statistics.median(times)


def traced_metrics(p: Pipeline) -> tuple[dict, list[str]]:
    """One untraced and one traced pass. ``stage.*_s`` are the untraced wall
    times; a layer's ``_s`` is its total over the traced pass, and a
    ``_self_s`` time, like ``synthesis.write_corpus_s`` (which drives the
    ``synthesis.generate`` steps), leaves out the spans it encloses."""
    for stage in PIPELINE:
        p.run(stage)
    spans = Spans()
    traced_link = 0.0
    for stage in PIPELINE:
        path = p.workdir / f"spans-{stage}.json"
        wall = p.run(stage, spans=path)
        spans.add(path)
        if stage == "link":
            traced_link = wall
    mentions = [ns / 1e6 for ns in spans.link_mention_ns]
    tail_pct, tail_ms = tail_percentile(mentions) if mentions else (50, 0.0)
    corpus = p.workdir / ARTIFACTS["synthesize"][1]
    with open(corpus, "rb") as fp:
        samples = sum(1 for line in fp if not line.startswith(b'{"kgel"'))
    c = spans.counters
    metrics = {
        **{f"stage.{stage}_s": p.walls[stage][0] for stage in PIPELINE},
        "ingest.parse_kg_dir_s": spans.s("ingest.parse_kg_dir"),
        "ingest.parse_dataset_s": spans.s("ingest.parse_dataset"),
        "synthesis.generate_s": spans.s("synthesis.generate"),
        "synthesis.write_corpus_s": spans.self_s("synthesis.write_corpus"),
        "synthesis.corpus_targets_s": spans.s("synthesis.corpus_targets"),
        "synthesis.samples": samples,
        "synthesis.corpus_bytes": corpus.stat().st_size,
        "ngram.train_s": spans.s("ngram.train"),
        "ngram.save_model_s": spans.s("ngram.save_model"),
        "ngram.load_model_s": spans.s("ngram.load_model"),
        "ngram.score_next_calls": spans.calls["ngram.score_next"],
        "ngram.scored_tokens": c["ngram.scored_tokens"],
        "ngram.score_next_self_s": spans.self_s("ngram.score_next"),
        "ngram.model_rows": model_rows(p.workdir),
        "trie.build_trie_s": spans.s("trie.build_trie"),
        "trie.beam_search_self_s": spans.self_s("trie.constrained_beam_search"),
        "trie.useful_ratio": ratio(c["linking.candidates"], c["ngram.scored_tokens"]),
        "trie.nodes": c["trie.nodes"],
        "trie.root_fanout": c["trie.root_fanout"],
        "similarity.calls": spans.calls["similarity.similarity"],
        "similarity.self_s": spans.self_s("similarity.similarity"),
        "similarity.finetune_targets_s": spans.s("similarity.finetune_targets"),
        "similarity.kernel_pairs_per_s": kernel_pairs_per_s(p),
        "linking.build_lookup_s": spans.s("linking.build_lookup"),
        "linking.link_mention_p50_ms": statistics.median(mentions) if mentions else 0.0,
        "linking.link_mention_tail_ms": tail_ms,
        "linking.link_mention_tail_pct": tail_pct,
        "linking.link_mention_samples": len(mentions),
        "linking.link_mention_self_s": spans.self_s("linking.link_mention"),
        "linking.write_predictions_s": spans.s("linking.write_predictions"),
        "linking.ambiguous_candidate_share": ratio(c["linking.ambiguous_candidates"], c["linking.candidates"]),
        "evaluate.recall_at_1": p.report["recall_at"]["1"],
        "evaluate.recall_at_10": p.report["recall_at"]["10"],
        "evaluate.read_predictions_s": spans.s("evaluate.read_predictions"),
        "evaluate.report_s": spans.s("evaluate.report"),
        "trace.overhead_ratio": ratio(traced_link, p.walls["link"][0]),
    }
    metrics.update({f"workload.{k}": v for k, v in p.inputs.properties.items() if f"workload.{k}" in LAYER_UNITS})
    return metrics, sorted(spans.unwrapped)


def provenance() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "kgel").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "editdist_backend": getattr(importlib.import_module("kgel.similarity"), "BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def bench(name: str, shape: gen.Shape, seed: int, seconds: float, trace: bool, recorded: dict | None) -> tuple[dict, dict]:
    """Generate, run and check one workload; returns (context, result)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    context = {"workload": name, "seed": seed, "trace": int(trace), "provenance": provenance()}
    try:
        inputs = gen.generate(shape, seed, workdir)
        p = Pipeline(workdir, shape.mode, inputs, recorded)
        context["host_probe_before_s"] = host_probe()
        metrics: dict = {}
        try:
            if trace:
                metrics, context["unwrapped"] = traced_metrics(p)
                units = LAYER_UNITS
            else:
                metrics, context["samples_s"] = timed_metrics(p, seconds)
                units = end_to_end_units()
        except StageFailed:
            units = {}
        context["host_probe_after_s"] = host_probe()
        context.update(
            properties={**inputs.properties, "model_rows": model_rows(workdir) if "model" in p.hashes else None},
            hashes=p.hashes,
            hashes_recorded=bool(recorded),
            invocations_s=p.walls,
            errors=p.errors,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": p.failed == 0 and not p.errors and bool(metrics),
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kgel" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a kgel checkout (src/kgel and BENCHMARK.json)", file=sys.stderr)
        return 2
    recorded = json.loads(HASHES.read_text(encoding="utf-8")).get(args.workload, {}).get(str(args.seed))
    context, result = bench(args.workload, gen.SHAPES[args.workload], args.seed, args.seconds, bool(args.trace), recorded)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
