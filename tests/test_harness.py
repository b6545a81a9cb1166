"""The names that the benchmark harness (``perfbench/run.py`` and
``perfbench/traced.py``) and the acceptance gate take from kgel.

``traced.py`` skips a boundary it cannot find and lists it under
``unwrapped``, and its direct calls run only under ``run.py --trace 1``, so
without these tests a removed name would fail in the benchmark alone."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TOY_DATASET, TOY_KG_DIR

import kgel
from kgel.linking import build_lookup, link_dataset, write_predictions
from kgel.ngram import condition_on_mention, train
from kgel.trie import UniformScorer, build_trie

ROOT = Path(__file__).parents[1]
TESTS = Path(__file__).parent
# traced.py also wraps ``similarity`` in kgel.linking, which scores owners
# with ``similarities`` instead, so that boundary is always unwrapped.
UNRESOLVED = ["kgel.linking.similarity"]


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", ROOT / "perfbench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_but_one_resolves():
    boundaries = load_traced().BOUNDARIES
    missing = [f"{module}.{name}" for module, name, _ in boundaries if not hasattr(importlib.import_module(module), name)]
    assert missing == UNRESOLVED


def test_what_traced_and_run_call_directly(toy_kg):
    # traced.py: kgel.linking.build_lookup and is_ambiguous for the candidate
    # counters, the trie's node_count and allowed_next for its sizes, the
    # conditioned scorer's score_next, and kgel.cli.main.
    assert importlib.import_module("kgel.linking").build_lookup is build_lookup
    table = build_lookup(toy_kg)
    assert table.owners("Aspirin") == ("C0001",) and table.is_ambiguous("aspirin") is False
    trie = build_trie(toy_kg)
    assert trie.node_count > 1 and trie.allowed_next(())[0]
    scorer = condition_on_mention(train(["[BOS] a is b [EOS]"]), "a")
    assert set(scorer.score_next((), {"b", "c"})) == {"b", "c"}
    assert callable(importlib.import_module("kgel.cli").main)
    # run.py: edit_distance for its kernel pairs.
    assert importlib.import_module("kgel.similarity").edit_distance("kitten", "sitting") == 3


def from_imports(path: Path):
    """``(module, name)`` for each ``from module import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.module, alias.name) for alias in node.names)


def test_gate_and_ci_imports_exist():
    # The CI order-5 round-trip step checks the model against the
    # reference counter of test_ngram.
    wanted = [*from_imports(TESTS / "test_acceptance.py"), ("test_ngram", "reference_dump"), ("test_ngram", "reference_train")]
    missing = [f"{module}.{name}" for module, name in wanted if not hasattr(importlib.import_module(module), name)]
    assert wanted and missing == []


def run_traced(tmp_path, command: str, args: list[str]) -> dict:
    """Run one command under traced.py and return what it recorded."""
    env = {**os.environ, "PYTHONPATH": str(Path(kgel.__file__).parents[1])}
    path = tmp_path / f"{command}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(path), f"toy:{command}", command, *args]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    traced = json.loads(path.read_text(encoding="utf-8"))
    assert traced["unwrapped"] == UNRESOLVED
    return traced


def span_names(traced: dict) -> set[str]:
    return {traced["names"][span[2]] for span in traced["spans"]}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="kgel link forks a worker")
def test_traced_commands_on_the_toy_fixtures(tmp_path):
    """Every stage runs under traced.py, which wraps every boundary but the
    unresolved one, records spans at the stage's boundaries and the link
    counters from its direct calls."""
    kg, dataset = str(TOY_KG_DIR), str(TOY_DATASET)
    corpus, model, preds = (str(tmp_path / name) for name in ("corpus.jsonl", "model.tsv", "preds.jsonl"))
    stages = {
        "synthesize": (["--kg", kg, "--mode", "synonym", "--out", corpus], {"synthesis.write_corpus", "synthesis.generate"}),
        "train-scorer": (
            ["--corpus", corpus, "--dataset", dataset, "--kg", kg, "--out", model],
            {"synthesis.corpus_targets", "ngram.train", "ngram.save_model"},
        ),
        "link": (
            ["--kg", kg, "--dataset", dataset, "--model", model, "--out", preds],
            {"trie.build_trie", "linking.link_mention", "trie.constrained_beam_search", "ngram.condition_on_mention"},
        ),
        "evaluate": (["--preds", preds, "--kg", kg], {"evaluate.read_predictions", "evaluate.report"}),
    }
    for command, (args, spans) in stages.items():
        traced = run_traced(tmp_path, command, args)
        assert spans <= span_names(traced), command
        if command == "link":
            counters = traced["counters"]
            assert counters["trie.nodes"] > 1 and counters["trie.root_fanout"] > 0
            assert counters["linking.candidates"] > 0 and "linking.ambiguous_candidates" in counters


def test_traced_evaluate_times_its_trie_as_the_lookup(tmp_path, toy_kg, toy_docs):
    """``evaluate --kg`` builds its trie through kgel.linking.build_lookup,
    which traced.py times as linking.build_lookup_s. It does not go through
    kgel.linking.build_trie, whose wrapper sets trie.nodes and
    trie.root_fanout, which the benchmark sums over the stages."""
    preds = tmp_path / "preds.jsonl"
    with open(preds, "w", encoding="utf-8") as fp:
        write_predictions(link_dataset(toy_kg, toy_docs, lambda surface: UniformScorer()), fp)
    args = ["--preds", str(preds), "--gold", str(TOY_DATASET), "--kg", str(TOY_KG_DIR)]
    traced = run_traced(tmp_path, "evaluate", args)
    names = span_names(traced)
    assert {"evaluate.report", "linking.build_lookup"} <= names and "trie.build_trie" not in names
    assert not {"trie.nodes", "trie.root_fanout"} & set(traced["counters"])
