"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math
import random
import re
import time

import pytest

from conftest import (
    HashScorer,
    TOY_KG_DIR,
    build_linkbench,
    enumerate_hypotheses,
    random_surface_set,
)
from test_similarity import levenshtein_oracle

from kgel.cli import main
from kgel.ingest import parse_kg_dir, write_dataset, write_kg_dir
from kgel.kg import Entity, Relation, Triple, build_kg
from kgel.linking import build_lookup, link_dataset
from kgel.ngram import condition_on_mention, finetune_targets, load_model, save_model, train
from kgel.evaluate import recall_at_k
from kgel.similarity import edit_distance
from kgel.synthesis import relation_probabilities, sample_triples, synthesize_corpus
from kgel.text import normalize
from kgel.trie import TokenTrie, UniformScorer, build_trie, constrained_beam_search


def passed(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


def test_criterion_01_end_to_end_fixture_recall():
    start = time.perf_counter()
    kg, docs = build_linkbench()
    assert len(kg.entities) == 50
    model = train(finetune_targets(kg, docs), 3)
    predictions = link_dataset(kg, docs, lambda s: condition_on_mention(model, s))
    recall = recall_at_k(predictions, 1)
    elapsed = time.perf_counter() - start
    assert recall == 1.0
    assert elapsed < 5.0
    passed(1, f"recall@1 = {recall} on the 50-entity fixture in {elapsed:.2f}s")


def test_criterion_02_legality_of_decoded_surfaces():
    start = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    words = ["acute", "pain", "stress", "fever", "rash", "mild", "severe", "onset", "chronic"]
    for round_no in range(20):
        n = rng.randint(3, 12)
        entities = []
        for i in range(n):
            synonyms = {
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 3))) + f" {i}{j}"
                for j in range(rng.randint(1, 3))
            }
            synonyms = sorted(synonyms)
            entities.append(Entity.make(f"C{i}", synonyms[0], synonyms[1:]))
        kg = build_kg(entities, [], [])
        registered = {normalize(s) for e in kg.entities.values() for s in e.synonyms}
        trie = build_trie(kg)
        table = build_lookup(kg)
        corpus = [f"[BOS] {s} is {s} [EOS]" for s in registered]
        model = train(corpus, 3)
        for _ in range(50):
            surface = " ".join(rng.choice(words + ["zzz", "qqq", ""]) for _ in range(rng.randint(0, 4)))
            if round_no % 2 == 0:
                scorer = condition_on_mention(model, surface)
            else:
                scorer = UniformScorer()
            for tokens, _ in constrained_beam_search(trie, scorer, beam_width=rng.randint(1, 6)):
                decoded = " ".join(tokens)
                assert decoded in registered
                assert table.owners(decoded)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 30.0
    passed(2, f"{checked} fuzzed mentions decoded only registered synonyms in {elapsed:.1f}s")


def test_criterion_03_beam_search_oracle_equivalence():
    rng = random.Random(55)
    for round_no in range(100):
        surfaces = random_surface_set(rng, max_surfaces=200, max_depth=6)
        scorer = HashScorer(f"acc3-{round_no}")
        trie = TokenTrie.from_surfaces({s: [f"E{i}"] for i, s in enumerate(surfaces)})
        expected = enumerate_hypotheses(surfaces, scorer, trie.max_depth)
        actual = constrained_beam_search(trie, scorer, beam_width=trie.node_count)
        assert [t for t, _ in actual] == [t for t, _ in expected]
        for (_, got), (_, want) in zip(actual, expected):
            assert abs(got - want) <= 1e-9
    passed(3, "100 random tries match exhaustive enumeration (ranking and scores, 1e-9)")


def test_criterion_04_inverse_frequency_sampling_law():
    start = time.perf_counter()
    entities = [Entity.make("H", "hub"), Entity.make("F", "filler"), Entity.make("X", "x")]
    entities += [Entity.make(f"T{i}", f"tail{i}") for i in range(10)]
    triples = [Triple("H", "r_freq", f"T{i}") for i in range(10)]
    triples += [Triple("F", "r_freq", "X")] * 990
    triples.append(Triple("H", "r_rare", "X"))
    kg = build_kg(entities, [Relation("r_freq", "often"), Relation("r_rare", "rarely")], triples)
    assert kg.relation_freq == {"r_freq": 1000, "r_rare": 1}

    hub = kg.entities["H"]
    trials = 10_000
    hits = sum(1 for seed in range(trials) if sample_triples(kg, hub, k=1, seed=seed)[0].relation == "r_rare")
    observed = hits / trials
    elapsed = time.perf_counter() - start
    assert observed == pytest.approx(1000 / 1001, abs=0.02)
    assert elapsed < 5.0
    passed(4, f"rare relation drawn first in {observed:.4f} of {trials} trials ({elapsed:.2f}s)")


def test_criterion_05_relation_probabilities_exact():
    kg = build_kg(
        [Entity.make("A", "a"), Entity.make("B", "b")],
        [Relation("r1", "x"), Relation("r2", "y")],
        [Triple("A", "r1", "B"), Triple("B", "r1", "B"), Triple("B", "r1", "A"), Triple("A", "r2", "B")],
    )
    probs = relation_probabilities(kg, kg.entities["A"])
    assert abs(probs["r1"] - 0.25) <= 1e-12
    assert abs(probs["r2"] - 0.75) <= 1e-12
    passed(5, "inverse-frequency probabilities exact to 1e-12 for frequencies {3, 1}")


def test_criterion_06_cli_determinism(tmp_path, capsys):
    kg, docs = build_linkbench()
    write_kg_dir(kg, tmp_path / "kg")
    with open(tmp_path / "mentions.jsonl", "w", encoding="utf-8") as fp:
        write_dataset(docs, fp)
    kg_dir, dataset = str(tmp_path / "kg"), str(tmp_path / "mentions.jsonl")

    synth = ["synthesize", "--kg", kg_dir, "--mode", "combined", "--seed", "17"]
    assert main(synth + ["--out", str(tmp_path / "c1.jsonl")]) == 0
    assert main(synth + ["--out", str(tmp_path / "c2.jsonl")]) == 0
    assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c2.jsonl").read_bytes()

    assert main(["train-scorer", "--dataset", dataset, "--kg", kg_dir, "--out", str(tmp_path / "m.tsv")]) == 0
    link = ["link", "--kg", kg_dir, "--dataset", dataset, "--model", str(tmp_path / "m.tsv")]
    assert main(link + ["--out", str(tmp_path / "p1.jsonl")]) == 0
    assert main(link + ["--out", str(tmp_path / "p2.jsonl")]) == 0
    assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()
    capsys.readouterr()
    passed(6, "synthesize and link outputs byte-identical across reruns")


SOURCE_WITH_DEF = re.compile(r"^\[BOS\]\[ST\](.+)\[ET\] is defined as (.+)\[EOS\]$")
SOURCE_BARE = re.compile(r"^\[BOS\]\[ST\](.+)\[ET\]\[EOS\]$")
TARGET_SYNONYM = re.compile(r"^\[BOS\] (.+) is (.+) \[EOS\]$")
TARGET_GENERIC = re.compile(r"^\[BOS\] (.+) \[EOS\]$")
FINETUNE = re.compile(r"^\[BOS\] (.*) is (.+) \[EOS\]$")


def test_criterion_07_template_conformance():
    toy = parse_kg_dir(TOY_KG_DIR)
    bench, docs = build_linkbench()
    total = 0
    for kg in (toy, bench):
        for mode in ("synonym", "triple_line", "triple_all", "combined"):
            for sample in synthesize_corpus(kg, mode, seed=29):
                src = SOURCE_WITH_DEF.match(sample.source) or SOURCE_BARE.match(sample.source)
                assert src, sample.source
                if sample.kind == "synonym":
                    tgt = TARGET_SYNONYM.match(sample.target)
                else:
                    tgt = TARGET_GENERIC.match(sample.target)
                assert tgt, sample.target
                for body in src.groups() + tgt.groups():
                    assert not any(tok in body for tok in ("[BOS]", "[EOS]", "[ST]", "[ET]"))
                total += 1
    lines = finetune_targets(bench, docs)
    assert lines
    for line in lines:
        match = FINETUNE.match(line)
        assert match, line
    passed(7, f"{total} corpus samples and {len(lines)} fine-tune lines match the template shapes")


def test_criterion_08_edit_distance_oracle():
    rng = random.Random(424242)
    alphabet = "abcdef éλ"
    strings = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(22000)]
    for i in range(10_000):
        a, b = strings[2 * i], strings[2 * i + 1]
        assert edit_distance(a, b) == levenshtein_oracle(a, b)
    for i in range(1000):
        a, b, c = strings[i], strings[i + 7000], strings[i + 14000]
        ab, ba = edit_distance(a, b), edit_distance(b, a)
        assert ab == ba
        assert (ab == 0) == (a == b)
        assert edit_distance(a, c) <= ab + edit_distance(b, c)
    passed(8, "10,000 random pairs match the recursive oracle; metric axioms hold on 1,000 triples")


def test_criterion_09_corpus_cardinality(toy_kg):
    k, cap = 8, 20
    line_samples = list(synthesize_corpus(toy_kg, "triple_line", k=k, seed=1))
    expected_lines = sum(min(k, len(toy_kg.out_triples(e))) for e in toy_kg.entities)
    assert expected_lines == 7  # hand count over the bundled triples.tsv
    assert len(line_samples) == expected_lines

    syn_samples = list(synthesize_corpus(toy_kg, "synonym", cap=cap, seed=1))
    expected_syn = sum(min(cap, len(e.synonyms) * (len(e.synonyms) - 1)) for e in toy_kg.entities.values())
    assert expected_syn == 10  # hand count: 3*2 + 2*1 + 0 + 2*1 + 0
    assert len(syn_samples) == expected_syn
    passed(9, f"triple_line count {len(line_samples)} and synonym count {len(syn_samples)} match hand counts")


def test_criterion_10_ngram_normalization(toy_kg):
    targets = [s.target for s in synthesize_corpus(toy_kg, "combined", seed=8)]
    model = train(targets, 3)
    vocab = sorted(model.vocab)
    rng = random.Random(10)
    for _ in range(100):
        prefix = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        scores = model.score_next(prefix, set(vocab))
        assert sum(math.exp(s) for s in scores.values()) == pytest.approx(1.0, abs=1e-9)
    passed(10, "exp(scores) over the full vocabulary sums to 1 +/- 1e-9 for 100 random contexts")


def test_criterion_11_round_trips(toy_kg, tmp_path):
    write_kg_dir(toy_kg, tmp_path / "kg")
    reparsed = parse_kg_dir(tmp_path / "kg")
    assert reparsed.entities == toy_kg.entities
    assert reparsed.relations == toy_kg.relations
    key = lambda t: (t.head, t.relation, t.tail)
    assert sorted(reparsed.triples, key=key) == sorted(toy_kg.triples, key=key)

    model = train([s.target for s in synthesize_corpus(toy_kg, "combined", seed=2)], 3)
    first = tmp_path / "model.tsv"
    with open(first, "w", encoding="utf-8") as fp:
        save_model(model, fp)
    second = tmp_path / "model2.tsv"
    with open(second, "w", encoding="utf-8") as fp:
        save_model(load_model(first), fp)
    assert first.read_bytes() == second.read_bytes()
    passed(11, "KG TSV round-trip structurally identical; n-gram model file round-trip bit-exact")
