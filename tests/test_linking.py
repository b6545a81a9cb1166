import io

import pytest
from hypothesis import given, settings, strategies as st

from kgel.ingest import Mention
from kgel.kg import Entity, build_kg
from kgel.linking import (
    LinkedPrediction,
    build_lookup,
    link_dataset,
    link_mention,
    read_predictions,
    write_predictions,
)
from kgel.errors import KgelError, MalformedPredictionsError
from kgel.ngram import condition_on_mention, finetune_targets, train
from kgel.trie import TokenTrie, UniformScorer, build_trie
from kgel.text import normalize


def mention(surface, gold="C1"):
    return Mention(start=0, end=len(surface.encode()), surface=surface, gold=gold)


def uniform_factory(_surface):
    return UniformScorer()


class TestBuildLookup:
    def test_unambiguous_fixture(self, toy_kg):
        table = build_lookup(toy_kg)
        assert table.ambiguous_count == 0
        for entity in toy_kg.entities.values():
            for synonym in entity.synonyms:
                assert table.owners(synonym) == (entity.id,)

    def test_shared_surface(self):
        kg = build_kg([Entity.make("A", "aspirin"), Entity.make("B", "Aspirin ")], [], [])
        table = build_lookup(kg)
        assert table.owners("aspirin") == ("A", "B")
        assert table.ambiguous_count == 1
        assert table.is_ambiguous("ASPIRIN")

    def test_empty_kg(self):
        table = build_lookup(build_kg([], [], []))
        assert len(table) == 0
        assert table.owners("anything") == ()

    def test_entries_equal_trie_terminal_payloads(self, linkbench):
        # link_mention reads owners from the trie, evaluate from the table
        kg, _ = linkbench
        kg = build_kg(
            [*kg.entities.values(), Entity.make("Z1", "Shared  Name"), Entity.make("Z0", "shared name")], [], []
        )
        trie = build_trie(kg)
        table = build_lookup(kg)
        assert table.ambiguous_count == 1
        assert {s: trie.entities_at(s.split()) for s in table.entries} == table.entries
        assert len(trie) == len(table)


class TestLinkMention:
    def test_single_surface_trie_always_wins(self, toy_kg):
        kg = build_kg([Entity.make("A", "lonely surface")], [], [])
        trie = build_trie(kg)
        for surface in ("anything", "lonely", ""):
            prediction = link_mention(kg, trie, uniform_factory, mention(surface, gold="A"))
            assert prediction.candidates[0].surface == "lonely surface"
            assert prediction.candidates[0].entity == "A"

    def test_exact_match_trained_scorer(self, toy_kg, toy_docs):
        model = train(finetune_targets(toy_kg, toy_docs), 3)
        trie = build_trie(toy_kg)
        prediction = link_mention(
            toy_kg, trie, lambda s: condition_on_mention(model, s),
            mention("ibuprofen", gold="C0005"), doc_id="d2", mention_index=0,
        )
        assert prediction.candidates[0].entity == "C0005"
        assert prediction.doc_id == "d2"
        assert prediction.gold == "C0005"

    def test_ambiguous_surface_resolves_by_similarity(self):
        kg = build_kg(
            [
                Entity.make("B", "mi severity", ["shared term"]),
                Entity.make("A", "MI", ["shared term"]),
            ],
            [],
            [],
        )
        trie = TokenTrie.from_surfaces({"shared term": ["A", "B"]})
        prediction = link_mention(kg, trie, uniform_factory, mention("MI", gold="A"))
        assert prediction.candidates[0].surface == "shared term"
        assert prediction.candidates[0].entity == "A"

    def test_ambiguity_tie_breaks_to_smallest_id(self):
        kg = build_kg([Entity.make("B", "twin"), Entity.make("A", "Twin")], [], [])
        trie = build_trie(kg)
        prediction = link_mention(kg, trie, uniform_factory, mention("totally else", gold="A"))
        assert prediction.candidates[0].entity == "A"

    def test_top_k_truncation(self, toy_kg):
        trie = build_trie(toy_kg)
        prediction = link_mention(
            toy_kg, trie, uniform_factory, mention("fever", gold="C0004"),
            beam_width=10, top_k=3,
        )
        assert len(prediction.candidates) == 3


class TestLinkDataset:
    def test_empty(self, toy_kg):
        assert link_dataset(toy_kg, [], uniform_factory) == []

    def test_cardinality_and_order(self, toy_kg, toy_docs):
        predictions = link_dataset(toy_kg, toy_docs, uniform_factory)
        assert len(predictions) == 10
        keys = [(p.doc_id, p.mention_index) for p in predictions]
        expected = [(d.doc_id, i) for d in toy_docs for i in range(len(d.mentions))]
        assert keys == expected

    def test_rerun_is_byte_identical(self, toy_kg, toy_docs):
        model = train(finetune_targets(toy_kg, toy_docs), 3)
        factory = lambda s: condition_on_mention(model, s)

        def render():
            buffer = io.StringIO()
            write_predictions(link_dataset(toy_kg, toy_docs, factory), buffer)
            return buffer.getvalue()

        assert render() == render()

    def test_failures_become_empty_candidates(self, toy_docs):
        # an empty KG gives an empty trie: every mention fails to decode but
        # the batch still completes
        kg = build_kg([], [], [])
        predictions = link_dataset(kg, toy_docs, uniform_factory)
        assert len(predictions) == 10
        assert all(p.candidates == () for p in predictions)
        assert [p.gold for p in predictions][:3] == ["C0001", "C0002", "C0004"]

    def test_candidates_are_registered_synonyms(self, toy_kg, toy_docs):
        table = build_lookup(toy_kg)
        all_surfaces = {normalize(s) for e in toy_kg.entities.values() for s in e.synonyms}
        for prediction in link_dataset(toy_kg, toy_docs, uniform_factory):
            for candidate in prediction.candidates:
                assert candidate.surface in all_surfaces
                assert candidate.entity in table.owners(candidate.surface)

    def test_exact_match_dominance(self, linkbench):
        kg, docs = linkbench
        model = train(finetune_targets(kg, docs), 3)
        predictions = link_dataset(kg, docs, lambda s: condition_on_mention(model, s))
        assert all(p.candidates[0].entity == p.gold for p in predictions)


class TestPredictionsIO:
    def test_round_trip(self, toy_kg, toy_docs, tmp_path):
        predictions = link_dataset(toy_kg, toy_docs, uniform_factory)
        path = tmp_path / "preds.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            write_predictions(predictions, fp, config={"command": "link"})
        assert read_predictions(path) == predictions

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(MalformedPredictionsError):
            read_predictions(path)

    def test_unexpected_keys(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"doc_id": "d", "gold": "C1"}\n', encoding="utf-8")
        with pytest.raises(MalformedPredictionsError):
            read_predictions(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b'{"kgel": {}}\n{"doc_id": "d\xff", "gold": "C1"}\n')
        with pytest.raises(MalformedPredictionsError, match=r"preds\.jsonl:2: invalid UTF-8 byte 0xff"):
            read_predictions(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_kgel_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
        path.write_bytes(data)
        try:
            read_predictions(path)
        except KgelError:
            pass
