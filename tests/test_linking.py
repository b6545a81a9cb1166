import io

import pytest
from hypothesis import given, settings, strategies as st

from kgel.ingest import Mention
from kgel.kg import Entity, build_kg
from kgel.linking import (
    Candidate,
    LinkedPrediction,
    _resolve_owner,
    build_lookup,
    link_dataset,
    link_mention,
    read_predictions,
    write_predictions,
)
from kgel.errors import KgelError, LineError, MalformedPredictionsError
from kgel.ngram import condition_on_mention, finetune_targets, train
from kgel.similarity import similarity
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


def reference_owner(kg, mention_surface, owners):
    """The resolution rule by its definition: score every synonym of every
    owner; the highest similarity wins, then the smallest id."""
    return min(owners, key=lambda e: (-max(similarity(mention_surface, s) for s in kg.entities[e].synonyms), e))


# Few characters and short strings, so that synonyms of equal length (equal
# length bounds) are common; astral and combining characters, upper case and
# runs of spaces that normalization folds or collapses.
RESOLVER_CHARS = ["a", "b", "B", "é", "e", "\u0301", "\U0001F600", "\U0001D49C", " ", "  "]
resolver_text = st.lists(st.sampled_from(RESOLVER_CHARS), max_size=5).map("".join)
resolver_synonym = st.one_of(st.sampled_from(["ab", "ba", "bb", "AB", " ", "e\u0301b"]), resolver_text).filter(bool)


@st.composite
def ambiguous_resolutions(draw):
    """A KG whose entities all own one surface, in case and whitespace
    variants of their own, and a mention to resolve it for."""
    ids = draw(st.lists(st.sampled_from(["A", "B", "C1", "C10", "C2"]), min_size=2, max_size=5, unique=True))
    shared = draw(resolver_synonym)
    entities = []
    for entity_id in ids:
        own = draw(st.sampled_from([shared, shared.upper(), f" {shared} ", shared.replace(" ", "  ")]))
        entities.append(Entity.make(entity_id, own, draw(st.lists(resolver_synonym, max_size=4))))
    kg = build_kg(entities, [], [])
    synonyms = [s for e in entities for s in e.synonyms]
    mention_surface = draw(st.one_of(st.sampled_from(["", " ", " \t "] + synonyms), resolver_text))
    return kg, mention_surface, tuple(sorted(ids))


class TestResolveOwner:
    @settings(max_examples=400, deadline=None)
    @given(ambiguous_resolutions())
    def test_equals_reference(self, case):
        kg, mention_surface, owners = case
        assert _resolve_owner(kg, mention_surface, owners) == reference_owner(kg, mention_surface, owners)


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

    @pytest.mark.parametrize(
        "bad",
        [
            "[" * 100_000,
            '{"mention_index": ' + "9" * 5_000 + "}",
            '{"doc_id": "d", "mention_index": Infinity, "gold": "C1", "candidates": []}',
            '{"doc_id": "d", "mention_index": 0, "gold": "C1", "candidates": '
            '[{"surface": "a", "entity": "C1", "score": 1' + "0" * 400 + "}]}",
        ],
        ids=["deep", "long_int", "infinite_index", "score_over_float_range"],
    )
    def test_unconvertible_line_reports_line(self, tmp_path, bad):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"kgel": {}}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(MalformedPredictionsError, match=r"preds\.jsonl:2: "):
            read_predictions(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("doc_id", "3"),
            ("gold", '["C1"]'),
            ("surface", "5"),
            ("entity", "5"),
            ("mention_index", "1.7"),
            ("mention_index", "true"),
            ("mention_index", '"0"'),
            ("score", "true"),
            ("score", "NaN"),
            ("score", "-Infinity"),
            ("score", '"0.5"'),
            ("candidates", "{}"),
            ("mention_index", "-3"),
            ("candidates", '[{"surface": "a", "entity": "C1", "score": -0.5, "extra": 1}]'),
        ],
        ids=[
            "int_doc_id", "list_gold", "int_surface", "int_entity", "float_index", "bool_index", "string_index",
            "bool_score", "nan_score", "infinite_score", "string_score", "candidates_not_a_list",
            "negative_index", "extra_candidate_key",
        ],
    )
    def test_field_of_wrong_type_reports_line(self, tmp_path, field, value):
        fields = {"doc_id": '"d"', "mention_index": "0", "gold": '"C1"', "surface": '"a"', "entity": '"C1"',
                  "score": "-0.5", field: value}
        candidates = fields.get("candidates") or (
            '[{"surface": %(surface)s, "entity": %(entity)s, "score": %(score)s}]' % fields
        )
        line = '{"doc_id": %s, "mention_index": %s, "gold": %s, "candidates": %s}' % (
            fields["doc_id"], fields["mention_index"], fields["gold"], candidates,
        )
        path = tmp_path / "preds.jsonl"
        path.write_text('{"kgel": {}}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedPredictionsError, match=r"preds\.jsonl:2: "):
            read_predictions(path)

    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (['{"kgel": {}}', "{record}", '{"kgel": 7, "doc_id": "zz", "mention_index": 0, "gold": "C1", '
              '"candidates": []}'], 3),
            (['{"kgel": {}}', "{record}", '{"kgel": {}}'], 3),
            (["{record}", '{"kgel": {}}'], 2),
            (['{"kgel": 7}', "{record}"], 1),
            (['{"kgel": {}, "doc_id": "d"}', "{record}"], 1),
        ],
        ids=["kgel_key_mid_file", "second_header", "header_after_record", "header_not_object", "header_extra_key"],
    )
    def test_header_only_as_first_record(self, tmp_path, lines, line_no):
        record = '{"doc_id": "d", "mention_index": 0, "gold": "C1", "candidates": []}'
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(line.replace("{record}", record) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(MalformedPredictionsError, match=rf"preds\.jsonl:{line_no}: unexpected record keys") as info:
            read_predictions(path)
        assert isinstance(info.value, LineError)
        assert (info.value.path, info.value.line_no, info.value.reason) == (str(path), line_no, "unexpected record keys")

    def test_integer_score_is_read_as_float(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"doc_id": "d", "mention_index": 0, "gold": "C1", '
            '"candidates": [{"surface": "a", "entity": "C1", "score": -2}]}\n',
            encoding="utf-8",
        )
        (prediction,) = read_predictions(path)
        assert prediction.candidates == (Candidate(surface="a", entity="C1", score=-2.0),)
        assert type(prediction.candidates[0].score) is float

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
