import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY_DATASET, TOY_KG_DIR

from kgel.errors import (
    DanglingEntityError,
    KgelError,
    MalformedLineError,
    MissingFileError,
    OverlappingMentionsError,
    SpanOutOfBoundsError,
)
from kgel.ingest import dataset_stats, parse_dataset, parse_kg_dir, write_dataset, write_kg_dir
from kgel.kg import Entity, Relation, Triple, build_kg


def write_kg_files(path, concepts="", synonyms="", relations="", triples="", definitions=None):
    (path / "concepts.tsv").write_text(concepts, encoding="utf-8")
    (path / "synonyms.tsv").write_text(synonyms, encoding="utf-8")
    (path / "relations.tsv").write_text(relations, encoding="utf-8")
    (path / "triples.tsv").write_text(triples, encoding="utf-8")
    if definitions is not None:
        (path / "definitions.tsv").write_text(definitions, encoding="utf-8")


# Two valid lines per KG file.
VALID_KG_BYTES = {
    "concepts.tsv": b"C1\ta\nC2\tb\n",
    "synonyms.tsv": b"C1\tx\nC2\ty\n",
    "definitions.tsv": b"C1\td\nC2\te\n",
    "relations.tsv": b"r\tx\ns\ty\n",
    "triples.tsv": b"C1\tr\tC2\nC2\ts\tC1\n",
}


def write_kg_bytes(path, overrides):
    for name, data in {**VALID_KG_BYTES, **overrides}.items():
        (path / name).write_bytes(data)


class TestParseKgDir:
    def test_toy_fixture_has_five_entities(self):
        kg = parse_kg_dir(TOY_KG_DIR)
        assert len(kg.entities) == 5
        assert kg.entities["C0001"].synonyms == ("aspirin", "acetylsalicylic acid", "asa")
        assert kg.entities["C0003"].definition is None

    def test_missing_file(self, tmp_path):
        (tmp_path / "concepts.tsv").write_text("C1\tx\n")
        with pytest.raises(MissingFileError):
            parse_kg_dir(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFileError):
            parse_kg_dir(tmp_path / "nope")

    def test_wrong_field_count(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\ta\textra\n")
        with pytest.raises(MalformedLineError) as exc:
            parse_kg_dir(tmp_path)
        assert exc.value.line_no == 1

    def test_empty_field(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\t\n")
        with pytest.raises(MalformedLineError):
            parse_kg_dir(tmp_path)

    def test_empty_triples_file_is_valid(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\talpha\n")
        kg = parse_kg_dir(tmp_path)
        assert len(kg.triples) == 0
        assert len(kg.entities) == 1

    def test_synonym_for_unknown_concept(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\ta\n", synonyms="C2\tb\n")
        with pytest.raises(DanglingEntityError) as exc:
            parse_kg_dir(tmp_path)
        assert "synonyms.tsv:1" in str(exc.value)

    def test_dangling_triple_reports_file_and_line(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\ta\n", relations="r\tx\n", triples="C1\tr\tC9\n")
        with pytest.raises(DanglingEntityError) as exc:
            parse_kg_dir(tmp_path)
        assert "triples.tsv:1" in str(exc.value)

    def test_definition_may_contain_tabs(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\ta\n", definitions="C1\tpart one\tpart two\n")
        kg = parse_kg_dir(tmp_path)
        assert kg.entities["C1"].definition == "part one\tpart two"

    def test_duplicate_definition_rejected(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\ta\n", definitions="C1\tx\nC1\ty\n")
        with pytest.raises(MalformedLineError):
            parse_kg_dir(tmp_path)

    def test_invalid_concept_reports_its_line(self, tmp_path, monkeypatch):
        # No TSV line reaches a rejection in Entity.make (the reader already
        # splits on every character it refuses), so inject one.
        make = Entity.make

        def failing(cls, id, *args, **kwargs):
            if id == "C2":
                raise ValueError("rejected")
            return make(id, *args, **kwargs)

        monkeypatch.setattr(Entity, "make", classmethod(failing))
        write_kg_files(tmp_path, concepts="C1\ta\nC2\tb\nC3\tc\n")
        with pytest.raises(MalformedLineError) as exc:
            parse_kg_dir(tmp_path)
        assert exc.value.line_no == 2
        assert "concepts.tsv:2: invalid concept 'C2'" in str(exc.value)

    @pytest.mark.parametrize("name", sorted(VALID_KG_BYTES))
    def test_invalid_utf8_reports_file_and_line(self, tmp_path, name):
        first, second = VALID_KG_BYTES[name].splitlines()
        write_kg_bytes(tmp_path, {name: first + b"\n" + second + b"\xff\n"})
        with pytest.raises(MalformedLineError) as exc:
            parse_kg_dir(tmp_path)
        assert exc.value.path.endswith(name)
        assert exc.value.line_no == 2
        assert "invalid UTF-8 byte 0xff" in exc.value.reason

    def test_invalid_utf8_line_counts_every_line_ending(self, tmp_path):
        write_kg_bytes(tmp_path, {"concepts.tsv": b"C1\ta\rC2\tb\r\nC3\tc\nC4\t\xe2\x82\n"})
        with pytest.raises(MalformedLineError) as exc:
            parse_kg_dir(tmp_path)
        assert exc.value.line_no == 4

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(VALID_KG_BYTES)), data=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_kgel_errors(self, tmp_path_factory, name, data):
        path = tmp_path_factory.mktemp("kg")
        write_kg_bytes(path, {name: data})
        try:
            parse_kg_dir(path)
        except KgelError:
            pass

    def test_repeated_preferred_name_in_synonyms_is_dropped(self, tmp_path):
        write_kg_files(tmp_path, concepts="C1\tAlpha\n", synonyms="C1\talpha\nC1\tbeta\n")
        kg = parse_kg_dir(tmp_path)
        assert kg.entities["C1"].synonyms == ("Alpha", "beta")


class TestKgRoundTrip:
    def kg_equal(self, a, b):
        assert a.entities == b.entities
        assert a.relations == b.relations
        key = lambda t: (t.head, t.relation, t.tail)
        assert sorted(a.triples, key=key) == sorted(b.triples, key=key)

    def test_toy_round_trip(self, toy_kg, tmp_path):
        write_kg_dir(toy_kg, tmp_path / "kg")
        self.kg_equal(parse_kg_dir(tmp_path / "kg"), toy_kg)

    def test_round_trip_with_tabs_and_unicode(self, tmp_path):
        kg = build_kg(
            [
                Entity.make("C1", "naïve café", ["näive"], definition="one\ttab"),
                Entity.make("C2", "plain"),
            ],
            [Relation("r", "relates to")],
            [Triple("C1", "r", "C2"), Triple("C2", "r", "C2")],
        )
        write_kg_dir(kg, tmp_path / "kg")
        self.kg_equal(parse_kg_dir(tmp_path / "kg"), kg)


def doc_line(doc_id="d1", text="ab cd", mentions=None):
    if mentions is None:
        mentions = [{"start": 0, "end": 2, "surface": "ab", "gold": "C1"}]
    return json.dumps({"doc_id": doc_id, "text": text, "mentions": mentions})


class TestParseDataset:
    def write(self, tmp_path, *lines):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_minimal_record(self, tmp_path):
        docs = parse_dataset(self.write(tmp_path, doc_line()))
        assert len(docs) == 1
        assert docs[0].mentions[0].surface == "ab"
        assert docs[0].mentions[0].gold == "C1"

    def test_toy_fixture(self):
        docs = parse_dataset(TOY_DATASET)
        assert len(docs) == 4
        assert sum(len(d.mentions) for d in docs) == 10

    def test_span_out_of_bounds(self, tmp_path):
        path = self.write(tmp_path, doc_line(mentions=[{"start": 0, "end": 9, "surface": "x", "gold": "C1"}]))
        with pytest.raises(SpanOutOfBoundsError):
            parse_dataset(path)

    def test_inverted_span(self, tmp_path):
        path = self.write(tmp_path, doc_line(mentions=[{"start": 2, "end": 2, "surface": "", "gold": "C1"}]))
        with pytest.raises(SpanOutOfBoundsError):
            parse_dataset(path)

    def test_byte_offsets_on_multibyte_text(self, tmp_path):
        # "é" is two bytes; the mention starts after it at byte 3
        line = json.dumps(
            {"doc_id": "d1", "text": "é ab", "mentions": [{"start": 3, "end": 5, "surface": "ab", "gold": "C1"}]}
        )
        docs = parse_dataset(self.write(tmp_path, line))
        assert docs[0].mentions[0].surface == "ab"

    def test_offset_not_on_character_boundary(self, tmp_path):
        line = json.dumps(
            {"doc_id": "d1", "text": "é ab", "mentions": [{"start": 1, "end": 5, "surface": " ab", "gold": "C1"}]}
        )
        with pytest.raises(SpanOutOfBoundsError):
            parse_dataset(self.write(tmp_path, line))

    def test_surface_mismatch(self, tmp_path):
        path = self.write(tmp_path, doc_line(mentions=[{"start": 0, "end": 2, "surface": "xx", "gold": "C1"}]))
        with pytest.raises(MalformedLineError):
            parse_dataset(path)

    def test_overlapping_mentions(self, tmp_path):
        path = self.write(
            tmp_path,
            doc_line(
                text="abcdef",
                mentions=[
                    {"start": 0, "end": 4, "surface": "abcd", "gold": "C1"},
                    {"start": 2, "end": 6, "surface": "cdef", "gold": "C2"},
                ],
            ),
        )
        with pytest.raises(OverlappingMentionsError):
            parse_dataset(path)

    def test_unknown_key_rejected(self, tmp_path):
        record = json.loads(doc_line())
        record["extra"] = 1
        with pytest.raises(MalformedLineError):
            parse_dataset(self.write(tmp_path, json.dumps(record)))

    def test_unknown_mention_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            doc_line(mentions=[{"start": 0, "end": 2, "surface": "ab", "gold": "C1", "note": "x"}]),
        )
        with pytest.raises(MalformedLineError):
            parse_dataset(path)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(MalformedLineError) as exc:
            parse_dataset(self.write(tmp_path, "{not json"))
        assert exc.value.line_no == 1

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes((doc_line() + "\n" + doc_line("d2") + "\n").encode("utf-8") + b'{"doc_id": "\xc0\xaf"}\n')
        with pytest.raises(MalformedLineError) as exc:
            parse_dataset(path)
        assert exc.value.line_no == 3
        assert "invalid UTF-8" in exc.value.reason

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.booleans(), data=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_kgel_errors(self, tmp_path_factory, prefix, data):
        path = tmp_path_factory.mktemp("data") / "data.jsonl"
        path.write_bytes(((doc_line() + "\n").encode("utf-8") if prefix else b"") + data)
        try:
            parse_dataset(path)
        except KgelError:
            pass

    def test_boolean_offset_rejected(self, tmp_path):
        path = self.write(tmp_path, doc_line(mentions=[{"start": True, "end": 2, "surface": "ab", "gold": "C1"}]))
        with pytest.raises(MalformedLineError):
            parse_dataset(path)

    def test_round_trip(self, toy_docs, tmp_path):
        out = tmp_path / "again.jsonl"
        with open(out, "w", encoding="utf-8") as fp:
            write_dataset(toy_docs, fp)
        assert parse_dataset(out) == toy_docs


class TestDatasetStats:
    def test_toy_fixture(self, toy_docs):
        stats = dataset_stats(toy_docs)
        assert stats.docs == 4
        assert stats.mentions == 10
        assert stats.entities == 6

    def test_empty(self):
        stats = dataset_stats([])
        assert (stats.docs, stats.mentions, stats.entities) == (0, 0, 0)

    @given(st.lists(st.lists(st.sampled_from(["C1", "C2", "C3"]), max_size=4), max_size=4))
    def test_counts_add_up(self, gold_lists):
        from conftest import make_documents

        docs = make_documents([[(f"m{i}", gold) for i, gold in enumerate(golds)] for golds in gold_lists])
        stats = dataset_stats(docs)
        assert stats.docs == len(gold_lists)
        assert stats.mentions == sum(len(g) for g in gold_lists)
        assert stats.entities == len({g for golds in gold_lists for g in golds})
