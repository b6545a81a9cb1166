import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY_DATASET, TOY_KG_DIR

from kgel.errors import (
    DanglingEntityError,
    DanglingRelationError,
    DuplicateEntityError,
    DuplicateRelationError,
    KgelError,
    LineError,
    MalformedLineError,
    MissingFileError,
    OverlappingMentionsError,
    SpanOutOfBoundsError,
)
from kgel.ingest import (
    REQUIRED_KG_FILES,
    _lines,
    _split,
    dataset_stats,
    decode_json_line,
    header_line,
    parse_dataset,
    parse_kg_dir,
    read_records,
    write_dataset,
    write_kg_dir,
)
from kgel.kg import Entity, KnowledgeGraph, Relation, Triple, build_kg
from kgel.text import tokenize


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

    @pytest.mark.parametrize(
        "files, error, name, line_no, reason",
        [
            ({"concepts": "C1\ta\nC2\tb\nC1\tc\n"}, DuplicateEntityError, "concepts.tsv", 3, "duplicate concept id 'C1'"),
            ({"concepts": "C1\ta\n", "synonyms": "C1\tx\nC2\ty\n"}, DanglingEntityError, "synonyms.tsv", 2, "unknown concept id 'C2'"),
            ({"concepts": "C1\ta\n", "definitions": "C3\td\n"}, DanglingEntityError, "definitions.tsv", 1, "unknown concept id 'C3'"),
            ({"concepts": "C1\ta\n", "relations": "r\tx\nr\ty\n"}, DuplicateRelationError, "relations.tsv", 2, "duplicate relation id 'r'"),
            (
                {"concepts": "C1\ta\n", "relations": "r\tx\n", "triples": "C1\tr\tC1\nC9\tr\tC1\n"},
                DanglingEntityError, "triples.tsv", 2, "unknown head concept 'C9'",
            ),
            (
                {"concepts": "C1\ta\n", "relations": "r\tx\n", "triples": "C1\tr\tC9\n"},
                DanglingEntityError, "triples.tsv", 1, "unknown tail concept 'C9'",
            ),
            (
                {"concepts": "C1\ta\n", "relations": "r\tx\n", "triples": "C1\tq\tC1\n"},
                DanglingRelationError, "triples.tsv", 1, "unknown relation 'q'",
            ),
        ],
        ids=["duplicate-concept", "synonym-concept", "definition-concept", "duplicate-relation", "head", "tail", "relation"],
    )
    def test_reference_errors_are_line_errors(self, tmp_path, files, error, name, line_no, reason):
        write_kg_files(tmp_path, **files)
        with pytest.raises(error) as exc:
            parse_kg_dir(tmp_path)
        assert isinstance(exc.value, LineError)
        assert exc.value.path == str(tmp_path / name)
        assert exc.value.line_no == line_no
        assert exc.value.reason == reason
        assert str(exc.value) == f"{tmp_path / name}:{line_no}: {reason}"

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


def reference_build_kg(entities, relations, triples):
    """``build_kg`` as ``parse_kg_dir`` once called it: every id and triple
    checked again, then the triples grouped by head and counted per
    relation."""
    entity_map = {}
    for entity in entities:
        if entity.id in entity_map:
            raise DuplicateEntityError(None, None, f"duplicate entity id {entity.id!r}")
        entity_map[entity.id] = entity
    relation_map = {}
    for relation in relations:
        if relation.id in relation_map:
            raise DuplicateRelationError(None, None, f"duplicate relation id {relation.id!r}")
        relation_map[relation.id] = relation
    outgoing = {}
    freq = {rid: 0 for rid in relation_map}
    for triple in triples:
        for eid in (triple.head, triple.tail):
            if eid not in entity_map:
                raise DanglingEntityError(None, None, f"triple {triple} references unknown entity {eid!r}")
        if triple.relation not in relation_map:
            raise DanglingRelationError(None, None, f"triple {triple} references unknown relation {triple.relation!r}")
        outgoing.setdefault(triple.head, []).append(triple)
        freq[triple.relation] += 1
    return KnowledgeGraph(
        entity_map, relation_map, tuple(triples), {eid: tuple(ts) for eid, ts in outgoing.items()}, freq
    )


def reference_parse_kg_dir(path):
    """``parse_kg_dir`` as it was before it assembled the graph in its one
    pass: each file checked line by line into side tables, then the parts
    built with every constructor check and handed to ``build_kg``."""
    base = Path(path)
    if not base.is_dir():
        raise MissingFileError(f"KG directory not found: {base}")
    for name in REQUIRED_KG_FILES:
        if not (base / name).is_file():
            raise MissingFileError(f"missing {name} in {base}")
    names = {}
    src = base / "concepts.tsv"
    for line_no, line in _lines(src):
        cui, name = _split(src, line_no, line, 2)
        if cui in names:
            raise DuplicateEntityError(src, line_no, f"duplicate concept id {cui!r}")
        names[cui] = name
    synonyms = {}
    src = base / "synonyms.tsv"
    for line_no, line in _lines(src):
        cui, synonym = _split(src, line_no, line, 2)
        if cui not in names:
            raise DanglingEntityError(src, line_no, f"unknown concept id {cui!r}")
        synonyms.setdefault(cui, []).append(synonym)
    definitions = {}
    src = base / "definitions.tsv"
    if src.is_file():
        for line_no, line in _lines(src):
            cui, definition = _split(src, line_no, line, 2, greedy_last=True)
            if cui not in names:
                raise DanglingEntityError(src, line_no, f"unknown concept id {cui!r}")
            if cui in definitions:
                raise MalformedLineError(src, line_no, f"duplicate definition for {cui!r}")
            definitions[cui] = definition
    relations = {}
    src = base / "relations.tsv"
    for line_no, line in _lines(src):
        rid, label = _split(src, line_no, line, 2)
        if rid in relations:
            raise DuplicateRelationError(src, line_no, f"duplicate relation id {rid!r}")
        relations[rid] = Relation(rid, label)
    triples = []
    src = base / "triples.tsv"
    for line_no, line in _lines(src):
        head, rid, tail = _split(src, line_no, line, 3)
        if head not in names:
            raise DanglingEntityError(src, line_no, f"unknown head concept {head!r}")
        if tail not in names:
            raise DanglingEntityError(src, line_no, f"unknown tail concept {tail!r}")
        if rid not in relations:
            raise DanglingRelationError(src, line_no, f"unknown relation {rid!r}")
        triples.append(Triple(head, rid, tail))
    entities = [Entity.make(cui, name, synonyms.get(cui, ()), definitions.get(cui)) for cui, name in names.items()]
    return reference_build_kg(entities, relations.values(), triples)


def parse_outcome(parse, path):
    """The graph ``parse`` reads from ``path``, as lists that keep every
    mapping's order, or the first error's class and location."""
    try:
        kg = parse(path)
    except LineError as exc:
        return type(exc), exc.path, exc.line_no, exc.reason
    except MissingFileError as exc:
        return type(exc), str(exc)
    return (
        list(kg.entities.items()),
        list(kg.relations.items()),
        kg.triples,
        list(kg.outgoing.items()),
        list(kg.relation_freq.items()),
    )


# A valid graph over small id pools, then up to three faults: a field
# replaced by an empty one, by one with a tab (a field too many), a "\r" or
# "\n" (the line ends early), or by an id that is unknown or already taken,
# and a line repeated. The definitions file may be missing. No surface is
# whitespace alone, which only the one pass rejects.
SURFACES = st.sampled_from(["a", "A", "b c", "B  C", "d e"])
FAULTS = st.sampled_from(["", "x\ty", "x\ry", "x\ny", "C1", "C9", "r", "q"])


@st.composite
def kg_files(draw):
    cuis = draw(st.lists(st.sampled_from(["C1", "C2", "C3", "C4"]), min_size=1, unique=True))
    rids = draw(st.lists(st.sampled_from(["r", "s", "t"]), min_size=1, unique=True))
    cui = st.sampled_from(cuis)
    rows = {
        "concepts.tsv": [[c, draw(SURFACES)] for c in cuis],
        "synonyms.tsv": draw(st.lists(st.tuples(cui, SURFACES).map(list), max_size=4)),
        "definitions.tsv": [[c, draw(st.sampled_from(["def", "two\tparts"]))] for c in draw(st.lists(cui, unique=True))],
        "relations.tsv": [[r, draw(SURFACES)] for r in rids],
        "triples.tsv": draw(st.lists(st.tuples(cui, st.sampled_from(rids), cui).map(list), max_size=6)),
    }
    for _ in range(draw(st.integers(0, 3))):
        lines = rows[draw(st.sampled_from(sorted(rows)))]
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
            else:
                lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(FAULTS)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    files = {name: "".join("\t".join(fields) + end for fields in lines) for name, lines in rows.items()}
    if draw(st.booleans()):
        files["definitions.tsv"] = None
    return files


class TestOnePass:
    """``parse_kg_dir`` checks and assembles the graph in one pass."""

    @settings(max_examples=400, deadline=None)
    @given(files=kg_files())
    def test_same_graph_or_first_error_as_the_reference(self, tmp_path_factory, files):
        path = tmp_path_factory.mktemp("kg")
        for name, text in files.items():
            if text is not None:
                (path / name).write_bytes(text.encode("utf-8"))
        expected = parse_outcome(reference_parse_kg_dir, path)
        assert parse_outcome(parse_kg_dir, path) == expected
        if isinstance(expected[0], list):
            kg = reference_parse_kg_dir(path)
            rebuilt = build_kg(kg.entities.values(), kg.relations.values(), kg.triples)
            assert parse_outcome(lambda _: rebuilt, path) == expected

    @pytest.mark.parametrize("end", ["\r", "\n", "\r\n"])
    def test_line_end_inside_a_definition_splits_the_line(self, tmp_path, end):
        """A definition never holds a line end: the reader ends the line
        there, and the rest is the next line, checked on its own."""
        write_kg_files(tmp_path, concepts="C1\ta\nC2\tb\n", definitions=f"C1\tfirst{end}second half\n")
        with pytest.raises(MalformedLineError) as exc:
            parse_kg_dir(tmp_path)
        assert (exc.value.path, exc.value.line_no) == (str(tmp_path / "definitions.tsv"), 2)
        assert exc.value.reason == "expected 2 tab-separated fields, got 1"
        write_kg_files(tmp_path, concepts="C1\ta\nC2\tb\n", definitions=f"C1\tfirst{end}C2\tsecond\n")
        kg = parse_kg_dir(tmp_path)
        assert (kg.entities["C1"].definition, kg.entities["C2"].definition) == ("first", "second")

    def test_isspace_is_exactly_no_tokens(self):
        """The reader rejects a surface with ``str.isspace``, which costs no
        split: for every character, it holds exactly when ``tokenize`` finds
        no token, so it does for every non-empty field."""
        differ = [
            hex(code) for code in range(sys.maxunicode + 1)
            if not 0xD800 <= code < 0xE000 and chr(code).isspace() != (tokenize(chr(code)) == [])
        ]
        assert differ == []

    def test_peak_stays_near_what_the_graph_keeps(self, tmp_path):
        """Parsing peaks at most 30% above the graph it returns: the side
        tables and per-head triple lists are freed as the graph is built,
        not held beside it."""
        rng = random.Random(22)
        words = [f"w{i}" for i in range(3000)]
        n = 5000

        def surface():
            return " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))

        write_kg_files(
            tmp_path,
            concepts="".join(f"C{i}\t{surface()}\n" for i in range(n)),
            synonyms="".join(f"C{rng.randrange(n)}\t{surface()}\n" for _ in range(n)),
            definitions="".join(f"C{i}\tthe {surface()} of {surface()}\n" for i in range(n)),
            relations="".join(f"r{i}\trelation {i}\n" for i in range(40)),
            triples="".join(f"C{rng.randrange(n)}\tr{rng.randrange(40)}\tC{rng.randrange(n)}\n" for _ in range(n)),
        )
        tracemalloc.start()
        try:
            kg = parse_kg_dir(tmp_path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kg.triples) == n
        assert peak <= 1.3 * retained


def doc_line(doc_id="d1", text="ab cd", mentions=None):
    if mentions is None:
        mentions = [{"start": 0, "end": 2, "surface": "ab", "gold": "C1"}]
    return json.dumps({"doc_id": doc_id, "text": text, "mentions": mentions})


def loads_reference(text):
    """What ``decode_json_line`` returned or raised when it called
    ``json.loads``: ("ok", repr of the value) or ("error", message)."""
    try:
        return "ok", repr(json.loads(text))
    except json.JSONDecodeError as exc:
        return "error", f"invalid JSON: {exc.msg}"
    except RecursionError:
        return "error", "invalid JSON: nested too deeply"
    except ValueError as exc:
        return "error", f"invalid JSON: {exc}"


def decoded(text):
    try:
        return "ok", repr(decode_json_line(text))
    except ValueError as exc:
        return "error", str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
).map(json.dumps)
# json.loads skips only " \t\n\r" around a value; the others are whitespace
# to str.strip but not to JSON.
SPACE = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\u2028", "\ufeff"]), max_size=3)
JSON_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    SPACE,
    JSON_VALUES | st.text(max_size=8) | st.sampled_from(["NaN", "-Infinity", "1e999", "[1,]", '{"a" 1}', "tru"]),
    SPACE,
    st.sampled_from(["", "x", "1", "{}", ",", '"']),
).map("".join)


class TestDecodeJsonLine:
    @settings(max_examples=500, deadline=None)
    @given(text=JSON_TEXT)
    def test_same_as_json_loads(self, text):
        assert decoded(text) == loads_reference(text)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, "9" * 5_000, '{"a": -' + "1" * 5_000 + "}", "\ufeff{}", " \ufeff{}",
         "\x0b1", "1\xa0", "{} {}", "", " \t\r\n"],
        ids=["deep", "long_int", "long_negative_int", "bom", "bom_after_space",
             "vertical_tab", "nbsp", "extra_data", "empty", "only_whitespace"],
    )
    def test_edge_cases_same_as_json_loads(self, text):
        assert decoded(text) == loads_reference(text)
        assert decoded(text)[0] == "error"


class TestReadRecords:
    def test_header_skipped_only_as_first_record(self, tmp_path):
        path = tmp_path / "a.jsonl"
        header = header_line("kgel-test-v1", {"seed": 1})
        path.write_text("\n" + header + '{"a": 1}\n\r\n' + header, encoding="utf-8")
        assert list(read_records(path, MalformedLineError)) == [
            (3, {"a": 1}),
            (5, {"kgel": {"config": {"seed": 1}, "format": "kgel-test-v1"}}),
        ]

    def test_header_line_bytes(self):
        assert header_line("kgel-test-v1", {"z": "é", "a": 1}) == (
            '{"kgel": {"config": {"a": 1, "z": "\\u00e9"}, "format": "kgel-test-v1"}}\n'
        )

    @pytest.mark.parametrize(
        "raw, line_no, reason",
        [
            (b"{}\n\n{\n", 3, "invalid JSON: Expecting property name enclosed in double quotes"),
            (b"{}\n\n[\xff]\n", 3, "invalid UTF-8 byte 0xff at column 2"),
        ],
        ids=["bad_json", "bad_utf8"],
    )
    def test_errors_raise_the_given_class_at_path_and_line(self, tmp_path, raw, line_no, reason):
        class Rejected(LineError):
            pass

        path = tmp_path / "a.jsonl"
        path.write_bytes(raw)
        with pytest.raises(Rejected) as info:
            list(read_records(path, Rejected))
        assert (info.value.path, info.value.line_no, info.value.reason) == (str(path), line_no, reason)


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

    def test_repeated_doc_id_rejected_at_the_later_line(self, tmp_path):
        path = self.write(tmp_path, doc_line("d1"), doc_line("d2"), doc_line("d1", text="ab"))
        with pytest.raises(MalformedLineError) as info:
            parse_dataset(path)
        assert (info.value.line_no, info.value.reason) == (3, "repeated doc_id 'd1'")

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

    @pytest.mark.parametrize("bad", ["[" * 100_000, '{"doc_id": ' + "9" * 5_000 + "}"], ids=["deep", "long_int"])
    def test_undecodable_json_reports_line(self, tmp_path, bad):
        with pytest.raises(MalformedLineError, match=r"data\.jsonl:2: invalid JSON"):
            parse_dataset(self.write(tmp_path, doc_line(), bad))

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
