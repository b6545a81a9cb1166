"""Parsers for the on-disk formats.

KG directory layout (UTF-8, tab-separated, no headers):

* ``concepts.tsv``     ``cui<TAB>preferred_name``
* ``synonyms.tsv``     ``cui<TAB>synonym`` (preferred name implied, not repeated)
* ``definitions.tsv``  ``cui<TAB>definition`` (optional file; definition may contain tabs)
* ``relations.tsv``    ``relation_id<TAB>label``
* ``triples.tsv``      ``head_cui<TAB>relation_id<TAB>tail_cui``

Datasets are JSON lines, one document per line:

    {"doc_id": "d1", "text": "ab cd",
     "mentions": [{"start": 0, "end": 2, "surface": "ab", "gold": "C1"}]}

Mention offsets are byte offsets into the UTF-8 encoding of ``text`` and must
fall on character boundaries. Unknown keys are rejected. Files are read line
by line, so memory stays proportional to the parsed output.

Corpus and predictions files are JSON lines behind an optional header record:
:func:`header_line` writes it and :func:`read_records` reads both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import (
    DanglingEntityError,
    DanglingRelationError,
    DuplicateEntityError,
    DuplicateRelationError,
    LineError,
    MalformedLineError,
    MissingFileError,
    OverlappingMentionsError,
    SpanOutOfBoundsError,
)
from .kg import Entity, KnowledgeGraph, Relation, Triple, _assemble, _unchecked, _unique_synonyms

REQUIRED_KG_FILES = ("concepts.tsv", "synonyms.tsv", "relations.tsv", "triples.tsv")
KG_TSV_FORMAT = "kgel-kg-tsv-v1"
DATASET_FORMAT = "kgel-dataset-jsonl-v1"


@dataclass(frozen=True)
class Mention:
    """A marked span. ``start``/``end`` are byte offsets, end exclusive."""

    start: int
    end: int
    surface: str
    gold: str


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    mentions: tuple[Mention, ...]


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8", newline="") as fp:
        try:
            for line_no, raw in enumerate(fp, start=1):
                yield line_no, raw.rstrip("\r\n")
        except UnicodeDecodeError:
            raise MalformedLineError(path, *locate_invalid_utf8(path)) from None


def locate_invalid_utf8(path: str | Path) -> tuple[int, str]:
    """Line number and description of the first byte in ``path`` that is not
    valid UTF-8, with lines counted as text-mode reading counts them. Readers
    call this after a strict decode has failed, so valid files pay nothing."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fp:
        for line_no, line in enumerate(fp, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = line[exc.start].encode("utf-8", "surrogateescape")[0]
                return line_no, f"invalid UTF-8 byte 0x{byte:02x} at column {exc.start + 1}"
    return 0, "invalid UTF-8"


# json.loads goes through JSONDecoder.decode, which adds two regex matches
# per line around the scanner that raw_decode calls directly.
_raw_decode = json.JSONDecoder().raw_decode
# The only characters json.loads skips around a value.
_JSON_WHITESPACE = " \t\n\r"


def decode_json_line(line: str) -> object:
    """``json.loads`` for one line of a JSON-lines input. Every way the line
    can fail to decode raises ``ValueError`` whose message is the reason:
    bad syntax, nesting deeper than the interpreter's recursion limit, or an
    integer longer than ``sys.get_int_max_str_digits()`` allows. It accepts
    exactly what ``json.loads`` accepts and returns the same value."""
    try:
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_WHITESPACE)))
        if end != len(line) and line[end:].lstrip(_JSON_WHITESPACE):
            raise json.JSONDecodeError("Extra data", line, end)
        return obj
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def header_line(format: str, config: dict) -> str:
    """The ``{"kgel": {"format": ..., "config": ...}}`` record, with its
    newline, that the CLI writes first in a corpus or predictions file."""
    return json.dumps({"kgel": {"format": format, "config": config}}, sort_keys=True) + "\n"


def read_records(path: str | Path, error: type[LineError]) -> Iterator[tuple[int, object]]:
    """``(line number, decoded record)`` for each non-blank line of a
    JSON-lines artifact. A ``{"kgel": {...}}`` header is skipped only as the
    first record; a ``"kgel"`` key anywhere else is left to the caller's
    record checks. Invalid UTF-8 and every line that fails to decode raise
    ``error`` at ``path:line``."""
    src = Path(path)
    first = True
    # Universal newlines split lines as newline="" does, and find them faster.
    with open(src, encoding="utf-8") as fp:
        try:
            for line_no, raw in enumerate(fp, start=1):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                try:
                    obj = decode_json_line(line)
                except ValueError as exc:
                    raise error(src, line_no, str(exc)) from exc
                if first:
                    first = False
                    if isinstance(obj, dict) and len(obj) == 1 and isinstance(obj.get("kgel"), dict):
                        continue
                yield line_no, obj
        except UnicodeDecodeError:
            raise error(src, *locate_invalid_utf8(src)) from None


def _split(path: Path, line_no: int, line: str, n_fields: int, *, greedy_last: bool = False) -> list[str]:
    fields = line.split("\t", n_fields - 1) if greedy_last else line.split("\t")
    if len(fields) != n_fields:
        raise MalformedLineError(path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}")
    if "" in fields:
        raise MalformedLineError(path, line_no, f"field {fields.index('') + 1} is empty")
    return fields


def parse_kg_dir(path: str | Path) -> KnowledgeGraph:
    """Parse a KG directory into a validated :class:`KnowledgeGraph`.

    This is the one check of a graph read from disk: each rule runs once, at
    the line it concerns, and every error carries that file and line.
    """
    base = Path(path)
    if not base.is_dir():
        raise MissingFileError(f"KG directory not found: {base}")
    for name in REQUIRED_KG_FILES:
        if not (base / name).is_file():
            raise MissingFileError(f"missing {name} in {base}")

    # Each concept's preferred name, until its entity takes the slot below.
    concepts_path = base / "concepts.tsv"
    entities: dict = {}
    for line_no, line in _lines(concepts_path):
        cui, name = _split(concepts_path, line_no, line, 2)
        if cui in entities:
            raise DuplicateEntityError(concepts_path, line_no, f"duplicate concept id {cui!r}")
        if name.isspace():
            raise MalformedLineError(concepts_path, line_no, f"preferred name {name!r} of {cui!r} has no tokens")
        entities[cui] = name

    synonyms_path = base / "synonyms.tsv"
    synonyms: dict[str, list[str]] = {}
    for line_no, line in _lines(synonyms_path):
        cui, synonym = _split(synonyms_path, line_no, line, 2)
        if cui not in entities:
            raise DanglingEntityError(synonyms_path, line_no, f"unknown concept id {cui!r}")
        if synonym.isspace():
            raise MalformedLineError(synonyms_path, line_no, f"synonym {synonym!r} of {cui!r} has no tokens")
        synonyms.setdefault(cui, []).append(synonym)

    definitions: dict[str, str] = {}
    definitions_path = base / "definitions.tsv"
    if definitions_path.is_file():
        for line_no, line in _lines(definitions_path):
            cui, definition = _split(definitions_path, line_no, line, 2, greedy_last=True)
            if cui not in entities:
                raise DanglingEntityError(definitions_path, line_no, f"unknown concept id {cui!r}")
            if cui in definitions:
                raise MalformedLineError(definitions_path, line_no, f"duplicate definition for {cui!r}")
            definitions[cui] = definition

    # _split leaves every field non-empty and tab- and newline-free, so
    # entities, relations and triples are built without their constructors'
    # checks, entities as Entity.make builds them.
    for cui, name in entities.items():
        entities[cui] = _unchecked(Entity, cui, name, _unique_synonyms(name, synonyms.pop(cui, ())), definitions.get(cui))
    del synonyms, definitions

    relations_path = base / "relations.tsv"
    relations: dict[str, Relation] = {}
    for line_no, line in _lines(relations_path):
        rid, label = _split(relations_path, line_no, line, 2)
        if rid in relations:
            raise DuplicateRelationError(relations_path, line_no, f"duplicate relation id {rid!r}")
        relations[rid] = _unchecked(Relation, rid, label)

    # Triples hold their entities' and relation's own id objects, not a
    # string per field.
    triples_path = base / "triples.tsv"
    triples: list[Triple] = []
    for line_no, line in _lines(triples_path):
        head, rid, tail = _split(triples_path, line_no, line, 3)
        head_entity, relation, tail_entity = entities.get(head), relations.get(rid), entities.get(tail)
        if head_entity is None:
            raise DanglingEntityError(triples_path, line_no, f"unknown head concept {head!r}")
        if tail_entity is None:
            raise DanglingEntityError(triples_path, line_no, f"unknown tail concept {tail!r}")
        if relation is None:
            raise DanglingRelationError(triples_path, line_no, f"unknown relation {rid!r}")
        triples.append(_unchecked(Triple, head_entity.id, relation.id, tail_entity.id))

    return _assemble(entities, relations, triples)


def write_kg_dir(kg: KnowledgeGraph, path: str | Path) -> None:
    """Serialize a graph back to the TSV directory layout, sorted by id.

    Re-parsing the output yields a structurally identical graph (triple order
    aside, which the format does not promise).
    """
    base = Path(path)
    base.mkdir(parents=True, exist_ok=True)

    def _open(name: str) -> TextIO:
        return open(base / name, "w", encoding="utf-8", newline="")

    with _open("concepts.tsv") as fp:
        for eid in sorted(kg.entities):
            fp.write(f"{eid}\t{kg.entities[eid].preferred_name}\n")
    with _open("synonyms.tsv") as fp:
        for eid in sorted(kg.entities):
            for synonym in kg.entities[eid].synonyms[1:]:
                fp.write(f"{eid}\t{synonym}\n")
    with _open("definitions.tsv") as fp:
        for eid in sorted(kg.entities):
            definition = kg.entities[eid].definition
            if definition:
                fp.write(f"{eid}\t{definition}\n")
    with _open("relations.tsv") as fp:
        for rid in sorted(kg.relations):
            fp.write(f"{rid}\t{kg.relations[rid].label}\n")
    with _open("triples.tsv") as fp:
        for triple in sorted(kg.triples, key=lambda t: (t.head, t.relation, t.tail)):
            fp.write(f"{triple.head}\t{triple.relation}\t{triple.tail}\n")


_DOC_KEYS = {"doc_id", "text", "mentions"}
_MENTION_KEYS = {"start", "end", "surface", "gold"}


def _parse_mention(path: Path, line_no: int, obj: object, text_bytes: bytes) -> Mention:
    if not isinstance(obj, dict):
        raise MalformedLineError(path, line_no, "mention must be an object")
    if set(obj) != _MENTION_KEYS:
        raise MalformedLineError(path, line_no, f"mention keys must be exactly {sorted(_MENTION_KEYS)}")
    start, end, surface, gold = obj["start"], obj["end"], obj["surface"], obj["gold"]
    if not (isinstance(start, int) and isinstance(end, int)) or isinstance(start, bool) or isinstance(end, bool):
        raise MalformedLineError(path, line_no, "mention offsets must be integers")
    if not isinstance(surface, str) or not isinstance(gold, str) or not gold:
        raise MalformedLineError(path, line_no, "mention surface and gold must be non-empty strings")
    if "\t" in gold or "\n" in gold:
        raise MalformedLineError(path, line_no, f"gold id {gold!r} contains tab or newline")
    if start < 0 or end > len(text_bytes) or start >= end:
        raise SpanOutOfBoundsError(path, line_no, f"span [{start}, {end}) outside text of {len(text_bytes)} bytes")
    try:
        segment = text_bytes[start:end].decode("utf-8")
    except UnicodeDecodeError:
        raise SpanOutOfBoundsError(path, line_no, f"span [{start}, {end}) not on character boundaries") from None
    if segment != surface:
        raise MalformedLineError(path, line_no, f"surface {surface!r} does not match text slice {segment!r}")
    return Mention(start=start, end=end, surface=surface, gold=gold)


def parse_dataset(path: str | Path) -> list[Document]:
    """Parse an annotated dataset; each ``doc_id`` may occur once. Gold ids
    are not checked against any KG here; evaluation reports the ones that do
    not resolve."""
    src = Path(path)
    if not src.is_file():
        raise MissingFileError(f"dataset file not found: {src}")
    docs = []
    doc_ids = set()
    for line_no, line in _lines(src):
        if not line.strip():
            raise MalformedLineError(src, line_no, "blank line")
        try:
            obj = decode_json_line(line)
        except ValueError as exc:
            raise MalformedLineError(src, line_no, str(exc)) from exc
        if not isinstance(obj, dict) or set(obj) != _DOC_KEYS:
            raise MalformedLineError(src, line_no, f"record keys must be exactly {sorted(_DOC_KEYS)}")
        if not isinstance(obj["doc_id"], str) or not isinstance(obj["text"], str):
            raise MalformedLineError(src, line_no, "doc_id and text must be strings")
        if obj["doc_id"] in doc_ids:
            raise MalformedLineError(src, line_no, f"repeated doc_id {obj['doc_id']!r}")
        doc_ids.add(obj["doc_id"])
        if not isinstance(obj["mentions"], list):
            raise MalformedLineError(src, line_no, "mentions must be a list")
        text_bytes = obj["text"].encode("utf-8")
        mentions = tuple(_parse_mention(src, line_no, m, text_bytes) for m in obj["mentions"])
        spans = sorted((m.start, m.end) for m in mentions)
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            if start < prev_end:
                raise OverlappingMentionsError(src, line_no, f"mention at byte {start} overlaps the previous span")
        docs.append(Document(doc_id=obj["doc_id"], text=obj["text"], mentions=mentions))
    return docs


def write_dataset(docs: Iterable[Document], fp: TextIO) -> None:
    for doc in docs:
        record = {
            "doc_id": doc.doc_id,
            "text": doc.text,
            "mentions": [
                {"start": m.start, "end": m.end, "surface": m.surface, "gold": m.gold}
                for m in doc.mentions
            ],
        }
        fp.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class DatasetStatsReport:
    docs: int
    mentions: int
    entities: int

    def to_dict(self) -> dict:
        return {"docs": self.docs, "mentions": self.mentions, "entities": self.entities}


def dataset_stats(docs: Iterable[Document]) -> DatasetStatsReport:
    docs = list(docs)
    golds = {m.gold for doc in docs for m in doc.mentions}
    return DatasetStatsReport(
        docs=len(docs),
        mentions=sum(len(doc.mentions) for doc in docs),
        entities=len(golds),
    )
