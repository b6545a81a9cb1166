"""In-memory knowledge graph: entities with synonyms and definitions, labelled
relations, directed triples, plus the derived indexes the rest of the pipeline
relies on (per-entity outgoing triples, global per-relation frequencies).

Graphs are immutable once built; share them freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    DanglingEntityError,
    DanglingRelationError,
    DuplicateEntityError,
    DuplicateRelationError,
)
from .text import normalize

# Entity ids are plain strings (e.g. UMLS CUIs): non-empty, tab- and
# newline-free so they stay TSV-safe.
EntityId = str


def _check_id(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains tab or newline characters")


def _unchecked(cls, *values):
    """An instance of the frozen dataclass ``cls`` with ``values`` as its
    fields, in order: what the generated ``__init__`` does, without
    ``__post_init__``. Only for values whose checks the caller has made."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Entity:
    """A concept with its surface forms.

    ``synonyms[0]`` is always the preferred name; the list is free of
    duplicates under :func:`kgel.text.normalize`, original casing retained.
    """

    id: EntityId
    preferred_name: str
    synonyms: tuple[str, ...]
    definition: str | None = None

    def __post_init__(self):
        _check_id(self.id, "entity id")
        _check_id(self.preferred_name, "preferred name")
        if not self.synonyms or self.synonyms[0] != self.preferred_name:
            raise ValueError(f"entity {self.id}: synonyms[0] must equal the preferred name")
        seen = set()
        for syn in self.synonyms:
            _check_id(syn, f"synonym of {self.id}")
            key = normalize(syn)
            if key in seen:
                raise ValueError(f"entity {self.id}: duplicate synonym {syn!r} after normalization")
            seen.add(key)
        if self.definition is not None and "\n" in self.definition:
            raise ValueError(f"entity {self.id}: definition contains a newline")

    @classmethod
    def make(
        cls,
        id: EntityId,
        preferred_name: str,
        synonyms: Iterable[str] = (),
        definition: str | None = None,
    ) -> "Entity":
        """Build an entity, putting the preferred name first and dropping
        synonyms that are duplicates after normalization (first wins)."""
        return cls(id, preferred_name, _unique_synonyms(preferred_name, synonyms), definition or None)


def _unique_synonyms(preferred_name: str, synonyms: Iterable[str]) -> tuple[str, ...]:
    """The preferred name, then the synonyms that no earlier one equals under
    :func:`kgel.text.normalize`, in order: ``Entity.synonyms`` as
    :meth:`Entity.make` builds it."""
    ordered = [preferred_name]
    seen = {normalize(preferred_name)}
    for syn in synonyms:
        key = normalize(syn)
        if key in seen:
            continue
        seen.add(key)
        ordered.append(syn)
    return tuple(ordered)


@dataclass(frozen=True)
class Relation:
    id: str
    label: str

    def __post_init__(self):
        _check_id(self.id, "relation id")
        _check_id(self.label, "relation label")


@dataclass(frozen=True)
class Triple:
    """Directed edge: head --relation--> tail."""

    head: EntityId
    relation: str
    tail: EntityId

    def __post_init__(self):
        _check_id(self.head, "triple head")
        _check_id(self.relation, "triple relation")
        _check_id(self.tail, "triple tail")


@dataclass(frozen=True)
class KnowledgeGraph:
    entities: Mapping[EntityId, Entity]
    relations: Mapping[str, Relation]
    triples: tuple[Triple, ...]
    outgoing: Mapping[EntityId, tuple[Triple, ...]]
    relation_freq: Mapping[str, int]

    def out_triples(self, entity_id: EntityId) -> tuple[Triple, ...]:
        return self.outgoing.get(entity_id, ())


def build_kg(
    entities: Iterable[Entity],
    relations: Iterable[Relation],
    triples: Iterable[Triple],
) -> KnowledgeGraph:
    """Validate the parts and assemble a graph with its derived indexes.

    Rejects duplicate entity/relation ids and triples whose endpoints or
    relation do not resolve. Self-loops are allowed.
    """
    entity_map: dict[str, Entity] = {}
    for entity in entities:
        if entity.id in entity_map:
            raise DuplicateEntityError(None, None, f"duplicate entity id {entity.id!r}")
        entity_map[entity.id] = entity

    relation_map: dict[str, Relation] = {}
    for relation in relations:
        if relation.id in relation_map:
            raise DuplicateRelationError(None, None, f"duplicate relation id {relation.id!r}")
        relation_map[relation.id] = relation

    triple_list: list[Triple] = []
    for triple in triples:
        if triple.head not in entity_map:
            raise DanglingEntityError(None, None, f"triple {triple} references unknown entity {triple.head!r}")
        if triple.tail not in entity_map:
            raise DanglingEntityError(None, None, f"triple {triple} references unknown entity {triple.tail!r}")
        if triple.relation not in relation_map:
            raise DanglingRelationError(None, None, f"triple {triple} references unknown relation {triple.relation!r}")
        triple_list.append(triple)
    return _assemble(entity_map, relation_map, triple_list)


def _assemble(
    entities: dict[EntityId, Entity], relations: dict[str, Relation], triples: list[Triple]
) -> KnowledgeGraph:
    """The graph of parts already checked, with its derived indexes:
    ``outgoing`` holds each head's triples in triple order, heads in order
    of first appearance, and ``relation_freq`` counts the triples of each
    relation, in relation order. Each head's list becomes a tuple in place,
    so no second copy of the index is alive at once."""
    outgoing: dict[EntityId, list[Triple] | tuple[Triple, ...]] = {}
    freq = dict.fromkeys(relations, 0)
    for triple in triples:
        outgoing.setdefault(triple.head, []).append(triple)
        freq[triple.relation] += 1
    for head, group in outgoing.items():
        outgoing[head] = tuple(group)
    return KnowledgeGraph(entities, relations, tuple(triples), outgoing, freq)


@dataclass(frozen=True)
class StatsReport:
    concepts: int
    with_definitions: int
    with_multiple_synonyms: int
    with_triples: int
    mean_triples: float
    relation_freq: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "concepts": self.concepts,
            "with_definitions": self.with_definitions,
            "with_multiple_synonyms": self.with_multiple_synonyms,
            "with_triples": self.with_triples,
            "mean_triples": self.mean_triples,
            "relation_freq": self.relation_freq,
        }


def kg_stats(kg: KnowledgeGraph) -> StatsReport:
    """Concept counts and connectivity. "Connected" means the entity has at
    least one outgoing triple; the mean is over connected concepts only."""
    degrees = [len(ts) for ts in kg.outgoing.values() if ts]
    return StatsReport(
        concepts=len(kg.entities),
        with_definitions=sum(1 for e in kg.entities.values() if e.definition),
        with_multiple_synonyms=sum(1 for e in kg.entities.values() if len(e.synonyms) >= 2),
        with_triples=len(degrees),
        mean_triples=sum(degrees) / len(degrees) if degrees else 0.0,
        relation_freq=dict(sorted(kg.relation_freq.items())),
    )
