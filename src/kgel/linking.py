"""End-to-end mention linking: condition the scorer on the mention, decode a
surface form constrained to the trie, then resolve it to an entity id through
the owners stored at the trie terminal it ended on. Ambiguous surfaces resolve
to the owner most similar to the mention, then to the smallest id."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from .errors import KgelError, MalformedPredictionsError
from .ingest import Document, Mention, decode_json_line, locate_invalid_utf8
from .kg import EntityId, KnowledgeGraph
from .similarity import similarity
from .text import normalize
from .trie import Scorer, TokenTrie, build_trie, constrained_beam_search

PREDICTIONS_FORMAT = "kgel-predictions-v1"

# A scorer factory turns a mention surface into the scorer used to decode it.
ScorerFactory = Callable[[str], Scorer]


@dataclass(frozen=True)
class Candidate:
    surface: str
    entity: EntityId
    score: float


@dataclass(frozen=True)
class LinkedPrediction:
    doc_id: str
    mention_index: int
    gold: EntityId
    candidates: tuple[Candidate, ...]


class LookupTable:
    """Normalized surface form -> sorted owning entity ids."""

    def __init__(self, entries: dict[str, tuple[EntityId, ...]]):
        self.entries = entries

    def owners(self, surface: str) -> tuple[EntityId, ...]:
        return self.entries.get(normalize(surface), ())

    def is_ambiguous(self, surface: str) -> bool:
        return len(self.owners(surface)) > 1

    @property
    def ambiguous_count(self) -> int:
        return sum(1 for owners in self.entries.values() if len(owners) > 1)

    def __len__(self) -> int:
        return len(self.entries)


def build_lookup(kg: KnowledgeGraph) -> LookupTable:
    surfaces: dict[str, set[str]] = {}
    for entity_id in kg.entities:
        for synonym in kg.entities[entity_id].synonyms:
            surfaces.setdefault(normalize(synonym), set()).add(entity_id)
    return LookupTable({surface: tuple(sorted(owners)) for surface, owners in sorted(surfaces.items())})


def _resolve_owner(kg: KnowledgeGraph, mention_surface: str, owners: Sequence[EntityId]) -> EntityId:
    if len(owners) == 1:
        return owners[0]

    def rank(entity_id: EntityId) -> tuple[float, EntityId]:
        best = max(similarity(mention_surface, s) for s in kg.entities[entity_id].synonyms)
        return (-best, entity_id)

    return min(owners, key=rank)


def link_mention(
    kg: KnowledgeGraph,
    trie: TokenTrie,
    scorer_factory: ScorerFactory,
    mention: Mention,
    *,
    doc_id: str = "",
    mention_index: int = 0,
    beam_width: int = 5,
    top_k: int = 10,
) -> LinkedPrediction:
    """Decode one mention. Owners come from the trie terminal each hypothesis
    ended on, so the trie must come from ``kg``."""
    scorer = scorer_factory(mention.surface)
    results = constrained_beam_search(trie, scorer, beam_width)
    candidates = [
        Candidate(
            surface=" ".join(tokens),
            entity=_resolve_owner(kg, mention.surface, trie.entities_at(tokens)),
            score=score,
        )
        for tokens, score in results[:top_k]
    ]
    return LinkedPrediction(doc_id=doc_id, mention_index=mention_index, gold=mention.gold, candidates=tuple(candidates))


def link_dataset(
    kg: KnowledgeGraph,
    docs: Iterable[Document],
    scorer_factory: ScorerFactory,
    *,
    beam_width: int = 5,
    top_k: int = 10,
) -> list[LinkedPrediction]:
    """Link every mention, in (document, mention) order. A mention that fails
    to decode yields an empty candidate list instead of aborting the batch."""
    trie = build_trie(kg)
    predictions = []
    for doc in docs:
        for index, mention in enumerate(doc.mentions):
            try:
                prediction = link_mention(
                    kg, trie, scorer_factory, mention,
                    doc_id=doc.doc_id, mention_index=index, beam_width=beam_width, top_k=top_k,
                )
            except KgelError:
                prediction = LinkedPrediction(doc_id=doc.doc_id, mention_index=index, gold=mention.gold, candidates=())
            predictions.append(prediction)
    return predictions


def write_predictions(predictions: Iterable[LinkedPrediction], fp: TextIO, *, config: dict | None = None) -> int:
    if config is not None:
        fp.write(json.dumps({"kgel": {"format": PREDICTIONS_FORMAT, "config": config}}, sort_keys=True) + "\n")
    count = 0
    for prediction in predictions:
        record = {
            "doc_id": prediction.doc_id,
            "mention_index": prediction.mention_index,
            "gold": prediction.gold,
            "candidates": [
                {"surface": c.surface, "entity": c.entity, "score": c.score} for c in prediction.candidates
            ],
        }
        fp.write(json.dumps(record, ensure_ascii=False) + "\n")
        count += 1
    return count


def read_predictions(path: str | Path) -> list[LinkedPrediction]:
    src = Path(path)
    predictions = []
    try:
        with open(src, encoding="utf-8") as fp:
            for line_no, raw in enumerate(fp, start=1):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                try:
                    obj = decode_json_line(line)
                except ValueError as exc:
                    raise MalformedPredictionsError(f"{src}:{line_no}: {exc}") from exc
                if isinstance(obj, dict) and "kgel" in obj:
                    continue
                if not isinstance(obj, dict) or set(obj) != {"doc_id", "mention_index", "gold", "candidates"}:
                    raise MalformedPredictionsError(f"{src}:{line_no}: unexpected record keys")
                try:
                    candidates = tuple(
                        Candidate(surface=c["surface"], entity=c["entity"], score=float(c["score"]))
                        for c in obj["candidates"]
                    )
                    prediction = LinkedPrediction(
                        doc_id=obj["doc_id"],
                        mention_index=int(obj["mention_index"]),
                        gold=obj["gold"],
                        candidates=candidates,
                    )
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise MalformedPredictionsError(f"{src}:{line_no}: {exc}") from exc
                predictions.append(prediction)
    except UnicodeDecodeError:
        line_no, reason = locate_invalid_utf8(src)
        raise MalformedPredictionsError(f"{src}:{line_no}: {reason}") from None
    return predictions
