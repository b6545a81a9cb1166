"""End-to-end mention linking: condition the scorer on the mention, decode a
surface form constrained to the trie, then resolve it to an entity id through
the owners stored at the trie terminal it ended on. Ambiguous surfaces resolve
to the owner with the synonym most similar to the mention, then to the
smallest id."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from .errors import KgelError, MalformedPredictionsError
from .ingest import Document, Mention, header_line, read_records
from .kg import EntityId, KnowledgeGraph
from .similarity import similarities
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


# The trie is the one surface -> entity index; evaluate reads owners from it
# by surface (TokenTrie.owners and is_ambiguous) under this name.
build_lookup = build_trie


def _resolve_owner(kg: KnowledgeGraph, mention_surface: str, owners: Sequence[EntityId]) -> EntityId:
    """The owner with the synonym most similar to the mention, then the
    smallest id. ``owners`` are ascending, as the trie stores them. Each
    distinct normalized synonym is kept with its first owner, and one scan of
    the mention scores them all; the first string at the highest similarity
    wins, so a tie goes to the smallest id."""
    if len(owners) == 1:
        return owners[0]
    first_owner: dict[str, EntityId] = {}
    for entity_id in owners:
        for synonym in kg.entities[entity_id].synonyms:
            first_owner.setdefault(normalize(synonym), entity_id)
    strings = list(first_owner)
    scores = similarities(normalize(mention_surface), strings)
    return first_owner[strings[scores.index(max(scores))]]


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
    trie: TokenTrie | None = None,
    beam_width: int = 5,
    top_k: int = 10,
) -> list[LinkedPrediction]:
    """Link every mention, in (document, mention) order. A mention that fails
    to decode yields an empty candidate list instead of aborting the batch.
    ``trie`` is ``build_trie(kg)``, built here when not given."""
    if trie is None:
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
        fp.write(header_line(PREDICTIONS_FORMAT, config))
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


def _prediction_from_record(obj: dict) -> LinkedPrediction:
    """Build a prediction from a decoded record, checking the type of every field."""
    doc_id, index, gold, records = obj["doc_id"], obj["mention_index"], obj["gold"], obj["candidates"]
    if not (isinstance(doc_id, str) and isinstance(gold, str)):
        raise TypeError("doc_id and gold must be strings")
    # bool is an int subclass, and int() would truncate a float
    if type(index) is not int:
        raise TypeError(f"mention_index must be an integer, got {index!r}")
    if index < 0:
        raise ValueError(f"mention_index must not be negative, got {index}")
    if not isinstance(records, list):
        raise TypeError("candidates must be a list")
    candidates = []
    for c in records:
        if not isinstance(c, dict) or set(c) != {"surface", "entity", "score"}:
            raise ValueError("candidate keys must be exactly surface, entity and score")
        surface, entity, score = c["surface"], c["entity"], c["score"]
        if not (isinstance(surface, str) and isinstance(entity, str)):
            raise TypeError("candidate surface and entity must be strings")
        if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
            raise ValueError(f"candidate score must be a finite number, got {score!r}")
        candidates.append(Candidate(surface=surface, entity=entity, score=float(score)))
    return LinkedPrediction(doc_id=doc_id, mention_index=index, gold=gold, candidates=tuple(candidates))


def read_predictions(path: str | Path) -> list[LinkedPrediction]:
    """Read a predictions file, skipping the header record if it comes first.
    A ``(doc_id, mention_index)`` may occur once."""
    src = Path(path)
    predictions = []
    keys = set()
    for line_no, obj in read_records(src, MalformedPredictionsError):
        if not isinstance(obj, dict) or set(obj) != {"doc_id", "mention_index", "gold", "candidates"}:
            raise MalformedPredictionsError(src, line_no, "unexpected record keys")
        try:
            prediction = _prediction_from_record(obj)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedPredictionsError(src, line_no, str(exc)) from exc
        key = prediction.doc_id, prediction.mention_index
        if key in keys:
            raise MalformedPredictionsError(src, line_no, f"repeated prediction for doc_id {key[0]!r}, mention_index {key[1]}")
        keys.add(key)
        predictions.append(prediction)
    return predictions
