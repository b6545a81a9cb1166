"""Recall@k and diagnostic breakdowns over prediction lists.

Evaluation depends only on candidate rank order, never on raw score values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linking
from .kg import KnowledgeGraph
from .linking import LinkedPrediction


@dataclass(frozen=True)
class EvalReport:
    recall_at: dict[int, float]
    mentions: int
    unresolved_gold: int | None
    ambiguity_affected: int | None
    empty_input: bool

    def to_dict(self) -> dict:
        return {
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "mentions": self.mentions,
            "unresolved_gold": self.unresolved_gold,
            "ambiguity_affected": self.ambiguity_affected,
            "empty_input": self.empty_input,
        }


def recall_at_k(predictions: Sequence[LinkedPrediction], k: int) -> float:
    """Fraction of mentions whose gold id appears among the top-k candidate
    entities. 0.0 over an empty prediction list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not predictions:
        return 0.0
    hits = sum(1 for p in predictions if any(c.entity == p.gold for c in p.candidates[:k]))
    return hits / len(predictions)


def report(
    predictions: Sequence[LinkedPrediction],
    ks: Iterable[int] = (1, 5, 10),
    *,
    kg: KnowledgeGraph | None = None,
) -> EvalReport:
    """Full report. With a KG available it also counts mentions whose gold id
    is missing from the graph (tallied separately; they can never be hits)
    and mentions whose candidate list touched an ambiguous surface."""
    predictions = list(predictions)
    ks = sorted(set(ks))
    recall = {k: recall_at_k(predictions, k) for k in ks}
    for small, large in zip(ks, ks[1:]):
        if recall[small] > recall[large]:
            raise AssertionError(f"recall@{small} > recall@{large}; ranking is corrupt")

    unresolved = ambiguous = None
    if kg is not None:
        unresolved = sum(1 for p in predictions if p.gold not in kg.entities)
        # The trie is built through the module, so a wrapper set on
        # kgel.linking.build_lookup sees the call.
        trie = linking.build_lookup(kg)
        ambiguous = sum(1 for p in predictions if any(trie.is_ambiguous(c.surface) for c in p.candidates))
    return EvalReport(
        recall_at=recall,
        mentions=len(predictions),
        unresolved_gold=unresolved,
        ambiguity_affected=ambiguous,
        empty_input=not predictions,
    )
