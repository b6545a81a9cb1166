"""Pre-training corpus generation.

Three linearizations of KG content into (source, target) text pairs:

* ``synonym``      target pairs two synonyms of one concept
* ``triple_line``  one target per sampled triple
* ``triple_all``   one target concatenating all sampled triples of a concept

The source side is always the definition template for the concept. Triples
are drawn per concept without replacement, picking a relation group with
probability proportional to the inverse of the relation's global frequency,
then uniformly within the group. All randomness flows from explicit seeds and
per-entity streams are derived with a stable hash, so corpus bytes are a pure
function of (kg, mode, cap, k, seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import (
    EmptyCorpusError,
    MalformedLineError,
    NoTriplesError,
    SpecialTokenError,
    UnknownSynonymError,
)
from .ingest import locate_invalid_utf8
from .kg import Entity, EntityId, KnowledgeGraph, Triple

BOS = "[BOS]"
EOS = "[EOS]"
ST = "[ST]"
ET = "[ET]"
SPECIAL_TOKENS = (BOS, EOS, ST, ET)

MODES = ("synonym", "triple_line", "triple_all", "combined")
DEFAULT_SYNONYM_CAP = 20
DEFAULT_TRIPLES_PER_CONCEPT = 8
CORPUS_FORMAT = "kgel-corpus-v1"


@dataclass(frozen=True)
class TrainingSample:
    source: str
    target: str
    kind: str
    concept: EntityId


def derive_seed(seed: int, *parts: str) -> int:
    """Stable 64-bit sub-seed for (seed, parts); independent of PYTHONHASHSEED."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def check_special_tokens(kg: KnowledgeGraph) -> None:
    """Reject graphs whose text contains reserved template tokens. Tokens are
    case-folded downstream, so the comparison is too: ``[bos]`` is ``[BOS]``."""

    def scan(text: str, where: str) -> None:
        folded = text.casefold()
        for token in SPECIAL_TOKENS:
            if token.casefold() in folded:
                raise SpecialTokenError(f"reserved token {token} occurs in {where}: {text!r}")

    for entity in kg.entities.values():
        for synonym in entity.synonyms:
            scan(synonym, f"synonym of {entity.id}")
        if entity.definition:
            scan(entity.definition, f"definition of {entity.id}")
    for relation in kg.relations.values():
        scan(relation.label, f"label of relation {relation.id}")


def make_source(entity: Entity, synonym: str) -> str:
    """Encoder-side text for a concept under one of its surface forms.

    Concepts without a definition get the bare mention markup instead of a
    fabricated description.
    """
    if synonym not in entity.synonyms:
        raise UnknownSynonymError(f"{synonym!r} is not a synonym of {entity.id}")
    if entity.definition:
        return f"{BOS}{ST}{synonym}{ET} is defined as {entity.definition}{EOS}"
    return f"{BOS}{ST}{synonym}{ET}{EOS}"


def synonym_samples(entity: Entity, cap: int = DEFAULT_SYNONYM_CAP, seed: int = 0) -> list[TrainingSample]:
    """Up to ``cap`` ordered synonym pairs (a, b), a != b, drawn uniformly
    without replacement. Single-synonym entities yield nothing."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    synonyms = entity.synonyms
    if len(synonyms) < 2:
        return []
    pool = [(a, b) for a in synonyms for b in synonyms if a != b]
    if cap >= len(pool):
        chosen = pool
    else:
        chosen = random.Random(seed).sample(pool, cap)
    return [
        TrainingSample(
            source=make_source(entity, a),
            target=f"{BOS} {a} is {b} {EOS}",
            kind="synonym",
            concept=entity.id,
        )
        for a, b in chosen
    ]


def relation_probabilities(kg: KnowledgeGraph, entity: Entity) -> dict[str, float]:
    """Per-relation pick probability over the entity's outgoing relations:
    inverse global frequency, renormalized to sum to 1."""
    triples = kg.out_triples(entity.id)
    if not triples:
        raise NoTriplesError(f"entity {entity.id} has no outgoing triples")
    relations = sorted({t.relation for t in triples})
    inverse = {r: 1.0 / kg.relation_freq[r] for r in relations}
    total = sum(inverse.values())
    return {r: w / total for r, w in inverse.items()}


def sample_triples(kg: KnowledgeGraph, entity: Entity, k: int = DEFAULT_TRIPLES_PER_CONCEPT, seed: int = 0) -> list[Triple]:
    """Draw up to ``k`` distinct outgoing triples: a relation group first
    (weights renormalized over the non-exhausted groups), then uniformly
    within the group. Returns fewer than ``k`` only when the entity has fewer
    triples; an entity without triples yields an empty list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    triples = kg.out_triples(entity.id)
    if not triples:
        return []
    groups: dict[str, list[Triple]] = {}
    for triple in triples:
        groups.setdefault(triple.relation, []).append(triple)
    active = sorted(groups)
    weights = {r: 1.0 / kg.relation_freq[r] for r in active}
    rng = random.Random(seed)
    picked: list[Triple] = []
    while len(picked) < k and active:
        total = sum(weights[r] for r in active)
        x = rng.random() * total
        acc = 0.0
        chosen = active[-1]
        for r in active:
            acc += weights[r]
            if x < acc:
                chosen = r
                break
        group = groups[chosen]
        picked.append(group.pop(rng.randrange(len(group))))
        if not group:
            active.remove(chosen)
    return picked


def triple_samples_line(kg: KnowledgeGraph, entity: Entity, k: int = DEFAULT_TRIPLES_PER_CONCEPT, seed: int = 0) -> list[TrainingSample]:
    """One sample per sampled triple. The head surface form in the target is
    the same one the paired source uses; the tail surface is drawn uniformly
    from the tail's synonyms."""
    triples = sample_triples(kg, entity, k, derive_seed(seed, "triples"))
    if not triples:
        return []
    rng = random.Random(derive_seed(seed, "surfaces"))
    samples = []
    for triple in triples:
        a = rng.choice(entity.synonyms)
        b = rng.choice(kg.entities[triple.tail].synonyms)
        label = kg.relations[triple.relation].label
        samples.append(
            TrainingSample(
                source=make_source(entity, a),
                target=f"{BOS} {a} {label} {b} {EOS}",
                kind="triple_line",
                concept=entity.id,
            )
        )
    return samples


def triple_samples_all(kg: KnowledgeGraph, entity: Entity, k: int = DEFAULT_TRIPLES_PER_CONCEPT, seed: int = 0) -> TrainingSample | None:
    """A single sample concatenating every sampled triple, segments sorted by
    (relation label, tail surface) for reproducibility. None when the entity
    has no triples."""
    triples = sample_triples(kg, entity, k, derive_seed(seed, "triples"))
    if not triples:
        return None
    rng = random.Random(derive_seed(seed, "surfaces"))
    a = rng.choice(entity.synonyms)
    segments = []
    for triple in triples:
        label = kg.relations[triple.relation].label
        b = rng.choice(kg.entities[triple.tail].synonyms)
        segments.append((label, b))
    segments.sort()
    body = " ".join(f"{label} {b}" for label, b in segments)
    return TrainingSample(
        source=make_source(entity, a),
        target=f"{BOS} {a} {body} {EOS}",
        kind="triple_all",
        concept=entity.id,
    )


def synthesize_corpus(
    kg: KnowledgeGraph,
    mode: str = "combined",
    *,
    cap: int = DEFAULT_SYNONYM_CAP,
    k: int = DEFAULT_TRIPLES_PER_CONCEPT,
    seed: int = 42,
) -> Iterator[TrainingSample]:
    """Stream samples for every entity in ascending id order.

    ``combined`` emits an entity's synonym samples followed by its
    line-by-line triple samples. Each entity draws from its own derived seed.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_special_tokens(kg)
    for entity_id in sorted(kg.entities):
        entity = kg.entities[entity_id]
        entity_seed = derive_seed(seed, entity_id)
        if mode in ("synonym", "combined"):
            yield from synonym_samples(entity, cap, derive_seed(entity_seed, "synonym"))
        if mode in ("triple_line", "combined"):
            yield from triple_samples_line(kg, entity, k, derive_seed(entity_seed, "triple_line"))
        if mode == "triple_all":
            sample = triple_samples_all(kg, entity, k, derive_seed(entity_seed, "triple_all"))
            if sample is not None:
                yield sample


def write_corpus(samples: Iterable[TrainingSample], fp: TextIO, *, config: dict | None = None) -> int:
    """Write JSON-lines records; an optional leading header record carries the
    producing configuration. Returns the number of samples written."""
    if config is not None:
        fp.write(json.dumps({"kgel": {"format": CORPUS_FORMAT, "config": config}}, sort_keys=True) + "\n")
    count = 0
    for sample in samples:
        record = {"source": sample.source, "target": sample.target, "kind": sample.kind, "concept": sample.concept}
        fp.write(json.dumps(record, ensure_ascii=False) + "\n")
        count += 1
    return count


def read_corpus(path: str | Path) -> Iterator[TrainingSample]:
    """Read a corpus file, skipping the header record if present."""
    src = Path(path)
    try:
        with open(src, encoding="utf-8") as fp:
            for line_no, raw in enumerate(fp, start=1):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedLineError(src, line_no, f"invalid JSON: {exc.msg}") from exc
                if isinstance(obj, dict) and "kgel" in obj:
                    continue
                if not isinstance(obj, dict) or set(obj) != {"source", "target", "kind", "concept"}:
                    raise MalformedLineError(src, line_no, "corpus record keys must be source/target/kind/concept")
                yield TrainingSample(obj["source"], obj["target"], obj["kind"], obj["concept"])
    except UnicodeDecodeError:
        raise MalformedLineError(src, *locate_invalid_utf8(src)) from None


def corpus_targets(path: str | Path) -> list[str]:
    targets = [sample.target for sample in read_corpus(path)]
    if not targets:
        raise EmptyCorpusError(f"no samples in {path}")
    return targets
