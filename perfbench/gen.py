"""Seeded synthetic inputs for the pipeline benchmark.

``generate(shape, seed, out_dir)`` writes a KG directory (``kg/``), an
evaluation dataset (``dataset.jsonl``), a fine-tuning dataset
(``train.jsonl``) and a dataset without mentions (``empty.jsonl``, for timing
link set-up). The same shape and seed always give the same bytes. It returns
an :class:`Inputs` record that the benchmark uses to check linker output and
to report the workload's measured properties.

Everything here is independent of ``kgel``: the benchmark checks the program
against what the generator knows, not against the program's own view.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

CONSONANTS = "bcdfghklmnprstvz"
VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    concepts: int
    surfaces: tuple[int, int]  # surfaces per concept, inclusive range
    tokens: tuple[int, int]  # tokens per surface, inclusive range
    vocab: int
    unique: bool  # no surface is shared between two concepts
    reuse: float  # share of concepts that also take a surface of an earlier concept
    relations: int
    triples: int
    mode: str  # `kgel synthesize --mode`
    mentions: int  # evaluation mentions; the fine-tuning split has as many
    mentions_per_doc: int = 5


# Why each shape: see BENCHMARK.json. link_wide has a trie root fanout near
# its 8k vocabulary and no ambiguous surface, so linking is beam search plus
# scoring; link_ambiguous has few root tokens and many shared surfaces, so
# linking is owner resolution by string similarity. Each is the other's
# bypass case.
SHAPES = {
    "link_wide": Shape(
        concepts=20_000, surfaces=(1, 3), tokens=(2, 4), vocab=8_000, unique=True, reuse=0.0,
        relations=40, triples=20_000, mode="synonym", mentions=600,
    ),
    "link_ambiguous": Shape(
        concepts=6_000, surfaces=(3, 8), tokens=(1, 3), vocab=600, unique=False, reuse=0.6,
        relations=40, triples=6_000, mode="synonym", mentions=250,
    ),
}


def toy(shape: Shape) -> Shape:
    """The same shape at a size that runs every stage in well under a second."""
    return replace(
        shape,
        concepts=max(60, shape.concepts // 100),
        vocab=max(40, shape.vocab // 20),
        triples=max(60, shape.triples // 100),
        mentions=20,
    )


@dataclass(frozen=True)
class Inputs:
    owners: dict[str, tuple[str, ...]]  # normalized surface -> sorted concept ids
    golds: list[tuple[str, int, str]]  # (doc_id, mention_index, gold) of dataset.jsonl
    properties: dict[str, int]


def normalize(text: str) -> str:
    return " ".join(text.casefold().split())


def _words(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        syllables = rng.randint(2, 4)
        words.add("".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables)))
    return sorted(words)


def _surface(rng: random.Random, shape: Shape, vocab: list[str]) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(*shape.tokens)))


def _concepts(rng: random.Random, shape: Shape, vocab: list[str]) -> list[list[str]]:
    taken: set[str] = set()
    concepts: list[list[str]] = []
    for index in range(shape.concepts):
        synonyms: list[str] = []
        if index and rng.random() < shape.reuse:
            synonyms.append(rng.choice(concepts[rng.randrange(index)]))
        want = rng.randint(*shape.surfaces)
        while len(synonyms) < want:
            surface = _surface(rng, shape, vocab)
            if surface in synonyms or (shape.unique and surface in taken):
                continue
            synonyms.append(surface)
        taken.update(synonyms)
        concepts.append(synonyms)
    return concepts


def _variant(rng: random.Random, surface: str, index: int) -> str:
    """Mention ``index`` as a user might write the surface: three in five
    verbatim, one capitalized, one with a character changed in the first
    token. A fixed cycle, not a draw, so every seed has the same mix."""
    kind = index % 5
    if kind < 3:
        return surface
    if kind == 3:
        return " ".join(token.capitalize() for token in surface.split())
    first, _, rest = surface.partition(" ")
    i = rng.randrange(len(first))
    first = first[:i] + rng.choice(VOWELS if first[i] in CONSONANTS else CONSONANTS) + first[i + 1:]
    return f"{first} {rest}" if rest else first


def _documents(rng: random.Random, shape: Shape, concepts: list[list[str]], vocab: list[str], prefix: str) -> list[dict]:
    docs = []
    for d in range(math.ceil(shape.mentions / shape.mentions_per_doc)):
        parts: list[str] = []
        mentions = []
        for index in range(d * shape.mentions_per_doc, min((d + 1) * shape.mentions_per_doc, shape.mentions)):
            parts.append(rng.choice(vocab))
            gold = rng.randrange(len(concepts))
            surface = _variant(rng, rng.choice(concepts[gold]), index)
            start = len(" ".join(parts)) + 1
            parts.append(surface)
            mentions.append({"start": start, "end": start + len(surface), "surface": surface, "gold": f"C{gold:06d}"})
        docs.append({"doc_id": f"{prefix}{d:05d}", "text": " ".join(parts), "mentions": mentions})
    return docs


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        for record in records:
            fp.write(json.dumps(record) + "\n")


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        for row in rows:
            fp.write("\t".join(row) + "\n")


def generate(shape: Shape, seed: int, out_dir: Path) -> Inputs:
    rng = random.Random(f"kgel-perfbench:{seed}")
    vocab = _words(rng, shape.vocab)
    concepts = _concepts(rng, shape, vocab)
    ids = [f"C{i:06d}" for i in range(len(concepts))]
    weights = [math.exp(-r / 8) for r in range(shape.relations)]
    relation_ids = [f"R{r:02d}" for r in range(shape.relations)]
    triples = [
        (rng.choice(ids), rid, rng.choice(ids))
        for rid in rng.choices(relation_ids, weights, k=shape.triples)
    ]

    kg = out_dir / "kg"
    kg.mkdir(parents=True)
    _write_tsv(kg / "concepts.tsv", ((cid, syns[0]) for cid, syns in zip(ids, concepts)))
    _write_tsv(kg / "synonyms.tsv", ((cid, s) for cid, syns in zip(ids, concepts) for s in syns[1:]))
    _write_tsv(
        kg / "definitions.tsv",
        ((cid, " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 10)))) for cid in ids),
    )
    _write_tsv(kg / "relations.tsv", ((rid, f"has {rng.choice(vocab)}") for rid in relation_ids))
    _write_tsv(kg / "triples.tsv", triples)

    dataset = _documents(rng, shape, concepts, vocab, "d")
    _write_jsonl(out_dir / "dataset.jsonl", dataset)
    _write_jsonl(out_dir / "train.jsonl", _documents(rng, shape, concepts, vocab, "t"))
    _write_jsonl(out_dir / "empty.jsonl", [{"doc_id": "empty", "text": "", "mentions": []}])

    owners: dict[str, set[str]] = {}
    for cid, syns in zip(ids, concepts):
        for s in syns:
            owners.setdefault(normalize(s), set()).add(cid)
    return Inputs(
        owners={s: tuple(sorted(o)) for s, o in owners.items()},
        golds=[(doc["doc_id"], i, m["gold"]) for doc in dataset for i, m in enumerate(doc["mentions"])],
        properties={
            "concepts": len(concepts),
            "surfaces": len(owners),
            "ambiguous_surfaces": sum(1 for o in owners.values() if len(o) > 1),
            "root_fanout": len({s.split(" ", 1)[0] for s in owners}),
            "triples": len(triples),
            "mentions": shape.mentions,
        },
    )
