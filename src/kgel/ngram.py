"""Token n-gram language model with add-one smoothing.

This is the desk-scale stand-in for a neural generative model: it trains on
corpus targets in seconds and its scores are exact, hand-checkable fractions.
Tokens live in the shared normalized space (case-folded), so the model, the
trie and the lookup table always agree on vocabulary.

The model implements the scorer contract directly; wrap it with
:func:`condition_on_mention` to complete the linking template
``[BOS] {mention} is ...`` during constrained decoding.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Sequence, TextIO

from .errors import EmptyCorpusError, MalformedModelError
from .ingest import Document, locate_invalid_utf8
from .kg import KnowledgeGraph
from .similarity import select_target_synonym
from .synthesis import BOS, EOS
from .text import tokenize

NGRAM_FORMAT = "kgel-ngram-v1"
DEFAULT_ORDER = 3


@dataclass(frozen=True)
class NGramModel:
    """Counts for every context length below ``order``, so prefixes shorter
    than order-1 still condition on what is available."""

    order: int
    counts: dict[tuple[str, ...], Counter]
    totals: dict[tuple[str, ...], int]
    vocab: frozenset[str]

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def score_next(self, prefix: Sequence[str], candidates: set[str]) -> dict[str, float]:
        """Add-one smoothed log P(token | last order-1 prefix tokens). An
        unseen context degrades to the uniform log(1/V)."""
        default, observed = self.score_sparse(prefix, candidates)
        return {token: observed.get(token, default) for token in candidates}

    def score_sparse(self, prefix: Sequence[str], candidates: Collection[str]) -> tuple[float, dict[str, float]]:
        """:meth:`score_next` as ``(default, {token: log prob})``: only the
        candidates counted after this context are listed; every other one
        scores ``default``, the add-one value for a zero count."""
        if not candidates:
            raise ValueError("candidates must be non-empty")
        if self.order == 1:
            context: tuple[str, ...] = ()
        else:
            context = tuple(prefix[-(self.order - 1):])
        counter = self.counts.get(context)
        denom = self.totals.get(context, 0) + self.vocab_size
        if counter is None:
            return -math.log(denom), {}
        if len(counter) <= len(candidates):
            seen = [(token, count) for token, count in counter.items() if token in candidates]
        else:
            seen = [(token, counter[token]) for token in candidates if token in counter]
        # The default is the zero-count case of the formula below; written as
        # -math.log(denom) it can differ in the last bit.
        return math.log(1 / denom), {token: math.log((count + 1) / denom) for token, count in seen}


def train(targets: Iterable[str], order: int = DEFAULT_ORDER) -> NGramModel:
    """Accumulate counts over each target's token sequence (the [BOS]/[EOS]
    markers are ordinary tokens of the line)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    counts: dict[tuple[str, ...], Counter] = {}
    totals: dict[tuple[str, ...], int] = {}
    vocab: set[str] = set()
    n_tokens = 0
    for line in targets:
        tokens = tokenize(line)
        if not tokens:
            continue
        n_tokens += len(tokens)
        vocab.update(tokens)
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                context = tuple(tokens[i - length:i])
                counter = counts.get(context)
                if counter is None:
                    counter = counts[context] = Counter()
                    totals[context] = 0
                counter[token] += 1
                totals[context] += 1
    if n_tokens == 0:
        raise EmptyCorpusError("cannot train on an empty corpus")
    return NGramModel(order=order, counts=counts, totals=totals, vocab=frozenset(vocab))


@dataclass(frozen=True)
class MentionConditionedScorer:
    """Scores decoder prefixes as continuations of ``[BOS] {mention} is``."""

    model: NGramModel
    context: tuple[str, ...]

    def score_next(self, prefix: Sequence[str], candidates: set[str]) -> dict[str, float]:
        return self.model.score_next(self.context + tuple(prefix), candidates)

    def score_sparse(self, prefix: Sequence[str], candidates: Collection[str]) -> tuple[float, dict[str, float]]:
        return self.model.score_sparse(self.context + tuple(prefix), candidates)


def condition_on_mention(model: NGramModel, mention_surface: str) -> MentionConditionedScorer:
    return MentionConditionedScorer(model, tuple(tokenize(f"{BOS} {mention_surface} is")))


def finetune_targets(kg: KnowledgeGraph, docs: Iterable[Document]) -> list[str]:
    """Linking-template lines, one per mention whose gold id resolves: the
    target surface is the gold entity's synonym closest to the mention."""
    lines = []
    for doc in docs:
        for mention in doc.mentions:
            entity = kg.entities.get(mention.gold)
            if entity is None:
                continue
            synonym = select_target_synonym(mention.surface, entity)
            lines.append(f"{BOS} {mention.surface} is {synonym} {EOS}")
    return lines


def save_model(model: NGramModel, fp: TextIO, *, config: dict | None = None) -> None:
    """Line-oriented dump: version line, order, vocabulary size, then sorted
    ``context<TAB>token<TAB>count`` rows. Round-trips bit-exactly."""
    if config is None:
        fp.write(NGRAM_FORMAT + "\n")
    else:
        fp.write(NGRAM_FORMAT + "\t" + json.dumps(config, sort_keys=True) + "\n")
    fp.write(f"{model.order}\n")
    fp.write(f"{model.vocab_size}\n")
    for context in sorted(model.counts):
        counter = model.counts[context]
        joined = " ".join(context)
        for token in sorted(counter):
            fp.write(f"{joined}\t{token}\t{counter[token]}\n")


def load_model(path: str | Path) -> NGramModel:
    src = Path(path)
    try:
        with open(src, encoding="utf-8") as fp:
            header, order_line, vocab_line = fp.readline(), fp.readline(), fp.readline()
            if header.rstrip("\r\n").split("\t", 1)[0] != NGRAM_FORMAT:
                raise MalformedModelError(f"{src}: not a {NGRAM_FORMAT} file")
            try:
                order = int(order_line.strip())
                vocab_size = int(vocab_line.strip())
            except ValueError as exc:
                raise MalformedModelError(f"{src}: bad order/vocabulary header") from exc
            if order < 1 or vocab_size < 1:
                raise MalformedModelError(f"{src}: order and vocabulary size must be positive")
            counts: dict[tuple[str, ...], Counter] = {}
            totals: dict[tuple[str, ...], int] = {}
            for line_no, raw in enumerate(fp, start=4):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise MalformedModelError(f"{src}:{line_no}: expected 3 tab-separated fields")
                context = tuple(fields[0].split(" ")) if fields[0] else ()
                if len(context) >= order:
                    raise MalformedModelError(f"{src}:{line_no}: context longer than order allows")
                try:
                    count = int(fields[2])
                except ValueError as exc:
                    raise MalformedModelError(f"{src}:{line_no}: bad count") from exc
                if count < 1:
                    raise MalformedModelError(f"{src}:{line_no}: counts must be positive")
                counter = counts.get(context)
                if counter is None:
                    counter = counts[context] = Counter()
                    totals[context] = 0
                token = fields[1]
                if token in counter:
                    raise MalformedModelError(f"{src}:{line_no}: duplicate row for context {fields[0]!r}, token {token!r}")
                counter[token] = count
                totals[context] += count
    except UnicodeDecodeError:
        line_no, reason = locate_invalid_utf8(src)
        raise MalformedModelError(f"{src}:{line_no}: {reason}") from None
    vocab = frozenset(counts.get((), Counter()))
    if len(vocab) != vocab_size:
        raise MalformedModelError(f"{src}: vocabulary size {vocab_size} does not match rows ({len(vocab)})")
    return NGramModel(order=order, counts=counts, totals=totals, vocab=vocab)
