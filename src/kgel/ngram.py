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
    than order-1 still condition on what is available. ``counts`` maps each
    context to a plain ``{token: count}`` dict; a token never seen after the
    context is absent, not zero."""

    order: int
    counts: dict[tuple[str, ...], dict[str, int]]
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
    unigrams: Counter = Counter()
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for line in targets:
        tokens = tokenize(line)
        unigrams.update(tokens)
        for length in range(1, min(order, len(tokens))):
            # Every window of `length` tokens paired with the token after it.
            for context, token in zip(zip(*[tokens[i:] for i in range(length)]), tokens[length:]):
                counter = counts.get(context)
                if counter is None:
                    counter = counts[context] = {}
                counter[token] = counter.get(token, 0) + 1
    if not unigrams:
        raise EmptyCorpusError("cannot train on an empty corpus")
    counts[()] = dict(unigrams)
    totals = {context: sum(counter.values()) for context, counter in counts.items()}
    return NGramModel(order=order, counts=counts, totals=totals, vocab=frozenset(unigrams))


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
                raise MalformedModelError(src, 1, f"not a {NGRAM_FORMAT} file")
            sizes = []
            for line_no, line in ((2, order_line), (3, vocab_line)):
                try:
                    sizes.append(int(line.strip()))
                except ValueError as exc:
                    raise MalformedModelError(src, line_no, "bad order/vocabulary header") from exc
            order, vocab_size = sizes
            if order < 1 or vocab_size < 1:
                raise MalformedModelError(src, 2 if order < 1 else 3, "order and vocabulary size must be positive")
            counts: dict[tuple[str, ...], dict[str, int]] = {}
            # save_model writes rows sorted by context, so the context field
            # is split and looked up once per run of equal fields. Rows of a
            # context that recurs after another still land in the same
            # table, so duplicates are caught in any row order.
            previous_field = None
            for line_no, raw in enumerate(fp, start=4):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise MalformedModelError(src, line_no, "expected 3 tab-separated fields")
                context_field, token, count_field = fields
                if context_field != previous_field:
                    context = tuple(context_field.split(" ")) if context_field else ()
                    if len(context) >= order:
                        raise MalformedModelError(src, line_no, "context longer than order allows")
                    counter = counts.get(context)
                    if counter is None:
                        counter = counts[context] = {}
                    previous_field = context_field
                try:
                    count = int(count_field)
                except ValueError as exc:
                    raise MalformedModelError(src, line_no, "bad count") from exc
                if count < 1:
                    raise MalformedModelError(src, line_no, "counts must be positive")
                if token in counter:
                    raise MalformedModelError(src, line_no, f"duplicate row for context {context_field!r}, token {token!r}")
                counter[token] = count
    except UnicodeDecodeError:
        raise MalformedModelError(src, *locate_invalid_utf8(src)) from None
    vocab = frozenset(counts.get((), ()))
    if len(vocab) != vocab_size:
        raise MalformedModelError(src, 3, f"vocabulary size {vocab_size} does not match rows ({len(vocab)})")
    totals = {context: sum(counter.values()) for context, counter in counts.items()}
    return NGramModel(order=order, counts=counts, totals=totals, vocab=vocab)
