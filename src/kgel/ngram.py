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
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, mul
from pathlib import Path
from sys import intern
from typing import Callable, Collection, Iterable, Iterator, MutableSequence, Sequence, TextIO

from .errors import EmptyCorpusError, MalformedModelError
from .ingest import Document, locate_invalid_utf8
from .kg import KnowledgeGraph
from .similarity import select_target_synonym
from .synthesis import BOS, EOS
from .text import tokenize

NGRAM_FORMAT = "kgel-ngram-v1"
DEFAULT_ORDER = 3
# Rows that save_model formats per write.
_SAVE_ROWS = 1 << 14
# Keys that train counts into one sorted run, and run entries it merges at
# a time.
_RUN_KEYS = 1 << 13
_MERGE_ROWS = 1 << 14
# bytes.translate tables between 0 and 1 bytes and base-2 digits.
_TO_BINARY = bytes.maketrans(b"\x00\x01", b"01")
_FROM_BINARY = bytes.maketrans(b"01", b"\x00\x01")


def _column(bound: int) -> MutableSequence[int]:
    """An empty column for ints in ``range(bound)``: the narrowest unsigned
    ``array`` that holds them, or a plain list when 64 bits do not."""
    for code in "IQ":
        if bound <= 1 << 8 * array(code).itemsize:
            return array(code)
    return []


@dataclass(frozen=True)
class NGramModel:
    """Counts for every context length below ``order``, so prefixes shorter
    than order-1 still condition on what is available.

    ``tokens`` is the sorted vocabulary; the digit of ``tokens[i]`` is
    ``i + 1``. Each (context, token, count) row is one entry of the parallel
    columns ``row_keys`` and ``row_counts``. A row's key is the digits of its
    context tokens, then zeros up to ``order - 1`` places, then its token's
    digit, read as a number in base ``len(tokens) + 1``. Numeric key order is
    therefore (context, token) order, the order ``save_model`` writes, and the
    columns are kept in it: a context's rows are one slice, found by bisection.
    Each column is an unsigned ``array`` as narrow as its values allow, or a
    list of ints when keys need more than 64 bits. :func:`train` and
    :func:`load_model` fill the columns, encoding every row through
    ``_start``; ``_rows`` decodes them. ``counts`` and ``totals`` are fresh
    dict snapshots of the rows; scoring never reads them. The vocabulary is
    interned, as every token :func:`tokenize` makes is, and a model pickles
    as its four fields."""

    order: int
    tokens: tuple[str, ...]
    row_keys: Sequence[int] = field(repr=False)
    row_counts: Sequence[int] = field(repr=False)
    vocab: frozenset[str] = field(init=False, repr=False, compare=False)
    _digits: dict[str, int] = field(init=False, repr=False, compare=False)
    # _scales[n] is the place value of the last digit of an n-token context.
    _scales: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = len(self.tokens) + 1
        object.__setattr__(self, "tokens", tuple(map(intern, self.tokens)))
        object.__setattr__(self, "vocab", frozenset(self.tokens))
        object.__setattr__(self, "_digits", {token: digit for digit, token in enumerate(self.tokens, 1)})
        object.__setattr__(self, "_scales", tuple(base ** (self.order - n) for n in range(self.order)))

    def __reduce__(self):
        return type(self), (self.order, self.tokens, self.row_keys, self.row_counts)

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    @property
    def counts(self) -> dict[tuple[str, ...], dict[str, int]]:
        """A snapshot ``{context: {token: count}}`` of the rows; a token never
        seen after a context is absent, not zero."""
        counts: dict[tuple[str, ...], dict[str, int]] = {}
        for context, token, count in self._rows():
            table = counts.get(context)
            if table is None:
                table = counts[context] = {}
            table[token] = count
        return counts

    @property
    def totals(self) -> dict[tuple[str, ...], int]:
        """A snapshot ``{context: sum of its counts}``."""
        return {context: sum(table.values()) for context, table in self.counts.items()}

    def _rows(self) -> Iterator[tuple[tuple[str, ...], str, int]]:
        """``(context, token, count)`` for every row, in key order."""
        names = ("",) + self.tokens
        base = len(names)
        previous, context = None, ()
        for key, count in zip(self.row_keys, self.row_counts):
            start, digit = divmod(key, base)
            if start != previous:
                previous, places = start, []
                for _ in range(self.order - 1):
                    start, place = divmod(start, base)
                    places.append(place)
                # Real digits are positive; the zeros are padding.
                context = tuple(names[place] for place in reversed(places) if place)
            yield context, names[digit], count

    def _start(self, context: Sequence[str]) -> int | None:
        """The key that ``context``'s rows have with a zero token digit, or
        None when one of its tokens is not in the vocabulary."""
        digits = self._digits
        base = len(self.tokens) + 1
        start = 0
        for token in context:
            digit = digits.get(token)
            if digit is None:
                return None
            start = start * base + digit
        return start * self._scales[len(context)]

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
        start = self._start(prefix[-(self.order - 1):] if self.order > 1 else ())
        keys = self.row_keys
        if start is not None:
            lo = bisect_right(keys, start)
            hi = bisect_left(keys, start + len(self.tokens) + 1, lo)
        if start is None or lo == hi:
            return -math.log(self.vocab_size), {}
        counts = self.row_counts
        denom = sum(counts[lo:hi]) + self.vocab_size
        if hi - lo <= len(candidates):
            names = self.tokens
            start += 1
            seen = [(token, count) for key, count in zip(keys[lo:hi], counts[lo:hi]) if (token := names[key - start]) in candidates]
        else:
            seen = []
            for token in candidates:
                digit = self._digits.get(token)
                if digit is not None:
                    i = bisect_left(keys, start + digit, lo, hi)
                    if i < hi and keys[i] == start + digit:
                        seen.append((token, counts[i]))
        # The default is the zero-count case of the formula below; written as
        # -math.log(denom) it can differ in the last bit.
        return math.log(1 / denom), {token: math.log((count + 1) / denom) for token, count in seen}


def train(targets: Iterable[str], order: int = DEFAULT_ORDER) -> NGramModel:
    """Count every window of up to ``order`` tokens in each target's token
    sequence (the [BOS]/[EOS] markers are ordinary tokens of the line).

    The targets are read once into a stream of token ids with a 0 after each
    line; once the vocabulary is sorted, each id is replaced by its token's
    digit. A window's key is then a sum of stream values times place values,
    so the keys of each width come from C-level maps over shifted views of
    the stream, a piece at a time, and windows that hold a 0 cross a line
    break and are dropped. The keys are counted ``_RUN_KEYS`` at a time into runs sorted
    by key, and the runs are merged a key range at a time, summing equal
    keys, straight into the model's columns."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ids: defaultdict[str, int] = defaultdict(count(1).__next__)
    stream = array("H")
    for line in targets:
        tokens = tokenize(line)
        if tokens:
            end = len(stream)
            try:
                stream.extend(map(ids.__getitem__, tokens))
            except OverflowError:
                # The ids outgrew 2 bytes: widen once and redo this line.
                del stream[end:]
                stream = array("I", stream)
                stream.extend(map(ids.__getitem__, tokens))
            stream.append(0)
    if not ids:
        raise EmptyCorpusError("cannot train on an empty corpus")
    vocab = tuple(sorted(ids))
    digits = [0] * (len(vocab) + 1)
    for digit, token in enumerate(vocab, 1):
        digits[ids[token]] = digit
    del ids
    # In slices: a copy of the whole stream would add to the peak.
    for i in range(0, len(stream), _RUN_KEYS):
        stream[i:i + _RUN_KEYS] = array(stream.typecode, map(digits.__getitem__, stream[i:i + _RUN_KEYS]))
    del digits
    base = len(vocab) + 1
    keys = _column(base ** order)
    # No count exceeds the number of tokens.
    values = _column(len(stream) + 1)
    runs = _count_runs(chain.from_iterable(_window_keys(stream, base, order)), keys)
    del stream
    _merge_runs(runs, keys, values)
    return NGramModel(order, vocab, keys, values)


def _window_keys(stream: Sequence[int], base: int, order: int) -> Iterator[Iterator[int]]:
    """For each window width from 1 to ``order``, the keys of the windows of
    ``stream`` that hold no 0, in stream order and in pieces of up to
    ``_RUN_KEYS`` windows, each made once the one before is used up. A
    window's key has the digits of its first ``width - 1`` tokens in the
    leading places of an ``order``-place number in ``base``, and its last
    token's digit in the last place."""
    yield filter(None, stream)
    for width in range(2, order + 1):
        for start in range(0, len(stream) - width + 1, _RUN_KEYS):
            part = stream[start:start + _RUN_KEYS + width - 1]
            keys = map(mul, part, repeat(base ** (order - 1)))
            for offset in range(1, width - 1):
                keys = map(add, keys, map(mul, islice(part, offset, None), repeat(base ** (order - 1 - offset))))
            yield compress(map(add, keys, islice(part, width - 1, None)), _whole_windows(part, width))


def _whole_windows(part: Sequence[int], width: int) -> bytes:
    """A 1 byte for each ``width``-value window of ``part`` that holds no 0,
    and a 0 byte for each other one. Bit ``len(part) - 1 - i`` of ``filled``
    is set when ``part[i]`` is not 0, so the AND of ``filled`` shifted by 0
    to ``width - 1`` places has it set when the window at ``i`` holds no 0:
    big-int operations test a machine word of windows at a time."""
    filled = int(bytes(map(bool, part)).translate(_TO_BINARY), 2)
    whole = filled
    for shift in range(1, width):
        whole &= filled << shift
    return format(whole >> (width - 1), f"0{len(part) - width + 1}b").encode().translate(_FROM_BINARY)


def _count_runs(keys: Iterator[int], column: MutableSequence[int]) -> list[tuple[MutableSequence[int], array]]:
    """``keys`` counted ``_RUN_KEYS`` at a time: for each chunk, its distinct
    keys in ascending order, in an empty copy of ``column``, and a column of
    their counts."""
    runs = []
    while counter := Counter(islice(keys, _RUN_KEYS)):
        ordered = sorted(counter)
        run_keys = column[:0]
        run_keys.extend(ordered)
        run_counts = _column(_RUN_KEYS + 1)
        run_counts.extend(map(counter.__getitem__, ordered))
        runs.append((run_keys, run_counts))
    return runs


def _merge_runs(runs: list[tuple[MutableSequence[int], array]], keys: MutableSequence[int], values: MutableSequence[int]) -> None:
    """Append the rows of ``runs`` to ``keys`` and ``values`` in key order,
    with the counts of a key summed over the runs. Each pass takes the next
    key range, which holds at most ``step`` entries of each run, so about
    ``_MERGE_ROWS`` in all: it ends at the lowest key that lies ``step``
    entries past a run's position, or takes the rest when no run has that
    many left."""
    step = max(1, _MERGE_ROWS // len(runs))
    lows = [0] * len(runs)
    while True:
        end = min((run_keys[low + step] for (run_keys, _), low in zip(runs, lows) if low + step < len(run_keys)), default=None)
        merged: dict[int, int] = {}
        for i, (run_keys, run_counts) in enumerate(runs):
            low = lows[i]
            high = lows[i] = len(run_keys) if end is None else bisect_left(run_keys, end, low)
            some = run_keys[low:high]
            # A run's keys are distinct, so each get reads the sum over the
            # runs before this one.
            merged.update(zip(some, map(add, run_counts[low:high], map(merged.get, some, repeat(0)))))
        # The dict holds ascending runs of keys, which one sort merges.
        ordered = sorted(merged)
        keys.extend(ordered)
        values.extend(map(merged.__getitem__, ordered))
        if end is None:
            return


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
    # _rows gives a context's rows one tuple, so its text is joined once per
    # run of rows; _SAVE_ROWS formatted rows go out per write.
    lines: list[str] = []
    previous = text = None
    for context, token, count in model._rows():
        if context is not previous:
            previous, text = context, " ".join(context)
        lines.append(f"{text}\t{token}\t{count}\n")
        if len(lines) == _SAVE_ROWS:
            fp.write("".join(lines))
            lines.clear()
    fp.write("".join(lines))


def _parse_rows(fp: TextIO, src: Path, order: int) -> Iterator[tuple[int, str, str, int]]:
    """``(line_no, context field, token, count)`` for each row after the
    header, with the context field's token count and the count checked."""
    previous_field = None
    # Universal newlines end every line but the last in a single "\n"; it
    # stays on the count field, which int() strips.
    for line_no, line in enumerate(fp, start=4):
        fields = line.split("\t")
        if len(fields) != 3:
            if line == "\n":
                continue
            raise MalformedModelError(src, line_no, "expected 3 tab-separated fields")
        context_field, token, count_field = fields
        if context_field != previous_field:
            if context_field and context_field.count(" ") + 1 >= order:
                raise MalformedModelError(src, line_no, "context longer than order allows")
            previous_field = context_field
        # Every other token must have a vocabulary row, so checking these
        # rows keeps every token one that tokenize could produce.
        if not context_field and token.split() != [token]:
            raise MalformedModelError(src, line_no, f"vocabulary token {token!r} is not a single token")
        try:
            count = int(count_field)
        except ValueError as exc:
            raise MalformedModelError(src, line_no, "bad count") from exc
        if count < 1:
            raise MalformedModelError(src, line_no, "counts must be positive")
        yield line_no, context_field, token, count


def _duplicate(src: Path, line_no: int, context_field: str, token: str) -> MalformedModelError:
    return MalformedModelError(src, line_no, f"duplicate row for context {context_field!r}, token {token!r}")


def _vocab_mismatch(src: Path, vocab_size: int, rows: int) -> MalformedModelError:
    return MalformedModelError(src, 3, f"vocabulary size {vocab_size} does not match rows ({rows})")


def _load_rows(rows: Iterator[tuple[int, str, str, int]], src: Path, order: int) -> NGramModel | None:
    """The model of ``rows`` as ``save_model`` orders them, streamed into the
    columns: the ``()`` rows, which make the vocabulary, then keys in
    ascending order. None at the first row that is out of that order, names
    a token with no vocabulary row before it or holds a count too wide for
    the count column: :func:`_load_unordered` reads such a file."""
    tokens: list[str] = []
    counts: list[int] = []
    row = None
    for row in rows:
        _, context_field, token, count = row
        if context_field:
            break
        if tokens and token <= tokens[-1]:
            if token == tokens[-1]:
                raise _duplicate(src, row[0], context_field, token)
            return None
        tokens.append(token)
        counts.append(count)
    else:
        row = None
    keys = _column((len(tokens) + 1) ** order)
    keys.extend(range(1, len(tokens) + 1))
    values = _column(max(counts, default=0) + 1)
    values.extend(counts)
    del counts
    if row is not None:
        # Holds the vocabulary; its columns grow below.
        shape = NGramModel(order, tuple(tokens), keys, values)
        start_of, digit_of = shape._start, shape._digits.get
        previous, last_field, start = len(tokens), None, None
        append_key, append_count = keys.append, values.append
        for row in chain([row], rows):
            _, context_field, token, count = row
            if context_field != last_field:
                last_field = context_field
                start = start_of(context_field.split(" ") if context_field else ())
            digit = digit_of(token)
            key = None if start is None or digit is None else start + digit
            if key is None or key <= previous:
                if key == previous:
                    raise _duplicate(src, row[0], context_field, token)
                return None
            previous = key
            append_key(key)
            try:
                append_count(count)
            except OverflowError:
                return None
    return NGramModel(order, tuple(tokens), keys, values)


def _load_unordered(rows: Callable[[], Iterator[tuple[int, str, str, int]]], src: Path, order: int) -> NGramModel:
    """The model of rows in any order, from two reads of ``rows()``. The
    first gathers the vocabulary (the ``()`` rows) and the largest count;
    the second encodes each row as a key in a key column, beside its count
    and its line number. One stable sort of the row indices by key then
    orders all three, so a duplicate row is two equal neighbouring keys,
    and is reported at the later line."""
    vocab: set[str] = set()
    top = 0
    for _, context_field, token, count in rows():
        if not context_field:
            vocab.add(token)
        top = max(top, count)
    tokens = tuple(sorted(vocab))
    del vocab
    shape = NGramModel(order, tokens, (), ())
    start_of, digits = shape._start, shape._digits
    keys = _column((len(tokens) + 1) ** order)
    counts = _column(top + 1)
    lines = array("I")
    last_field = start = None
    for line_no, context_field, token, count in rows():
        if context_field != last_field:
            last_field = context_field
            context = context_field.split(" ") if context_field else ()
            start = start_of(context)
        digit = digits.get(token)
        if start is None or digit is None:
            name = next(name for name in (*context, token) if name not in digits)
            raise MalformedModelError(src, line_no, f"token {name!r} has no vocabulary row")
        keys.append(start + digit)
        counts.append(count)
        lines.append(line_no)
    # sorted is stable: the rows of one key stay in line order.
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    keys, counts, lines = (_permuted(column, ranked) for column in (keys, counts, lines))
    del ranked
    repeats = compress(range(1, len(keys)), map(eq, islice(keys, 1, None), keys))
    first = min(repeats, key=lines.__getitem__, default=None)
    if first is not None:
        context, token, _ = next(NGramModel(order, tokens, keys[first:first + 1], counts[first:first + 1])._rows())
        raise _duplicate(src, lines[first], " ".join(context), token)
    return NGramModel(order, tokens, keys, counts)


def _permuted(column: MutableSequence[int], ranked: Iterable[int]) -> MutableSequence[int]:
    """A column of ``column``'s type holding ``column[i]`` for each ``i`` of
    ``ranked``, in that order."""
    permuted = column[:0]
    permuted.extend(map(column.__getitem__, ranked))
    return permuted


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
            body = fp.tell()

            def rows() -> Iterator[tuple[int, str, str, int]]:
                fp.seek(body)
                return _parse_rows(fp, src, order)

            model = _load_rows(rows(), src, order)
            if model is None:
                model = _load_unordered(rows, src, order)
    except UnicodeDecodeError:
        raise MalformedModelError(src, *locate_invalid_utf8(src)) from None
    if model.vocab_size != vocab_size:
        raise _vocab_mismatch(src, vocab_size, model.vocab_size)
    return model
