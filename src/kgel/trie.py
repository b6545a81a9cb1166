"""Token trie over registered surface forms, and beam search constrained to it.

The trie defines the legal output space: a decode step may only emit a token
that extends some registered surface form. Scorers are pluggable; anything
with a ``score_next(prefix, candidates) -> {token: log prob}`` method works.
A scorer may also offer ``score_sparse(prefix, candidates) -> (default,
{token: log prob})``: the candidates it has observed get their own score and
every other candidate takes ``default``. Search then materialises only the
observed children plus the first ``beam_width`` unobserved ones in token
order, which is exact because equal scores are ranked by token sequence.
Scores must be finite; hard exclusion is expressed by the trie itself.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from collections.abc import Set
from itertools import islice, repeat, zip_longest
from operator import eq, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Protocol, Sequence

from .errors import EmptySurfaceError, InvalidPrefixError, NonFiniteScoreError, NoHypothesisError
from .kg import KnowledgeGraph
from .text import tokenize


class Scorer(Protocol):
    def score_next(self, prefix: Sequence[str], candidates: set[str]) -> Mapping[str, float]:
        """Log-probability for each candidate token given the prefix."""
        ...


class UniformScorer:
    """Flat distribution over the candidate set at every step."""

    def score_next(self, prefix: Sequence[str], candidates: set[str]) -> dict[str, float]:
        logp = -math.log(len(candidates))
        return {token: logp for token in candidates}

    def score_sparse(self, prefix: Sequence[str], candidates: Collection[str]) -> tuple[float, dict[str, float]]:
        return -math.log(len(candidates)), {}


def _dense(scorer: Scorer) -> Callable[[Sequence[str], Collection[str]], tuple[float, Mapping[str, float]]]:
    """``score_sparse`` for a scorer that only has ``score_next``: every
    candidate is observed, so the default is never used."""

    def score_sparse(prefix: Sequence[str], candidates: Collection[str]) -> tuple[float, Mapping[str, float]]:
        # The scorer gets its own copy, so the check below holds even if it
        # changes the set it was given.
        wanted = set(candidates)
        scores = scorer.score_next(prefix, set(wanted))
        if scores.keys() != wanted:
            raise ValueError("scorer did not cover exactly the candidate set")
        return 0.0, scores

    return score_sparse


class _Children(Set):
    """The tokens of one node's children: a read-only set view over a slice
    of the trie's sorted ``labels``, so membership is a bisection."""

    __slots__ = ("_labels", "_lo", "_hi")

    def __init__(self, labels: list[str], lo: int, hi: int):
        self._labels, self._lo, self._hi = labels, lo, hi

    @classmethod
    def _from_iterable(cls, iterable: Iterable[str]) -> set[str]:
        return set(iterable)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels[self._lo:self._hi])

    def __contains__(self, token: object) -> bool:
        return _child(self._labels, self._lo, self._hi, token) >= 0


def _child(labels: list[str], lo: int, hi: int, token: object) -> int:
    """The node in ``lo:hi`` labelled ``token``, or -1."""
    try:
        i = bisect_left(labels, token, lo, hi)
    except TypeError:  # not comparable with a string
        return -1
    return i if i < hi and labels[i] == token else -1


def _children(labels: list[str], lo: int, hi: int, tokens: Collection[str]) -> list[int]:
    """The node in ``lo:hi`` labelled by each of ``tokens``, in their order;
    ValueError when one of them labels none."""
    try:
        found = list(map(bisect_left, repeat(labels), tokens, repeat(lo), repeat(hi)))
    except TypeError:
        found = [hi]
    if hi in found or not all(map(eq, map(labels.__getitem__, found), tokens)):
        raise ValueError("scorer returned a token outside the candidate set")
    return found


class TokenTrie:
    """Prefix tree over token sequences; terminals carry the owning entity ids
    (non-empty, deduplicated, sorted). Immutable once built.

    Nodes are numbered in level order (root 0, then depth 1 in token order,
    then each depth-1 node's children in turn, and so on) and stored as
    columns: ``labels[n]`` is the token on the edge into node ``n``, the
    children of ``n`` are the nodes ``first[n]:first[n + 1]``, contiguous and
    in token order, and its owners are ``owner_ids[owner_first[n]:owner_first[n + 1]]``."""

    def __init__(self):
        self._labels: list[str] = [""]
        self._first = array("I", [1, 1])
        self._owner_first = array("I", [0, 0])
        self._owner_ids: list[str] = []
        self._surfaces = 0
        self._max_depth = 0

    @classmethod
    def from_surfaces(cls, surface_owners: Mapping[str, Iterable[str]]) -> "TokenTrie":
        """Build from a map of surface form -> owning entity ids. Surfaces are
        tokenized with the shared normalization; a surface without owners
        adds nothing."""

        def entries() -> Iterator[tuple[str, list[str]]]:
            for surface in sorted(surface_owners):
                tokens = tokenize(surface)
                if not tokens:
                    raise EmptySurfaceError(f"surface {surface!r} normalizes to zero tokens")
                for owner in set(surface_owners[surface]):
                    yield owner, tokens

        return cls._build(entries())

    @classmethod
    def _build(cls, entries: Iterable[tuple[str, Sequence[str]]]) -> "TokenTrie":
        """Build from ``(owner, tokens)`` pairs in any order.

        Each pair's tokens are spread over one column per depth (``""`` past
        its end), and the pairs are ordered by stable sorts: by owner, then by
        each depth's column, deepest first. That is token-sequence order, with
        a surface's owners ascending and a repeated owner next to itself, and
        every node's entries form one run. Levels are then numbered one at a
        time from the runs of the level above."""
        owners: list[str] = []
        columns: list[list[str]] = []
        entries = iter(entries)
        # Pairs are read a bounded chunk at a time, and each chunk's token
        # lists are transposed into the columns.
        while chunk := list(islice(entries, 1024)):
            depths = list(zip_longest(*map(itemgetter(1), chunk), fillvalue=""))
            while len(columns) < len(depths):
                columns.append([""] * len(owners))
            for column, tokens in zip_longest(columns, depths, fillvalue=("",) * len(chunk)):
                column.extend(tokens)
            owners.extend(map(itemgetter(0), chunk))
        order = sorted(range(len(owners)), key=owners.__getitem__)
        for column in reversed(columns):
            order.sort(key=column.__getitem__)

        trie = cls()
        trie._max_depth = len(columns)
        labels, first = [""], array("I", [1])
        owner_first, owner_ids = array("I", [0]), []
        # `run` holds the entries that reach the current depth, in order, and
        # `nodes` the node each one is at. An entry whose column reads "" ends
        # at its node, as every entry does past the deepest column. Terminals
        # come up in node order, each with its owners together and ascending.
        run, nodes = order, array("I", bytes(4 * len(order)))
        child, terminal = 0, -1
        while run:
            level = map(columns.pop(0).__getitem__, run) if columns else repeat("")
            next_run, next_nodes = [], array("I")
            parent = token = None
            for entry, node, label in zip(run, nodes, level):
                if not label:
                    owner = owners[entry]
                    if node != terminal:
                        terminal = node
                        trie._surfaces += 1
                        owner_first.extend(repeat(len(owner_ids), node + 1 - len(owner_first)))
                    elif owner == owner_ids[-1]:
                        continue
                    owner_ids.append(owner)
                    continue
                if node != parent:
                    parent, token = node, None
                    first.extend(repeat(child + 1, node + 1 - len(first)))
                if label != token:
                    token, child = label, child + 1
                    labels.append(label)
                next_run.append(entry)
                next_nodes.append(child)
            run, nodes = next_run, next_nodes

        first.extend(repeat(len(labels), len(labels) + 1 - len(first)))
        owner_first.extend(repeat(len(owner_ids), len(labels) + 1 - len(owner_first)))
        trie._labels, trie._first, trie._owner_first, trie._owner_ids = labels, first, owner_first, owner_ids
        return trie

    def _walk(self, prefix: Sequence[str]) -> int:
        labels, first, node = self._labels, self._first, 0
        for token in prefix:
            node = _child(labels, first[node], first[node + 1], token)
            if node < 0:
                raise InvalidPrefixError(f"prefix {list(prefix)!r} is not in the trie")
        return node

    def _owners(self, node: int) -> list[str]:
        return self._owner_ids[self._owner_first[node]:self._owner_first[node + 1]]

    def allowed_next(self, prefix: Sequence[str]) -> tuple[set[str], bool]:
        """Tokens that may follow ``prefix``, and whether the prefix itself is
        a complete registered surface form."""
        node = self._walk(prefix)
        return set(self._labels[self._first[node]:self._first[node + 1]]), bool(self._owners(node))

    def entities_at(self, prefix: Sequence[str]) -> tuple[str, ...]:
        return tuple(self._owners(self._walk(prefix)))

    def owners(self, surface: str) -> tuple[str, ...]:
        """The entities that own ``surface`` under the shared normalization,
        ascending; ``()`` when it is not a registered surface form, as for
        ``""``."""
        try:
            return self.entities_at(tokenize(surface))
        except InvalidPrefixError:
            return ()

    def is_ambiguous(self, surface: str) -> bool:
        return len(self.owners(surface)) > 1

    def __len__(self) -> int:
        return self._surfaces

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def max_depth(self) -> int:
        return self._max_depth


def build_trie(kg: KnowledgeGraph) -> TokenTrie:
    """Trie over every synonym of every entity; a terminal's payload lists all
    entities sharing that surface form."""

    def entries() -> Iterator[tuple[str, list[str]]]:
        for entity_id in sorted(kg.entities):
            for synonym in kg.entities[entity_id].synonyms:
                tokens = tokenize(synonym)
                if not tokens:
                    raise EmptySurfaceError(f"synonym {synonym!r} of {entity_id} normalizes to zero tokens")
                yield entity_id, tokens

    return TokenTrie._build(entries())


def constrained_beam_search(trie: TokenTrie, scorer: Scorer, beam_width: int = 5) -> list[tuple[tuple[str, ...], float]]:
    """Beam search where each step's candidates are exactly the trie children.

    A beam sitting on a terminal node emits a completed hypothesis (and keeps
    expanding if the node has children). Hypotheses are ranked by descending
    score, ties broken lexicographically by token sequence. Search runs
    ``trie.max_depth`` steps, so it completes on any non-empty trie. Raises
    NoHypothesisError when nothing completes (an empty trie),
    NonFiniteScoreError when the scorer returns NaN or an infinity, and
    ValueError when it scores a token that is not a candidate (or, for a
    scorer with only ``score_next``, misses one).
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    score_sparse = getattr(scorer, "score_sparse", None) or _dense(scorer)

    labels, first, owner_first = trie._labels, trie._first, trie._owner_first
    beams: list[tuple[tuple[str, ...], float, int]] = [((), 0.0, 0)]
    completed: list[tuple[tuple[str, ...], float]] = []
    for _ in range(trie.max_depth):
        expansions: list[tuple[tuple[str, ...], float, int]] = []
        for prefix, score, node in beams:
            lo, hi = first[node], first[node + 1]
            if lo == hi:
                continue
            default, observed = score_sparse(prefix, _Children(labels, lo, hi))
            children = _children(labels, lo, hi, observed)
            if not (math.isfinite(default) and all(map(math.isfinite, observed.values()))):
                raise NonFiniteScoreError(f"scorer returned a non-finite score after prefix {list(prefix)!r}")
            for (token, logp), child in zip(observed.items(), children):
                expansions.append((prefix + (token,), score + logp, child))
            # Unobserved children tie on score, so only the first beam_width
            # of them in token order can reach the beam.
            if len(observed) < hi - lo:
                unobserved = (child for child in range(lo, hi) if labels[child] not in observed)
                for child in islice(unobserved, beam_width):
                    expansions.append((prefix + (labels[child],), score + default, child))
        if not expansions:
            break
        beams = heapq.nsmallest(beam_width, expansions, key=lambda item: (-item[1], item[0]))
        for prefix, score, node in beams:
            if owner_first[node] != owner_first[node + 1]:
                completed.append((prefix, score))

    if not completed:
        raise NoHypothesisError("no surface form completed")
    completed.sort(key=lambda item: (-item[1], item[0]))
    return completed
