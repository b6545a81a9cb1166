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
from itertools import islice
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Protocol, Sequence

from .errors import EmptySurfaceError, InvalidPrefixError, NonFiniteScoreError, NoHypothesisError
from .kg import KnowledgeGraph
from .text import tokenize

TRIE_DUMP_FORMAT = "kgel-trie-dump-v1"


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
        scores = scorer.score_next(prefix, set(candidates))
        if scores.keys() != candidates:
            raise ValueError("scorer did not cover exactly the candidate set")
        return 0.0, scores

    return score_sparse


class _Node:
    """``children`` iterates in sorted token order once the trie is built."""

    __slots__ = ("children", "entity_ids")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.entity_ids: tuple[str, ...] = ()


class TokenTrie:
    """Prefix tree over token sequences; terminals carry the owning entity ids
    (non-empty, deduplicated, sorted). Immutable once built."""

    def __init__(self):
        self._root = _Node()
        self._surfaces = 0
        self._nodes = 1
        self._max_depth = 0

    @classmethod
    def from_surfaces(cls, surface_owners: Mapping[str, Iterable[str]]) -> "TokenTrie":
        """Build from a map of surface form -> owning entity ids. Surfaces are
        tokenized with the shared normalization; a surface without owners
        adds nothing."""
        entries = []
        for surface in sorted(surface_owners):
            tokens = tokenize(surface)
            if not tokens:
                raise EmptySurfaceError(f"surface {surface!r} normalizes to zero tokens")
            entries.extend((owner, tokens) for owner in set(surface_owners[surface]))
        entries.sort(key=itemgetter(0))
        return cls._build(entries)

    @classmethod
    def _build(cls, entries: Iterable[tuple[str, Sequence[str]]]) -> "TokenTrie":
        """Build from ``(owner, tokens)`` pairs in ascending owner order. Each
        terminal's owners then arrive sorted, and a repeated owner always
        repeats the last one, so appending keeps them sorted and distinct."""
        trie = cls()
        nodes, surfaces, max_depth = 1, 0, 0
        for owner, tokens in entries:
            node = trie._root
            for token in tokens:
                child = node.children.get(token)
                if child is None:
                    child = node.children[token] = _Node()
                    nodes += 1
                node = child
            owners = node.entity_ids
            if not owners:
                node.entity_ids = (owner,)
                surfaces += 1
            elif owners[-1] != owner:
                node.entity_ids = owners + (owner,)
            if len(tokens) > max_depth:
                max_depth = len(tokens)
        trie._nodes, trie._surfaces, trie._max_depth = nodes, surfaces, max_depth
        stack = [trie._root]
        while stack:
            node = stack.pop()
            if len(node.children) > 1:
                node.children = dict(sorted(node.children.items()))
            stack.extend(node.children.values())
        return trie

    def _walk(self, prefix: Sequence[str]) -> _Node:
        node = self._root
        for token in prefix:
            node = node.children.get(token)
            if node is None:
                raise InvalidPrefixError(f"prefix {list(prefix)!r} is not in the trie")
        return node

    def allowed_next(self, prefix: Sequence[str]) -> tuple[set[str], bool]:
        """Tokens that may follow ``prefix``, and whether the prefix itself is
        a complete registered surface form."""
        node = self._walk(prefix)
        return set(node.children), bool(node.entity_ids)

    def entities_at(self, prefix: Sequence[str]) -> tuple[str, ...]:
        return self._walk(prefix).entity_ids

    def __len__(self) -> int:
        return self._surfaces

    @property
    def node_count(self) -> int:
        return self._nodes

    @property
    def max_depth(self) -> int:
        return self._max_depth

    def iter_dump(self) -> Iterator[str]:
        """Preorder dump, children in sorted token order:
        ``depth<TAB>token<TAB>terminal<TAB>payload-csv`` (root omitted)."""
        stack = [(1, token, child) for token, child in reversed(self._root.children.items())]
        while stack:
            depth, token, node = stack.pop()
            terminal = "1" if node.entity_ids else "0"
            yield f"{depth}\t{token}\t{terminal}\t{','.join(node.entity_ids)}"
            for child_token, child in reversed(node.children.items()):
                stack.append((depth + 1, child_token, child))

    def dump(self) -> str:
        return "".join(line + "\n" for line in self.iter_dump())


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


def constrained_beam_search(
    trie: TokenTrie,
    scorer: Scorer,
    beam_width: int = 5,
    max_len: int | None = None,
) -> list[tuple[tuple[str, ...], float]]:
    """Beam search where each step's candidates are exactly the trie children.

    A beam sitting on a terminal node emits a completed hypothesis (and keeps
    expanding if the node has children). Hypotheses are ranked by descending
    score, ties broken lexicographically by token sequence. ``max_len``
    defaults to the trie depth, which guarantees completion on a non-empty
    trie. Raises NoHypothesisError when nothing completes,
    NonFiniteScoreError when the scorer returns NaN or an infinity, and
    ValueError when it scores a token that is not a candidate (or, for a
    scorer with only ``score_next``, misses one).
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_len is None:
        max_len = trie.max_depth
    if max_len < 1 and len(trie) > 0:
        raise ValueError("max_len must be >= 1")
    score_sparse = getattr(scorer, "score_sparse", None) or _dense(scorer)

    beams: list[tuple[tuple[str, ...], float, _Node]] = [((), 0.0, trie._walk(()))]
    completed: list[tuple[tuple[str, ...], float]] = []
    for _ in range(max_len):
        expansions: list[tuple[tuple[str, ...], float, _Node]] = []
        for prefix, score, node in beams:
            children = node.children
            if not children:
                continue
            default, observed = score_sparse(prefix, children.keys())
            if not observed.keys() <= children.keys():
                raise ValueError("scorer returned a token outside the candidate set")
            if not (math.isfinite(default) and all(map(math.isfinite, observed.values()))):
                raise NonFiniteScoreError(f"scorer returned a non-finite score after prefix {list(prefix)!r}")
            for token, logp in observed.items():
                expansions.append((prefix + (token,), score + logp, children[token]))
            # Unobserved children tie on score, so only the first beam_width
            # of them in token order can reach the beam.
            if len(observed) < len(children):
                unobserved = (item for item in children.items() if item[0] not in observed)
                for token, child in islice(unobserved, beam_width):
                    expansions.append((prefix + (token,), score + default, child))
        if not expansions:
            break
        beams = heapq.nsmallest(beam_width, expansions, key=lambda item: (-item[1], item[0]))
        for prefix, score, node in beams:
            if node.entity_ids:
                completed.append((prefix, score))

    if not completed:
        raise NoHypothesisError("no surface form completed within max_len")
    completed.sort(key=lambda item: (-item[1], item[0]))
    return completed
