"""String similarity: drives target-synonym selection and ambiguity resolution.

The Levenshtein kernel is the hot loop when linking whole datasets. It is the
bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's formulation for
global edit distance (2003), split in two steps: compile strings into a
:class:`Pattern`, then scan another string against it. One column of the DP
matrix is held as vertical delta bit-vectors, so each scanned character costs
a fixed number of integer operations. Python ints have no width limit, so one
vector spans every compiled string, end to end with one guard bit between
them, in the multi-pattern packing of Hyyrö, Fredriksson & Navarro (J. Exp.
Algorithmics 2005): one scan gives the distance to each of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .text import normalize

if TYPE_CHECKING:
    from .kg import Entity


def _bits(flags: str) -> int:
    """The int whose bit i is set where ``flags[i]`` is ``"1"``."""
    return int(flags[::-1] or "0", 2)


class Pattern:
    """Strings compiled once for bit-parallel edit distance to another.

    String j takes a block of ``len(strings[j])`` bits followed by a guard
    bit. The guard bit is clear in every vector, so the carry of the scan's
    addition stops there and no block sees its neighbour. A scan costs a
    fixed number of int operations per character of the scanned text, on
    ints as wide as all the strings together.
    """

    __slots__ = ("strings", "_reversed", "_chars", "_spans", "_mask", "_firsts")

    def __init__(self, *strings: str):
        self.strings = strings
        # "\0" holds the guard positions here, but a string may hold it too:
        # the mask clears guard positions from every match vector
        joined = "".join(f"{s}\0" for s in strings)
        self._reversed = joined[::-1]
        self._chars = set(joined)
        spans, start = [], 0
        for s in strings:
            spans.append((start, start + len(s)))
            start += len(s) + 1
        self._spans = spans
        self._mask = mask = _bits("".join(f"{'1' * len(s)}0" for s in strings))
        # the top DP row of each block is 0, 1, 2, ...: a +1 horizontal delta
        # enters at each block's first bit
        self._firsts = mask & ~(mask << 1)

    def distances(self, text: str) -> list[int]:
        """Unit-cost Levenshtein distance between ``text`` and each string."""
        mask, firsts = self._mask, self._firsts
        table = dict.fromkeys(map(ord, self._chars), "0")
        peq = {}
        for c in self._chars.intersection(text):
            table[ord(c)] = "1"
            peq[c] = int(self._reversed.translate(table), 2) & mask
            table[ord(c)] = "0"
        pv, mv = mask, 0
        for c in text:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = ((mv | ~(xh | pv)) << 1) | firsts
            mh = (pv & xh) << 1
            pv = (mh | ~(xv | ph)) & mask
            mv = ph & xv
        # a block's bottom value is its top value, len(text), plus the
        # vertical deltas down its last column
        n = len(text)
        pv_bits, mv_bits = f"{pv:b}"[::-1], f"{mv:b}"[::-1]
        return [n + pv_bits.count("1", start, end) - mv_bits.count("1", start, end) for start, end in self._spans]

    def distance(self, text: str) -> int:
        """Unit-cost Levenshtein distance between ``text`` and a pattern of one string."""
        (result,) = self.distances(text)
        return result


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance between two strings, per Unicode character."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    return Pattern(b).distance(a)


def similarity_from_distance(distance: int, len_a: int, len_b: int) -> float:
    """1 - distance / max length; two empty strings count as identical."""
    if not len_a and not len_b:
        return 1.0
    return 1.0 - distance / max(len_a, len_b)


def similarity(a: str, b: str, *, normalized: bool = True) -> float:
    """Similarity in [0, 1]: 1 - distance / max length.

    Equals 1.0 iff the (normalized) strings are equal; two empty strings
    count as identical. ``normalized=False`` compares raw strings.
    """
    if normalized:
        a, b = normalize(a), normalize(b)
    return similarity_from_distance(edit_distance(a, b), len(a), len(b))


def similarities(text: str, strings: Sequence[str]) -> list[float]:
    """The similarity of ``text`` to each of ``strings``, as given (not
    normalized here), from one scan of ``text``."""
    n = len(text)
    return [
        similarity_from_distance(d, n, len(s)) for d, s in zip(Pattern(*strings).distances(text), strings)
    ]


def select_target_synonym(mention_surface: str, entity: "Entity") -> str:
    """The entity synonym closest to the mention; ties prefer the shorter
    synonym, then the lexicographically smaller one."""
    scores = similarities(normalize(mention_surface), [normalize(s) for s in entity.synonyms])
    return min(zip(scores, entity.synonyms), key=lambda pair: (-pair[0], len(pair[1]), pair[1]))[1]
