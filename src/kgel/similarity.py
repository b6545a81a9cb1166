"""String similarity: drives target-synonym selection and ambiguity resolution.

The Levenshtein kernel is the hot loop when linking whole datasets. It is the
bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's formulation for
global edit distance (2003), split in two steps: compile one string into a
:class:`Pattern`, then scan the other. One column of the DP matrix is held as
vertical delta bit-vectors, so each scanned character costs a fixed number of
integer operations. Python ints have no width limit, so the vectors span the
whole pattern without splitting it into machine words. A pattern compiled
once can be scanned against many strings, as owner resolution does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .text import normalize

if TYPE_CHECKING:
    from .kg import Entity


class Pattern:
    """A string compiled once for bit-parallel edit distance to many others.

    Bit i of ``peq[c]`` is set where the pattern's i-th character is ``c``.
    A scan costs a fixed number of int operations per character of the other
    string, each on ints as wide as the pattern, so the shorter side of a
    single pair makes the cheaper pattern.
    """

    __slots__ = ("peq", "length")

    def __init__(self, text: str):
        peq: dict[str, int] = {}
        bit = 1
        for c in text:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        self.peq = peq
        self.length = len(text)

    def distance(self, text: str) -> int:
        """Unit-cost Levenshtein distance between the pattern and ``text``."""
        m = self.length
        if m == 0:
            return len(text)
        peq = self.peq
        last = 1 << (m - 1)
        mask = (last << 1) - 1
        pv, mv, score = mask, 0, m
        for c in text:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            # the top DP row is 0, 1, 2, ...: a +1 horizontal delta enters at bit 0
            ph = (ph << 1) | 1
            mh <<= 1
            pv = (mh | ~(xv | ph)) & mask
            mv = ph & xv
        return score


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


def length_bound(len_a: int, len_b: int) -> float:
    """The highest similarity two strings of these lengths can have.

    Their distance is at least ``|len_a - len_b|``, and correctly rounded
    division and subtraction are monotone, so the bound is never below the
    computed similarity, in floating point as well."""
    return similarity_from_distance(abs(len_a - len_b), len_a, len_b)


def similarity(a: str, b: str, *, normalized: bool = True) -> float:
    """Similarity in [0, 1]: 1 - distance / max length.

    Equals 1.0 iff the (normalized) strings are equal; two empty strings
    count as identical. ``normalized=False`` compares raw strings.
    """
    if normalized:
        a, b = normalize(a), normalize(b)
    return similarity_from_distance(edit_distance(a, b), len(a), len(b))


def select_target_synonym(mention_surface: str, entity: "Entity") -> str:
    """The entity synonym closest to the mention; ties prefer the shorter
    synonym, then the lexicographically smaller one."""
    return min(entity.synonyms, key=lambda s: (-similarity(mention_surface, s), len(s), s))
