"""String similarity: drives target-synonym selection and ambiguity resolution.

The Levenshtein kernel is the hot loop when linking whole datasets. It is the
bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's formulation for
global edit distance (2003): one column of the DP matrix is held as vertical
delta bit-vectors, so each character of the longer string costs a fixed number
of integer operations. Python ints have no width limit, so the vectors span
the whole shorter string without splitting it into machine words.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .text import normalize

if TYPE_CHECKING:
    from .kg import Entity


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance between two strings, per Unicode character."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    # bit i of peq[c] is set where b[i] == c
    peq: dict[str, int] = {}
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, m
    for c in a:
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


def similarity(a: str, b: str, *, normalized: bool = True) -> float:
    """Similarity in [0, 1]: 1 - distance / max length.

    Equals 1.0 iff the (normalized) strings are equal; two empty strings
    count as identical. ``normalized=False`` compares raw strings.
    """
    if normalized:
        a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    return 1.0 - edit_distance(a, b) / max(len(a), len(b))


def select_target_synonym(mention_surface: str, entity: "Entity") -> str:
    """The entity synonym closest to the mention; ties prefer the shorter
    synonym, then the lexicographically smaller one."""
    return min(entity.synonyms, key=lambda s: (-similarity(mention_surface, s), len(s), s))
