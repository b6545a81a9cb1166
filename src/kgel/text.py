"""Surface-form normalization shared by dedup, the trie and the n-gram
scorer: case-fold and collapse runs of whitespace."""

from sys import intern


def tokenize(text: str) -> list[str]:
    """The normalized tokens of ``text``, interned: every table built from
    them (n-gram counts, trie children) holds one object per distinct token,
    and the tables share those objects with one another."""
    return list(map(intern, text.casefold().split()))


def normalize(text: str) -> str:
    return " ".join(text.casefold().split())
