import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from kgel.kg import Entity
from kgel.similarity import edit_distance, select_target_synonym, similarity


def levenshtein_oracle(a: str, b: str) -> int:
    """Textbook recursive definition; the implementation under test never
    touches this path."""

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))


short_text = st.text(max_size=8)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_insertions_only(self):
        assert edit_distance("", "ab") == 2

    def test_kitten_sitting(self):
        assert levenshtein_oracle("kitten", "sitting") == 3
        assert edit_distance("kitten", "sitting") == 3

    def test_unicode(self):
        assert edit_distance("tumour", "tumor") == 1
        assert edit_distance("naïve", "naive") == 1
        assert edit_distance("αβγ", "αγ") == 1

    @given(short_text, short_text)
    def test_matches_recursive_oracle(self, a, b):
        assert edit_distance(a, b) == levenshtein_oracle(a, b)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text, short_text)
    def test_identity_of_indiscernibles(self, a, b):
        assert (edit_distance(a, b) == 0) == (a == b)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_random_pairs_against_oracle(self):
        rng = random.Random(2024)
        alphabet = "abcdé "
        for _ in range(2000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert edit_distance(a, b) == levenshtein_oracle(a, b)

    # the cases below lie outside the 0-8 character strategies above: strings
    # longer than one 64-bit word, characters outside the BMP, combining marks
    def test_long_pairs_against_oracle(self):
        rng = random.Random(65)
        alphabet = "abcd é"
        for _ in range(12):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(65, 150)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(65, 150)))
            assert edit_distance(a, b) == levenshtein_oracle(a, b)

    def test_empty_side(self):
        long = "x" * 150
        assert edit_distance(long, "") == edit_distance("", long) == 150
        assert edit_distance("", "\U0001F600") == 1

    def test_astral_and_combining_characters(self):
        rng = random.Random(1003)
        alphabet = ["a", "e", "\u0301", "\u0308", "\U0001F600", "\U0001D49C", "\U00020000"]
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            assert edit_distance(a, b) == levenshtein_oracle(a, b)
        # a combining accent is its own character: "e" + U+0301 is one insertion from "e"
        assert edit_distance("cafe\u0301", "cafe") == 1
        assert edit_distance("caf\u00e9", "cafe\u0301") == 2

    def test_unequal_lengths_in_both_orders(self):
        rng = random.Random(4242)
        for short_len, long_len in ((1, 70), (5, 64), (63, 65), (40, 130)):
            short = "".join(rng.choice("abc") for _ in range(short_len))
            long = "".join(rng.choice("abc") for _ in range(long_len))
            expected = levenshtein_oracle(short, long)
            assert edit_distance(short, long) == expected
            assert edit_distance(long, short) == expected


class TestSimilarity:
    def test_normalization_identity(self):
        assert similarity("MI", "mi") == 1.0

    def test_half(self):
        assert similarity("ab", "ax") == 0.5

    def test_empty_vs_nonempty(self):
        assert similarity("", "x") == 0.0

    def test_both_empty(self):
        assert similarity("", "") == 1.0

    def test_unnormalized_mode(self):
        assert similarity("MI", "mi", normalized=False) == 0.0
        assert similarity("mi", "mi", normalized=False) == 1.0

    @given(short_text, short_text)
    def test_bounded_and_exact_at_one(self, a, b):
        value = similarity(a, b)
        assert 0.0 <= value <= 1.0
        from kgel.text import normalize

        assert (value == 1.0) == (normalize(a) == normalize(b))


class TestSelectTargetSynonym:
    def test_exact_match_dominates(self):
        e = Entity.make("C1", "myocardial infarction", ["MI"])
        assert select_target_synonym("MI", e) == "MI"

    def test_close_match(self):
        e = Entity.make("C1", "heart attack", ["cardiac arrest"])
        assert similarity("hart attack", "heart attack") > similarity("hart attack", "cardiac arrest")
        assert select_target_synonym("hart attack", e) == "heart attack"

    def test_tie_breaks_to_shorter_then_lexicographic(self):
        # both synonyms at distance 1 from the mention, same length
        e = Entity.make("C1", "ac", ["bc"])
        assert select_target_synonym("cc", e) == "ac"
        # same distance, different lengths: shorter wins
        e2 = Entity.make("C2", "ab", ["abx"])
        assert similarity("abq", "ab") == pytest.approx(similarity("abq", "abx"))
        assert select_target_synonym("abq", e2) == "ab"

    def test_permutation_invariant(self):
        rng = random.Random(7)
        synonyms = ["alpha beta", "alphabet", "beta", "gamma delta", "alp"]
        baseline = None
        for _ in range(10):
            shuffled = synonyms[:]
            rng.shuffle(shuffled)
            e = Entity.make("C1", shuffled[0], shuffled[1:])
            pick = select_target_synonym("alpha bet", e)
            baseline = baseline or pick
            assert pick == baseline
