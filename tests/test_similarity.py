import random
import types
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from kgel.kg import Entity
from kgel.similarity import Pattern, edit_distance, select_target_synonym, similarity


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
        expected = levenshtein_oracle(a, b)
        assert edit_distance(a, b) == expected
        # either side may be the pattern, the longer one as well as the shorter
        assert Pattern(a).distance(b) == Pattern(b).distance(a) == expected

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
        anchor_rng = random.Random(100)
        anchor = "".join(anchor_rng.choice(alphabet) for _ in range(100))
        pattern = Pattern(anchor)
        for _ in range(12):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(65, 150)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(65, 150)))
            assert edit_distance(a, b) == levenshtein_oracle(a, b)
            # one pattern wider than a 64-bit word, built once and scanned many times
            assert pattern.distance(b) == levenshtein_oracle(anchor, b)

    def test_empty_side(self):
        long = "x" * 150
        assert edit_distance(long, "") == edit_distance("", long) == 150
        assert edit_distance("", "\U0001F600") == 1
        empty = Pattern("")
        assert empty.distance(long) == Pattern(long).distance("") == 150
        assert empty.distance("") == 0
        assert empty.distance("\U0001F600") == 1

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
            assert Pattern(short).distance(long) == Pattern(long).distance(short) == expected


# "\0" is the character the pattern writes at its guard positions
KERNEL_CHARS = ["a", "b", "\u00e9", "e", "\u0301", "\U0001F600", "\U0001D49C", " ", "\0"]
kernel_text = st.lists(st.sampled_from(KERNEL_CHARS), max_size=12).map("".join)


class TestPatternOfManyStrings:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_text, max_size=12), kernel_text)
    @example(["", "", ""], "ab")
    @example(["", "", ""], "")
    @example(["a\0b", "\0", "", "\0\0"], "\0a\0")
    @example(["abcdefghijkl"] * 6, "")
    @example(["e\u0301\U0001F600" * 4, "", "\U0001D49C" * 12, "ab" * 6, "\0" * 12, "b" * 12], "ae\u0301\0\U0001F600")
    def test_equals_oracle_for_every_string(self, strings, text):
        assert Pattern(*strings).distances(text) == [levenshtein_oracle(s, text) for s in strings]

    def test_wider_than_a_word(self):
        rng = random.Random(31)
        strings = ["".join(rng.choice("ab\0") for _ in range(rng.randint(0, 40))) for _ in range(12)]
        assert sum(map(len, strings)) + len(strings) > 128
        text = "".join(rng.choice("ab\0") for _ in range(30))
        assert Pattern(*strings).distances(text) == [levenshtein_oracle(s, text) for s in strings]

    def test_no_strings(self):
        assert Pattern().distances("abc") == []


def test_submodule_is_the_module():
    import kgel
    import kgel.similarity as module

    assert isinstance(module, types.ModuleType)
    assert module.edit_distance is kgel.edit_distance


class TestSimilarity:
    def test_normalization_identity(self):
        assert similarity("MI", "mi") == 1.0

    def test_half(self):
        assert similarity("ab", "ax") == 0.5

    def test_empty_vs_nonempty(self):
        assert similarity("", "x") == 0.0

    def test_both_empty(self):
        assert similarity("", "") == 1.0

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

    # few characters, so ties are common; case and spaces that normalization folds
    synonym_text = st.lists(st.sampled_from(["a", "b", "B", "\u00e9", "e\u0301", " ", "  "]), max_size=6).map("".join)

    @given(st.lists(synonym_text.filter(str.strip), min_size=1, max_size=6), synonym_text)
    def test_equals_the_rule(self, synonyms, mention_surface):
        e = Entity.make("C1", synonyms[0], synonyms[1:])
        expected = min(e.synonyms, key=lambda s: (-similarity(mention_surface, s), len(s), s))
        assert select_target_synonym(mention_surface, e) == expected

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
