import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import HashScorer, enumerate_hypotheses, random_surface_set

from kgel.errors import EmptySurfaceError, InvalidPrefixError, NonFiniteScoreError, NoHypothesisError
from kgel.kg import Entity, build_kg
from kgel.ngram import condition_on_mention, train
from kgel.trie import TokenTrie, UniformScorer, build_trie, constrained_beam_search


def kg_with_synonyms(*synonym_lists):
    entities = [
        Entity.make(f"C{i}", synonyms[0], synonyms[1:]) for i, synonyms in enumerate(synonym_lists)
    ]
    return build_kg(entities, [], [])


class TestBuildTrie:
    def test_shared_prefix_children(self):
        trie = build_trie(kg_with_synonyms(["acute pain"], ["acute stress"]))
        tokens, terminal = trie.allowed_next(["acute"])
        assert tokens == {"pain", "stress"}
        assert terminal is False

    def test_root_children(self):
        trie = build_trie(kg_with_synonyms(["acute pain"], ["acute stress"]))
        tokens, terminal = trie.allowed_next([])
        assert tokens == {"acute"}
        assert terminal is False

    def test_shared_surface_payload(self):
        trie = build_trie(kg_with_synonyms(["aspirin"], ["aspirin"]))
        assert trie.entities_at(["aspirin"]) == ("C0", "C1")

    def test_case_folded_tokens(self):
        trie = build_trie(kg_with_synonyms(["Acute  Pain"]))
        assert trie.allowed_next(["acute"]) == ({"pain"}, False)

    def test_empty_surface_rejected(self):
        with pytest.raises(EmptySurfaceError):
            TokenTrie.from_surfaces({"   ": ["C0"]})

    def test_counts(self):
        trie = build_trie(kg_with_synonyms(["acute pain", "ap"], ["acute stress"]))
        assert len(trie) == 3
        assert trie.max_depth == 2
        # root + acute + pain + stress + ap
        assert trie.node_count == 5


class TestAllowedNext:
    def test_terminal_full_surface(self):
        trie = build_trie(kg_with_synonyms(["acute pain"]))
        tokens, terminal = trie.allowed_next(["acute", "pain"])
        assert tokens == set()
        assert terminal is True

    def test_invalid_prefix(self):
        trie = build_trie(kg_with_synonyms(["acute pain"]))
        with pytest.raises(InvalidPrefixError):
            trie.allowed_next(["chronic"])

    def test_empty_trie_root(self):
        trie = TokenTrie()
        assert trie.allowed_next([]) == (set(), False)

    def test_prefix_that_is_also_a_surface(self):
        trie = build_trie(kg_with_synonyms(["acute"], ["acute pain"]))
        tokens, terminal = trie.allowed_next(["acute"])
        assert tokens == {"pain"}
        assert terminal is True


class TestDump:
    def test_preorder_dump(self):
        trie = build_trie(kg_with_synonyms(["b", "a c"], ["a"]))
        assert trie.dump().splitlines() == [
            "1\ta\t1\tC1",
            "2\tc\t1\tC0",
            "1\tb\t1\tC0",
        ]

    def test_dump_is_deterministic(self, toy_kg):
        assert build_trie(toy_kg).dump() == build_trie(toy_kg).dump()

    def test_dump_sorts_children_inserted_out_of_order(self):
        # "B c" sorts before "a" as a surface but its first token after "a"
        trie = TokenTrie.from_surfaces({"B c": ["C0"], "a": ["C1"], "B A": ["C2"]})
        assert trie.dump().splitlines() == [
            "1\ta\t1\tC1",
            "1\tb\t0\t",
            "2\ta\t1\tC2",
            "2\tc\t1\tC0",
        ]


class TestBeamSearch:
    def test_uniform_scorer_lexicographic(self):
        trie = TokenTrie.from_surfaces({"cc": ["C2"], "aa": ["C0"], "bb": ["C1"]})
        results = constrained_beam_search(trie, UniformScorer(), beam_width=3)
        assert [tokens for tokens, _ in results] == [("aa",), ("bb",), ("cc",)]
        assert all(score == pytest.approx(-math.log(3)) for _, score in results)

    def test_forced_argmax(self):
        trie = TokenTrie.from_surfaces({"good one": ["C0"], "bad one": ["C1"]})

        class Designated:
            def score_next(self, prefix, candidates):
                want = ("good", "one")[len(prefix)] if len(prefix) < 2 else None
                return {t: (0.0 if t == want else -1e9) for t in candidates}

        results = constrained_beam_search(trie, Designated(), beam_width=2)
        assert results[0][0] == ("good", "one")
        assert results[0][1] == pytest.approx(0.0)

    def test_no_hypothesis_on_empty_trie(self):
        with pytest.raises(NoHypothesisError):
            constrained_beam_search(TokenTrie(), UniformScorer(), beam_width=2, max_len=3)

    def test_no_hypothesis_when_max_len_too_short(self):
        trie = TokenTrie.from_surfaces({"a b c": ["C0"]})
        with pytest.raises(NoHypothesisError):
            constrained_beam_search(trie, UniformScorer(), beam_width=4, max_len=2)

    def test_prefix_surfaces_emit_even_while_expanding(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "a b": ["C1"]})
        results = constrained_beam_search(trie, UniformScorer(), beam_width=4)
        assert {tokens for tokens, _ in results} == {("a",), ("a", "b")}

    def test_every_result_is_terminal(self, toy_kg):
        trie = build_trie(toy_kg)
        for tokens, _ in constrained_beam_search(trie, UniformScorer(), beam_width=4):
            assert trie.entities_at(tokens)

    def test_closure_via_trace(self, toy_kg):
        trie = build_trie(toy_kg)
        seen = []
        constrained_beam_search(trie, HashScorer(), beam_width=3, trace=lambda p, s: seen.append(p))
        assert seen
        for prefix in seen:
            trie.allowed_next(prefix)  # raises InvalidPrefixError on a violation

    def test_scorer_must_cover_candidates(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"]})

        class Partial:
            def score_next(self, prefix, candidates):
                return {"a": 0.0}

        with pytest.raises(ValueError):
            constrained_beam_search(trie, Partial(), beam_width=2)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_score_rejected(self, bad):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"], "c": ["C2"]})

        class Poisoned:
            def score_next(self, prefix, candidates):
                return {t: (bad if t == "a" else -1.0) for t in candidates}

        with pytest.raises(NonFiniteScoreError):
            constrained_beam_search(trie, Poisoned(), beam_width=3)

    def test_sparse_scorer_token_outside_candidates_rejected(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"]})

        class Stray:
            def score_sparse(self, prefix, candidates):
                return -1.0, {"a": -0.5, "zzz": -0.1}

        with pytest.raises(ValueError):
            constrained_beam_search(trie, Stray(), beam_width=2)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("where", ["default", "observed"])
    def test_sparse_non_finite_score_rejected(self, bad, where):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"], "c": ["C2"]})

        class Poisoned:
            def score_sparse(self, prefix, candidates):
                if where == "default":
                    return bad, {"a": -1.0}
                return -1.0, {"a": bad}

        with pytest.raises(NonFiniteScoreError):
            constrained_beam_search(trie, Poisoned(), beam_width=3)

    def test_length_normalization_option(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b b b": ["C1"]})

        class PreferLong:
            def score_next(self, prefix, candidates):
                return {t: (-0.4 if t == "b" else -0.5) for t in candidates}

        raw = constrained_beam_search(trie, PreferLong(), beam_width=4)
        normalized = constrained_beam_search(trie, PreferLong(), beam_width=4, length_normalize=True)
        assert raw[0][0] == ("a",)
        assert normalized[0][0] == ("b", "b", "b")


class TestOracleEquivalence:
    def assert_matches_oracle(self, surfaces, scorer):
        trie = TokenTrie.from_surfaces({s: [f"E{i}"] for i, s in enumerate(surfaces)})
        expected = enumerate_hypotheses(surfaces, scorer, trie.max_depth)
        actual = constrained_beam_search(trie, scorer, beam_width=trie.node_count)
        assert [tokens for tokens, _ in actual] == [tokens for tokens, _ in expected]
        for (_, got), (_, want) in zip(actual, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_small_fixed_trie(self):
        self.assert_matches_oracle(["a", "a b", "b c d", "b c e"], HashScorer("fixed"))

    def test_random_tries(self):
        rng = random.Random(4321)
        for round_no in range(30):
            surfaces = random_surface_set(rng)
            self.assert_matches_oracle(surfaces, HashScorer(f"round{round_no}"))

    def test_monotonic_in_beam_width(self):
        rng = random.Random(99)
        surfaces = random_surface_set(rng, max_surfaces=40)
        trie = TokenTrie.from_surfaces({s: [f"E{i}"] for i, s in enumerate(surfaces)})
        scorer = HashScorer("mono")
        best = -math.inf
        for width in range(1, trie.node_count + 1, max(1, trie.node_count // 7)):
            top = constrained_beam_search(trie, scorer, beam_width=width)[0][1]
            assert top >= best - 1e-12
            best = max(best, top)


class DenseOnly:
    """Exposes only ``score_next`` of the wrapped scorer, so search takes the
    dense path and scores every trie child."""

    def __init__(self, scorer):
        self.score_next = scorer.score_next


class TestSparseEquivalence:
    """Sparse scoring must return exactly what scoring every child returns:
    same hypotheses, same order, bit-identical scores."""

    WORDS = [f"t{j}" for j in range(9)]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.integers(1, 4),
        width=st.integers(1, 8),
        length_normalize=st.booleans(),
        kind=st.sampled_from(["model", "conditioned", "uniform"]),
    )
    def test_sparse_equals_dense(self, seed, order, width, length_normalize, kind):
        rng = random.Random(seed)
        # Upper-casing some surfaces inserts trie children out of token order.
        surfaces = [s.upper() if rng.random() < 0.3 else s for s in random_surface_set(rng, max_surfaces=60)]
        trie = TokenTrie.from_surfaces({s: [f"E{i}"] for i, s in enumerate(surfaces)})
        lines = [
            "[BOS] " + " ".join(rng.choice(self.WORDS) for _ in range(rng.randint(1, 6))) + " [EOS]"
            for _ in range(rng.randint(1, 30))
        ]
        model = train(lines, order)
        if kind == "model":
            scorer = model
        elif kind == "conditioned":
            scorer = condition_on_mention(model, " ".join(rng.sample(self.WORDS, rng.randint(0, 3))))
        else:
            scorer = UniformScorer()
        sparse = constrained_beam_search(trie, scorer, width, length_normalize=length_normalize)
        dense = constrained_beam_search(trie, DenseOnly(scorer), width, length_normalize=length_normalize)
        assert sparse == dense
