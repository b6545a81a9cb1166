import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kgel.errors import EmptyCorpusError, KgelError, MalformedModelError
from kgel.kg import Entity, build_kg
from kgel.ngram import (
    MentionConditionedScorer,
    condition_on_mention,
    finetune_targets,
    load_model,
    save_model,
    train,
)
from kgel.synthesis import synthesize_corpus
from kgel.trie import build_trie, constrained_beam_search

from conftest import make_documents


class TestTrain:
    def test_single_observation(self):
        model = train(["[BOS] a b [EOS]"], order=2)
        assert model.counts[("a",)]["b"] == 1
        assert model.totals[("a",)] == 1
        assert model.vocab == {"[bos]", "a", "b", "[eos]"}

    def test_duplicate_lines_double_counts(self):
        single = train(["[BOS] a b [EOS]"], order=2)
        double = train(["[BOS] a b [EOS]"] * 2, order=2)
        for context, counter in single.counts.items():
            for token, count in counter.items():
                assert double.counts[context][token] == 2 * count

    def test_vocabulary_covers_fixture_tokens(self, toy_kg):
        targets = [s.target for s in synthesize_corpus(toy_kg, "combined", seed=4)]
        model = train(targets, order=3)
        for entity in toy_kg.entities.values():
            seen = any(
                token in model.vocab for synonym in entity.synonyms for token in synonym.casefold().split()
            )
            assert seen, entity.id

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            train([], order=2)
        with pytest.raises(EmptyCorpusError):
            train(["   "], order=2)

    def test_order_one_has_only_empty_context(self):
        model = train(["[BOS] a b [EOS]"], order=1)
        assert set(model.counts) == {()}

    def test_totals_match_continuations(self):
        model = train(["[BOS] a b a c [EOS]", "[BOS] b a [EOS]"], order=3)
        for context, counter in model.counts.items():
            assert model.totals[context] == sum(counter.values())


class TestScoreNext:
    def test_observed_beats_unobserved(self):
        model = train(["[BOS] a b [EOS]"], order=2)
        scores = model.score_next(["a"], {"a", "b"})
        v = model.vocab_size
        assert scores["b"] == pytest.approx(math.log(2 / (1 + v)))
        assert scores["a"] == pytest.approx(math.log(1 / (1 + v)))
        assert scores["b"] > scores["a"]

    def test_unseen_context_uniform(self):
        model = train(["[BOS] a b [EOS]"], order=2)
        scores = model.score_next(["zzz"], {"a", "b", "[eos]"})
        assert len({round(s, 12) for s in scores.values()}) == 1
        assert scores["a"] == pytest.approx(-math.log(model.vocab_size))

    def test_single_candidate(self):
        model = train(["[BOS] a b [EOS]"], order=2)
        scores = model.score_next(["a"], {"b"})
        assert set(scores) == {"b"}

    def test_short_prefix_uses_available_context(self):
        model = train(["[BOS] a b [EOS]"], order=3)
        scores = model.score_next(["[bos]"], {"a", "b"})
        assert scores["a"] > scores["b"]

    def test_full_vocab_normalization(self):
        corpus = ["[BOS] a b c [EOS]", "[BOS] b a [EOS]", "[BOS] c c a [EOS]"]
        model = train(corpus, order=3)
        rng = random.Random(5)
        vocab = sorted(model.vocab)
        for _ in range(100):
            prefix = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            scores = model.score_next(prefix, set(vocab))
            assert sum(math.exp(s) for s in scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_more_counts_strictly_increase_score(self):
        low = train(["[BOS] a b [EOS]", "[BOS] a c [EOS]"], order=2)
        high = train(["[BOS] a b [EOS]", "[BOS] a b [EOS]", "[BOS] a c [EOS]"], order=2)
        assert high.score_next(["a"], {"b"})["b"] > low.score_next(["a"], {"b"})["b"]

    def test_candidates_must_be_non_empty(self):
        model = train(["[BOS] a [EOS]"], order=2)
        with pytest.raises(ValueError):
            model.score_next(["a"], set())

    def test_pinned_to_add_one_formulas(self):
        model = train(["[BOS] a b [EOS]", "[BOS] a c [EOS]", "[BOS] a d e [EOS]"], order=2)
        assert model.vocab_size == 7 and model.totals[("a",)] == 3
        # For both denominators log(1/d) and -log(d) differ in the last bit,
        # so an exchanged default changes the scores compared below.
        assert math.log(1 / 10) != -math.log(10) and math.log(1 / 7) != -math.log(7)
        counter = model.counts[("a",)]
        candidates = {"b", "e", "[eos]"}
        assert model.score_next(["a"], candidates) == {t: math.log((counter[t] + 1) / 10) for t in candidates}
        assert model.score_next(["zzz"], candidates) == {t: -math.log(7) for t in candidates}

    def test_sparse_lists_only_observed_candidates(self):
        model = train(["[BOS] a b [EOS]", "[BOS] a c [EOS]"], order=2)
        default, observed = model.score_sparse(["a"], {"b", "d", "[eos]"})
        assert observed == {"b": math.log(2 / 7)}
        assert default == math.log(1 / 7)
        assert model.score_sparse(["zzz"], {"b"}) == (-math.log(5), {})


class TestConditioning:
    def kg_and_model(self):
        kg = build_kg(
            [
                Entity.make("C1", "myocardial infarction"),
                Entity.make("C2", "cardiac arrest"),
            ],
            [],
            [],
        )
        model = train(["[BOS] mi is myocardial infarction [EOS]"], order=3)
        return kg, model

    def test_conditioned_decode_ranks_trained_surface_first(self):
        # V = 6; trained path scores log(2/7) + log(2/7), the competing
        # surface log(1/7) + log(1/6)
        kg, model = self.kg_and_model()
        trie = build_trie(kg)
        scorer = condition_on_mention(model, "mi")
        results = constrained_beam_search(trie, scorer, beam_width=4)
        assert results[0][0] == ("myocardial", "infarction")
        assert results[0][1] == pytest.approx(2 * math.log(2 / 7), abs=1e-12)
        assert dict(results)[("cardiac", "arrest")] == pytest.approx(math.log(1 / 7) + math.log(1 / 6), abs=1e-12)

    def test_unseen_mention_falls_back_to_tie_break(self):
        kg, model = self.kg_and_model()
        trie = build_trie(kg)
        scorer = condition_on_mention(model, "completely unknown")
        results = constrained_beam_search(trie, scorer, beam_width=4)
        # first step is the uniform fallback for both surfaces; the trained
        # second step then favors the "myocardial" branch
        assert results[0][0] == ("myocardial", "infarction")

    def test_empty_mention_conditions_on_is(self):
        _, model = self.kg_and_model()
        scorer = condition_on_mention(model, "")
        assert scorer.context == ("[bos]", "is")
        scores = scorer.score_next([], {"mi", "migraine"})
        assert set(scores) == {"mi", "migraine"}

    def test_scorer_prepends_context(self):
        _, model = self.kg_and_model()
        scorer = MentionConditionedScorer(model, ("[bos]", "mi", "is"))
        direct = model.score_next(["[bos]", "mi", "is"], {"myocardial", "migraine"})
        assert scorer.score_next([], {"myocardial", "migraine"}) == direct


class TestFinetuneTargets:
    def test_template_and_synonym_choice(self):
        kg = build_kg(
            [Entity.make("C1", "myocardial infarction", ["MI"])],
            [],
            [],
        )
        docs = make_documents([[("mi", "C1")]])
        assert finetune_targets(kg, docs) == ["[BOS] mi is MI [EOS]"]

    def test_unresolved_gold_skipped(self):
        kg = build_kg([Entity.make("C1", "aspirin")], [], [])
        docs = make_documents([[("aspirin", "C1"), ("mystery", "C404")]])
        assert finetune_targets(kg, docs) == ["[BOS] aspirin is aspirin [EOS]"]


class TestModelIO:
    def roundtrip(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        return buffer.getvalue()

    def test_bit_exact_round_trip(self, tmp_path):
        model = train(["[BOS] a b c [EOS]", "[BOS] c b a [EOS]", "[BOS] a is b [EOS]"], order=3)
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(model, fp)
        reloaded = load_model(path)
        assert self.roundtrip(reloaded) == path.read_text(encoding="utf-8")
        assert reloaded == model

    def test_reloaded_model_scores_identically(self, tmp_path):
        model = train(["[BOS] a b [EOS]", "[BOS] b a [EOS]"], order=2)
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(model, fp)
        reloaded = load_model(path)
        assert reloaded.score_next(["a"], {"a", "b", "[eos]"}) == model.score_next(["a"], {"a", "b", "[eos]"})

    def test_header_with_config_still_loads(self, tmp_path):
        model = train(["[BOS] a [EOS]"], order=2)
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(model, fp, config={"order": 2})
        assert load_model(path) == model

    def test_random_corpora_round_trip(self, tmp_path):
        rng = random.Random(31)
        words = ["alpha", "beta", "gamma", "delta"]
        for i in range(10):
            lines = [
                "[BOS] " + " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) + " [EOS]"
                for _ in range(rng.randint(1, 8))
            ]
            model = train(lines, order=rng.randint(1, 4))
            path = tmp_path / f"m{i}.tsv"
            with open(path, "w", encoding="utf-8") as fp:
                save_model(model, fp)
            assert load_model(path) == model

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("not-a-model\n1\n1\n", encoding="utf-8")
        with pytest.raises(MalformedModelError):
            load_model(path)

    def test_rejects_vocab_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("kgel-ngram-v1\n2\n5\n\ta\t1\n", encoding="utf-8")
        with pytest.raises(MalformedModelError):
            load_model(path)

    def test_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("kgel-ngram-v1\n2\n2\n\ta\t1\n\tb\t2\na\tb\t1\n\tb\t2\n", encoding="utf-8")
        with pytest.raises(MalformedModelError, match=r"dup\.tsv:7: duplicate"):
            load_model(path)

    @pytest.mark.parametrize("line_no", [1, 2, 5])
    def test_invalid_utf8_reports_line(self, tmp_path, line_no):
        lines = [b"kgel-ngram-v1", b"2", b"2", b"\ta\t1", b"\tb\t2", b"a\tb\t1"]
        lines[line_no - 1] += b"\xc3("
        path = tmp_path / "model.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedModelError, match=rf"model\.tsv:{line_no}: invalid UTF-8"):
            load_model(path)

    @settings(max_examples=200, deadline=None)
    @given(body=st.binary(max_size=200), header=st.booleans())
    def test_arbitrary_bytes_raise_only_kgel_errors(self, tmp_path_factory, body, header):
        path = tmp_path_factory.mktemp("fuzz") / "model.tsv"
        path.write_bytes((b"kgel-ngram-v1\n2\n2\n" if header else b"") + body)
        try:
            load_model(path)
        except KgelError:
            pass
