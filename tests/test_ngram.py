import io
import math
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from kgel import ngram
from kgel.errors import EmptyCorpusError, KgelError, LineError, MalformedModelError, SpecialTokenError
from kgel.kg import Entity, build_kg
from kgel.ngram import (
    _SAVE_ROWS,
    MentionConditionedScorer,
    condition_on_mention,
    finetune_targets,
    load_model,
    save_model,
    train,
)
from kgel.synthesis import synthesize_corpus
from kgel.text import tokenize
from kgel.trie import build_trie, constrained_beam_search

from conftest import make_documents


def reference_train(targets, order):
    """The per-token, per-context-length counting loop that ``train`` used
    before it counted whole windows at a time; its ``(counts, totals, vocab)``
    tables are the reference."""
    counts, totals, vocab, n_tokens = {}, {}, set(), 0
    for line in targets:
        tokens = tokenize(line)
        if not tokens:
            continue
        n_tokens += len(tokens)
        vocab.update(tokens)
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                context = tuple(tokens[i - length:i])
                counter = counts.get(context)
                if counter is None:
                    counter = counts[context] = Counter()
                    totals[context] = 0
                counter[token] += 1
                totals[context] += 1
    if n_tokens == 0:
        raise EmptyCorpusError("cannot train on an empty corpus")
    return counts, totals, frozenset(vocab)


def reference_dump(order, counts):
    """The dict-of-dicts writer ``save_model`` used before the columns: the
    expected bytes of a model with these tables."""
    lines = ["kgel-ngram-v1\n", f"{order}\n", f"{len(counts.get((), {}))}\n"]
    for context in sorted(counts):
        for token in sorted(counts[context]):
            lines.append(f"{' '.join(context)}\t{token}\t{counts[context][token]}\n")
    return "".join(lines)


def reference_score_sparse(order, counts, prefix, candidates):
    """The dict-based add-one scorer ``score_sparse`` must agree with to the
    last bit."""
    context = () if order == 1 else tuple(prefix[-(order - 1):])
    table = counts.get(context)
    denom = (sum(table.values()) if table is not None else 0) + len(counts[()])
    if table is None:
        return -math.log(denom), {}
    return math.log(1 / denom), {t: math.log((c + 1) / denom) for t, c in table.items() if t in candidates}


def dump(model):
    buffer = io.StringIO()
    save_model(model, buffer)
    return buffer.getvalue()


def model_counts(model):
    """``{context: {token: count}}`` decoded from the model's rows; a token
    never seen after a context is absent, not zero."""
    counts = {}
    for context, token, count in model._rows():
        counts.setdefault(context, {})[token] = count
    return counts


def reference_valid(order, tables):
    """Whether ``load_model`` must accept the ``reference_dump`` of
    ``tables``: a non-empty ``()`` table of tokens that ``tokenize`` could
    produce, and in every other table that has rows (an empty one writes no
    line), tokens from it, a context shorter than ``order`` and positive
    counts."""
    vocab = tables.get(())
    return bool(vocab) and all(token.split() == [token] for token in vocab) and all(
        len(context) < order and vocab.keys() >= {*context, *table} and all(count >= 1 for count in table.values())
        for context, table in tables.items()
        if table
    )


def column_type(bound):
    """The typecode of the narrowest unsigned column for ints below
    ``bound``, or None for a list."""
    return "I" if bound <= 2**32 else "Q" if bound <= 2**64 else None


def assert_loads(directory, order, tables):
    """``load_model`` reads the ``reference_dump`` of ``tables``, and the
    same rows reversed, to a model that saves the reference bytes, in
    columns as narrow as its widest key and count allow, or raises
    ``MalformedModelError`` for both unless ``reference_valid`` holds."""
    text = reference_dump(order, tables)
    lines = text.splitlines(keepends=True)
    models = []
    for name, body in (("sorted", lines[3:]), ("reversed", lines[3:][::-1])):
        path = directory / f"{name}.tsv"
        path.write_text("".join(lines[:3] + body), encoding="utf-8")
        if not reference_valid(order, tables):
            with pytest.raises(MalformedModelError):
                load_model(path)
            continue
        model = load_model(path)
        assert dump(model) == text
        widest = max(count for table in tables.values() for count in table.values())
        assert getattr(model.row_keys, "typecode", None) == column_type((len(tables[()]) + 1) ** order)
        assert getattr(model.row_counts, "typecode", None) == column_type(widest + 1)
        models.append(model)
    return models


# Few distinct words in both cases (they fold together), the reserved
# markers, blank and whitespace-only lines, and runs of separators.
WORDS = st.sampled_from(["a", "A", "b", "bB", "BB", "ab", "[BOS]", "[eos]"])
LINES = st.one_of(
    st.sampled_from(["", "  ", "\t"]),
    st.lists(WORDS, min_size=1, max_size=9).map(" ".join),
    st.lists(WORDS, min_size=1, max_size=9).map(" \t ".join),
)


class TestTrain:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(LINES, max_size=12), order=st.integers(1, 5))
    def test_equals_reference_loop(self, lines, order):
        try:
            counts, _, vocab = reference_train(lines, order)
        except EmptyCorpusError:
            with pytest.raises(EmptyCorpusError):
                train(iter(lines), order)
            return
        model = train(iter(lines), order)
        assert model.vocab == vocab
        assert dump(model) == reference_dump(order, counts)

    def test_single_observation(self):
        model = train(["[BOS] a b [EOS]"], order=2)
        assert model_counts(model)[("a",)] == {"b": 1}
        assert model.vocab == {"[bos]", "a", "b", "[eos]"}

    def test_duplicate_lines_double_counts(self):
        single = train(["[BOS] a b [EOS]"], order=2)
        double = train(["[BOS] a b [EOS]"] * 2, order=2)
        doubled = model_counts(double)
        for context, counter in model_counts(single).items():
            assert doubled[context] == {token: 2 * count for token, count in counter.items()}

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
        assert set(model_counts(model)) == {()}

    def test_totals_match_continuations(self):
        """The add-one denominator of each context is the sum of its rows'
        counts plus the vocabulary size."""
        model = train(["[BOS] a b a c [EOS]", "[BOS] b a [EOS]"], order=3)
        for context, counter in model_counts(model).items():
            default, _ = model.score_sparse(context, model.vocab)
            assert default == math.log(1 / (sum(counter.values()) + model.vocab_size))


def assert_trains_like_reference(lines, order):
    counts, _, _ = reference_train(lines, order)
    model = train(iter(lines), order)
    assert dump(model) == reference_dump(order, counts)
    return model


class TestRunMerge:
    """``train`` counts a few keys at a time into sorted runs and merges them
    a key range at a time; tiny sizes make one row's occurrences land in
    several runs and split every merge into many ranges."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(LINES, max_size=12),
        order=st.integers(1, 5),
        run_keys=st.integers(1, 7),
        merge_rows=st.integers(1, 7),
    )
    def test_small_runs_equal_reference(self, lines, order, run_keys, merge_rows):
        assume(any(tokenize(line) for line in lines))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ngram, "_RUN_KEYS", run_keys)
            patch.setattr(ngram, "_MERGE_ROWS", merge_rows)
            assert_trains_like_reference(lines, order)

    def test_no_row_across_a_line_break(self):
        model = assert_trains_like_reference(["a b", "c d"], 3)
        assert model_counts(model) == {(): {"a": 1, "b": 1, "c": 1, "d": 1}, ("a",): {"b": 1}, ("c",): {"d": 1}}

    def test_line_shorter_than_the_order(self):
        model = assert_trains_like_reference(["x", "[BOS] a b [EOS]", "y z"], 5)
        counts = model_counts(model)
        assert counts[()]["x"] == 1
        assert ("x",) not in counts and counts[("y",)] == {"z": 1}

    def test_order_far_above_the_longest_line(self):
        """No window is wider than the longest line, so widths past it are
        never cut into pieces: lines of at most four tokens at order 40 mask
        windows of widths 2 to 4 only."""
        lines = ["a b c d", "b c", "d", "c a b"]
        widths = []
        whole_windows = ngram._whole_windows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ngram, "_whole_windows", lambda part, width: widths.append(width) or whole_windows(part, width))
            assert_trains_like_reference(lines, 40)
        assert widths == [2, 3, 4]

    def test_vocabulary_past_two_byte_ids(self):
        """70,000 distinct tokens: the 65,536th arrives inside a line, so the
        token id stream is widened there and the line is read again."""
        words = [f"w{i}" for i in range(70_000)]
        lines = [" ".join(words[i:i + 7]) for i in range(0, len(words), 7)] + ["w0 w69999 w65535"]
        model = assert_trains_like_reference(lines, 2)
        assert model.vocab_size == 70_000
        assert model_counts(model)[("w69999",)] == {"w65535": 1}


@st.composite
def count_tables(draw):
    """An order and ``{context: {token: count}}`` tables with contexts of
    every length below it. Tokens include control characters and case
    variants, and counts sit on both sides of the 32- and 64-bit column
    widths. Now and then a table breaks a rule of ``reference_valid``: a
    vocabulary token that is empty or splits, a token outside the
    vocabulary, a context as long as the order or a count below 1."""
    order = draw(st.integers(1, 5))
    valid = ["a", "A", "b", "aB", "\x00", "\x01", "\x01a", "[eos]"]
    vocab = draw(st.lists(st.sampled_from(valid * 8 + ["", "a b", "\x1c"]), min_size=1, max_size=6, unique=True))
    counts = st.sampled_from([1, 2, 2**32 - 1, 2**32, 2**64] * 20 + [0, -1])
    tables = {(): {token: draw(counts) for token in vocab}}
    words = st.sampled_from(vocab * 16 + ["z"])
    for _ in range(draw(st.integers(0, 8))):
        length = draw(st.sampled_from([*range(order)] * 16 + [order]))
        context = tuple(draw(words) for _ in range(length))
        tables[context] = draw(st.dictionaries(words, counts, max_size=4))
    return order, tables


class TestFromCounts:
    """A model from ``{context: {token: count}}`` tables: their
    ``reference_dump`` bytes, in save order and reversed, through
    ``load_model``."""

    @settings(max_examples=300, deadline=None)
    @given(case=count_tables())
    def test_equals_reference_dump(self, tmp_path_factory, case):
        order, tables = case
        assert_loads(tmp_path_factory.mktemp("tables"), order, tables)

    def test_keys_beyond_64_bits_fill_a_list(self, tmp_path):
        tables = {(): {"a": 1, "b": 2}, ("a",) * 64: {"b": 3}, ("b", "a"): {"a": 1, "b": 2}, ("b",): {"b": 5}}
        models = assert_loads(tmp_path, 65, tables)
        assert len(models) == 2 and models[0] == models[1]
        assert type(models[0].row_keys) is list and models[0].row_counts.typecode == "I"

    @pytest.mark.parametrize(
        "tables",
        [
            {(): {"a": 0}},
            {(): {"a": -1}},
            {(): {"a": 1}, ("a",): {"a": 0}},
            {},
            {(): {}},
            {(): {"": 1, "a": 2}, ("",): {"a": 1}},
            {(): {"a b": 1}},
            {(): {"a\x1cb": 1}},
        ],
        ids=["zero_count", "negative_count", "zero_context_count", "no_tables", "empty_vocabulary", "empty_token", "spaced_token", "separator_token"],
    )
    def test_rejects_tables_that_would_not_load_back(self, tmp_path, tables):
        """No model file holds any of these tables: load_model rejects their
        rows in either order."""
        assert not reference_valid(2, tables)
        assert_loads(tmp_path, 2, tables)


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
        counter = model_counts(model)[("a",)]
        assert model.vocab_size == 7 and counter == {"b": 1, "c": 1, "d": 1}
        # For both denominators log(1/d) and -log(d) differ in the last bit,
        # so an exchanged default changes the scores compared below.
        assert math.log(1 / 10) != -math.log(10) and math.log(1 / 7) != -math.log(7)
        candidates = {"b", "e", "[eos]"}
        assert model.score_next(["a"], candidates) == {t: math.log((counter.get(t, 0) + 1) / 10) for t in candidates}
        assert model.score_next(["zzz"], candidates) == {t: -math.log(7) for t in candidates}

    def test_sparse_lists_only_observed_candidates(self):
        model = train(["[BOS] a b [EOS]", "[BOS] a c [EOS]"], order=2)
        default, observed = model.score_sparse(["a"], {"b", "d", "[eos]"})
        assert observed == {"b": math.log(2 / 7)}
        assert default == math.log(1 / 7)
        assert model.score_sparse(["zzz"], {"b"}) == (-math.log(5), {})

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(LINES, min_size=1, max_size=12),
        order=st.integers(1, 5),
        prefix=st.lists(st.sampled_from(["a", "b", "bb", "ab", "[bos]", "[eos]", "zzz"]), max_size=6),
        candidates=st.sets(st.sampled_from(["a", "b", "bb", "ab", "[bos]", "[eos]", "zzz", "yyy"]), min_size=1),
    )
    def test_sparse_equals_dict_reference(self, lines, order, prefix, candidates):
        """Bisecting the columns gives the dict scorer's floats exactly, for
        short prefixes, unknown tokens, and candidate sets smaller and larger
        than the context's rows."""
        assume(any(tokenize(line) for line in lines))
        counts, _, _ = reference_train(lines, order)
        model = train(lines, order)
        assert model.score_sparse(prefix, candidates) == reference_score_sparse(order, counts, prefix, candidates)

    def test_sparse_takes_both_candidate_paths(self):
        model = train(["[BOS] a b [EOS]", "[BOS] a c [EOS]", "[BOS] a d [EOS]"], order=2)
        counts, _, _ = reference_train(["[BOS] a b [EOS]", "[BOS] a c [EOS]", "[BOS] a d [EOS]"], 2)
        for candidates in ({"b"}, {"b", "c", "d", "[eos]", "zzz"}):
            assert model.score_sparse(["a"], candidates) == reference_score_sparse(2, counts, ["a"], candidates)


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

    @pytest.mark.parametrize("surface", ["[EOS] is", "x [bos]", "a[St]b", "[et]"])
    def test_reserved_token_in_mention_rejected(self, surface):
        _, model = self.kg_and_model()
        with pytest.raises(SpecialTokenError, match=r"reserved token \[\w+\] occurs in mention: "):
            condition_on_mention(model, surface)

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

    @pytest.mark.parametrize("surface", ["[EOS] is", "x [bos]", "a[St]b", "[et]"])
    def test_reserved_token_in_mention_rejected(self, surface):
        kg = build_kg([Entity.make("C1", "aspirin")], [], [])
        docs = make_documents([[("aspirin", "C1"), (surface, "C1")]])
        with pytest.raises(SpecialTokenError, match=r"occurs in mention 1 of document 'd0'"):
            finetune_targets(kg, docs)
        # A mention whose gold does not resolve writes no line.
        assert finetune_targets(kg, make_documents([[(surface, "C404")]])) == []

    def test_reserved_token_in_chosen_synonym_rejected(self):
        """The graph that ``synthesize_corpus`` rejects is rejected here too,
        when the line would carry the synonym that holds the token."""
        kg = build_kg([Entity.make("C1", "aspirin", ["[eos] asa"])], [], [])
        with pytest.raises(SpecialTokenError):
            synthesize_corpus(kg, "synonym")
        with pytest.raises(SpecialTokenError, match=r"occurs in synonym of C1: '\[eos\] asa'"):
            finetune_targets(kg, make_documents([[("eos asa", "C1")]]))
        assert finetune_targets(kg, make_documents([[("aspirin", "C1")]])) == ["[BOS] aspirin is aspirin [EOS]"]


def model_tokens(model):
    """Every token object a model holds: the context elements and tokens of
    the rows it decodes, and the vocabulary."""
    for context, token, _ in model._rows():
        yield from context
        yield token
    yield from model.vocab


def surface_lines(kg):
    return [f"[BOS] {synonym} is {synonym} [EOS]" for entity in kg.entities.values() for synonym in entity.synonyms]


class TestSharedTokens:
    """The tables hold one interned ``str`` per distinct token, not a copy per
    row or per line."""

    def test_tokenize_interns(self):
        tokens = tokenize("Heart ATTACK heart attack")
        assert tokens[0] is tokens[2] and tokens[1] is tokens[3]
        assert all(token is sys.intern(token) for token in tokens)

    def test_train_interns_every_token(self, toy_kg):
        model = train(surface_lines(toy_kg), order=3)
        assert all(token is sys.intern(token) for token in model_tokens(model))

    def test_load_model_interns_every_token(self, toy_kg, tmp_path):
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(train(surface_lines(toy_kg), order=3), fp)
        assert all(token is sys.intern(token) for token in model_tokens(load_model(path)))

    def test_unpickled_model_interns_every_token(self, toy_kg):
        model = train(surface_lines(toy_kg), order=3)
        again = pickle.loads(pickle.dumps(model))
        assert again == model
        assert all(token is sys.intern(token) for token in model_tokens(again))


class TestModelIO:
    def test_bit_exact_round_trip(self, tmp_path):
        model = train(["[BOS] a b c [EOS]", "[BOS] c b a [EOS]", "[BOS] a is b [EOS]"], order=3)
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(model, fp)
        reloaded = load_model(path)
        assert dump(reloaded) == path.read_text(encoding="utf-8")
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

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(LINES, max_size=12), order=st.integers(1, 5), rng=st.randoms(use_true_random=False))
    def test_rows_load_in_any_order(self, tmp_path_factory, lines, order, rng):
        """save_model writes rows grouped by context; a file whose contexts
        recur after other contexts still loads to the same model."""
        assume(any(tokenize(line) for line in lines))
        model = train(lines, order)
        text = dump(model).splitlines(keepends=True)
        header, rows = text[:3], text[3:]
        rng.shuffle(rows)
        path = tmp_path_factory.mktemp("rows") / "model.tsv"
        path.write_text("".join(header + rows), encoding="utf-8")
        assert load_model(path) == model

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(LINES, max_size=12),
        order=st.integers(2, 5),
        rng=st.randoms(use_true_random=False),
        duplicate=st.booleans(),
    )
    def test_unordered_rows_report_the_bad_line(self, tmp_path_factory, lines, order, rng, duplicate):
        """Shuffled rows plus one row repeated at a later position, or one
        row that names a token with no vocabulary row: the error names the
        repeat's line, or the bad row's."""
        assume(any(tokenize(line) for line in lines))
        model = train(lines, order)
        text = dump(model).splitlines(keepends=True)
        header, rows = text[:3], text[3:]
        rng.shuffle(rows)
        if duplicate:
            first = rng.randrange(len(rows))
            at = rng.randint(first + 1, len(rows))
            rows.insert(at, rows[first])
            context_field, token, _ = rows[at].split("\t")
            reason = f"duplicate row for context {context_field!r}, token {token!r}"
        else:
            known = rng.choice(model.tokens)
            at = rng.randint(0, len(rows))
            rows.insert(at, rng.choice([f"zzz\t{known}\t1\n", f"{known}\tzzz\t1\n"]))
            reason = "token 'zzz' has no vocabulary row"
        path = tmp_path_factory.mktemp("rows") / "model.tsv"
        path.write_text("".join(header + rows), encoding="utf-8")
        with pytest.raises(MalformedModelError) as info:
            load_model(path)
        assert (info.value.line_no, info.value.reason) == (4 + at, reason)

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(LINES, max_size=12), order=st.integers(1, 5))
    def test_trained_lines_round_trip(self, tmp_path_factory, lines, order):
        assume(any(tokenize(line) for line in lines))
        model = train(lines, order)
        path = tmp_path_factory.mktemp("tables") / "model.tsv"
        path.write_text(dump(model), encoding="utf-8")
        reloaded = load_model(path)
        assert reloaded == model
        assert dump(reloaded) == path.read_text(encoding="utf-8")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("not-a-model\n1\n1\n", encoding="utf-8")
        with pytest.raises(MalformedModelError, match=r"bogus\.tsv:1: not a kgel-ngram-v1 file"):
            load_model(path)

    def test_rejects_vocab_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("kgel-ngram-v1\n2\n5\n\ta\t1\n", encoding="utf-8")
        with pytest.raises(MalformedModelError, match=r"bad\.tsv:3: vocabulary size 5 does not match rows \(1\)"):
            load_model(path)

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            ("kgel-ngram-v1\nx\n1\n", 2, "bad order/vocabulary header"),
            ("kgel-ngram-v1\n2\nx\n", 3, "bad order/vocabulary header"),
            ("kgel-ngram-v1\n0\n1\n", 2, "order and vocabulary size must be positive"),
            ("kgel-ngram-v1\n2\n0\n", 3, "order and vocabulary size must be positive"),
        ],
        ids=["bad_order", "bad_vocab", "zero_order", "zero_vocab"],
    )
    def test_header_rejection_names_its_line(self, tmp_path, text, line_no, reason):
        path = tmp_path / "model.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LineError) as info:
            load_model(path)
        assert type(info.value) is MalformedModelError
        assert (info.value.path, info.value.line_no, info.value.reason) == (str(path), line_no, reason)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (b"\ta\t1\r\n\r\n\n\r\tb\t2", {(): {"a": 1, "b": 2}}),
            (b"\ta\t 3 \n\tb\t4\r\n", {(): {"a": 3, "b": 4}}),
            (b"\ta\t1\n\tb\n", (5, "expected 3 tab-separated fields")),
            (b"\ta\t1\n \n", (5, "expected 3 tab-separated fields")),
            (b"\ta\t1\n\tb\t\n", (5, "bad count")),
            (b"\ta\t1\n\tb\tx\r\n", (5, "bad count")),
            (b"\ta\t0\n", (4, "counts must be positive")),
            (b"a b\tc\t1\n", (4, "context longer than order allows")),
            (b"\t\t1\n\ta\t2\n", (4, "vocabulary token '' is not a single token")),
            (b"\ta\t1\n\ta b\t2\n", (5, "vocabulary token 'a b' is not a single token")),
            (b"\ta\t1\n\ta\x1cb\t2\n", (5, "vocabulary token 'a\\x1cb' is not a single token")),
            (b"\tb\t1\nb\tb\t1\n\t \t2\n", (6, "vocabulary token ' ' is not a single token")),
        ],
        ids=[
            "blank_lines", "padded_counts", "two_fields", "space_line", "empty_count", "bad_count", "zero_count", "long_context",
            "empty_vocabulary_token", "spaced_vocabulary_token", "separator_vocabulary_token", "late_vocabulary_token",
        ],
    )
    def test_rows(self, tmp_path, rows, expected):
        path = tmp_path / "model.tsv"
        path.write_bytes(b"kgel-ngram-v1\n2\n2\n" + rows)
        if isinstance(expected, dict):
            assert model_counts(load_model(path)) == expected
        else:
            with pytest.raises(MalformedModelError) as info:
                load_model(path)
            assert (info.value.line_no, info.value.reason) == expected

    @pytest.mark.parametrize(
        "rows, line_no, token",
        [
            (b"\ta\t1\n\tb\t2\na\tc\t1\n", 6, "c"),
            (b"\ta\t1\n\tb\t2\nc\ta\t1\n", 6, "c"),
            (b"\ta\t1\na\tb\t1\nb\tc\t1\n\tb\t2\n", 6, "c"),
            (b"\tb\t2\n\ta\t1\nb\ta\t1\nc\ta\t1\n", 7, "c"),
        ],
        ids=["token", "context_token", "out_of_order", "after_unordered_vocabulary"],
    )
    def test_rejects_token_without_vocabulary_row(self, tmp_path, rows, line_no, token):
        path = tmp_path / "model.tsv"
        path.write_bytes(b"kgel-ngram-v1\n2\n2\n" + rows)
        with pytest.raises(MalformedModelError) as info:
            load_model(path)
        assert (info.value.line_no, info.value.reason) == (line_no, f"token {token!r} has no vocabulary row")

    def test_keys_beyond_64_bits_round_trip(self, tmp_path):
        """At order 8 over about 300 tokens the keys need more than 64 bits
        and live in a list; the rows and the scores are the same."""
        rng = random.Random(8)
        words = [f"w{i}" for i in range(300)]
        lines = ["[BOS] " + " ".join(rng.choice(words) for _ in range(rng.randint(1, 12))) + " [EOS]" for _ in range(400)]
        counts, _, _ = reference_train(lines, 8)
        model = train(lines, 8)
        assert (model.vocab_size + 1) ** 8 > 2**64 and type(model.row_keys) is list
        path = tmp_path / "model.tsv"
        path.write_text(dump(model), encoding="utf-8")
        reloaded = load_model(path)
        assert reloaded == model and type(reloaded.row_keys) is list
        assert dump(reloaded) == path.read_text(encoding="utf-8") == reference_dump(8, counts)
        for line in lines[:50]:
            tokens = tokenize(line)
            for end in range(len(tokens)):
                candidates = set(rng.sample(words, 40)) | {tokens[end]}
                expected = reference_score_sparse(8, counts, tokens[:end], candidates)
                assert model.score_sparse(tokens[:end], candidates) == expected
                assert reloaded.score_sparse(tokens[:end], candidates) == expected

    @pytest.mark.parametrize("count, column", [(2**32 - 1, "I"), (2**32, "Q"), (2**64, None)])
    def test_count_column_widens(self, tmp_path, count, column):
        path = tmp_path / "model.tsv"
        text = f"kgel-ngram-v1\n2\n2\n\ta\t1\n\tb\t{count}\na\tb\t{count}\n"
        path.write_text(text, encoding="utf-8")
        model = load_model(path)
        assert getattr(model.row_counts, "typecode", None) == column
        assert model_counts(model) == {(): {"a": 1, "b": count}, ("a",): {"b": count}}
        assert dump(model) == text

    def test_late_wide_count_widens_the_count_column(self, tmp_path):
        """The vocabulary's counts fit 32 bits and a later row's does not:
        the count column is sized for the largest count of the file."""
        path = tmp_path / "model.tsv"
        text = "kgel-ngram-v1\n2\n2\n\ta\t1\n\tb\t1\na\tb\t1099511627776\n"
        path.write_text(text, encoding="utf-8")
        model = load_model(path)
        assert model.row_counts.typecode == "Q"
        assert model_counts(model) == {(): {"a": 1, "b": 1}, ("a",): {"b": 2**40}}
        assert dump(model) == text

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


def wide_lines():
    """2,500 ten-word lines over 400 words: an order-3 model of 47,064 rows."""
    rng = random.Random(48)
    words = [f"w{i}" for i in range(400)]
    return ["[BOS] " + " ".join(rng.choice(words) for _ in range(10)) + " [EOS]" for _ in range(2500)]


class TestLayout:
    def test_save_spans_write_chunks(self):
        """save_model formats _SAVE_ROWS rows per write; a model of several
        chunks is written byte for byte as the reference writes it."""
        lines = wide_lines()
        model = train(lines, order=3)
        assert len(model.row_keys) > 2 * _SAVE_ROWS
        assert dump(model) == reference_dump(3, reference_train(lines, 3)[0])

    @pytest.mark.parametrize("order", [3, 5])
    def test_training_stays_compact(self, order):
        """Training peaks at a few dozen bytes per row of the model it
        returns: a token stream, bounded runs and the columns, not a dict
        per context (about 150 bytes per row at order 3)."""
        lines = wide_lines()
        tracemalloc.start()
        try:
            model = train(lines, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(model.row_keys) < 64

    @pytest.mark.parametrize("order", [3, 5])
    def test_unordered_load_stays_compact(self, tmp_path, order):
        """A file whose rows are reversed loads through integer columns of
        keys, counts and line numbers and one sort of their indices, not a
        dict per context or a tuple of strings per row: about 100 bytes per
        row at its peak (about 280 and 340 bytes through dict tables)."""
        text = dump(train(wide_lines(), order)).splitlines(keepends=True)
        path = tmp_path / "model.tsv"
        path.write_text("".join(text[:3] + text[3:][::-1]), encoding="utf-8")
        tracemalloc.start()
        try:
            model = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dump(model) == "".join(text)
        assert peak / len(model.row_keys) < 160

    def test_high_order_header_loads_compactly(self, tmp_path):
        """The header's order is unbounded, and a one-row model of order
        30,000 loads and scores in a few kilobytes: no table of place values
        with one entry per context length (58 MiB at this order)."""
        path = tmp_path / "model.tsv"
        path.write_text("kgel-ngram-v1\n30000\n1\n\ta\t1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            model = load_model(path)
            scores = [model.score_sparse(prefix, ["a"]) for prefix in ((), ("a",), ("a",) * 50)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (model.order, model.tokens, list(model.row_counts)) == (30000, ("a",), [1])
        assert scores == [(math.log(1 / 2), {"a": 0.0}), (0.0, {}), (0.0, {})]
        assert peak < 256 * 1024

    def test_loaded_rows_stay_compact(self, tmp_path):
        """The loaded tables cost a few bytes per row: sorted integer columns,
        not a dict per context (about 110 bytes per row)."""
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(train(wide_lines(), order=3), fp)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = load_model(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = len(path.read_text(encoding="utf-8").splitlines()) - 3
        assert 40_000 <= rows <= 60_000 and model.vocab_size == 402
        assert held / rows < 48
