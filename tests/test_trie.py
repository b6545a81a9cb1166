import heapq
import math
import random
import sys
import tracemalloc
from collections.abc import Set
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import HashScorer, enumerate_hypotheses, random_surface_set

from kgel.errors import EmptySurfaceError, InvalidPrefixError, KgelError, NonFiniteScoreError, NoHypothesisError
from kgel.kg import Entity, build_kg
from kgel.ngram import condition_on_mention, load_model, save_model, train
from kgel.text import normalize, tokenize
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


# Surfaces over a few words with case and whitespace variants, so that
# entities share surfaces under normalization without sharing spelling.
SURFACE = st.builds(
    lambda words, sep, pad: pad + sep.join(words) + pad,
    st.lists(st.sampled_from(["a", "A", "b", "B", "ab", "aB"]), min_size=1, max_size=3),
    st.sampled_from([" ", "  ", "\u00a0"]),
    st.sampled_from(["", " "]),
)


@st.composite
def shared_surface_kgs(draw):
    ids = draw(st.lists(st.sampled_from([f"C{i}" for i in range(12)]), min_size=1, max_size=8, unique=True))
    entities = []
    for entity_id in ids:
        surfaces = draw(st.lists(SURFACE, min_size=1, max_size=4))
        entities.append(Entity.make(entity_id, surfaces[0], surfaces[1:]))
    return build_kg(entities, [], [])


def owner_map(kg):
    """Normalized surface -> set of owning entity ids."""
    owners = {}
    for entity_id in sorted(kg.entities):
        for synonym in kg.entities[entity_id].synonyms:
            owners.setdefault(normalize(synonym), set()).add(entity_id)
    return owners


def preorder_dump(trie):
    """``depth<TAB>token<TAB>terminal<TAB>owners-csv`` for every node but the
    root, in preorder with children in sorted token order, read through
    ``allowed_next`` and ``entities_at`` alone."""
    lines = []

    def visit(prefix):
        children, _ = trie.allowed_next(prefix)
        for token in sorted(children):
            path = prefix + (token,)
            owners = trie.entities_at(path)
            lines.append(f"{len(path)}\t{token}\t{int(bool(owners))}\t{','.join(owners)}\n")
            visit(path)

    visit(())
    return "".join(lines)


def dump_from_owner_map(owners):
    """The preorder dump, written without a trie: lexicographic order of
    token tuples is preorder with children in sorted token order."""
    terminals = {tuple(tokenize(surface)): ",".join(sorted(ids)) for surface, ids in owners.items()}
    prefixes = sorted({tokens[:depth] for tokens in terminals for depth in range(1, len(tokens) + 1)})
    return "".join(
        f"{len(prefix)}\t{prefix[-1]}\t{int(prefix in terminals)}\t{terminals.get(prefix, '')}\n" for prefix in prefixes
    )


@settings(max_examples=300, deadline=None)
@given(shared_surface_kgs())
def test_build_trie_matches_the_owner_map(kg):
    owners = owner_map(kg)
    trie = build_trie(kg)
    reference = TokenTrie.from_surfaces(owners)
    shape = lambda t: (preorder_dump(t), len(t), t.node_count, t.max_depth)
    assert shape(trie) == shape(reference)
    expected_dump = dump_from_owner_map(owners)
    assert preorder_dump(trie) == expected_dump
    assert len(trie) == len(owners)
    assert trie.node_count == 1 + expected_dump.count("\n")
    assert trie.max_depth == max(len(tokenize(surface)) for surface in owners)


def test_from_surfaces_sorts_and_deduplicates_owners():
    trie = TokenTrie.from_surfaces({"x y": ["C2", "C0", "C2"], "X  y": ("C1", "C0"), "z": []})
    assert trie.entities_at(["x", "y"]) == ("C0", "C1", "C2")
    assert len(trie) == 1
    assert trie.node_count == 3


def trie_keys(trie):
    """Every child key of every node, reached through ``allowed_next``."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        children, _ = trie.allowed_next(prefix)
        for token in children:
            yield token
            stack.append(prefix + (token,))


class TestSharedTokens:
    def test_child_keys_are_interned(self, toy_kg):
        keys = list(trie_keys(build_trie(toy_kg)))
        assert keys and all(token is sys.intern(token) for token in keys)

    def test_model_and_trie_share_token_objects(self, toy_kg, tmp_path):
        trie = build_trie(toy_kg)
        lines = [f"[BOS] {s} [EOS]" for entity in toy_kg.entities.values() for s in entity.synonyms]
        trained = train(lines, order=3)
        path = tmp_path / "model.tsv"
        with open(path, "w", encoding="utf-8") as fp:
            save_model(trained, fp)
        for model in (trained, load_model(path)):
            tokens = {token: token for token in model.tokens}
            assert all(tokens[key] is key for key in trie_keys(trie))


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
            constrained_beam_search(TokenTrie(), UniformScorer(), beam_width=2)

    def test_prefix_surfaces_emit_even_while_expanding(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "a b": ["C1"]})
        results = constrained_beam_search(trie, UniformScorer(), beam_width=4)
        assert {tokens for tokens, _ in results} == {("a",), ("a", "b")}

    def test_every_result_is_terminal(self, toy_kg):
        trie = build_trie(toy_kg)
        for tokens, _ in constrained_beam_search(trie, UniformScorer(), beam_width=4):
            assert trie.entities_at(tokens)

    def test_closure_via_recording_scorer(self, toy_kg):
        """Every prefix search scores is in the trie, and its candidates are
        exactly that prefix's children, on the dense and the sparse path."""
        trie = build_trie(toy_kg)
        seen = []

        class RecordingDense:
            def score_next(self, prefix, candidates):
                seen.append((tuple(prefix), set(candidates)))
                return HashScorer().score_next(prefix, candidates)

        class RecordingSparse:
            def score_sparse(self, prefix, candidates):
                seen.append((tuple(prefix), set(candidates)))
                return UniformScorer().score_sparse(prefix, candidates)

        for scorer in (RecordingDense(), RecordingSparse()):
            seen.clear()
            constrained_beam_search(trie, scorer, beam_width=3)
            assert seen
            for prefix, candidates in seen:
                # allowed_next raises InvalidPrefixError for a prefix outside the trie.
                assert trie.allowed_next(prefix)[0] == candidates

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
        kind=st.sampled_from(["model", "conditioned", "uniform"]),
    )
    def test_sparse_equals_dense(self, seed, order, width, kind):
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
        sparse = constrained_beam_search(trie, scorer, width)
        dense = constrained_beam_search(trie, DenseOnly(scorer), width)
        assert sparse == dense


class _ReferenceNode:
    __slots__ = ("children", "entity_ids")

    def __init__(self):
        self.children = {}
        self.entity_ids = ()


class _ReferenceTrie:
    """The dict-of-children trie that ``TokenTrie`` replaced: one node object
    per prefix, children sorted by token once built."""

    def __init__(self, surface_owners):
        entries = []
        for surface in sorted(surface_owners):
            entries.extend((owner, tokenize(surface)) for owner in set(surface_owners[surface]))
        entries.sort(key=lambda entry: entry[0])
        self.root = _ReferenceNode()
        self.surfaces, self.node_count, self.max_depth = 0, 1, 0
        for owner, tokens in entries:
            node = self.root
            for token in tokens:
                if token not in node.children:
                    node.children[token] = _ReferenceNode()
                    self.node_count += 1
                node = node.children[token]
            if not node.entity_ids:
                self.surfaces += 1
            if owner not in node.entity_ids:
                node.entity_ids += (owner,)
            self.max_depth = max(self.max_depth, len(tokens))
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.children = dict(sorted(node.children.items()))
            stack.extend(node.children.values())

    def walk(self, prefix):
        node = self.root
        for token in prefix:
            if token not in node.children:
                raise InvalidPrefixError(f"prefix {list(prefix)!r} is not in the trie")
            node = node.children[token]
        return node

    def allowed_next(self, prefix):
        node = self.walk(prefix)
        return set(node.children), bool(node.entity_ids)

    def entities_at(self, prefix):
        return self.walk(prefix).entity_ids

    def __len__(self):
        return self.surfaces

    def dump(self):
        lines = []

        def visit(node, depth):
            for token, child in node.children.items():
                lines.append(f"{depth}\t{token}\t{int(bool(child.entity_ids))}\t{','.join(child.entity_ids)}\n")
                visit(child, depth + 1)

        visit(self.root, 1)
        return "".join(lines)


def reference_trie(surface_owners):
    return _ReferenceTrie(surface_owners)


def reference_beam_search(trie, scorer, beam_width):
    """Constrained beam search over a ``reference_trie``, as it was written
    for node objects; a dense scorer scores every child."""
    sparse = getattr(scorer, "score_sparse", None)
    beams, completed = [((), 0.0, trie.root)], []
    for _ in range(trie.max_depth):
        expansions = []
        for prefix, score, node in beams:
            if not node.children:
                continue
            if sparse is None:
                default, observed = 0.0, scorer.score_next(prefix, set(node.children))
            else:
                default, observed = sparse(prefix, node.children.keys())
            for token, logp in observed.items():
                expansions.append((prefix + (token,), score + logp, node.children[token]))
            unobserved = (token for token in node.children if token not in observed)
            for token in islice(unobserved, beam_width):
                expansions.append((prefix + (token,), score + default, node.children[token]))
        if not expansions:
            break
        beams = heapq.nsmallest(beam_width, expansions, key=lambda item: (-item[1], item[0]))
        completed.extend((prefix, score) for prefix, score, node in beams if node.entity_ids)
    if not completed:
        raise NoHypothesisError("no surface form completed")
    return sorted(completed, key=lambda item: (-item[1], item[0]))


def outcome(call, *args):
    """A call's result, or the class of the ``KgelError`` it raised."""
    try:
        return call(*args)
    except KgelError as exc:
        return type(exc)


# Tokens include characters below " ", which a sort key that joins tokens
# with a separator would order wrongly, and case variants that fold alike.
EQUIVALENCE_TOKENS = ["a", "A", "b", "ab", "a\x01", "\x01", "\x1b", "a\x1bb", "\x01b"]
OWNERS = [f"C{i}" for i in range(6)]


@st.composite
def surface_owner_maps(draw):
    surfaces = draw(st.lists(st.lists(st.sampled_from(EQUIVALENCE_TOKENS), min_size=1, max_size=4), max_size=25))
    # Prefixes of drawn surfaces are surfaces too, half of the time.
    surfaces += [tokens[:-1] for tokens in surfaces if len(tokens) > 1 and draw(st.booleans())]
    # Owners repeat and arrive in any order; a surface may have none.
    return {" ".join(tokens): draw(st.lists(st.sampled_from(OWNERS), max_size=4)) for tokens in surfaces}


class TestEquivalence:
    """The column trie answers every query as the dict trie it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(surface_owners=surface_owner_maps(), seed=st.integers(0, 2**32 - 1), width=st.integers(1, 6))
    @example(surface_owners={}, seed=0, width=3)
    @example(surface_owners={"a": ["C1"], "a b": ["C0", "C2", "C0"], "A  B": ["C1"]}, seed=1, width=2)
    @example(surface_owners={"a\x01 b": ["C0"], "a b": ["C1"], "a\x1bb": ["C2"], "a": []}, seed=2, width=4)
    def test_equals_reference_trie(self, surface_owners, seed, width):
        trie = TokenTrie.from_surfaces(surface_owners)
        reference = reference_trie(surface_owners)
        for built in [trie] + ([TokenTrie()] if not surface_owners else []):
            assert preorder_dump(built) == reference.dump()
            assert (len(built), built.node_count, built.max_depth) == (len(reference), reference.node_count, reference.max_depth)
        prefixes = {()} | {tuple(tokenize(s))[:depth] for s in surface_owners for depth in range(1, 5)}
        prefixes |= {prefix + ("zz",) for prefix in list(prefixes)}
        for prefix in prefixes:
            assert outcome(trie.allowed_next, prefix) == outcome(reference.allowed_next, prefix)
            assert outcome(trie.entities_at, prefix) == outcome(reference.entities_at, prefix)
        rng = random.Random(seed)
        lines = [
            "[BOS] " + " ".join(rng.choice(EQUIVALENCE_TOKENS) for _ in range(rng.randint(1, 5))) + " [EOS]"
            for _ in range(rng.randint(1, 20))
        ]
        for scorer in (HashScorer(str(seed)), train(lines, order=rng.randint(1, 3))):
            got = outcome(constrained_beam_search, trie, scorer, width)
            assert got == outcome(reference_beam_search, reference, scorer, width)


class TestScorerContract:
    def test_sparse_candidates_are_a_set_view(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b c": ["C1"], "d": ["C2"]})
        seen = []

        class Inspecting:
            def score_sparse(self, prefix, candidates):
                seen.append((prefix, candidates))
                assert isinstance(candidates, Set)
                assert len(candidates) == len(set(candidates))
                assert all(token in candidates for token in candidates)
                assert "zz" not in candidates and 1 not in candidates and None not in candidates
                assert candidates == set(candidates) and candidates <= set(candidates) | {"zz"}
                assert candidates & {"a", "zz"} == ({"a"} if "a" in candidates else set())
                assert candidates | {"zz"} == set(candidates) | {"zz"}
                assert candidates - {"a"} == set(candidates) - {"a"}
                assert isinstance(candidates & {"a"}, Set) and not candidates.isdisjoint(set(candidates))
                return -1.0, {}

        constrained_beam_search(trie, Inspecting(), beam_width=3)
        assert [(prefix, set(candidates)) for prefix, candidates in seen] == [((), {"a", "b", "d"}), (("b",), {"c"})]

    def test_dense_scorer_gets_a_real_set(self):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b c": ["C1"]})
        types = []

        class Dense:
            def score_next(self, prefix, candidates):
                types.append(type(candidates))
                result = {token: -1.0 for token in candidates}
                candidates.clear()  # the scorer owns its argument
                return result

        constrained_beam_search(trie, Dense(), beam_width=2)
        assert types == [set, set]

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_dense_scorer_must_cover_exactly_the_candidates(self, change):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"]})

        class Inexact:
            def score_next(self, prefix, candidates):
                scores = {token: -1.0 for token in candidates}
                if change == "missing":
                    del scores["a"]
                else:
                    scores["zz"] = -1.0
                return scores

        with pytest.raises(ValueError, match="did not cover exactly the candidate set"):
            constrained_beam_search(trie, Inexact(), beam_width=2)

    @pytest.mark.parametrize("stray", ["", 1, None])
    def test_sparse_scorer_stray_key_rejected(self, stray):
        trie = TokenTrie.from_surfaces({"a": ["C0"], "b": ["C1"]})

        class Stray:
            def score_sparse(self, prefix, candidates):
                return -1.0, {"a": -0.5, stray: -0.1}

        with pytest.raises(ValueError, match="outside the candidate set"):
            constrained_beam_search(trie, Stray(), beam_width=2)


class TestLayout:
    def test_nodes_stay_compact(self):
        """A built trie costs a few dozen bytes per node: level-order
        columns, not a node object and a child dict per node (about 215
        bytes per node)."""
        rng = random.Random(17)
        words = [sys.intern(f"w{i}") for i in range(3000)]
        surfaces = {" ".join(rng.choice(words) for _ in range(rng.randint(1, 4))): (f"C{i}",) for i in range(25_000)}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trie = TokenTrie.from_surfaces(surfaces)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trie) >= 20_000 and trie.node_count >= 40_000
        assert held / trie.node_count < 48
