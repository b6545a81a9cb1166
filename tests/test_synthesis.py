import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from kgel.errors import (
    EmptyCorpusError,
    EmptySurfaceError,
    KgelError,
    MalformedLineError,
    NoTriplesError,
    SpecialTokenError,
    UnknownSynonymError,
)
from kgel.kg import Entity, Relation, Triple, build_kg
from kgel.synthesis import (
    TrainingSample,
    corpus_targets,
    make_source,
    read_corpus,
    relation_probabilities,
    sample_triples,
    synonym_samples,
    synthesize_corpus,
    triple_samples_all,
    triple_samples_line,
    write_corpus,
)

SOURCE_WITH_DEF = re.compile(r"^\[BOS\]\[ST\](.+)\[ET\] is defined as (.+)\[EOS\]$")
SOURCE_BARE = re.compile(r"^\[BOS\]\[ST\](.+)\[ET\]\[EOS\]$")
TARGET = re.compile(r"^\[BOS\] (.+) \[EOS\]$")


def single_relation_kg(n_triples, extra_entities=()):
    entities = [Entity.make("H", "hub")] + [Entity.make(f"T{i}", f"tail{i}") for i in range(n_triples)]
    entities += [Entity.make(eid, eid.lower()) for eid in extra_entities]
    triples = [Triple("H", "r", f"T{i}") for i in range(n_triples)]
    return build_kg(entities, [Relation("r", "rel")], triples)


class TestMakeSource:
    def test_with_definition(self):
        e = Entity.make("C1", "heart attack", definition="necrosis of myocardium")
        assert make_source(e, "heart attack") == "[BOS][ST]heart attack[ET] is defined as necrosis of myocardium[EOS]"

    def test_without_definition(self):
        e = Entity.make("C1", "X")
        assert make_source(e, "X") == "[BOS][ST]X[ET][EOS]"

    def test_unknown_synonym(self):
        e = Entity.make("C1", "X")
        with pytest.raises(UnknownSynonymError):
            make_source(e, "Y")


class TestSynonymSamples:
    def test_both_ordered_pairs(self):
        e = Entity.make("C1", "a", ["b"])
        samples = synonym_samples(e, cap=10, seed=0)
        assert {s.target for s in samples} == {"[BOS] a is b [EOS]", "[BOS] b is a [EOS]"}
        assert all(s.kind == "synonym" and s.concept == "C1" for s in samples)
        assert all(s.source == make_source(e, s.target.split()[1]) for s in samples)

    def test_single_synonym_yields_nothing(self):
        assert synonym_samples(Entity.make("C1", "a"), cap=10, seed=0) == []

    def test_cap_and_stability(self):
        e = Entity.make("C1", "a", ["b", "c"])
        first = synonym_samples(e, cap=2, seed=33)
        second = synonym_samples(e, cap=2, seed=33)
        assert len(first) == 2
        assert first == second
        assert len({(s.source, s.target) for s in first}) == 2

    def test_cap_larger_than_pool_enumerates_all(self):
        e = Entity.make("C1", "a", ["b", "c"])
        samples = synonym_samples(e, cap=100, seed=0)
        assert len(samples) == 6


class TestRelationProbabilities:
    def test_inverse_frequency(self):
        kg = build_kg(
            [Entity.make("A", "a"), Entity.make("B", "b")],
            [Relation("r1", "x"), Relation("r2", "y")],
            [Triple("A", "r1", "B"), Triple("B", "r1", "A"), Triple("B", "r1", "B"), Triple("A", "r2", "B")],
        )
        probs = relation_probabilities(kg, kg.entities["A"])
        assert probs["r1"] == pytest.approx(0.25, abs=1e-12)
        assert probs["r2"] == pytest.approx(0.75, abs=1e-12)

    def test_single_group(self):
        kg = single_relation_kg(1)
        assert relation_probabilities(kg, kg.entities["H"]) == {"r": 1.0}

    def test_symmetric_frequencies(self):
        kg = build_kg(
            [Entity.make("A", "a"), Entity.make("B", "b")],
            [Relation("r1", "x"), Relation("r2", "y")],
            [Triple("A", "r1", "B"), Triple("A", "r2", "B"), Triple("B", "r1", "A"), Triple("B", "r2", "A")],
        )
        probs = relation_probabilities(kg, kg.entities["A"])
        assert probs == {"r1": 0.5, "r2": 0.5}

    def test_sums_to_one(self, toy_kg):
        for eid in toy_kg.outgoing:
            assert sum(relation_probabilities(toy_kg, toy_kg.entities[eid]).values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_triples(self, toy_kg):
        with pytest.raises(NoTriplesError):
            relation_probabilities(toy_kg, toy_kg.entities["C0003"])


class TestSampleTriples:
    def test_single_triple_any_k(self):
        kg = single_relation_kg(1)
        assert sample_triples(kg, kg.entities["H"], k=8, seed=1) == [Triple("H", "r", "T0")]

    def test_distinct_draws(self):
        kg = single_relation_kg(10)
        picked = sample_triples(kg, kg.entities["H"], k=3, seed=5)
        assert len(picked) == 3
        assert len(set(picked)) == 3

    def test_no_triples_empty(self):
        kg = single_relation_kg(1)
        assert sample_triples(kg, kg.entities["T0"], k=4, seed=0) == []

    def test_deterministic(self):
        kg = single_relation_kg(10)
        a = sample_triples(kg, kg.entities["H"], k=5, seed=77)
        b = sample_triples(kg, kg.entities["H"], k=5, seed=77)
        assert a == b

    def test_exhausts_all_triples_when_k_large(self):
        kg = single_relation_kg(4)
        picked = sample_triples(kg, kg.entities["H"], k=100, seed=3)
        assert sorted(t.tail for t in picked) == ["T0", "T1", "T2", "T3"]

    def test_first_draw_distribution_matches_probabilities(self):
        # three groups with distinct global frequencies
        entities = [Entity.make("H", "hub")] + [Entity.make(f"T{i}", f"tail{i}") for i in range(9)]
        entities.append(Entity.make("F", "filler"))
        triples = [Triple("H", f"r{i % 3}", f"T{i}") for i in range(9)]
        triples += [Triple("F", "r0", "F")] * 17  # skew the global frequencies
        triples += [Triple("F", "r1", "F")] * 4
        relations = [Relation(f"r{i}", f"label{i}") for i in range(3)]
        kg = build_kg(entities, relations, triples)
        hub = kg.entities["H"]
        expected = relation_probabilities(kg, hub)

        trials = 10_000
        observed = {r: 0 for r in expected}
        for seed in range(trials):
            observed[sample_triples(kg, hub, k=1, seed=seed)[0].relation] += 1
        l1 = sum(abs(observed[r] / trials - p) for r, p in expected.items())
        assert l1 < 0.02

    def test_inverse_frequency_first_draw(self):
        # hub sees groups with global frequencies 1000 and 1
        entities = [Entity.make("H", "hub"), Entity.make("F", "filler"), Entity.make("X", "x")]
        entities += [Entity.make(f"T{i}", f"tail{i}") for i in range(10)]
        triples = [Triple("H", "r_freq", f"T{i}") for i in range(10)]
        triples += [Triple("F", "r_freq", "X")] * 990
        triples.append(Triple("H", "r_rare", "X"))
        kg = build_kg(entities, [Relation("r_freq", "often"), Relation("r_rare", "rarely")], triples)
        assert kg.relation_freq == {"r_freq": 1000, "r_rare": 1}

        hub = kg.entities["H"]
        expected = relation_probabilities(kg, hub)["r_rare"]
        assert expected == pytest.approx(1000 / 1001, abs=1e-12)

        trials = 10_000
        hits = sum(1 for seed in range(trials) if sample_triples(kg, hub, k=1, seed=seed)[0].relation == "r_rare")
        assert hits / trials == pytest.approx(expected, abs=0.02)


class TestTripleSamplesLine:
    def test_template(self):
        kg = build_kg(
            [Entity.make("A", "aspirin"), Entity.make("B", "headache")],
            [Relation("r", "treats")],
            [Triple("A", "r", "B")],
        )
        samples = triple_samples_line(kg, kg.entities["A"], k=4, seed=0)
        assert len(samples) == 1
        assert samples[0].target == "[BOS] aspirin treats headache [EOS]"
        assert samples[0].source == make_source(kg.entities["A"], "aspirin")
        assert samples[0].kind == "triple_line"

    def test_no_triples(self):
        kg = single_relation_kg(1)
        assert triple_samples_line(kg, kg.entities["T0"], k=2, seed=0) == []

    def test_two_triples_distinct(self):
        kg = single_relation_kg(2)
        samples = triple_samples_line(kg, kg.entities["H"], k=2, seed=0)
        assert len(samples) == 2
        tails = {s.target.split()[-2] for s in samples}
        assert tails == {"tail0", "tail1"}

    def test_head_surface_shared_between_source_and_target(self):
        kg = build_kg(
            [Entity.make("A", "aspirin", ["asa", "acetylsalicylic acid"]), Entity.make("B", "headache")],
            [Relation("r", "treats")],
            [Triple("A", "r", "B")],
        )
        for seed in range(20):
            (sample,) = triple_samples_line(kg, kg.entities["A"], k=1, seed=seed)
            target_head = TARGET.match(sample.target).group(1).rsplit(" treats ", 1)[0]
            assert sample.source == make_source(kg.entities["A"], target_head)


class TestTripleSamplesAll:
    def test_sorted_segments(self):
        kg = build_kg(
            [Entity.make("A", "aspirin"), Entity.make("B", "headache"), Entity.make("C", "nausea")],
            [Relation("r1", "treats"), Relation("r2", "causes")],
            [Triple("A", "r1", "B"), Triple("A", "r2", "C")],
        )
        sample = triple_samples_all(kg, kg.entities["A"], k=8, seed=0)
        assert sample.target == "[BOS] aspirin causes nausea treats headache [EOS]"
        assert sample.kind == "triple_all"

    def test_absent_without_triples(self):
        kg = single_relation_kg(1)
        assert triple_samples_all(kg, kg.entities["T0"], k=2, seed=0) is None

    def test_single_triple_matches_line_template(self):
        kg = build_kg(
            [Entity.make("A", "aspirin"), Entity.make("B", "headache")],
            [Relation("r", "treats")],
            [Triple("A", "r", "B")],
        )
        line = triple_samples_line(kg, kg.entities["A"], k=1, seed=9)[0]
        alone = triple_samples_all(kg, kg.entities["A"], k=1, seed=9)
        assert alone.target == line.target


class TestSynthesizeCorpus:
    def corpus_bytes(self, kg, **kwargs):
        buffer = io.StringIO()
        write_corpus(synthesize_corpus(kg, **kwargs), buffer)
        return buffer.getvalue()

    def test_byte_identical_across_runs(self, toy_kg):
        a = self.corpus_bytes(toy_kg, mode="synonym", cap=2, seed=7)
        b = self.corpus_bytes(toy_kg, mode="synonym", cap=2, seed=7)
        assert a == b

    def test_seed_changes_bytes(self, toy_kg):
        assert self.corpus_bytes(toy_kg, mode="combined", seed=1) != self.corpus_bytes(toy_kg, mode="combined", seed=2)

    def test_triple_line_cardinality(self, toy_kg):
        samples = list(synthesize_corpus(toy_kg, "triple_line", k=8, seed=0))
        expected = sum(min(8, len(ts)) for ts in toy_kg.outgoing.values())
        assert expected == 7
        assert len(samples) == expected

    def test_synonym_cardinality(self, toy_kg):
        samples = list(synthesize_corpus(toy_kg, "synonym", cap=20, seed=0))
        expected = sum(
            min(20, len(e.synonyms) * (len(e.synonyms) - 1)) for e in toy_kg.entities.values()
        )
        assert expected == 10
        assert len(samples) == expected

    def test_empty_kg(self):
        assert list(synthesize_corpus(build_kg([], [], []), "combined")) == []

    def test_entities_ascend(self, toy_kg):
        concepts = [s.concept for s in synthesize_corpus(toy_kg, "combined", seed=3)]
        assert concepts == sorted(concepts)

    def test_special_token_collision_rejected(self):
        kg = build_kg([Entity.make("A", "evil [BOS] name")], [], [])
        with pytest.raises(SpecialTokenError):
            list(synthesize_corpus(kg, "synonym"))

    @pytest.mark.parametrize("text", ["[bos] thing", "the [Eos]", "[st]x", "[\u017ft] long s"])
    def test_special_token_rejected_in_any_case(self, text):
        # tokens are case-folded, so "[bos]" is the BOS token of the n-gram model
        with pytest.raises(SpecialTokenError):
            list(synthesize_corpus(build_kg([Entity.make("A", text)], [], []), "synonym"))

    @pytest.mark.parametrize("mode", ["synonym", "triple_line", "triple_all", "combined"])
    @pytest.mark.parametrize("blank", [" ", "  \u00a0", "\u3000"])
    def test_whitespace_only_synonym_rejected_at_call(self, mode, blank):
        # the template would carry it as a run of spaces: '[BOS] aspirin is   [EOS]'
        kg = build_kg([Entity.make("A", "aspirin", [blank])], [], [])
        with pytest.raises(EmptySurfaceError, match="of A normalizes to zero tokens"):
            synthesize_corpus(kg, mode)

    def test_unknown_mode(self, toy_kg):
        with pytest.raises(ValueError):
            list(synthesize_corpus(toy_kg, "everything"))

    def test_checks_run_at_call_before_any_sample(self, toy_kg):
        # the CLI opens --out only after this call returns
        with pytest.raises(ValueError):
            synthesize_corpus(toy_kg, "everything")
        with pytest.raises(SpecialTokenError):
            synthesize_corpus(build_kg([Entity.make("A", "[bos] thing")], [], []), "synonym")


class TestTemplateConformance:
    def assert_well_formed(self, sample):
        src = SOURCE_WITH_DEF.match(sample.source) or SOURCE_BARE.match(sample.source)
        assert src, sample.source
        tgt = TARGET.match(sample.target)
        assert tgt, sample.target
        for group in src.groups() + tgt.groups():
            for token in ("[BOS]", "[EOS]", "[ST]", "[ET]"):
                assert token not in group

    def test_full_toy_corpus(self, toy_kg):
        samples = list(synthesize_corpus(toy_kg, "combined", seed=5))
        samples += list(synthesize_corpus(toy_kg, "triple_all", seed=5))
        assert samples
        for sample in samples:
            self.assert_well_formed(sample)

    def test_no_leakage_synonym_targets(self, toy_kg):
        for sample in synthesize_corpus(toy_kg, "synonym", seed=13):
            body = TARGET.match(sample.target).group(1)
            a, b = body.split(" is ") if " is " in body else (None, None)
            synonyms = set(toy_kg.entities[sample.concept].synonyms)
            # "is" never occurs inside toy synonyms, so the split is unambiguous
            assert a in synonyms and b in synonyms

    def test_no_leakage_triple_targets(self, toy_kg):
        labels = {r.label: rid for rid, r in toy_kg.relations.items()}
        for sample in synthesize_corpus(toy_kg, "triple_line", seed=13):
            body = TARGET.match(sample.target).group(1)
            label = next(l for l in labels if f" {l} " in body)
            a, b = body.split(f" {label} ")
            head = toy_kg.entities[sample.concept]
            assert a in head.synonyms
            tails = {
                t.tail for t in toy_kg.out_triples(sample.concept) if t.relation == labels[label]
            }
            assert any(b in toy_kg.entities[tail].synonyms for tail in tails)


# Everything json.dumps escapes or passes through with ensure_ascii=False:
# quotes, backslashes, C0 controls, DEL, the JS line separators, astral and
# combining characters.
CORPUS_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "\U0001f600", "\u0301", "e", "/"])
    | st.characters(max_codepoint=0x1F)
    | st.characters(),
    max_size=8,
)


class TestCorpusIO:
    def test_round_trip_with_header(self, toy_kg, tmp_path):
        samples = list(synthesize_corpus(toy_kg, "combined", seed=21))
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            write_corpus(samples, fp, config={"seed": 21})
        assert list(read_corpus(path)) == samples

    @settings(max_examples=300, deadline=None)
    @given(fields=st.lists(st.tuples(CORPUS_TEXT, CORPUS_TEXT, CORPUS_TEXT, CORPUS_TEXT), max_size=4))
    def test_lines_equal_json_dumps(self, fields):
        samples = [TrainingSample(*f) for f in fields]
        fp = io.StringIO()
        assert write_corpus(samples, fp) == len(samples)
        assert fp.getvalue() == "".join(
            json.dumps({"source": s.source, "target": s.target, "kind": s.kind, "concept": s.concept}, ensure_ascii=False)
            + "\n"
            for s in samples
        )

    @pytest.mark.parametrize("field", ["source", "target", "kind", "concept"])
    @pytest.mark.parametrize("value", [5, None, b"x", ["x"]], ids=["int", "none", "bytes", "list"])
    def test_write_rejects_non_string_field(self, field, value):
        fields = {"source": "x", "target": "y", "kind": "synonym", "concept": "C1", field: value}
        with pytest.raises(TypeError, match="corpus sample fields must be strings"):
            write_corpus([TrainingSample(**fields)], io.StringIO())

    def test_read_rejects_unexpected_record_keys(self, tmp_path):
        from kgel.errors import MalformedLineError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": "x", "target": "y"}\n', encoding="utf-8")
        with pytest.raises(MalformedLineError):
            list(read_corpus(path))

    @pytest.mark.parametrize("field", ["source", "target", "kind", "concept"])
    def test_read_rejects_non_string_field(self, tmp_path, field):
        record = {"source": "x", "target": "y", "kind": "synonym", "concept": "C1", field: 5}
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kgel": {}}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match=r"bad\.jsonl:2: corpus record fields must be strings"):
            list(read_corpus(path))

    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (['{"kgel": {}}', "{record}", '{"kgel": 1, "source": "x", "target": "[BOS] evil [EOS]"}', "{record}"], 3),
            (['{"kgel": {}}', "{record}", '{"kgel": {}}'], 3),
            (["{record}", '{"kgel": {}}'], 2),
            (['{"kgel": 1}', "{record}"], 1),
            (['{"kgel": {}, "source": "x"}', "{record}"], 1),
            (['{"kgel": []}', "{record}"], 1),
        ],
        ids=["kgel_key_mid_file", "second_header", "header_after_record", "header_not_object", "header_extra_key",
             "header_list"],
    )
    def test_header_only_as_first_record(self, tmp_path, lines, line_no):
        record = json.dumps({"source": "x", "target": "[BOS] a [EOS]", "kind": "synonym", "concept": "C1"})
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line.replace("{record}", record) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(MalformedLineError, match=rf"bad\.jsonl:{line_no}: corpus record keys"):
            list(read_corpus(path))

    def test_header_after_blank_lines_is_first_record(self, tmp_path):
        record = {"source": "x", "target": "[BOS] a [EOS]", "kind": "synonym", "concept": "C1"}
        path = tmp_path / "corpus.jsonl"
        path.write_text('\n\n{"kgel": {"format": "kgel-corpus-v1"}}\n' + json.dumps(record) + "\n", encoding="utf-8")
        assert [sample.target for sample in read_corpus(path)] == ["[BOS] a [EOS]"]

    @pytest.mark.parametrize("bad", ["[" * 100_000, '{"target": ' + "9" * 5_000 + "}"], ids=["deep", "long_int"])
    def test_undecodable_json_reports_line(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kgel": {}}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match=r"bad\.jsonl:2: invalid JSON"):
            list(read_corpus(path))

    def test_invalid_utf8_reports_line(self, toy_kg, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            write_corpus(list(synthesize_corpus(toy_kg, "synonym", seed=1))[:2], fp, config={"seed": 1})
        with open(path, "ab") as fp:
            fp.write(b'{"source": "\xed\xa0\x80"}\n')
        with pytest.raises(MalformedLineError) as exc:
            list(read_corpus(path))
        assert exc.value.line_no == 4
        assert "invalid UTF-8" in exc.value.reason

    @pytest.mark.parametrize("text", ["", "\n\n", '{"kgel": {"format": "kgel-corpus-v1"}}\n'],
                             ids=["empty", "blank_lines", "header_only"])
    def test_corpus_targets_raises_empty_once_exhausted(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        targets = corpus_targets(path)
        with pytest.raises(EmptyCorpusError, match="no samples in"):
            next(targets)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_kgel_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        path.write_bytes(data)
        try:
            list(read_corpus(path))
        except KgelError:
            pass
