import pytest
from hypothesis import given, settings, strategies as st

from kgel.errors import (
    DanglingEntityError,
    DanglingRelationError,
    DuplicateEntityError,
    DuplicateRelationError,
    LineError,
)
from kgel.ingest import parse_kg_dir
from kgel.kg import Entity, Relation, Triple, build_kg, kg_stats
from kgel.text import normalize


def entity(eid, name, synonyms=(), definition=None):
    return Entity.make(eid, name, synonyms, definition)


class TestEntity:
    def test_preferred_name_is_synonym_zero(self):
        e = entity("C1", "heart attack", ["myocardial infarction"])
        assert e.synonyms[0] == "heart attack"
        assert e.synonyms == ("heart attack", "myocardial infarction")

    def test_make_dedups_case_and_whitespace_variants(self):
        e = entity("C1", "Heart Attack", ["heart  attack", "HEART ATTACK", "MI"])
        assert e.synonyms == ("Heart Attack", "MI")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Entity.make("", "x")

    def test_rejects_tab_in_id(self):
        with pytest.raises(ValueError):
            Entity.make("C\t1", "x")

    def test_rejects_duplicate_synonyms_on_direct_construction(self):
        with pytest.raises(ValueError):
            Entity(id="C1", preferred_name="a", synonyms=("a", "A"))

    def test_rejects_newline_in_definition(self):
        with pytest.raises(ValueError):
            Entity.make("C1", "a", definition="two\nlines")

    def test_empty_definition_becomes_none(self):
        assert entity("C1", "a", definition="").definition is None


def reference_make(id, preferred_name, synonyms=(), definition=None):
    """``Entity.make`` written out: drop the duplicates, then construct with
    every check of ``__post_init__``."""
    ordered = [preferred_name]
    seen = {normalize(preferred_name)}
    for syn in synonyms:
        key = normalize(syn)
        if key not in seen:
            seen.add(key)
            ordered.append(syn)
    return Entity(id=id, preferred_name=preferred_name, synonyms=tuple(ordered), definition=definition or None)


def outcome(make, *args):
    try:
        return make(*args)
    except Exception as exc:
        return type(exc), str(exc)


# Mostly valid ids, names and definitions, and synonyms as short strings
# over the characters the checks look at; None stands for a value of the
# wrong type.
ID = st.sampled_from(["C1", "C1", "C1", "", "C\t1", "C\r1", None])
NAME = st.sampled_from(["a", "a", "A b", "b", "", " ", "a\n", None])
SYNONYM = st.one_of(st.none(), st.text(alphabet=st.sampled_from(["a", "A", "b", " ", "\t", "\n", "\r"]), max_size=3))
DEFINITION = st.sampled_from([None, "", "d", "d\td", "d\nd", "d\rd"])


@settings(max_examples=500, deadline=None)
@given(id=ID, name=NAME, synonyms=st.lists(SYNONYM, max_size=4), definition=DEFINITION)
def test_make_accepts_and_rejects_as_direct_construction(id, name, synonyms, definition):
    assert outcome(Entity.make, id, name, synonyms, definition) == outcome(reference_make, id, name, synonyms, definition)


class TestBuildKg:
    def test_single_edge(self):
        kg = build_kg(
            [entity("A", "a"), entity("B", "b")],
            [Relation("r", "rel")],
            [Triple("A", "r", "B")],
        )
        assert kg.relation_freq == {"r": 1}
        assert kg.out_triples("A") == (Triple("A", "r", "B"),)
        assert kg.out_triples("B") == ()

    def test_dangling_entity(self):
        with pytest.raises(DanglingEntityError):
            build_kg([entity("A", "a")], [Relation("r", "rel")], [Triple("A", "r", "C")])

    def test_dangling_relation(self):
        with pytest.raises(DanglingRelationError):
            build_kg([entity("A", "a")], [Relation("r", "rel")], [Triple("A", "q", "A")])

    def test_duplicate_entity_id(self):
        with pytest.raises(DuplicateEntityError):
            build_kg([entity("A", "a"), entity("A", "b")], [], [])

    def test_duplicate_relation_id(self):
        with pytest.raises(DuplicateRelationError):
            build_kg([entity("A", "a")], [Relation("r", "x"), Relation("r", "y")], [])

    @pytest.mark.parametrize(
        "parts, error, reason",
        [
            (([entity("A", "a"), entity("A", "b")], [], []), DuplicateEntityError, "duplicate entity id 'A'"),
            (([], [Relation("r", "x"), Relation("r", "y")], []), DuplicateRelationError, "duplicate relation id 'r'"),
            (
                ([entity("A", "a")], [Relation("r", "rel")], [Triple("B", "r", "A")]),
                DanglingEntityError,
                "triple Triple(head='B', relation='r', tail='A') references unknown entity 'B'",
            ),
            (
                ([entity("A", "a")], [Relation("r", "rel")], [Triple("A", "q", "A")]),
                DanglingRelationError,
                "triple Triple(head='A', relation='q', tail='A') references unknown relation 'q'",
            ),
        ],
        ids=["duplicate-entity", "duplicate-relation", "dangling-entity", "dangling-relation"],
    )
    def test_reference_errors_carry_no_location(self, parts, error, reason):
        with pytest.raises(error) as exc:
            build_kg(*parts)
        assert isinstance(exc.value, LineError)
        assert (exc.value.path, exc.value.line_no, exc.value.reason) == (None, None, reason)
        assert str(exc.value) == reason

    def test_self_loop_accepted(self):
        kg = build_kg([entity("A", "a")], [Relation("r", "rel")], [Triple("A", "r", "A")])
        assert kg.relation_freq["r"] == 1

    def test_toy_fixture_frequencies(self, toy_kg):
        assert toy_kg.relation_freq == {"r_treats": 5, "r_causes": 2}


class TestParsedParts:
    """``parse_kg_dir`` builds entities, relations and triples without
    re-running the checks its line splitting already guarantees."""

    def test_equal_to_checked_construction(self, toy_kg):
        assert toy_kg.triples
        for triple in toy_kg.triples:
            assert triple == Triple(triple.head, triple.relation, triple.tail)
        assert toy_kg.relations
        for relation in toy_kg.relations.values():
            assert relation == Relation(relation.id, relation.label)

    def test_triples_share_the_parsed_id_strings(self, toy_kg):
        """A triple holds its entities' and relation's own id objects, not a
        copy of the id per line."""
        assert toy_kg.triples
        for triple in toy_kg.triples:
            assert triple.head is toy_kg.entities[triple.head].id
            assert triple.tail is toy_kg.entities[triple.tail].id
            assert triple.relation is toy_kg.relations[triple.relation].id

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Triple("", "r", "t"),
            lambda: Triple("h", "r\tx", "t"),
            lambda: Triple("h", "r", "t\n"),
            lambda: Relation("", "label"),
            lambda: Relation("r", "la\rbel"),
        ],
        ids=["empty_head", "tab_relation", "newline_tail", "empty_relation_id", "return_in_label"],
    )
    def test_direct_construction_is_still_checked(self, make):
        with pytest.raises(ValueError):
            make()

    def test_entities_equal_checked_construction(self, tmp_path):
        """Entities are built without ``Entity.make``'s field checks, yet
        equal what it and direct construction build, dedup and definitions
        included."""
        files = {
            "concepts.tsv": "C1\tHeart Attack\nC2\tfever\n",
            "synonyms.tsv": "C1\theart  attack\nC1\tMI\nC1\tHEART ATTACK\nC2\tpyrexia\n",
            "definitions.tsv": "C1\tdeath of heart muscle\ttissue\n",
            "relations.tsv": "r\trel\n",
            "triples.tsv": "C1\tr\tC2\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        kg = parse_kg_dir(tmp_path)
        expected = {
            "C1": Entity.make("C1", "Heart Attack", ["heart  attack", "MI", "HEART ATTACK"], "death of heart muscle\ttissue"),
            "C2": Entity.make("C2", "fever", ["pyrexia"]),
        }
        assert kg.entities == expected
        assert kg.entities["C1"].synonyms == ("Heart Attack", "MI")
        for entity in kg.entities.values():
            assert entity == Entity(entity.id, entity.preferred_name, entity.synonyms, entity.definition)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Entity.make("", "x"),
            lambda: Entity.make("C1", "x", ["y\tz"]),
            lambda: Entity.make("C1", "x", definition="a\nb"),
            lambda: Entity("", "x", ("x",)),
            lambda: Entity("C1", "x", ("x", "X")),
        ],
        ids=["make_empty_id", "make_tab_synonym", "make_newline_definition", "direct_empty_id", "direct_duplicate_synonym"],
    )
    def test_entity_construction_is_still_checked(self, make):
        with pytest.raises(ValueError):
            make()


class TestKgStats:
    def test_toy_fixture(self, toy_kg):
        stats = kg_stats(toy_kg)
        assert stats.concepts == 5
        assert stats.with_definitions == 2
        assert stats.with_triples == 4
        assert stats.mean_triples == pytest.approx(1.75)
        assert stats.with_multiple_synonyms == 3

    def test_empty_kg(self):
        stats = kg_stats(build_kg([], [], []))
        assert stats.concepts == 0
        assert stats.with_definitions == 0
        assert stats.with_triples == 0
        assert stats.mean_triples == 0.0

    def test_pure_function(self, toy_kg):
        assert kg_stats(toy_kg) == kg_stats(toy_kg)


@st.composite
def small_kgs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"C{i}" for i in range(n)]
    entities = [entity(eid, f"name {eid}") for eid in ids]
    n_rel = draw(st.integers(min_value=1, max_value=3))
    relations = [Relation(f"r{i}", f"label{i}") for i in range(n_rel)]
    triples = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from([r.id for r in relations]), st.sampled_from(ids)),
            max_size=10,
        )
    )
    return build_kg(entities, relations, [Triple(*t) for t in triples])


@given(small_kgs())
def test_frequency_sums_to_triple_count(kg):
    assert sum(kg.relation_freq.values()) == len(kg.triples)


@given(small_kgs())
def test_outgoing_index_is_a_bijection_with_triples(kg):
    key = lambda t: (t.head, t.relation, t.tail)
    indexed = sorted((t for ts in kg.outgoing.values() for t in ts), key=key)
    brute = sorted(kg.triples, key=key)
    assert indexed == brute
    for eid, ts in kg.outgoing.items():
        assert all(t.head == eid for t in ts)
