"""Count arithmetic and corpus validation."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tangibility import (
    Application,
    Corpus,
    Count,
    Entity,
    Role,
    Severity,
    Tangibility,
    validate,
)
from tangibility import hallmark

counts = st.one_of(st.integers(0, 30).map(Count), st.just(Count.MANY))


def _entity(name: str = "thing", count: Count = Count(1)) -> Entity:
    return Entity(name=name, role=Role.DATUM, tangibility=Tangibility.TANGIBLE, count=count)


def _app(app_id: int = 1, name: str = "App", entities=None) -> Application:
    if entities is None:
        entities = (_entity(),)
    return Application(id=app_id, name=name, entities=tuple(entities))


class TestCount:
    def test_exact_addition(self):
        assert Count(2) + Count(3) == Count(5)
        assert Count(0) + Count(0) == Count(0)

    def test_many_absorbs(self):
        assert Count.MANY + Count(3) == Count.MANY
        assert Count(3) + Count.MANY == Count.MANY
        assert Count.MANY + Count.MANY == Count.MANY

    def test_many_equals_only_many(self):
        assert Count.MANY == Count.MANY
        assert Count.MANY != Count(1)
        assert Count.MANY != Count(0)

    def test_negative_rejected_zero_allowed(self):
        with pytest.raises(ValueError):
            Count(-1)
        assert Count(0).value == 0
        assert not Count(0).is_positive
        assert Count.MANY.is_positive

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            Count("3")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            Count(True)  # type: ignore[arg-type]

    def test_adds_only_counts(self):
        with pytest.raises(TypeError):
            Count(1) + 1

    def test_str(self):
        assert str(Count(4)) == "4"
        assert str(Count.MANY) == "many"

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_addition_matches_integers(self, a, b):
        assert Count(a) + Count(b) == Count(a + b)

    @given(counts, counts)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(counts, counts, counts)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)


def test_application_lookup_of_a_missing_id():
    corpus = Corpus((_app(1),))
    assert corpus.application(1) == _app(1)
    with pytest.raises(KeyError):
        corpus.application(2)


class TestValidate:
    def test_empty_corpus_is_valid(self):
        assert validate(Corpus()) == []

    def test_clean_application(self):
        assert validate(Corpus((_app(),))) == []

    def test_duplicate_id(self):
        corpus = Corpus((_app(1, "A"), _app(1, "B")))
        findings = validate(corpus)
        assert any("duplicate application id 1" in f.message for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_duplicate_name_case_insensitive(self):
        corpus = Corpus((_app(1, "Urp"), _app(2, "URP")))
        findings = validate(corpus)
        assert len(findings) == 1
        assert "duplicate application name" in findings[0].message

    def test_line_breaks_in_written_strings(self):
        app = Application(
            id=1,
            name="a\nb",
            genre="g\r",
            refs=("r", "s\nt"),
            entities=(Entity("e\n", Role.DATUM, Tangibility.TANGIBLE, note="n\r\n"),),
        )
        assert [f.message for f in validate(Corpus((app,)))] == [
            "application 1: name must not contain a line break",
            "application 1: genre must not contain a line break",
            "application 1: refs[1] must not contain a line break",
            "application 1, entity 1: name must not contain a line break",
            "application 1, entity 1: note must not contain a line break",
        ]

    def test_lone_surrogates_in_written_strings(self):
        app = Application(
            id=1,
            name="a\ud800",
            genre="g\udcff",
            subgenre="\U0001f600",  # a character beyond the BMP is not a surrogate
            refs=("r", "\udfffs"),
            entities=(Entity("e", Role.DATUM, Tangibility.TANGIBLE, note="n\udbff"),),
        )
        assert [f.message for f in validate(Corpus((app,)))] == [
            "application 1: name must not contain a lone surrogate",
            "application 1: genre must not contain a lone surrogate",
            "application 1: refs[1] must not contain a lone surrogate",
            "application 1, entity 1: note must not contain a lone surrogate",
        ]

    def test_year_must_not_be_negative(self):
        corpus = Corpus((dataclasses.replace(_app(1, "A"), year=-1), _app(2, "B")))
        assert [f.message for f in validate(corpus)] == [
            "application 1: year must not be negative"
        ]
        assert validate(Corpus((dataclasses.replace(_app(), year=0),))) == []

    def test_counts_sum_to_fewer_than_the_int_to_str_limit(self):
        limit = sys.get_int_max_str_digits()
        half = 10 ** (limit - 1) // 2  # two of these make L digits
        refused = _app(1, "A", entities=[_entity(count=Count(half))] * 2)
        accepted = _app(2, "B", entities=[_entity(count=Count(n)) for n in (half, half - 1)])
        assert [f.message for f in validate(Corpus((refused, accepted)))] == [
            f"application 1: counts must sum to fewer than {limit} digits"
        ]

    def test_id_must_be_positive(self):
        findings = validate(Corpus((_app(0),)))
        assert any("id must be positive" in f.message for f in findings)

    def test_zero_count_rejected(self):
        corpus = Corpus((_app(entities=[_entity(count=Count(0))]),))
        findings = validate(corpus)
        assert len(findings) == 1
        assert "count must be positive" in findings[0].message
        assert findings[0].is_error

    def test_many_count_accepted(self):
        corpus = Corpus((_app(entities=[_entity(count=Count.MANY)]),))
        assert validate(corpus) == []

    def test_blank_entity_name(self):
        corpus = Corpus((_app(entities=[_entity(name="   ")]),))
        findings = validate(corpus)
        assert any("name must be non-empty" in f.message for f in findings)

    def test_no_entities_is_a_warning(self):
        findings = validate(Corpus((_app(entities=()),)))
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING
        assert not findings[0].is_error

    def test_ordered_by_application(self):
        corpus = Corpus(
            (
                _app(1, "A", entities=[_entity(count=Count(0))]),
                _app(2, "B", entities=[_entity(name=" ")]),
            )
        )
        findings = validate(corpus)
        assert "application 1" in findings[0].message
        assert "application 2" in findings[1].message

    def test_idempotent(self):
        corpus = Corpus((_app(1, "A"), _app(1, "A")))
        assert validate(corpus) == validate(corpus)


class TestHallmarks:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        compute = hallmark.compute_hallmark

        def counted(app):
            calls.append(app.id)
            return compute(app)

        monkeypatch.setattr(hallmark, "compute_hallmark", counted)
        return calls

    def test_computed_once_per_corpus(self, calls):
        a = Corpus((_app(1, "A"), _app(2, "B")))
        b = Corpus((_app(3, "C"),))
        for _ in range(3):
            assert len(a.hallmarks) == 2 and len(b.hallmarks) == 1
        assert calls == [1, 2, 3]
        assert a.hallmarks[0].components[0] == Count(1)

    def test_replace_starts_fresh(self, calls):
        a = Corpus((_app(1, "A"),))
        a.hallmarks, a._by_id
        entities = [_entity(count=Count(4))]
        b = dataclasses.replace(a, applications=(_app(1, "A", entities=entities),))
        assert b.hallmarks[0].components[0] == Count(4)
        assert b._by_id == ((b.applications[0], b.hallmarks[0]),)
        assert calls == [1, 1]

    def test_cache_is_not_a_field(self):
        cached = Corpus((_app(1, "A"), _app(2, "B")))
        cached.hallmarks, cached._by_id
        fresh = Corpus((_app(1, "A"), _app(2, "B")))
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)


class TestRecords:
    """Entity and Application have hand-written ``__init__``s that set every field in
    one step; they take the generated one's parameters and build the same records."""

    RECORDS = {
        Entity: (("e", Role.TOOL, Tangibility.GRASPABLE, Count(3), "n"), 3),
        Application: ((7, "A", 1999, "G", "S", ("r",), (_entity(),)), 2),
    }

    @pytest.mark.parametrize("cls", RECORDS)
    def test_signature_is_the_fields(self, cls):
        parameters = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in parameters] == [f.name for f in fields]
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        assert [p.default for p in parameters] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields
        ]
        assert cls.__match_args__ == tuple(f.name for f in fields)

    @pytest.mark.parametrize("cls", RECORDS)
    def test_records_agree_however_built(self, cls):
        """By position, by keyword in any order, with defaults left out or passed, and
        again by replace, copy, deepcopy and pickle: equal, of equal hash and repr,
        with the fields set in their order."""
        values, required = self.RECORDS[cls]
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        record = cls(*values)
        short = cls(*values[:required])
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        pairs = [
            (record, cls(**dict(zip(reversed(names), reversed(values))))),
            (record, dataclasses.replace(record)),
            (record, copy.copy(record)),
            (record, copy.deepcopy(record)),
            *((record, pickle.loads(pickle.dumps(record, protocol))) for protocol in protocols),
            (short, cls(*values[:required], *(f.default for f in fields[required:]))),
        ]
        for one, other in pairs:
            assert other == one and other is not one
            assert hash(other) == hash(one)
            assert repr(other) == repr(one)
            assert list(vars(one)) == list(vars(other)) == names
        changed = dataclasses.replace(record, name="B")
        assert changed == cls(**{**dict(zip(names, values)), "name": "B"}) != record

    @pytest.mark.parametrize("cls", RECORDS)
    def test_records_are_frozen(self, cls):
        record = cls(*self.RECORDS[cls][0])
        for name in (f.name for f in dataclasses.fields(cls)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert record == cls(*self.RECORDS[cls][0])

    @pytest.mark.parametrize("cls", RECORDS)
    def test_wrong_arguments_are_refused(self, cls):
        values, required = self.RECORDS[cls]
        first = dataclasses.fields(cls)[0].name
        for args, kwargs in (
            (values[: required - 1], {}),  # missing
            (values, {"color": "red"}),  # unknown
            ((*values, None), {}),  # one too many
            (values, {first: values[0]}),  # repeated
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
