"""Annotation format parsing, canonical serialization, JSON interchange."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusgen import JSON_ESCAPES, JSON_MUTATIONS, clean_corpus, random_corpus
from tangibility import (
    Application,
    Corpus,
    Count,
    Entity,
    Hallmark,
    Role,
    Severity,
    Tangibility,
    compute_hallmark,
    export_json,
    import_json,
    load_golden,
    parse_corpus,
    serialize_corpus,
)
from tangibility import dsl
from tangibility.dsl import _TOKEN, _lex, _parse_tokens
from tangibility.golden import GOLDEN_RESOURCE
from tangibility.model import _COUNTS, Diagnostic, SourceSpan
from test_snapshots import (
    APPLICATION_GRID_DIGEST,
    DIGESTS,
    ENTITY_GRID_DIGEST,
    JSON_MUTATION_DIGESTS,
    WRITER_DIGEST,
    json_application_grid_digest,
    json_entity_grid_digest,
    json_mutation_digest,
    writer_corpus,
    writer_digest,
)

MINIMAL = """
# a one-specimen corpus
application "Pinwheels" {
  id: 9
  year: 1998
  genre: "Ambient Media"
  subgenre: "Dynamic everyday objects"
  refs: ["wisneski1998pinwheels"]
  entity "Pinwheels" {
    what: datum
    how: tangible
    count: many
  }
}
"""


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class TestParse:
    def test_empty_text(self):
        assert parse_corpus("") == (Corpus(), [])

    def test_comment_only(self):
        corpus, diagnostics = parse_corpus("# nothing here\n   \n")
        assert corpus == Corpus()
        assert diagnostics == []

    def test_minimal_application(self):
        corpus, diagnostics = parse_corpus(MINIMAL)
        assert diagnostics == []
        app = corpus.application(9)
        assert app.name == "Pinwheels"
        assert app.year == 1998
        assert app.genre == "Ambient Media"
        assert app.refs == ("wisneski1998pinwheels",)
        assert app.entities[0].role is Role.DATUM
        assert app.entities[0].tangibility is Tangibility.TANGIBLE
        assert app.entities[0].count == Count.MANY

    def test_count_defaults_to_one(self):
        corpus, _ = parse_corpus(
            'application "A" { id: 1 entity "e" { what: tool how: graspable } }'
        )
        assert corpus.application(1).entities[0].count == Count(1)

    def test_string_escapes(self):
        corpus, diagnostics = parse_corpus(
            'application "Say \\"hi\\" \\\\ twice" { id: 1 '
            'entity "e" { what: datum how: tangible } }'
        )
        assert diagnostics == []
        assert corpus.applications[0].name == 'Say "hi" \\ twice'

    def test_empty_refs(self):
        corpus, _ = parse_corpus(
            'application "A" { id: 1 refs: [] entity "e" { what: datum how: tangible } }'
        )
        assert corpus.application(1).refs == ()

    def test_note_field(self):
        corpus, _ = parse_corpus(
            'application "A" { id: 1 entity "e" { what: datum how: tangible note: "tentative" } }'
        )
        assert corpus.application(1).entities[0].note == "tentative"

    def test_unknown_keys_warn_and_skip(self):
        corpus, diagnostics = parse_corpus(
            'application "A" {\n  id: 1\n  color: "red"\n  tags: [1, 2, 3]\n'
            '  entity "e" { what: datum how: tangible weight: 5 }\n}'
        )
        assert len(corpus.applications) == 1
        assert len(corpus.application(1).entities) == 1
        warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
        assert len(warnings) == 3
        assert all("unknown key" in w.message for w in warnings)

    def test_duplicate_key_warns_last_wins(self):
        corpus, diagnostics = parse_corpus(
            'application "A" { id: 1 year: 1970 year: 1999 '
            'entity "e" { what: datum how: tangible } }'
        )
        assert corpus.application(1).year == 1999
        assert any("duplicate key 'year'" in d.message for d in diagnostics)

    def test_unknown_role_is_an_error_with_span(self):
        text = 'application "A" {\n  id: 1\n  entity "e" {\n    what: gizmo\n    how: tangible\n  }\n}'
        corpus, diagnostics = parse_corpus(text)
        assert corpus == Corpus()
        errors = _errors(diagnostics)
        assert len(errors) == 1
        assert "unknown role 'gizmo'" in errors[0].message
        assert errors[0].span is not None
        assert (errors[0].span.line, errors[0].span.column) == (4, 11)

    def test_unknown_tangibility(self):
        corpus, diagnostics = parse_corpus(
            'application "A" { id: 1 entity "e" { what: datum how: foggy } }'
        )
        assert corpus == Corpus()
        assert any("unknown tangibility 'foggy'" in d.message for d in _errors(diagnostics))

    def test_missing_what_and_how(self):
        _, diagnostics = parse_corpus('application "A" { id: 1 entity "e" { count: 2 } }')
        messages = [d.message for d in _errors(diagnostics)]
        assert any("missing 'what'" in m for m in messages)
        assert any("missing 'how'" in m for m in messages)

    def test_zero_count_rejected(self):
        corpus, diagnostics = parse_corpus(
            'application "A" { id: 1 entity "e" { what: datum how: tangible count: 0 } }'
        )
        assert corpus == Corpus()
        assert any("count must be positive" in d.message for d in _errors(diagnostics))

    def test_missing_id(self):
        corpus, diagnostics = parse_corpus(
            'application "A" { entity "e" { what: datum how: tangible } }'
        )
        assert corpus == Corpus()
        assert any("has no id" in d.message for d in _errors(diagnostics))

    def test_duplicate_ids_and_names(self):
        text = (
            'application "A" { id: 1 entity "e" { what: datum how: tangible } }\n'
            'application "a" { id: 1 entity "e" { what: datum how: tangible } }'
        )
        corpus, diagnostics = parse_corpus(text)
        assert corpus == Corpus()
        messages = [d.message for d in _errors(diagnostics)]
        assert any("duplicate application id 1" in m for m in messages)
        assert any("duplicate application name" in m for m in messages)

    def test_entityless_application_warns(self):
        corpus, diagnostics = parse_corpus('application "A" { id: 1 }')
        assert len(corpus.applications) == 1
        assert len(diagnostics) == 1
        assert diagnostics[0].severity is Severity.WARNING
        assert "no entity records" in diagnostics[0].message

    def test_syntax_error_empties_the_corpus(self):
        corpus, diagnostics = parse_corpus(
            'application "A" { id: 1 entity "e" { what: datum how: tangible } }\n'
            "application oops"
        )
        assert corpus == Corpus()
        assert len(_errors(diagnostics)) == 1
        assert diagnostics[0].span.line == 2

    def test_unterminated_string(self):
        corpus, diagnostics = parse_corpus('application "never ends')
        assert corpus == Corpus()
        assert "unterminated string" in diagnostics[0].message

    def test_unsupported_escape(self):
        _, diagnostics = parse_corpus('application "a\\n" { id: 1 }')
        assert any("unsupported escape" in d.message for d in diagnostics)

    def test_unexpected_character(self):
        _, diagnostics = parse_corpus("application @")
        assert any("unexpected character" in d.message for d in diagnostics)

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_never_raises_on_arbitrary_text(self, text):
        corpus, diagnostics = parse_corpus(text)
        assert isinstance(corpus, Corpus)
        assert isinstance(diagnostics, list)


class TestSerialize:
    def test_empty_corpus_serializes_to_nothing(self):
        assert serialize_corpus(Corpus()) == ""

    def test_canonical_form(self):
        corpus, _ = parse_corpus(MINIMAL)
        assert serialize_corpus(corpus) == (
            'application "Pinwheels" {\n'
            "  id: 9\n"
            "  year: 1998\n"
            '  genre: "Ambient Media"\n'
            '  subgenre: "Dynamic everyday objects"\n'
            '  refs: ["wisneski1998pinwheels"]\n'
            '  entity "Pinwheels" {\n'
            "    what: datum\n"
            "    how: tangible\n"
            "    count: many\n"
            "  }\n"
            "}\n"
        )

    def test_serialization_is_parse_stable(self):
        corpus, _ = parse_corpus(MINIMAL)
        text = serialize_corpus(corpus)
        reparsed, diagnostics = parse_corpus(text)
        assert _errors(diagnostics) == []
        assert reparsed == corpus
        assert serialize_corpus(reparsed) == text

    def test_line_breaks_are_not_representable(self):
        corpus, _ = parse_corpus(MINIMAL)
        broken = Corpus((dataclasses.replace(corpus.applications[0], name="two\nlines"),))
        with pytest.raises(ValueError):
            serialize_corpus(broken)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_round_trip_random_corpora(self, seed):
        corpus = random_corpus(random.Random(seed))
        reparsed, diagnostics = parse_corpus(serialize_corpus(corpus))
        assert _errors(diagnostics) == []
        assert reparsed == corpus


class TestJson:
    def test_empty_corpus(self):
        assert export_json(Corpus()) == '{"applications":[]}'

    def test_export_schema(self):
        corpus, _ = parse_corpus(MINIMAL)
        data = json.loads(export_json(corpus))
        app = data["applications"][0]
        assert app["id"] == 9
        assert app["name"] == "Pinwheels"
        assert app["entities"][0] == {
            "name": "Pinwheels",
            "what": "datum",
            "how": "tangible",
            "count": "many",
        }

    def test_import_round_trip(self):
        corpus, _ = parse_corpus(MINIMAL)
        back, diagnostics = import_json(export_json(corpus))
        assert _errors(diagnostics) == []
        assert back == corpus

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_json_round_trip_random_corpora(self, seed):
        corpus = random_corpus(random.Random(seed))
        back, diagnostics = import_json(export_json(corpus))
        assert _errors(diagnostics) == []
        assert back == corpus

    def test_id_zero_rejected(self):
        corpus, diagnostics = import_json('{"applications":[{"id":0,"name":"A"}]}')
        assert corpus == Corpus()
        assert any("id must be positive" in d.message for d in _errors(diagnostics))

    def test_invalid_json_has_position(self):
        corpus, diagnostics = import_json("{\n  nope\n}")
        assert corpus == Corpus()
        assert diagnostics[0].is_error
        assert diagnostics[0].span is not None
        assert diagnostics[0].span.line == 2

    def test_type_errors(self):
        text = json.dumps(
            {
                "applications": [
                    {
                        "id": True,
                        "name": "A",
                        "refs": "oops",
                        "entities": [
                            {"name": "e", "what": "datum", "how": "tangible", "count": 0}
                        ],
                    }
                ]
            }
        )
        corpus, diagnostics = import_json(text)
        assert corpus == Corpus()
        messages = [d.message for d in _errors(diagnostics)]
        assert any("id must be an integer" in m for m in messages)
        assert any("refs must be an array of strings" in m for m in messages)
        assert any("count must be positive" in m for m in messages)

    def test_unknown_keys_warn(self):
        text = '{"applications":[],"extra":1}'
        corpus, diagnostics = import_json(text)
        assert corpus == Corpus()
        assert len(diagnostics) == 1
        assert diagnostics[0].severity is Severity.WARNING

    def test_duplicate_key_warns_last_wins(self):
        text = '{"applications": [{"id": 1, "name": "A", "entities": [], "id": 2}]}'
        corpus, diagnostics = import_json(text)
        assert corpus.applications[0].id == 2
        assert [d.message for d in diagnostics] == [
            "applications[0]: duplicate key 'id'",
            "applications[0]: no entity records",
        ]

    def test_unknown_role_in_json(self):
        text = json.dumps(
            {
                "applications": [
                    {
                        "id": 1,
                        "name": "A",
                        "entities": [{"name": "e", "what": "gizmo", "how": "tangible"}],
                    }
                ]
            }
        )
        corpus, diagnostics = import_json(text)
        assert corpus == Corpus()
        assert any("unknown role 'gizmo'" in d.message for d in _errors(diagnostics))

    def test_top_level_must_be_object(self):
        corpus, diagnostics = import_json("[1, 2]")
        assert corpus == Corpus()
        assert any("top level must be an object" in d.message for d in diagnostics)


ENTITY = 'entity "e" { what: datum how: tangible }'
ENTITY_JSON = {"name": "e", "what": "datum", "how": "tangible"}
_LIMIT = sys.get_int_max_str_digits()


def _json(*apps):
    return json.dumps({"applications": list(apps)})


# One row per corpus invariant: (text input, JSON input, the one finding each
# reader reports).  Text findings carry a line:column span, JSON ones a
# location prefix in the message.
INVARIANTS = {
    "id positive": (
        f'application "a" {{\n  id: 0\n  {ENTITY}\n}}',
        _json({"id": 0, "name": "a", "entities": [ENTITY_JSON]}),
        Diagnostic.error("application 0: id must be positive", SourceSpan(2, 7)),
        Diagnostic.error("applications[0]: id must be positive"),
    ),
    "id unique": (
        f'application "a" {{ id: 1 {ENTITY} }}\napplication "b" {{\n  id: 1\n  {ENTITY}\n}}',
        _json(
            {"id": 1, "name": "a", "entities": [ENTITY_JSON]},
            {"id": 1, "name": "b", "entities": [ENTITY_JSON]},
        ),
        Diagnostic.error("application 1: duplicate application id 1", SourceSpan(3, 7)),
        Diagnostic.error("applications[1]: duplicate application id 1"),
    ),
    "name non-empty": (
        f'application " " {{\n  id: 1\n  {ENTITY}\n}}',
        _json({"id": 1, "name": " ", "entities": [ENTITY_JSON]}),
        Diagnostic.error("application 1: name must be non-empty", SourceSpan(1, 13)),
        Diagnostic.error("applications[0]: name must be non-empty"),
    ),
    "name unique, ignoring case": (
        f'application "Urp" {{ id: 1 {ENTITY} }}\napplication "URP " {{ id: 2 {ENTITY} }}',
        _json(
            {"id": 1, "name": "Urp", "entities": [ENTITY_JSON]},
            {"id": 2, "name": "URP ", "entities": [ENTITY_JSON]},
        ),
        Diagnostic.error("application 2: duplicate application name 'URP '", SourceSpan(2, 13)),
        Diagnostic.error("applications[1]: duplicate application name 'URP '"),
    ),
    "entity name non-empty": (
        'application "a" {\n  id: 1\n  entity "" { what: datum how: tangible }\n}',
        _json({"id": 1, "name": "a", "entities": [dict(ENTITY_JSON, name="")]}),
        Diagnostic.error("entity '': name must be non-empty", SourceSpan(3, 10)),
        Diagnostic.error("applications[0].entities[0]: name must be non-empty"),
    ),
    "count positive": (
        'application "a" {\n  id: 1\n  entity "e" { what: datum how: tangible count: 0 }\n}',
        _json({"id": 1, "name": "a", "entities": [dict(ENTITY_JSON, count=0)]}),
        Diagnostic.error("entity 'e': count must be positive", SourceSpan(3, 49)),
        Diagnostic.error("applications[0].entities[0]: count must be positive"),
    ),
    "entity records (warning)": (
        'application "a" { id: 1 }',
        _json({"id": 1, "name": "a"}),
        Diagnostic.warning("application 1: no entity records", SourceSpan(1, 13)),
        Diagnostic.warning("applications[0]: no entity records"),
    ),
    # Exactly L digits, L being the int-to-str limit: the largest total that
    # is refused, so every term sum and L1 distance can be printed.
    "count total under L digits": (
        f'application "a" {{\n  id: 1\n  entity "e" {{ what: datum how: tangible '
        f"count: {10 ** (_LIMIT - 1)} }}\n}}",
        _json({"id": 1, "name": "a", "entities": [dict(ENTITY_JSON, count=10 ** (_LIMIT - 1))]}),
        Diagnostic.error(
            f"application 1: counts must sum to fewer than {_LIMIT} digits", SourceSpan(1, 13)
        ),
        Diagnostic.error(f"applications[0]: counts must sum to fewer than {_LIMIT} digits"),
    ),
}


class TestInvariants:
    @pytest.mark.parametrize("name", INVARIANTS)
    def test_text(self, name):
        text, _, expected, _ = INVARIANTS[name]
        corpus, diagnostics = parse_corpus(text)
        assert diagnostics == [expected]
        assert (corpus == Corpus()) is expected.is_error

    @pytest.mark.parametrize("name", INVARIANTS)
    def test_json(self, name):
        _, text, _, expected = INVARIANTS[name]
        corpus, diagnostics = import_json(text)
        assert diagnostics == [expected]
        assert (corpus == Corpus()) is expected.is_error

    def test_json_negative_count_is_a_diagnostic(self):
        text = _json({"id": 1, "name": "a", "entities": [dict(ENTITY_JSON, count=-3)]})
        assert import_json(text) == (
            Corpus(),
            [Diagnostic.error("applications[0].entities[0]: count must be positive")],
        )

    def test_json_negative_year_is_a_diagnostic(self):
        text = _json({"id": 1, "name": "a", "year": -5, "entities": [ENTITY_JSON]})
        assert import_json(text) == (
            Corpus(),
            [Diagnostic.error("applications[0]: year must not be negative")],
        )
        corpus, diagnostics = import_json(text.replace("-5", "0"))
        assert (corpus.application(1).year, diagnostics) == (0, [])

    def test_count_total_sums_every_exact_entity(self):
        half = 10 ** (_LIMIT - 1) // 2  # two of these make L digits
        refused = [f"applications[0]: counts must sum to fewer than {_LIMIT} digits"]
        for how in ("tangible", "graspable"):  # one term, then two
            for second, expected in ((half, refused), (half - 1, [])):
                entities = [
                    dict(ENTITY_JSON, count=half),
                    dict(ENTITY_JSON, how=how, count=second),
                    dict(ENTITY_JSON, count="many"),
                ]
                _, diagnostics = import_json(_json({"id": 1, "name": "a", "entities": entities}))
                assert [d.message for d in diagnostics] == expected

    def test_count_total_reads_the_limit_at_check_time(self):
        text = _json({"id": 1, "name": "a", "entities": [dict(ENTITY_JSON, count=10**700)]})
        assert import_json(text)[1] == []
        sys.set_int_max_str_digits(701)
        try:
            assert [d.message for d in import_json(text)[1]] == [
                "applications[0]: counts must sum to fewer than 701 digits"
            ]
            sys.set_int_max_str_digits(0)  # no limit
            assert import_json(text)[1] == []
        finally:
            sys.set_int_max_str_digits(_LIMIT)

    def test_json_mistyped_fields_keep_the_other_checks(self):
        text = _json(
            {"id": "1", "name": "a", "entities": [ENTITY_JSON]},
            {"id": -1, "name": 5, "entities": [dict(ENTITY_JSON, name=None, count=0)]},
        )
        _, diagnostics = import_json(text)
        assert [d.message for d in diagnostics] == [
            "applications[0]: id must be an integer",
            "applications[1]: id must be positive",
            "applications[1]: name must be a string",
            "applications[1].entities[0]: name must be a string",
            "applications[1].entities[0]: count must be positive",
        ]


def _app(**fields):
    """One JSON application, the entity ENTITY_JSON unless ``entities`` is given."""
    return _json({"id": 1, "name": "a", "entities": [ENTITY_JSON], **fields})


def _entity(**fields):
    """One JSON application holding one entity, ENTITY_JSON with ``fields``."""
    return _json({"id": 1, "name": "a", "entities": [{**ENTITY_JSON, **fields}]})


E, W = Diagnostic.error, Diagnostic.warning

# Every reader diagnostic, with its span and in its order: (reader, input,
# the full list of findings).  Each row is a diagnostic no other test reads;
# the "order" rows put many faults in one input.
READER_DIAGNOSTICS = {
    "text: a field or 'entity'": (
        parse_corpus,
        'application "a" {\n  id: 1\n  "x"\n}',
        [E("expected a field or 'entity', found string '\"x\"'", SourceSpan(3, 3))],
    ),
    "text: an entity field": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { 5 }\n}',
        [E("expected an entity field, found integer '5'", SourceSpan(3, 16))],
    ),
    "text: duplicate entity key": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { what: tool what: datum how: tangible }\n}',
        [W("duplicate key 'what'", SourceSpan(3, 27))],
    ),
    "text: count neither an integer nor many": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { what: datum how: tangible count: few }\n}',
        [
            E(
                "expected an integer or 'many' as the count, found identifier 'few'",
                SourceSpan(3, 49),
            )
        ],
    ),
    "text: a string count": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { count: "2" }\n}',
        [
            E(
                "expected an integer or 'many' as the count, found string '\"2\"'",
                SourceSpan(3, 23),
            )
        ],
    ),
    "text: a value": (
        parse_corpus,
        'application "a" {\n  id: 1\n  extra: {\n}',
        [E("expected a value, found '{'", SourceSpan(3, 10))],
    ),
    "text: an application name": (
        parse_corpus,
        "application {\n}",
        [E("expected string (application name), found '{'", SourceSpan(1, 13))],
    ),
    "text: an entity name": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity { }\n}',
        [E("expected string (entity name), found '{'", SourceSpan(3, 10))],
    ),
    "text: opening the application block": (
        parse_corpus,
        'application "a"\n  id: 1\n',
        [
            E(
                "expected '{' to open the application block, found identifier 'id'",
                SourceSpan(2, 3),
            )
        ],
    ),
    "text: opening the entity block": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" what: datum\n}',
        [
            E(
                "expected '{' to open the entity block, found identifier 'what'",
                SourceSpan(3, 14),
            )
        ],
    ),
    "text: closing the entity block": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { what: datum how: tangible',
        [E("expected '}' to close the entity block, found end of input", SourceSpan(3, 41))],
    ),
    "text: a colon after a key": (
        parse_corpus,
        'application "a" {\n  id 1\n}',
        [E("expected ':' after 'id', found integer '1'", SourceSpan(2, 6))],
    ),
    "text: a value of the wrong kind": (
        parse_corpus,
        'application "a" {\n  id: "1"\n}',
        [E("expected integer as the id, found string '\"1\"'", SourceSpan(2, 7))],
    ),
    "text: naming a role": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { what: "datum" how: tangible }\n}',
        [E("expected identifier naming a role, found string '\"datum\"'", SourceSpan(3, 22))],
    ),
    "text: naming a tangibility": (
        parse_corpus,
        'application "a" {\n  id: 1\n  entity "e" { what: datum how: 5 }\n}',
        [E("expected identifier naming a tangibility, found integer '5'", SourceSpan(3, 33))],
    ),
    "text: opening the refs list": (
        parse_corpus,
        'application "a" {\n  id: 1\n  refs: "r"\n}',
        [E("expected '[' to open the refs list, found string '\"r\"'", SourceSpan(3, 9))],
    ),
    "text: closing the refs list": (
        parse_corpus,
        'application "a" {\n  id: 1\n  refs: ["r" "s"]\n}',
        [E("expected ']' to close the refs list, found string '\"s\"'", SourceSpan(3, 14))],
    ),
    "text: order": (
        parse_corpus,
        'application "a" {\n'
        "  id: 0\n"
        "  tags: [1, x]\n"
        "  id: 0\n"
        '  entity "" { what: gizmo what: gadget how: nope count: 0 entity: 3 }\n'
        '  entity "f" { count: 2 }\n'
        "}",
        [
            E("application 0: id must be positive", SourceSpan(2, 7)),
            W("unknown key 'tags'", SourceSpan(3, 3)),
            W("duplicate key 'id'", SourceSpan(4, 3)),
            E("application 0: id must be positive", SourceSpan(4, 7)),
            E("entity '': name must be non-empty", SourceSpan(5, 10)),
            E("unknown role 'gizmo'", SourceSpan(5, 21)),
            W("duplicate key 'what'", SourceSpan(5, 27)),
            E("unknown role 'gadget'", SourceSpan(5, 33)),
            E("unknown tangibility 'nope'", SourceSpan(5, 45)),
            E("entity '': count must be positive", SourceSpan(5, 57)),
            W("unknown key 'entity'", SourceSpan(5, 59)),
            E("entity 'f' is missing 'what'", SourceSpan(6, 10)),
            E("entity 'f' is missing 'how'", SourceSpan(6, 10)),
        ],
    ),
    "json: applications not an array": (
        import_json,
        '{"x": 1, "applications": {}}',
        [W("unknown key 'x' at top level"), E("'applications' must be an array")],
    ),
    "json: application not an object": (
        import_json,
        _json("a", 2),
        [E("applications[0]: must be an object"), E("applications[1]: must be an object")],
    ),
    "json: entity not an object": (
        import_json,
        _app(entities=[ENTITY_JSON, ["e"]]),
        [E("applications[0].entities[1]: must be an object")],
    ),
    "json: unknown keys": (
        import_json,
        _json({"id": 1, "x": 1, "name": "a", "entities": [{**ENTITY_JSON, "y": 2}]}),
        [
            W("applications[0]: unknown key 'x'"),
            W("applications[0].entities[0]: unknown key 'y'"),
        ],
    ),
    "json: repeated keys": (
        import_json,
        '{"applications": [], "applications": [{"id": 1, "x": 0, "id": 2, "x": 1, "name": "a",'
        ' "entities": [{"what": "tool", "name": "e", "what": "datum", "how": "tangible"}]}]}',
        [
            W("duplicate key 'applications' at top level"),
            W("applications[0]: unknown key 'x'"),
            W("applications[0]: duplicate key 'id'"),
            W("applications[0]: duplicate key 'x'"),
            W("applications[0].entities[0]: duplicate key 'what'"),
        ],
    ),
    "json: year not an integer": (
        import_json,
        _app(year="1998"),
        [E("applications[0]: year must be an integer")],
    ),
    "json: year true": (
        import_json,
        _app(year=True),
        [E("applications[0]: year must be an integer")],
    ),
    "json: genre not a string": (
        import_json,
        _app(genre=5),
        [E("applications[0]: genre must be a string")],
    ),
    "json: subgenre not a string": (
        import_json,
        _app(subgenre=["s"]),
        [E("applications[0]: subgenre must be a string")],
    ),
    "json: note not a string": (
        import_json,
        _entity(note=1.5),
        [E("applications[0].entities[0]: note must be a string")],
    ),
    "json: null optional fields": (
        import_json,
        _json(
            {
                "id": 1,
                "name": "a",
                "year": None,
                "genre": None,
                "subgenre": None,
                "entities": [{**ENTITY_JSON, "note": None}],
            }
        ),
        [],
    ),
    "json: entities not an array": (
        import_json,
        _app(entities={"name": "e"}),
        [E("applications[0]: entities must be an array")],
    ),
    "json: unknown tangibility": (
        import_json,
        _entity(how="nope"),
        [E("applications[0].entities[0]: unknown tangibility 'nope'")],
    ),
    "json: tangibility not a string": (
        import_json,
        _entity(how=["tangible"], what=None),
        [
            E("applications[0].entities[0]: unknown role None"),
            E("applications[0].entities[0]: unknown tangibility ['tangible']"),
        ],
    ),
    "json: count a string": (
        import_json,
        _entity(count="2"),
        [E("applications[0].entities[0]: count must be a positive integer or 'many'")],
    ),
    "json: count true": (
        import_json,
        _entity(count=True),
        [E("applications[0].entities[0]: count must be a positive integer or 'many'")],
    ),
    "json: nested too deeply": (
        import_json,
        '{"applications":' + "[" * 100_000,
        [E("invalid JSON: nested too deeply")],
    ),
    "json: order": (
        import_json,
        _json(
            {
                "id": 0,
                "name": "a\nb",
                "year": "x",
                "genre": "g\r",
                "subgenre": 5,
                "refs": ["r", "r\n"],
                "entities": [
                    {"name": "", "what": "gizmo", "count": 0, "note": "n\n", "z": 0},
                    {"name": 3, "what": "datum", "how": "tangible", "note": 4},
                ],
                "x": 1,
            },
            {"id": "1", "name": None, "year": -1},
        ),
        [
            W("applications[0]: unknown key 'x'"),
            E("applications[0]: id must be positive"),
            E("applications[0]: name must not contain a line break"),
            E("applications[0]: year must be an integer"),
            E("applications[0]: subgenre must be a string"),
            E("applications[0]: genre must not contain a line break"),
            E("applications[0]: refs[1] must not contain a line break"),
            W("applications[0].entities[0]: unknown key 'z'"),
            E("applications[0].entities[0]: name must be non-empty"),
            E("applications[0].entities[0]: unknown role 'gizmo'"),
            E("applications[0].entities[0]: unknown tangibility None"),
            E("applications[0].entities[0]: count must be positive"),
            E("applications[0].entities[0]: note must not contain a line break"),
            E("applications[0].entities[1]: name must be a string"),
            E("applications[0].entities[1]: note must be a string"),
            E("applications[1]: id must be an integer"),
            E("applications[1]: name must be a string"),
            E("applications[1]: year must not be negative"),
        ],
    ),
}


@pytest.mark.parametrize("name", READER_DIAGNOSTICS)
def test_reader_diagnostics(name):
    reader, text, expected = READER_DIAGNOSTICS[name]
    corpus, diagnostics = reader(text)
    assert diagnostics == expected
    assert (corpus == Corpus()) is any(d.is_error for d in expected)


def test_json_value_too_deep_to_print(monkeypatch):
    """A value that json.loads returns but that is too deep to repr in its
    message.  The nesting is built here: whether json.loads itself can
    return it depends on the interpreter's recursion accounting."""
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    data = {"applications": [{"id": 1, "name": "a", "entities": [{**ENTITY_JSON, "what": deep}]}]}
    monkeypatch.setattr(json, "loads", lambda text, **hooks: data)
    assert import_json("{}") == (Corpus(), [E("invalid JSON: nested too deeply")])


def test_lone_surrogate_in_text_input_is_located():
    text = 'application "a\ud800" { id: 1 entity "e" { what: datum how: tangible } }'
    assert parse_corpus(text) == (
        Corpus(),
        [E("input is not valid UTF-8", SourceSpan(1, 15))],
    )


def test_lone_surrogate_in_json_input_is_located():
    raw = '{"applications": [\n  {"id": 1, "name": "a\udc80"}]}'
    assert import_json(raw) == (Corpus(), [E("input is not valid UTF-8", SourceSpan(2, 23))])
    escaped = '{"applications": [{"id": 1, "name": "a\\udc80"}]}'  # the JSON escape
    assert import_json(escaped) == (
        Corpus(),
        [E("applications[0]: name must not contain a lone surrogate")],
    )


class TestLexer:
    def test_identifier_characters_are_isalpha_then_isalnum(self):
        start = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isalpha()] + ["_"]
        tokens = _lex(" ".join(start))[:-1]
        assert [(t.kind.name, t.text) for t in tokens] == [("IDENT", c) for c in start]
        word = "_" + "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isalnum())
        assert [t.text for t in _lex(word)] == [word, ""]
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            if char.isalnum():
                if not char.isalpha() and not "0" <= char <= "9":
                    _, diagnostics = parse_corpus(char)
                    assert diagnostics == [
                        Diagnostic.error(f"unexpected character {char!r}", SourceSpan(1, 1))
                    ]
            elif char != "_":  # the character ends an identifier and starts none
                assert _TOKEN.match("a" + char).group() == "a"
                assert _TOKEN.match(char).lastgroup != "IDENT"

    def test_integer_longer_than_the_conversion_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_corpus('application "a" { id: ' + "7" * (limit + 1) + " }") == (
            Corpus(),
            [Diagnostic.error(f"integer longer than {limit} digits", SourceSpan(1, 23))],
        )
        assert import_json('{"applications": [{"id": ' + "7" * (limit + 1) + "}]}") == (
            Corpus(),
            [Diagnostic.error(f"invalid JSON: integer longer than {limit} digits")],
        )

    def test_eof_after_a_trailing_comment_is_at_the_end_of_the_line(self):
        assert parse_corpus('application "a" { id: 1 # trailing') == (
            Corpus(),
            [
                Diagnostic.error(
                    "expected '}' to close the application block, found end of input",
                    SourceSpan(1, 35),
                )
            ],
        )

    def test_carriage_return_ends_a_string(self):
        text = f'application "a\rb" {{ id: 1 {ENTITY} }}'
        assert parse_corpus(text) == (
            Corpus(),
            [Diagnostic.error("unterminated string", SourceSpan(1, 13))],
        )

    def test_crlf_is_whitespace(self):
        text = f'application "a" {{\r\n  id: 1\r\n  {ENTITY}\r\n}}\r\n'
        corpus, diagnostics = parse_corpus(text)
        assert diagnostics == []
        assert corpus == parse_corpus(text.replace("\r\n", "\n"))[0]
        _, diagnostics = parse_corpus(text.replace("id: 1", "id: 0"))
        assert diagnostics[0].span == SourceSpan(2, 7)

    def test_carriage_return_ends_a_comment(self):
        golden = resources.files("tangibility").joinpath(GOLDEN_RESOURCE).read_text("utf-8")
        assert golden.startswith("#")
        assert parse_corpus(golden.replace("\n", "\r")) == (load_golden(), [])

    def test_unsupported_escape_span(self):
        assert parse_corpus('application "ab\\n" {}')[1] == [
            Diagnostic.error("unsupported escape '\\n'", SourceSpan(1, 16))
        ]
        assert parse_corpus('application "ab\\')[1] == [
            Diagnostic.error("unsupported escape '\\end of input'", SourceSpan(1, 16))
        ]


class TestLists:
    def test_unknown_key_list_cannot_swallow_braces(self):
        text = (
            'application "a" { id: 1 tags: [ "x" } '
            f'application "b" {{ id: 2 ] {ENTITY} }}'
        )
        assert parse_corpus(text) == (
            Corpus(),
            [Diagnostic.error("expected ']' to close the list, found '}'", SourceSpan(1, 37))],
        )

    def test_unknown_key_list_of_scalars_is_skipped(self):
        text = f'application "a" {{ id: 1 tags: [x, 2, "y"] {ENTITY} }}'
        corpus, diagnostics = parse_corpus(text)
        assert len(corpus.applications) == 1
        assert diagnostics == [Diagnostic.warning("unknown key 'tags'", SourceSpan(1, 25))]

    def test_refs_take_strings_only(self):
        _, diagnostics = parse_corpus('application "a" { id: 1 refs: ["x", y] }')
        assert diagnostics == [
            Diagnostic.error("expected string after ',', found identifier 'y'", SourceSpan(1, 37))
        ]


def _quote(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Hostile text for a generated corpus: tabs, carriage returns, a byte order
# mark and control characters, in strings and between tokens.
_STRING_CHARS = 'ab Z_é"\\#{}\t\r\x00\x0b\x1f\x7f\x85\ufeff\u2028'
_SEPARATORS = [" ", "\t", "\n", "\r\n", " \r ", "\t# note\r\n", "\ufeff", "\x0c"]


@st.composite
def _corpus_texts(draw):
    def sep():
        return draw(st.sampled_from(_SEPARATORS))

    def string(prefix=""):
        return _quote(prefix + draw(st.text(st.sampled_from(_STRING_CHARS), max_size=6)))

    blocks = []
    for index in range(draw(st.integers(0, 3))):
        fields = [f"id:{sep()}{index + 1}"]
        if draw(st.booleans()):
            fields.append(f"genre:{sep()}{string()}")
        if draw(st.booleans()):
            refs = [string() for _ in range(draw(st.integers(0, 2)))]
            fields.append(f"refs:{sep()}[{(',' + sep()).join(refs)}]")
        for _ in range(draw(st.integers(0, 2))):
            what = draw(st.sampled_from(["datum", "tool", "operation", "constraint"]))
            how = draw(st.sampled_from(["tangible", "graspable", "intangible"]))
            count = draw(st.sampled_from(["", " count: 2", " count: many"]))
            note = draw(st.sampled_from(["", f" note: {string()}"]))
            fields.append(
                f"entity {string('e')}{sep()}{{ what: {what}{sep()}how: {how}{count}{note} }}"
            )
        body = sep().join(fields)
        blocks.append(f"application{sep()}{string(f'app{index}')}{sep()}{{{sep()}{body}{sep()}}}")
    return sep().join(blocks)


@given(_corpus_texts())
@settings(max_examples=300)
def test_accepted_text_round_trips(text):
    corpus, diagnostics = parse_corpus(text)
    if any(d.is_error for d in diagnostics):
        return
    reparsed, diagnostics = parse_corpus(serialize_corpus(corpus))
    assert _errors(diagnostics) == []
    assert reparsed == corpus


_INTEGERS = st.one_of(st.integers(), st.integers(-2, 2))
_JSON_ENTITIES = st.fixed_dictionaries(
    {
        "name": st.text(min_size=1, max_size=4),
        "what": st.sampled_from(["datum", "tool", "operation", "constraint"]),
        "how": st.sampled_from(["tangible", "graspable", "intangible"]),
    },
    optional={
        "count": st.one_of(_INTEGERS, st.just("many")),
        "note": st.text(max_size=4),
    },
)
_JSON_APPLICATIONS = st.fixed_dictionaries(
    {"id": _INTEGERS, "name": st.text(max_size=4)},
    optional={
        "year": _INTEGERS,
        "genre": st.text(max_size=4),
        "subgenre": st.text(max_size=4),
        "refs": st.lists(st.text(max_size=4), max_size=2),
        "entities": st.lists(_JSON_ENTITIES, max_size=3),
    },
)


@given(st.lists(_JSON_APPLICATIONS, max_size=3))
@settings(max_examples=300)
def test_loaded_json_round_trips_through_text(apps):
    corpus, diagnostics = import_json(_json(*apps))
    if any(d.is_error for d in diagnostics):
        return
    reparsed, diagnostics = parse_corpus(serialize_corpus(corpus))
    assert _errors(diagnostics) == []
    assert reparsed == corpus


def test_a_lone_carriage_return_ends_a_line_in_both_readers():
    text = f'application "a" {{\r  id: 0\r  {ENTITY}\r}}\r'
    assert parse_corpus(text) == parse_corpus(text.replace("\r", "\n"))
    assert parse_corpus(text)[1][0].span == SourceSpan(2, 7)
    broken = '{"applications": [\r  {"id": 1,\r   "name": }\r]}'
    assert import_json(broken) == import_json(broken.replace("\r", "\n"))
    assert import_json(broken)[1][0].span == SourceSpan(3, 12)
    assert import_json(broken.replace("\r", "\r\n"))[1][0].span == SourceSpan(3, 12)


def test_both_readers_drop_one_leading_byte_order_mark():
    golden = resources.files("tangibility").joinpath(GOLDEN_RESOURCE).read_text("utf-8")
    exported = export_json(load_golden())
    assert parse_corpus("\ufeff" + golden) == parse_corpus(golden) == (load_golden(), [])
    assert import_json("\ufeff" + exported) == import_json(exported) == (load_golden(), [])
    # Anywhere else, even right after the first, it is a character like any other.
    bom = "unexpected character '\\ufeff'"  # as repr() writes it
    assert parse_corpus("\ufeff\ufeff" + golden)[1] == [E(bom, SourceSpan(1, 1))]
    assert parse_corpus('application "a" {\r\n  \ufeffid: 1 }')[1] == [E(bom, SourceSpan(2, 3))]
    assert import_json("\ufeff\ufeff" + exported)[1] == [
        E("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", SourceSpan(1, 1))
    ]


# The canonical text is read by a block recognizer, any other text by the token
# parser (_parse_tokens), which is the reference for every text below.


def _canonical_text(seed):
    return serialize_corpus(clean_corpus(seed))


@given(
    st.integers(0, 2**32),
    st.sampled_from([None, "  id", "  year", "    count"]),
    st.sampled_from([18, 19, 640, 641, _LIMIT, _LIMIT + 1]),
    st.sampled_from([_LIMIT, 640]),
)
@settings(max_examples=200)
def test_canonical_text_reads_as_the_token_parser_reads_it(seed, key, digits, limit):
    text = _canonical_text(seed)
    if key is not None:
        text = re.sub(f"(?m)^{key}: [0-9]+$", f"{key}: {'7' * digits}", text, count=1)
    sys.set_int_max_str_digits(limit)
    try:
        assert parse_corpus(text) == _parse_tokens(text)
    finally:
        sys.set_int_max_str_digits(_LIMIT)


def _mutate(lines, kind, rng):
    """Change the canonical ``lines`` in place by one edit of ``kind``."""
    def pick(prefix):
        found = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        return rng.choice(found) if found else None

    at = rng.randrange(len(lines))
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "id 0":
        lines[pick("  id: ")] = "  id: 0"
    elif kind == "duplicate id":
        lines[pick("  id: ")] = lines[pick("  id: ")]
    elif kind == "count 0":
        at = pick("    how: ") + 1
        lines[at : at + lines[at].startswith("    count: ")] = ["    count: 0"]
    elif kind == "empty name":
        at = pick(rng.choice(["application ", "  entity "]))
        lines[at] = re.sub(r'".*"', rng.choice(['""', '" "']), lines[at])
    elif kind == "no entities":
        start = pick("application ")
        end = lines.index("}", start)
        entity_lines = ("  entity ", "    ", "  }")
        lines[start:end] = [line for line in lines[start:end] if not line.startswith(entity_lines)]
    elif kind == "unknown key":
        lines.insert(pick("  id: ") + 1, rng.choice(['  color: "red"', "  tags: [1, 2]"]))
    elif kind == "comment in a block":
        lines.insert(pick(rng.choice(["  id: ", "    what: "])) + 1, "  # a comment")
    elif kind == "trailing blanks":
        lines[at] += rng.choice([" ", "\t", "  "])
    elif kind == "empty refs":
        refs = pick("  refs: ")
        if refs is None:
            lines.insert(pick("  id: ") + 1, "  refs: []")
        else:
            lines[refs] = "  refs: []"
    elif kind in ("count 64 or 999 twice", "leading zeros"):
        values = ["64", "999"] if kind.startswith("count") else ["007", "00"]
        value = rng.choice(values)
        hows = [i for i, line in enumerate(lines) if line.startswith("    how: ")]
        for at in sorted(rng.sample(hows, min(2, len(hows))), reverse=True):
            at += 1
            lines[at : at + lines[at].startswith("    count: ")] = [f"    count: {value}"]
    elif kind == "blank unicode name":
        at = pick(rng.choice(["application ", "  entity "]))
        lines[at] = re.sub(r'".*"', rng.choice(['"\u00a0"', '"\u2003 \u00a0"']), lines[at])
    elif kind == "escape in a note only":
        at = pick("  entity ")
        lines[at] = '  entity "noted" {'
        at += 3 + lines[at + 3].startswith("    count: ")
        note = rng.choice(['    note: "a \\" b"', '    note: "a \\\\ b"'])
        lines[at : at + lines[at].startswith("    note: ")] = [note]
    elif kind == "escape in an application header only":
        start = pick("application ")
        end = lines.index("}", start)
        for at in range(start, end):  # no escape left in this application
            lines[at] = re.sub(r'\\"', "'", re.sub(r"\\\\", "/", lines[at]))
        headers = ("application ", "  genre: ", "  subgenre: ", "  refs: ")
        at = rng.choice([i for i in range(start, end) if lines[i].startswith(headers)])
        lines[at] = lines[at].replace('"', '"' + rng.choice(['\\"', "\\\\"]), 1)


_NO_FINDING = (
    "count 64 or 999 twice", "escape in a note only", "escape in an application header only"
)


@pytest.mark.parametrize(
    "kind",
    [
        "delete",
        "duplicate",
        "swap",
        "id 0",
        "duplicate id",
        "count 0",
        "empty name",
        "no entities",
        "unknown key",
        "comment in a block",
        "trailing blanks",
        "empty refs",
        "no final newline",
        "count 64 or 999 twice",
        "leading zeros",
        "blank unicode name",
        "escape in a note only",
        "escape in an application header only",
    ],
)
def test_mutated_canonical_text_reads_as_the_token_parser_reads_it(kind):
    for seed in range(60):
        rng = random.Random(seed)
        lines = _canonical_text(seed).splitlines()
        if not lines:
            continue
        _mutate(lines, kind, rng)
        text = "\n".join(lines) + ("" if kind == "no final newline" else "\n")
        assert parse_corpus(text) == _parse_tokens(text), (kind, seed)
        if kind in _NO_FINDING:  # the canonical reader reads every application
            read = parse_corpus(text)[0].applications
            assert dsl._read_canonical(text)[0] == list(read), (kind, seed)


@pytest.mark.parametrize("place", ["first", "middle", "last", "two"])
@pytest.mark.parametrize(
    "kind",
    [
        "delete",
        "duplicate",
        "swap",
        "id 0",
        "count 0",
        "empty name",
        "no entities",
        "unknown key",
        "comment in a block",
        "trailing blanks",
        "empty refs",
        "leading zeros",
        "blank unicode name",
        "escape in an application header only",
    ],
)
def test_edits_in_chosen_applications_read_as_the_token_parser_reads_them(kind, place):
    """The canonical reader stops at the first edited application, and the token
    parser reads on from there as a read of the whole text does."""
    for seed in range(40):
        rng = random.Random(seed)
        blocks = _canonical_text(seed).removesuffix("\n").split("\n\n")  # one application each
        if len(blocks) < 2:
            continue
        last = len(blocks) - 1
        chosen = {"first": [0], "middle": [last // 2], "last": [last]}.get(place)
        for at in chosen or rng.sample(range(len(blocks)), 2):
            lines = blocks[at].splitlines()
            _mutate(lines, kind, rng)
            blocks[at] = "\n".join(lines)
        text = "\n\n".join(blocks) + "\n"
        assert repr(parse_corpus(text)) == repr(_parse_tokens(text)), (kind, place, seed)


def test_the_token_parser_reads_on_with_the_ids_and_names_already_read():
    """A repeat, in the part the token parser reads, of an id or a name that the
    canonical reader read is a finding, as in a read of the whole text."""
    golden = resources.files("tangibility").joinpath(GOLDEN_RESOURCE).read_text("utf-8")
    last = 'application "SABLIER" {\n  id: 33\n'
    text = golden.replace(last, 'application "sLOT mACHINE" {\n  id: 1\n')
    assert parse_corpus(text) == _parse_tokens(text) == (Corpus(), [
        E("application 1: duplicate application id 1", SourceSpan(840, 7)),
        E("application 1: duplicate application name 'sLOT mACHINE'", SourceSpan(839, 13)),
    ])
    # The same, with an unknown key in the last application, which also stops the canonical read.
    text = text.replace("  id: 1\n  year: 2022\n", '  id: 1\n  color: "red"\n  year: 2022\n')
    assert parse_corpus(text) == _parse_tokens(text)
    assert len(parse_corpus(text)[1]) == 3


@pytest.mark.parametrize("seed", range(20))
def test_lexing_from_a_line_start_places_tokens_as_the_whole_text_does(seed):
    text = _canonical_text(seed)
    for text in (text, text.removesuffix("\n")):
        tokens = _lex(text)
        for start in (0, *(match.end() for match in re.finditer("\n", text))):
            line = text.count("\n", 0, start) + 1
            assert _lex(text, start) == [token for token in tokens if token.line >= line]
        # Past the end, where the canonical reader stops after the newline it adds.
        assert _lex(text, len(text) + 1) == tokens[-1:]


# The string body as one alternation per character, before it was unrolled.
_ALTERNATION_BODY = r'(?:[^"\\\n]|\\["\\])*'
_ALTERNATION_TOKEN = re.compile(
    _TOKEN.pattern.replace(dsl._STRING_BODY, _ALTERNATION_BODY), _TOKEN.flags
)


def _lexed(text, start=0, lex=_lex):
    try:
        return lex(text, start)
    except dsl._ParseError as exc:
        return exc.diagnostic


@given(st.text(st.sampled_from(["a", "\u00e9", " ", '"', "\\", "\n"]), max_size=12))
@settings(max_examples=500)
def test_unrolled_string_body_reads_as_the_alternation(text):
    """The string body accepts the same strings, and the lexer gives the same
    tokens or the same diagnostic, in either form."""
    assert _ALTERNATION_TOKEN.pattern != _TOKEN.pattern
    for subject in (text, f'"{text}"', f'"{text}'):
        old = re.match(f'"({_ALTERNATION_BODY})"', subject)
        new = re.match(dsl._QUOTED, subject)
        assert (old and old.group()) == (new and new.group())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_TOKEN", _ALTERNATION_TOKEN)
        expected = _lexed(text)
    assert _lexed(text) == expected


# The lexer before each token skipped its blanks, line ends and comments: one match
# per line end and per run of blanks or comment, and the end of input appended last.
_LINE_TOKEN = re.compile(
    r"""
      (?P<NEWLINE> \n )
    | (?P<SKIP> [ \t]+ | \#[^\n]* )
    | (?P<STRING> " """ + dsl._STRING_BODY + r""" " )
    | (?P<UNTERMINATED> " """ + dsl._STRING_BODY + r""" (?P<ESCAPE> \\ )? )
    | (?P<INTEGER> [0-9]+ )
    | (?P<IDENT> \w+ )
    | (?P<LBRACE> \{ ) | (?P<RBRACE> \} ) | (?P<LBRACKET> \[ ) | (?P<RBRACKET> \] )
    | (?P<COLON> : ) | (?P<COMMA> , )
    | (?P<ERROR> . )
    """,
    re.VERBOSE,
)


def _line_lex(text, start=0):
    tokens = []
    line, line_start = text.count("\n", 0, start) + 1, text.rfind("\n", 0, start) + 1
    for match in _LINE_TOKEN.finditer(text, start):
        kind, raw = match.lastgroup, match.group()
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
            continue
        if kind == "SKIP":
            continue
        column = match.start() - line_start + 1
        if kind == "UNTERMINATED" and match.group("ESCAPE") is None:
            raise dsl._ParseError("unterminated string", SourceSpan(line, column))
        if kind == "UNTERMINATED":
            found = text[match.end() : match.end() + 1] or "end of input"
            span = SourceSpan(line, column + len(raw) - 1)
            raise dsl._ParseError(f"unsupported escape '\\{found}'", span)
        if kind == "ERROR" or kind == "IDENT" and not (raw[0].isalpha() or raw[0] == "_"):
            raise dsl._ParseError(f"unexpected character {raw[0]!r}", SourceSpan(line, column))
        value = raw
        if kind == "STRING":
            value = dsl._unescape(raw[1:-1])
        elif kind == "INTEGER":
            try:
                value = int(raw)
            except ValueError:
                raise dsl._ParseError(dsl._too_long(), SourceSpan(line, column)) from None
        tokens.append(dsl._Token(dsl._KINDS[kind], raw, value, line, column))
    tokens.append(dsl._Token(dsl._TokenKind.EOF, "", None, line, len(text) - line_start + 1))
    return tokens


@given(st.text(st.sampled_from(list('a1\u00e9 \t\n#"\\{}:,')), max_size=24))
@example("a: 1  \t")  # ends in blanks
@example("{\n \t\n")  # a line of blanks, then a line end
@example("a # b\n")  # ends in a comment and its line end
@example("a\n  # b")  # ends in a comment with no final line end
@example("\n# a\n\t#\n,")  # line ends and comments before a token
@example("")
@settings(max_examples=500)
def test_lexer_skipping_prefixes_reads_as_the_line_by_line_lexer(text):
    """The same tokens (kind, text, value, line and column), or the same diagnostic,
    from offset 0, from every line start, and past the end, as the lexer that
    matched each line end, run of blanks and comment on its own."""
    for start in (0, *(match.end() for match in re.finditer("\n", text)), len(text) + 1):
        assert _lexed(text, start) == _lexed(text, start, _line_lex), start
    # Past the end, where the canonical reader stops after the line end it adds: one EOF.
    assert [token.kind for token in _lex(text, len(text) + 1)] == [dsl._TokenKind.EOF]


# The unescape before it was two str.replace calls.
def _regex_unescape(body):
    return re.sub(r'\\(["\\])', r"\1", body)


def test_unescape_is_the_regex_it_replaced():
    """On every string body of up to 8 characters over a, é, a quote and a backslash."""
    bodies = [
        "".join(chars)
        for size in range(9)
        for chars in itertools.product('a\u00e9"\\', repeat=size)
        if re.fullmatch(dsl._STRING_BODY, "".join(chars))
    ]
    assert len(bodies) == 3_861  # runs of a, é, \\ and \"
    for body in bodies:
        assert dsl._unescape(body) == _regex_unescape(body), body
    assert dsl._unescape(None) is None


def test_no_code_point_casefolds_to_nothing():
    """So a name is blank after strip() and casefold() only if it is after strip()."""
    assert all(chr(c).casefold() for c in range(sys.maxunicode + 1))


def test_canonical_text_skips_the_token_parser(monkeypatch):
    calls = []
    parse_application = dsl._Parser._parse_application

    def spy(parser):
        calls.append(parser)
        return parse_application(parser)

    monkeypatch.setattr(dsl._Parser, "_parse_application", spy)
    golden = resources.files("tangibility").joinpath(GOLDEN_RESOURCE).read_text("utf-8")
    assert parse_corpus(golden) == (load_golden(), [])
    assert parse_corpus(golden.removesuffix("\n")) == (load_golden(), [])
    for seed in range(50):
        text = _canonical_text(seed)
        assert parse_corpus(text)[1] == []
    assert calls == []
    text = golden.replace("\n  id: ", "\n  id : ")
    assert parse_corpus(text) == (load_golden(), [])
    assert len(calls) == 33


@pytest.mark.parametrize("kind", JSON_MUTATIONS)
def test_mutated_json_reads_as_the_diagnosing_reader_reads_it(kind):
    """JSON with one edit of ``kind`` reads as it did when its digest was pinned."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[JSON_MUTATION_DIGESTS]
    assert json_mutation_digest(kind) == pinned[kind]


def test_entity_grid_reads_as_the_diagnosing_reader_reads_it():
    """Every combination of valid and wrong entity values reads as it did when
    its digest was pinned, with and without an escape elsewhere in the text."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[ENTITY_GRID_DIGEST]
    assert json_entity_grid_digest() == pinned


def test_application_grid_reads_as_the_diagnosing_reader_reads_it():
    """Every combination of valid and wrong application values, after an application
    whose id and name they may repeat, reads as it did when its digest was pinned,
    with and without an escape elsewhere in the text."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[APPLICATION_GRID_DIGEST]
    assert json_application_grid_digest() == pinned


def test_writers_write_as_pinned():
    """Both writers give, on a library-built corpus, the texts pinned for it."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[WRITER_DIGEST]
    assert writer_digest() == pinned
    corpus = writer_corpus()
    warning = "application 12: no entity records"
    assert parse_corpus(serialize_corpus(corpus)) == (corpus, [W(warning, SourceSpan(83, 13))])
    assert import_json(export_json(corpus)) == (corpus, [W("applications[2]: no entity records")])


@pytest.mark.parametrize(
    "text", [*JSON_ESCAPES.values(), "a\\\\nb", '\\t \\" \\/ \\\\ \\b', "no backslash"]
)
def test_escape_flag_is_the_three_substring_test(text):
    """One regex search says whether a text holds a \\n, \\r or \\u escape."""
    escaped = "\\n" in text or "\\r" in text or "\\u" in text
    assert dsl._JsonReader(text)._escaped is escaped


def test_json_is_read_in_one_pass(monkeypatch):
    """Each read parses its text once.  A clean corpus is read lean, with no located
    application read; an escape or a warning sends it to the located read, which then
    reads each application once."""
    parsed, located = [], []
    loads, read_application = json.loads, dsl._JsonReader._read_application

    def loads_spy(*args, **kwargs):
        parsed.append(args[0])
        return loads(*args, **kwargs)

    def read_application_spy(self, node, ctx):
        located.append(ctx)
        return read_application(self, node, ctx)

    def read(text, located_reads=0):
        parsed.clear()
        located.clear()
        result = import_json(text)
        assert len(parsed) == 1
        assert len(located) == located_reads
        return result

    monkeypatch.setattr(json, "loads", loads_spy)
    monkeypatch.setattr(dsl._JsonReader, "_read_application", read_application_spy)
    golden = load_golden()
    golden_json = export_json(golden)
    assert read(golden_json) == (golden, [])
    for seed in range(50):
        corpus = clean_corpus(seed)
        exported = export_json(corpus)
        assert read(exported) == (corpus, [])
        # Written by another tool: spaced, and non-ASCII text as \u escapes.
        spaced = json.dumps(loads(exported), indent=1)
        located_reads = len(corpus.applications) if "\\u" in spaced else 0
        assert read(spaced, located_reads) == (corpus, [])
    # A warning in the last application: every application is read located, once.
    last = golden_json.rindex('{"id":') + 1
    where = f"applications[{len(golden.applications) - 1}]"
    warnings = {'"color":"red",': "unknown key 'color'", '"id":1,': "duplicate key 'id'"}
    for field, warning in warnings.items():
        text = golden_json[:last] + field + golden_json[last:]
        assert read(text, len(golden.applications)) == (golden, [W(f"{where}: {warning}")])


def test_every_reader_and_hallmark_takes_the_shared_counts():
    """Each Count of 0–63 or "many" that a reader or a hallmark makes is the shared
    table's object: the canonical reader, the token parser, the JSON reader's lean
    and located reads, Entity's default, Hallmark.of and compute_hallmark."""
    counts = ("", "2", "63", "64", "1000", "many")  # "": no count line, so 1
    text = 'application "Å" {\n  id: 1\n' + "".join(
        f'  entity "e{i}" {{\n    what: datum\n    how: tangible\n'
        + (f"    count: {count}\n" if count else "")
        + "  }\n"
        for i, count in enumerate(counts)
    ) + "}\n"

    def shared(corpus):
        entities = corpus.applications[0].entities
        assert [str(e.count) for e in entities] == ["1", "2", "63", "64", "1000", "many"]
        mark = compute_hallmark(corpus.applications[0])
        for count in (*(e.count for e in entities), *mark.components):
            assert count.value is not None and count.value >= 64 or count is _COUNTS[count.value]
        return corpus

    canonical = shared(Corpus(tuple(dsl._read_canonical(text)[0])))
    tokens = text.replace("  ", "\t")  # not canonical
    assert dsl._read_canonical(tokens)[0] == []
    assert shared(_parse_tokens(tokens)[0]) == canonical
    exported = export_json(canonical)
    assert "\\u" not in exported and '"color"' not in exported
    assert shared(import_json(exported)[0]) == canonical  # the lean read
    # An escape, or an unknown key in each entity, sends the whole corpus to the located read.
    assert shared(import_json(json.dumps(json.loads(exported)))[0]) == canonical
    colored = import_json(exported.replace('{"name":"e', '{"color":"red","name":"e'))
    assert len(colored[1]) == len(counts)
    assert shared(colored[0]) == canonical
    assert Entity("e", Role.DATUM, Tangibility.TANGIBLE).count is _COUNTS[1]
    for value in (0, 1, 63, "many"):
        components = Hallmark.of(value, *[0] * 11).components
        assert components[0] is _COUNTS[value] and components[1] is _COUNTS[0]


def test_every_reader_sets_each_records_fields_in_order():
    """Each record that the canonical reader, the whole-text token parser and the JSON
    reader's lean and located reads return holds its fields in the dataclass order."""
    golden = resources.files("tangibility").joinpath(GOLDEN_RESOURCE).read_text("utf-8")
    app_fields = [field.name for field in dataclasses.fields(Application)]
    entity_fields = [field.name for field in dataclasses.fields(Entity)]
    for text in (golden, *map(_canonical_text, range(6))):
        corpus, findings = _parse_tokens(text)
        assert corpus.applications and findings == []
        exported = export_json(corpus)
        # An unknown top-level key with a \u escape sends the whole corpus to the located read.
        located = exported.replace("{", '{"x":"\\u0041",', 1)
        assert import_json(located) == (corpus, [W("unknown key 'x' at top level")])
        reads = [
            tuple(dsl._read_canonical(text)[0]),
            corpus.applications,
            import_json(exported)[0].applications,
            import_json(located)[0].applications,
        ]
        for applications in reads:
            assert applications == corpus.applications
            for app in applications:
                assert list(vars(app)) == app_fields
                assert all(list(vars(entity)) == entity_fields for entity in app.entities)


def test_a_text_ending_in_a_newline_is_read_without_a_copy(monkeypatch):
    """The canonical reader gets the caller's text itself when it ends with a newline,
    and a copy ending with one only when it does not."""
    seen = []
    read_canonical = dsl._read_canonical

    def spy(text):
        seen.append(text)
        return read_canonical(text)

    monkeypatch.setattr(dsl, "_read_canonical", spy)
    text = _canonical_text(0)
    corpus, findings = parse_corpus(text)
    assert corpus.applications and findings == []
    assert seen.pop() is text
    assert parse_corpus(text.removesuffix("\n")) == (corpus, [])
    assert seen.pop() == text


def _reference_export_json(corpus):
    """export_json's former form: one dict per application and entity, and
    json.dumps of the tree."""
    applications = []
    for app in corpus.applications:
        record = {"id": app.id, "name": app.name}
        if app.year is not None:
            record["year"] = app.year
        if app.genre is not None:
            record["genre"] = app.genre
        if app.subgenre is not None:
            record["subgenre"] = app.subgenre
        record["refs"] = list(app.refs)
        record["entities"] = entities = []
        for e in app.entities:
            count = e.count.value
            entity = {
                "name": e.name,
                "what": dsl._TERM_VALUES[e.role],
                "how": dsl._TERM_VALUES[e.tangibility],
                "count": "many" if count is None else count,
            }
            if e.note is not None:
                entity["note"] = e.note
            entities.append(entity)
        applications.append(record)
    return json.dumps({"applications": applications}, separators=(",", ":"), ensure_ascii=False)


def _written(write, corpus):
    """What ``write`` returns for ``corpus``, or the type of what it raises."""
    try:
        return write(corpus)
    except Exception as exc:
        return type(exc)


# Strings json escapes, or writes as they are: a quote, a backslash, control
# characters, U+2028, a lone surrogate, non-ASCII text, and any character.
_HOSTILE_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", " ", "\ud800", "é", "\U0001f600"])
    | st.characters(),
    max_size=8,
)
_JSON_ENTITIES = st.builds(
    Entity,
    _HOSTILE_TEXT,
    st.sampled_from(Role),
    st.sampled_from(Tangibility),
    st.sampled_from([Count.MANY, _COUNTS[1], _COUNTS[63]])
    | st.builds(Count, st.integers(0, 10**20)),
    st.none() | _HOSTILE_TEXT,
)
_JSON_APPLICATIONS = st.builds(
    Application,
    st.integers(1, 2**63),
    _HOSTILE_TEXT,
    st.none() | st.integers(0, 3000),
    st.none() | _HOSTILE_TEXT,
    st.none() | _HOSTILE_TEXT,
    st.lists(_HOSTILE_TEXT, max_size=3).map(tuple),
    st.lists(_JSON_ENTITIES, max_size=4).map(tuple),
)


@given(st.lists(_JSON_APPLICATIONS, max_size=4).map(tuple))
@settings(max_examples=200, deadline=None)
def test_export_json_writes_what_json_dumps_wrote(applications):
    corpus = Corpus(applications)
    assert export_json(corpus) == _reference_export_json(corpus)


class _Str(str):
    def __str__(self):
        return "not the value"


class _Int(int):
    def __str__(self):
        return "not the value"

    __repr__ = __str__


_PLAIN_ENTITY = Entity("e", Role.DATUM, Tangibility.TANGIBLE)


@pytest.mark.parametrize(
    "app",
    [
        Application(True, "a"),
        Application(1, "a", year=1999.0),
        Application(1, "a", year=float("nan")),
        Application(1, 5),
        Application(1, None, genre=2.5, subgenre=False),
        Application(_Int(7), _Str('q"\\'), year=_Int(1999), genre=_Str("g"), refs=(_Str("r"), 3)),
        Application(1, "a", refs=["r", None], entities=[_PLAIN_ENTITY]),
        Application(1, "a", entities=(Entity(5, Role.TOOL, Tangibility.GRASPABLE, note=1.5),)),
        Application(
            1, "a", entities=(Entity(_Str("e"), Role.TOOL, Tangibility.GRASPABLE, Count(_Int(3))),)
        ),
        Application(1, "a", entities=(Entity("e", Tangibility.TANGIBLE, Role.DATUM),)),
        Application(1, "a", entities=(Entity("e", "datum", Tangibility.TANGIBLE),)),
        Application(1, object()),
        Application(1, "a", year=10**5000),
        Application(1, "a", genre={"k": (1, "v")}),
    ],
    ids=[
        "bool id", "float year", "nan year", "int name", "float genre, bool subgenre",
        "str and int subclasses", "lists", "int entity name, float note", "subclass count",
        "swapped terms", "str role", "object name", "huge year", "dict genre",
    ],
)
def test_export_json_writes_any_library_value_as_json_dumps_did(app):
    """Values that no reader builds come out as json.dumps wrote them, or raise the
    same type of exception."""
    corpus = Corpus((app, Application(2, "b", entities=(_PLAIN_ENTITY,))))
    assert _written(export_json, corpus) == _written(_reference_export_json, corpus)
