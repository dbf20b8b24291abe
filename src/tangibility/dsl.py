"""Reading and writing the corpus annotation format.

The text format is line-oriented and brace-delimited:

    # comment
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

Both readers first drop one leading byte order mark and read "\\r\\n" and
a lone "\\r" as "\\n" (`_text`).  Strings are double-quoted and hold no line
break; the only escapes are \\" and \\\\.  The JSON reader refuses a line
break in the same fields, so whatever loads can be written as text.  `what`
and `how` are mandatory per entity; `count` defaults to 1.  Unknown keys
draw warnings and are skipped, so the format can grow without breaking old
readers; their value is a scalar or a list of scalars.  Any error leaves
nothing half-loaded: `parse_corpus` then returns an empty corpus alongside
the diagnostics.  A lone surrogate in either reader's input is one error,
`input is not valid UTF-8`, at its line and column.

The field table (`_APPLICATION`, `_ENTITY`) is the one place the readers
take the schema from.  The text parser reads both block kinds with one loop
over it; the JSON reader takes its known keys and its integer and string
checks from it.  The writers, `serialize_corpus` and `export_json`, keep
their own field order and defaults: a walk over the table, tried, saved
one line and made both roughly 1.7 times slower at 500 applications.

Both readers report in input order: each invariant of `model` is checked
where its value is read, except that the entity-less warning, the count
total, and in text the application name (which comes before the id), wait
for the application to close.

`serialize_corpus` writes the canonical form shown above: two-space
indentation, fields in the order id, year, genre, subgenre, refs, entities,
defaults omitted.  Parsing the canonical form reproduces the corpus
exactly.  Canonical text, with blank and `#` comment lines between
applications and with or without its final newline, is read by one regex
match per block (`_read_canonical`, its patterns built from the field
table).  Any other text, and any with a finding, goes to the token parser
(`_parse_tokens`), the only source of diagnostics.  The JSON functions
carry the same data in a one-object schema for interchange with other
tooling.  `_read` is the one entry for a file, stdin or the bundled asset:
it decodes UTF-8 bytes and reads text starting with "{" or "[" as JSON.
"""

from __future__ import annotations

import enum
import json
import re
import sys
from typing import Any, NamedTuple

from .model import (
    Application,
    Corpus,
    Count,
    Diagnostic,
    Entity,
    InvariantChecker,
    Role,
    SourceSpan,
    Tangibility,
    first_surrogate,
    is_integer,
)

__all__ = ["parse_corpus", "serialize_corpus", "export_json", "import_json"]

_ROLES = {role.value: role for role in Role}
_TANGIBILITIES = {tang.value: tang for tang in Tangibility}


class _TokenKind(enum.Enum):
    STRING = "string"
    INTEGER = "integer"
    IDENT = "identifier"
    LBRACE = "'{'"
    RBRACE = "'}'"
    LBRACKET = "'['"
    RBRACKET = "']'"
    COLON = "':'"
    COMMA = "','"
    EOF = "end of input"


class _Token(NamedTuple):
    kind: _TokenKind
    text: str
    value: Any
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        # Built on demand: only diagnostics need one, and most tokens get none.
        return SourceSpan(self.line, self.column)

    def describe(self) -> str:
        if self.kind in (_TokenKind.STRING, _TokenKind.INTEGER, _TokenKind.IDENT):
            return f"{self.kind.value} {self.text!r}"
        return self.kind.value


class _ParseError(Exception):
    """Internal abort signal; carries the diagnostic to surface."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.diagnostic = Diagnostic.error(message, span)


_KINDS = _TokenKind.__members__
_SCALARS = (_TokenKind.STRING, _TokenKind.INTEGER, _TokenKind.IDENT)


# The field table: each block kind's name, what belongs where a key is expected,
# and how each known key's value is read.  A type is one token whose value has
# that type in text (_VALUE_KINDS), and a value of that type in JSON.  A name
# is a _Parser method taking the key and the block's location; JSON reads those
# keys in its own code.  `what` and `how` share one lookup, _TERMS.
_Block = NamedTuple("_Block", [("name", str), ("expected", str), ("fields", dict)])
_APPLICATION = _Block(
    "application",
    "a field or 'entity'",
    {"id": int, "year": int, "genre": str, "subgenre": str, "refs": "_refs"},
)
_ENTITY = _Block(
    "entity",
    "an entity field",
    {"what": "_term", "how": "_term", "count": "_count", "note": str},
)
_VALUE_KINDS = {int: _TokenKind.INTEGER, str: _TokenKind.STRING}
_TERMS = {"what": ("role", _ROLES), "how": ("tangibility", _TANGIBILITIES)}

# A string's characters up to its closing quote; a line break ends it early.
_STRING_BODY = r'(?:[^"\\\n]|\\["\\])*'
# One group per token kind, named after it, plus whitespace and comments to
# skip, and two errors: a string that never closes (ESCAPE: at the backslash
# of an escape it does not support) and any other character.
# An identifier is \w+ (isalnum() or "_"); _lex wants isalpha() or "_" first.
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE> \n )
    | (?P<SKIP> [ \t]+ | \#[^\n]* )
    | (?P<STRING> " """ + _STRING_BODY + r""" " )
    | (?P<UNTERMINATED> " """ + _STRING_BODY + r""" (?P<ESCAPE> \\ )? )
    | (?P<INTEGER> [0-9]+ )
    | (?P<IDENT> \w+ )
    | (?P<LBRACE> \{ ) | (?P<RBRACE> \} ) | (?P<LBRACKET> \[ ) | (?P<RBRACKET> \] )
    | (?P<COLON> : ) | (?P<COMMA> , )
    | (?P<ERROR> . )
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


def _unescape(body: str | None) -> str | None:
    """The value of a string whose body (between the quotes) is ``body``."""
    return _ESCAPE.sub(r"\1", body) if body and "\\" in body else body


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, raw = match.lastgroup, match.group()
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
            continue
        if kind == "SKIP":
            continue
        column = match.start() - line_start + 1
        if kind == "UNTERMINATED" and match.group("ESCAPE") is None:
            raise _ParseError("unterminated string", SourceSpan(line, column))
        if kind == "UNTERMINATED":
            found = text[match.end() : match.end() + 1] or "end of input"
            span = SourceSpan(line, column + len(raw) - 1)  # at the backslash
            raise _ParseError(f"unsupported escape '\\{found}'", span)
        if kind == "ERROR" or kind == "IDENT" and not (raw[0].isalpha() or raw[0] == "_"):
            raise _ParseError(f"unexpected character {raw[0]!r}", SourceSpan(line, column))
        value: Any = raw
        if kind == "STRING":
            value = _unescape(raw[1:-1])
        elif kind == "INTEGER":
            try:
                value = int(raw)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise _ParseError(_too_long(), SourceSpan(line, column)) from None
        tokens.append(_Token(_KINDS[kind], raw, value, line, column))
    tokens.append(_Token(_TokenKind.EOF, "", None, line, len(text) - line_start + 1))
    return tokens


def _too_long() -> str:
    return f"integer longer than {sys.get_int_max_str_digits()} digits"


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self.check = InvariantChecker()

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind is not _TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: _TokenKind, context: str, *fields: object) -> _Token:
        """The next token, which must be of ``kind``; ``context.format(*fields)``
        words the error, and is only built when the token does not match."""
        token = self._peek()
        if token.kind is not kind:
            context = context.format(*fields)
            raise _ParseError(
                f"expected {kind.value} {context}, found {token.describe()}", token.span
            )
        return self._advance()

    def parse(self) -> Corpus:
        applications: list[Application | None] = []
        while self._peek().kind is not _TokenKind.EOF:
            token = self._advance()
            if token.kind is not _TokenKind.IDENT or token.value != "application":
                raise _ParseError(f"expected 'application', found {token.describe()}", token.span)
            applications.append(self._parse_application())
        return Corpus(tuple(filter(None, applications)))

    def _parse_application(self) -> Application | None:
        name_token = self._expect(_TokenKind.STRING, "(application name)")
        name = name_token.value
        values = self._block(_APPLICATION, f"application {name!r}")
        app_id = values.get("id")
        where = f"application {name!r}" if app_id is None else f"application {app_id}"
        self.check.name(where, name, name_token.span, unique=True)
        if app_id is None:
            self.check.error(f"{where} has no id", name_token.span)
            return None
        blocks = values.pop("entity", [])
        entities = tuple(filter(None, blocks))  # the entity blocks that loaded
        self.check.entity_records(where, len(blocks), name_token.span)
        self.check.count_total(where, entities, name_token.span)
        # The application keys are the names of Application's fields.
        return Application(name=name, entities=entities, **values)

    def _parse_entity(self) -> Entity | None:
        name_token = self._expect(_TokenKind.STRING, "(entity name)")
        name = name_token.value
        where = f"entity {name!r}"
        self.check.name(where, name, name_token.span)
        values = self._block(_ENTITY, where)
        for key in _TERMS:
            if key not in values:
                self.check.error(f"{where} is missing {key!r}", name_token.span)
        role, tangibility = values.get("what"), values.get("how")
        if role is None or tangibility is None:
            return None
        return Entity(name, role, tangibility, values.get("count", Count(1)), values.get("note"))

    def _block(self, block: _Block, where: str) -> dict[str, Any]:
        """Read ``{ key: value ... }``: each known key's value (the last one of a duplicate),
        and in an application its entity blocks under "entity", None where one failed."""
        self._expect(_TokenKind.LBRACE, "to open the {} block", block.name)
        values: dict[str, Any] = {}
        while self._peek().kind not in (_TokenKind.RBRACE, _TokenKind.EOF):
            token = self._advance()
            if token.kind is not _TokenKind.IDENT:
                message = f"expected {block.expected}, found {token.describe()}"
                raise _ParseError(message, token.span)
            key = token.value
            if key == "entity" and block is _APPLICATION:
                values.setdefault("entity", []).append(self._parse_entity())
                continue
            self._expect(_TokenKind.COLON, "after {!r}", key)
            read = block.fields.get(key)
            if read is None:
                self.check.warning(f"unknown key {key!r}", token.span)
                self._skip_value()
                continue
            if key in values:
                self.check.warning(f"duplicate key {key!r}", token.span)
            if isinstance(read, str):
                values[key] = getattr(self, read)(key, where)
            else:
                value_token = self._expect(_VALUE_KINDS[read], "as the {}", key)
                values[key] = value = value_token.value
                if key == "id":
                    self.check.app_id(f"application {value}", value, value_token.span)
        self._expect(_TokenKind.RBRACE, "to close the {} block", block.name)
        return values

    def _refs(self, key: str, where: str) -> tuple[str, ...]:
        return self._parse_list((_TokenKind.STRING,), "refs list")

    def _term(self, key: str, where: str) -> Role | Tangibility | None:
        label, terms = _TERMS[key]
        token = self._expect(_TokenKind.IDENT, "naming a {}", label)
        term = terms.get(token.value)
        if term is None:
            self.check.error(f"unknown {label} {token.value!r}", token.span)
        return term

    def _count(self, key: str, where: str) -> Count:
        token = self._advance()
        if token.kind is _TokenKind.INTEGER:
            self.check.count(where, token.value, token.span)
            return Count(token.value)
        if token.kind is _TokenKind.IDENT and token.value == "many":
            return Count.MANY
        message = f"expected an integer or 'many' as the {key}, found {token.describe()}"
        raise _ParseError(message, token.span)

    def _parse_list(self, kinds: tuple[_TokenKind, ...], name: str) -> tuple[Any, ...]:
        """Parse ``[v, v, ...]``, possibly empty, where each value is one token of ``kinds``."""
        self._expect(_TokenKind.LBRACKET, "to open the {}", name)
        values: list[Any] = []
        while self._peek().kind in kinds:
            values.append(self._advance().value)
            if self._peek().kind is not _TokenKind.COMMA:
                break
            self._advance()
            token = self._peek()
            if token.kind not in kinds:
                expected = " or ".join(kind.value for kind in kinds)
                raise _ParseError(
                    f"expected {expected} after ',', found {token.describe()}", token.span
                )
        self._expect(_TokenKind.RBRACKET, "to close the {}", name)
        return tuple(values)

    def _skip_value(self) -> None:
        token = self._peek()
        if token.kind is _TokenKind.LBRACKET:
            self._parse_list(_SCALARS, "list")
        elif token.kind in _SCALARS:
            self._advance()
        else:
            raise _ParseError(f"expected a value, found {token.describe()}", token.span)


# The canonical reader's patterns; blank and comment lines may come between applications.
_QUOTED = f'"({_STRING_BODY})"'
_QUOTED_LIST = f'\\[("{_STRING_BODY}"(?:, "{_STRING_BODY}")*)\\]'
_VALUE_PATTERNS = {int: "([0-9]+)", str: _QUOTED, "_refs": _QUOTED_LIST, "_count": "([0-9]+|many)"}
_GAP = r"(?:\#[^\n]*\n|\n)*"


def _canonical(block: _Block, indent: str) -> str:
    """The pattern of the block's first lines as serialize_corpus writes them: its
    name, then each known key in table order, optional unless always written."""
    lines = [f"{indent}{block.name} {_QUOTED} \\{{\n"]
    for key, read in block.fields.items():
        value = f"({'|'.join(_TERMS[key][1])})" if key in _TERMS else _VALUE_PATTERNS[read]
        line = f"{indent}  {key}: {value}\n"
        lines.append(line if key in ("id", *_TERMS) else f"(?:{line})?")
    return "".join(lines)


_CANONICAL_APPLICATION = re.compile(_GAP + _canonical(_APPLICATION, ""))
_CANONICAL_ENTITY = re.compile(_canonical(_ENTITY, "  ") + "  \\}\n")
_CANONICAL_END = re.compile(_GAP + r"(?:\#[^\n]*)?")
_QUOTED_ITEM = re.compile(_QUOTED)
_COUNTS = {None: Count(1), "many": Count.MANY}


def _read_canonical(text: str) -> tuple[Corpus, list[Diagnostic]] | None:
    """``text`` read if it is canonical and has no finding, else None.  The checks
    are the token parser's, unlocated: on a finding it reads the text again."""
    check, where, applications, pos = InvariantChecker(), "", [], 0
    try:
        while (match := _CANONICAL_APPLICATION.match(text, pos)) is not None:
            name, app_id, year, genre, subgenre, refs = match.groups()
            check.app_id(where, app_id := int(app_id))
            entities, pos = [], match.end()
            while (match := _CANONICAL_ENTITY.match(text, pos)) is not None:
                entity, what, how, count, note = match.groups()
                check.name(where, entity := _unescape(entity))
                count = _COUNTS[count] if count in _COUNTS else Count(int(count))
                check.count(where, count.value)
                role, tangibility = _ROLES[what], _TANGIBILITIES[how]
                entities.append(Entity(entity, role, tangibility, count, _unescape(note)))
                pos = match.end()
            if not text.startswith("}\n", pos):
                return None
            pos += 2
            check.name(where, name := _unescape(name), unique=True)
            check.entity_records(where, len(entities))
            check.count_total(where, entities)
            refs = tuple(map(_unescape, _QUOTED_ITEM.findall(refs or "")))
            fields = year and int(year), _unescape(genre), _unescape(subgenre), refs
            applications.append(Application(app_id, name, *fields, tuple(entities)))
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None
    if check.findings or _CANONICAL_END.fullmatch(text, pos) is None:
        return None
    return Corpus(tuple(applications)), []


def _text(text: str) -> str:
    """``text`` as both readers read it: one leading byte order mark dropped, "\\r\\n"
    and a lone "\\r" read as "\\n".  A lone surrogate, which no UTF-8 output can hold
    (a byte that is not UTF-8 decodes to one), is refused at its line and column."""
    text = text.removeprefix("\ufeff")
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    bad = first_surrogate(text)
    if bad is not None:
        span = SourceSpan(text.count("\n", 0, bad) + 1, bad - text.rfind("\n", 0, bad))
        raise _ParseError("input is not valid UTF-8", span)
    return text


def _all_or_nothing(corpus: Corpus, check: InvariantChecker) -> tuple[Corpus, list[Diagnostic]]:
    return (Corpus() if check.errors else corpus), check.findings


def parse_corpus(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Parse annotation text.

    Returns the corpus and all diagnostics.  If anything is an error the
    returned corpus is empty: a corpus either loads whole or not at all.
    Warnings (unknown keys, entity-less applications) do not block loading.
    """
    try:
        text = _text(text)
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    # The token parser reads a text with and without its final newline alike.
    return _read_canonical(text + "\n") or _parse_tokens(text)


def _parse_tokens(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Read any text, and report every finding at its location."""
    try:
        parser = _Parser(_lex(text))
        corpus = parser.parse()
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    return _all_or_nothing(corpus, parser.check)


def _quote(value: str) -> str:
    if "\n" in value or "\r" in value:
        raise ValueError(f"string {value!r} contains a line break; not representable")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_corpus(corpus: Corpus) -> str:
    """Write the canonical text form.  Empty corpus serializes to ''."""
    blocks: list[str] = []
    for app in corpus.applications:
        lines = [f"application {_quote(app.name)} {{"]
        lines.append(f"  id: {app.id}")
        if app.year is not None:
            lines.append(f"  year: {app.year}")
        if app.genre is not None:
            lines.append(f"  genre: {_quote(app.genre)}")
        if app.subgenre is not None:
            lines.append(f"  subgenre: {_quote(app.subgenre)}")
        if app.refs:
            lines.append("  refs: [" + ", ".join(_quote(r) for r in app.refs) + "]")
        for entity in app.entities:
            lines.append(f"  entity {_quote(entity.name)} {{")
            lines.append(f"    what: {entity.role.value}")
            lines.append(f"    how: {entity.tangibility.value}")
            if entity.count != Count(1):
                lines.append(f"    count: {entity.count}")
            if entity.note is not None:
                lines.append(f"    note: {_quote(entity.note)}")
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def export_json(corpus: Corpus) -> str:
    """Render the corpus as one JSON object, compact and deterministic."""
    applications = []
    for app in corpus.applications:
        record: dict[str, Any] = {"id": app.id, "name": app.name}
        if app.year is not None:
            record["year"] = app.year
        if app.genre is not None:
            record["genre"] = app.genre
        if app.subgenre is not None:
            record["subgenre"] = app.subgenre
        record["refs"] = list(app.refs)
        record["entities"] = [
            {
                "name": e.name,
                "what": e.role.value,
                "how": e.tangibility.value,
                "count": e.count.to_json(),
                **({"note": e.note} if e.note is not None else {}),
            }
            for e in app.entities
        ]
        applications.append(record)
    return json.dumps({"applications": applications}, separators=(",", ":"), ensure_ascii=False)


# JSON holds the names as fields, and an application's entities as an array.
_APPLICATION_KEYS = frozenset({"name", *_APPLICATION.fields, "entities"})
_ENTITY_KEYS = frozenset({"name", *_ENTITY.fields})
# The JSON type of each key read by type (_field reads no other).  json.loads
# makes no subclasses, so an exact type test is is_integer's (bool is not int).
_FIELD_TYPES = {"name": str, **_APPLICATION.fields, **_ENTITY.fields}


class _JsonReader:
    def __init__(self) -> None:
        self.check = InvariantChecker()

    def read(self, data: Any) -> Corpus:
        if not isinstance(data, dict):
            self.check.error("top level must be an object")
            return Corpus()
        for key in data:
            if key != "applications":
                self.check.warning(f"unknown key {key!r} at top level")
        apps_node = data.get("applications")
        if not isinstance(apps_node, list):
            self.check.error("'applications' must be an array")
            return Corpus()
        applications = []
        for index, node in enumerate(apps_node):
            applications.append(self._read_application(node, f"applications[{index}]"))
        return Corpus(tuple(filter(None, applications)))

    def _object(self, node: Any, ctx: str, known: frozenset[str]) -> bool:
        """Whether ``node`` is an object; each key it has outside ``known`` draws a warning."""
        if not isinstance(node, dict):
            self.check.error(f"{ctx}: must be an object")
            return False
        for key in node:
            if key not in known:
                self.check.warning(f"{ctx}: unknown key {key!r}")
        return True

    def _field(self, node: dict, ctx: str, key: str, required: bool = False) -> Any:
        """``node[key]`` or None; an error unless of the key's type or, if optional, None."""
        value = node.get(key)
        json_type = _FIELD_TYPES[key]
        if type(value) is not json_type and (required or value is not None):
            noun = "an integer" if json_type is int else "a string"
            self.check.error(f"{ctx}: {key} must be {noun}")
        return value

    def _read_application(self, node: Any, ctx: str) -> Application | None:
        if not self._object(node, ctx, _APPLICATION_KEYS):
            return None
        errors = self.check.errors

        app_id = self._field(node, ctx, "id", required=True)
        self.check.app_id(ctx, app_id)

        name = self._field(node, ctx, "name", required=True)
        self.check.name(ctx, name, unique=True)
        self.check.one_line(ctx, "name", name)

        year = self._field(node, ctx, "year")
        self.check.year(ctx, year)

        genre = self._field(node, ctx, "genre")
        subgenre = self._field(node, ctx, "subgenre")
        self.check.one_line(ctx, "genre", genre)
        self.check.one_line(ctx, "subgenre", subgenre)

        refs = node.get("refs", [])
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            self.check.error(f"{ctx}: refs must be an array of strings")
        else:
            for index, ref in enumerate(refs):
                self.check.one_line(ctx, f"refs[{index}]", ref)

        entities_node = node.get("entities", [])
        entities = []
        if not isinstance(entities_node, list):
            self.check.error(f"{ctx}: entities must be an array")
        else:
            for index, entity_node in enumerate(entities_node):
                entities.append(self._read_entity(entity_node, f"{ctx}.entities[{index}]"))

        if self.check.errors > errors:  # each entity read as None counted one
            return None
        self.check.entity_records(ctx, len(entities))
        self.check.count_total(ctx, entities)
        return Application(app_id, name, year, genre, subgenre, tuple(refs), tuple(entities))

    def _read_entity(self, node: Any, ctx: str) -> Entity | None:
        if not self._object(node, ctx, _ENTITY_KEYS):
            return None
        errors = self.check.errors

        name = self._field(node, ctx, "name", required=True)
        self.check.name(ctx, name)
        self.check.one_line(ctx, "name", name)

        what, how = node.get("what"), node.get("how")
        role = _ROLES.get(what) if isinstance(what, str) else None
        if role is None:
            self.check.error(f"{ctx}: unknown role {what!r}")
        tangibility = _TANGIBILITIES.get(how) if isinstance(how, str) else None
        if tangibility is None:
            self.check.error(f"{ctx}: unknown tangibility {how!r}")

        count_node = node.get("count", 1)
        if count_node != "many" and not is_integer(count_node):
            self.check.error(f"{ctx}: count must be a positive integer or 'many'")
        self.check.count(ctx, count_node)

        note = self._field(node, ctx, "note")
        self.check.one_line(ctx, "note", note)

        if self.check.errors > errors:
            return None
        count = Count.MANY if count_node == "many" else Count(count_node)
        return Entity(name=name, role=role, tangibility=tangibility, count=count, note=note)


def import_json(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Read the JSON interchange form.  Same all-or-nothing contract as parse_corpus."""
    reader = _JsonReader()
    try:
        corpus = reader.read(json.loads(_text(text)))
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    except json.JSONDecodeError as exc:
        span = SourceSpan(exc.lineno, exc.colno)
        return Corpus(), [Diagnostic.error(f"invalid JSON: {exc.msg}", span)]
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return Corpus(), [Diagnostic.error(f"invalid JSON: {_too_long()}")]
    except RecursionError:  # too deep to read, or to print in a message
        return Corpus(), [Diagnostic.error("invalid JSON: nested too deeply")]
    return _all_or_nothing(corpus, reader.check)


def _read(data: bytes) -> tuple[Corpus, list[Diagnostic]]:
    """Read UTF-8 bytes, decoded with "surrogateescape": JSON interchange if the
    text starts with "{" or "[", the annotation format otherwise."""
    text = data.decode("utf-8", "surrogateescape")
    is_json = text.removeprefix("\ufeff").lstrip().startswith(("{", "["))
    return import_json(text) if is_json else parse_corpus(text)
