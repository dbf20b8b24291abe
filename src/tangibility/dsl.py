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

Strings are double-quoted; the only escapes are \\" and \\\\.  `what` and
`how` are mandatory per entity; `count` defaults to 1.  Unknown keys draw
warnings and are skipped, so the format can grow without breaking old
readers.  Any error leaves nothing half-loaded: `parse_corpus` then returns
an empty corpus alongside the diagnostics.

`serialize_corpus` writes the canonical form shown above: two-space
indentation, fields in the order id, year, genre, subgenre, refs, entities,
defaults omitted.  Parsing the canonical form reproduces the corpus
exactly.  The JSON functions carry the same data in a one-object schema for
interchange with other tooling.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any

from .model import (
    Application,
    Corpus,
    Count,
    Diagnostic,
    Entity,
    Role,
    SourceSpan,
    Tangibility,
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


@dataclass(frozen=True)
class _Token:
    kind: _TokenKind
    text: str
    value: Any
    span: SourceSpan

    def describe(self) -> str:
        if self.kind in (_TokenKind.STRING, _TokenKind.INTEGER, _TokenKind.IDENT):
            return f"{self.kind.value} {self.text!r}"
        return self.kind.value


class _ParseError(Exception):
    """Internal abort signal; carries the diagnostic to surface."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.diagnostic = Diagnostic.error(message, span)


_PUNCT = {
    "{": _TokenKind.LBRACE,
    "}": _TokenKind.RBRACE,
    "[": _TokenKind.LBRACKET,
    "]": _TokenKind.RBRACKET,
    ":": _TokenKind.COLON,
    ",": _TokenKind.COMMA,
}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col)
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, ch, span))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            pieces: list[str] = []
            while True:
                if j >= n or text[j] == "\n":
                    raise _ParseError("unterminated string", span)
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in ('"', "\\"):
                        found = text[j + 1] if j + 1 < n else "end of input"
                        raise _ParseError(
                            f"unsupported escape '\\{found}'",
                            SourceSpan(line, col + (j - i)),
                        )
                    pieces.append(text[j + 1])
                    j += 2
                    continue
                pieces.append(c)
                j += 1
            raw = text[i:j]
            tokens.append(_Token(_TokenKind.STRING, raw, "".join(pieces), span))
            col += j - i
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            raw = text[i:j]
            tokens.append(_Token(_TokenKind.INTEGER, raw, int(raw), span))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            raw = text[i:j]
            tokens.append(_Token(_TokenKind.IDENT, raw, raw, span))
            col += j - i
            i = j
            continue
        raise _ParseError(f"unexpected character {ch!r}", span)
    tokens.append(_Token(_TokenKind.EOF, "", None, SourceSpan(line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self.diagnostics: list[Diagnostic] = []
        self._ids: set[int] = set()
        self._names: set[str] = set()

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind is not _TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: _TokenKind, context: str) -> _Token:
        token = self._peek()
        if token.kind is not kind:
            raise _ParseError(
                f"expected {kind.value} {context}, found {token.describe()}", token.span
            )
        return self._advance()

    def _error(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic.error(message, span))

    def _warn(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic.warning(message, span))

    def parse(self) -> Corpus:
        applications: list[Application] = []
        while self._peek().kind is not _TokenKind.EOF:
            token = self._peek()
            if token.kind is _TokenKind.IDENT and token.value == "application":
                app = self._parse_application()
                if app is not None:
                    applications.append(app)
            else:
                raise _ParseError(
                    f"expected 'application', found {token.describe()}", token.span
                )
        return Corpus(tuple(applications))

    def _parse_application(self) -> Application | None:
        self._advance()  # 'application'
        name_token = self._expect(_TokenKind.STRING, "(application name)")
        name = name_token.value
        if not name.strip():
            self._error("application name must be non-empty", name_token.span)
        self._expect(_TokenKind.LBRACE, "to open the application block")

        seen_fields: set[str] = set()
        app_id: int | None = None
        year: int | None = None
        genre: str | None = None
        subgenre: str | None = None
        refs: tuple[str, ...] = ()
        entities: list[Entity] = []
        entity_blocks = 0

        while self._peek().kind not in (_TokenKind.RBRACE, _TokenKind.EOF):
            token = self._peek()
            if token.kind is not _TokenKind.IDENT:
                raise _ParseError(
                    f"expected a field or 'entity', found {token.describe()}", token.span
                )
            key = token.value
            if key == "entity":
                entity_blocks += 1
                entity = self._parse_entity()
                if entity is not None:
                    entities.append(entity)
                continue
            self._advance()
            self._expect(_TokenKind.COLON, f"after {key!r}")
            if key in seen_fields:
                self._warn(f"duplicate key {key!r}", token.span)
            if key in ("id", "year"):
                value_token = self._expect(_TokenKind.INTEGER, f"as the {key}")
                if key == "id":
                    app_id = value_token.value
                    if app_id < 1:
                        self._error("id must be positive", value_token.span)
                    elif app_id in self._ids:
                        self._error(f"duplicate application id {app_id}", value_token.span)
                    self._ids.add(app_id)
                else:
                    year = value_token.value
            elif key in ("genre", "subgenre"):
                value_token = self._expect(_TokenKind.STRING, f"as the {key}")
                if key == "genre":
                    genre = value_token.value
                else:
                    subgenre = value_token.value
            elif key == "refs":
                refs = self._parse_refs()
            else:
                self._warn(f"unknown key {key!r}", token.span)
                self._skip_value()
                continue
            seen_fields.add(key)

        self._expect(_TokenKind.RBRACE, "to close the application block")

        if app_id is None:
            self._error(f"application {name!r} has no id", name_token.span)
            return None
        folded = name.strip().casefold()
        if folded and folded in self._names:
            self._error(f"duplicate application name {name!r}", name_token.span)
        self._names.add(folded)
        if entity_blocks == 0:
            self._warn(f"application {app_id}: no entity records", name_token.span)
        return Application(
            id=app_id,
            name=name,
            year=year,
            genre=genre,
            subgenre=subgenre,
            refs=refs,
            entities=tuple(entities),
        )

    def _parse_refs(self) -> tuple[str, ...]:
        self._expect(_TokenKind.LBRACKET, "to open the refs list")
        refs: list[str] = []
        if self._peek().kind is _TokenKind.STRING:
            refs.append(self._advance().value)
            while self._peek().kind is _TokenKind.COMMA:
                self._advance()
                refs.append(self._expect(_TokenKind.STRING, "after ','").value)
        self._expect(_TokenKind.RBRACKET, "to close the refs list")
        return tuple(refs)

    def _parse_entity(self) -> Entity | None:
        self._advance()  # 'entity'
        name_token = self._expect(_TokenKind.STRING, "(entity name)")
        name = name_token.value
        if not name.strip():
            self._error("entity name must be non-empty", name_token.span)
        self._expect(_TokenKind.LBRACE, "to open the entity block")

        seen_fields: set[str] = set()
        role: Role | None = None
        tangibility: Tangibility | None = None
        count = Count(1)
        note: str | None = None
        broken = False

        while self._peek().kind not in (_TokenKind.RBRACE, _TokenKind.EOF):
            token = self._peek()
            if token.kind is not _TokenKind.IDENT:
                raise _ParseError(
                    f"expected an entity field, found {token.describe()}", token.span
                )
            key = token.value
            self._advance()
            self._expect(_TokenKind.COLON, f"after {key!r}")
            if key in seen_fields:
                self._warn(f"duplicate key {key!r}", token.span)
            if key == "what":
                value_token = self._expect(_TokenKind.IDENT, "naming a role")
                role = _ROLES.get(value_token.value)
                if role is None:
                    self._error(f"unknown role {value_token.value!r}", value_token.span)
                    broken = True
            elif key == "how":
                value_token = self._expect(_TokenKind.IDENT, "naming a tangibility")
                tangibility = _TANGIBILITIES.get(value_token.value)
                if tangibility is None:
                    self._error(
                        f"unknown tangibility {value_token.value!r}", value_token.span
                    )
                    broken = True
            elif key == "count":
                value_token = self._peek()
                if value_token.kind is _TokenKind.INTEGER:
                    self._advance()
                    if value_token.value < 1:
                        self._error("count must be positive", value_token.span)
                        broken = True
                    else:
                        count = Count(value_token.value)
                elif (
                    value_token.kind is _TokenKind.IDENT and value_token.value == "many"
                ):
                    self._advance()
                    count = Count.MANY
                else:
                    raise _ParseError(
                        f"expected an integer or 'many' as the count, "
                        f"found {value_token.describe()}",
                        value_token.span,
                    )
            elif key == "note":
                note = self._expect(_TokenKind.STRING, "as the note").value
            else:
                self._warn(f"unknown key {key!r}", token.span)
                self._skip_value()
                continue
            seen_fields.add(key)

        self._expect(_TokenKind.RBRACE, "to close the entity block")

        if role is None and "what" not in seen_fields:
            self._error(f"entity {name!r} is missing 'what'", name_token.span)
        if tangibility is None and "how" not in seen_fields:
            self._error(f"entity {name!r} is missing 'how'", name_token.span)
        if role is None or tangibility is None or broken:
            return None
        return Entity(name=name, role=role, tangibility=tangibility, count=count, note=note)

    def _skip_value(self) -> None:
        token = self._peek()
        if token.kind is _TokenKind.LBRACKET:
            self._advance()
            while self._peek().kind not in (_TokenKind.RBRACKET, _TokenKind.EOF):
                self._advance()
            self._expect(_TokenKind.RBRACKET, "to close the list")
        elif token.kind in (_TokenKind.STRING, _TokenKind.INTEGER, _TokenKind.IDENT):
            self._advance()
        else:
            raise _ParseError(f"expected a value, found {token.describe()}", token.span)


def parse_corpus(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Parse annotation text.

    Returns the corpus and all diagnostics.  If anything is an error the
    returned corpus is empty: a corpus either loads whole or not at all.
    Warnings (unknown keys, entity-less applications) do not block loading.
    """
    try:
        parser = _Parser(_lex(text))
        corpus = parser.parse()
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    if any(d.is_error for d in parser.diagnostics):
        return Corpus(), parser.diagnostics
    return corpus, parser.diagnostics


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


class _JsonReader:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self._ids: set[int] = set()
        self._names: set[str] = set()

    def error(self, message: str) -> None:
        self.diagnostics.append(Diagnostic.error(message))

    def warn(self, message: str) -> None:
        self.diagnostics.append(Diagnostic.warning(message))

    def read(self, data: Any) -> Corpus:
        if not isinstance(data, dict):
            self.error("top level must be an object")
            return Corpus()
        for key in data:
            if key != "applications":
                self.warn(f"unknown key {key!r} at top level")
        apps_node = data.get("applications")
        if not isinstance(apps_node, list):
            self.error("'applications' must be an array")
            return Corpus()
        applications = []
        for index, node in enumerate(apps_node):
            app = self._read_application(node, f"applications[{index}]")
            if app is not None:
                applications.append(app)
        return Corpus(tuple(applications))

    def _read_application(self, node: Any, ctx: str) -> Application | None:
        if not isinstance(node, dict):
            self.error(f"{ctx}: must be an object")
            return None
        known = {"id", "name", "year", "genre", "subgenre", "refs", "entities"}
        for key in node:
            if key not in known:
                self.warn(f"{ctx}: unknown key {key!r}")
        ok = True

        app_id = node.get("id")
        if not isinstance(app_id, int) or isinstance(app_id, bool):
            self.error(f"{ctx}: id must be an integer")
            ok = False
        elif app_id < 1:
            self.error(f"{ctx}: id must be positive")
            ok = False
        elif app_id in self._ids:
            self.error(f"{ctx}: duplicate application id {app_id}")
            ok = False
        else:
            self._ids.add(app_id)

        name = node.get("name")
        if not isinstance(name, str) or not name.strip():
            self.error(f"{ctx}: name must be a non-empty string")
            ok = False
        else:
            folded = name.strip().casefold()
            if folded in self._names:
                self.error(f"{ctx}: duplicate application name {name!r}")
                ok = False
            self._names.add(folded)

        year = node.get("year")
        if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
            self.error(f"{ctx}: year must be an integer")
            ok = False

        genre = node.get("genre")
        if genre is not None and not isinstance(genre, str):
            self.error(f"{ctx}: genre must be a string")
            ok = False
        subgenre = node.get("subgenre")
        if subgenre is not None and not isinstance(subgenre, str):
            self.error(f"{ctx}: subgenre must be a string")
            ok = False

        refs_node = node.get("refs", [])
        refs: tuple[str, ...] = ()
        if not isinstance(refs_node, list) or not all(isinstance(r, str) for r in refs_node):
            self.error(f"{ctx}: refs must be an array of strings")
            ok = False
        else:
            refs = tuple(refs_node)

        entities_node = node.get("entities", [])
        entities = []
        if not isinstance(entities_node, list):
            self.error(f"{ctx}: entities must be an array")
            ok = False
        else:
            for index, entity_node in enumerate(entities_node):
                entity = self._read_entity(entity_node, f"{ctx}.entities[{index}]")
                if entity is None:
                    ok = False
                else:
                    entities.append(entity)

        if not ok:
            return None
        if not entities:
            self.warn(f"{ctx}: no entity records")
        return Application(
            id=app_id,
            name=name,
            year=year,
            genre=genre,
            subgenre=subgenre,
            refs=refs,
            entities=tuple(entities),
        )

    def _read_entity(self, node: Any, ctx: str) -> Entity | None:
        if not isinstance(node, dict):
            self.error(f"{ctx}: must be an object")
            return None
        known = {"name", "what", "how", "count", "note"}
        for key in node:
            if key not in known:
                self.warn(f"{ctx}: unknown key {key!r}")
        ok = True

        name = node.get("name")
        if not isinstance(name, str) or not name.strip():
            self.error(f"{ctx}: name must be a non-empty string")
            ok = False

        what_node = node.get("what")
        role = _ROLES.get(what_node) if isinstance(what_node, str) else None
        if role is None:
            self.error(f"{ctx}: unknown role {what_node!r}")
            ok = False
        how_node = node.get("how")
        tangibility = _TANGIBILITIES.get(how_node) if isinstance(how_node, str) else None
        if tangibility is None:
            self.error(f"{ctx}: unknown tangibility {how_node!r}")
            ok = False

        count_node = node.get("count", 1)
        count = Count(1)
        if count_node == "many":
            count = Count.MANY
        elif isinstance(count_node, int) and not isinstance(count_node, bool):
            if count_node < 1:
                self.error(f"{ctx}: count must be positive")
                ok = False
            else:
                count = Count(count_node)
        else:
            self.error(f"{ctx}: count must be a positive integer or 'many'")
            ok = False

        note = node.get("note")
        if note is not None and not isinstance(note, str):
            self.error(f"{ctx}: note must be a string")
            ok = False

        if not ok:
            return None
        return Entity(name=name, role=role, tangibility=tangibility, count=count, note=note)


def import_json(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Read the JSON interchange form.  Same all-or-nothing contract as parse_corpus."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        span = SourceSpan(exc.lineno, exc.colno)
        return Corpus(), [Diagnostic.error(f"invalid JSON: {exc.msg}", span)]
    reader = _JsonReader()
    corpus = reader.read(data)
    if any(d.is_error for d in reader.diagnostics):
        return Corpus(), reader.diagnostics
    return corpus, reader.diagnostics
