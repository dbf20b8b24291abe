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
over it; the JSON reader takes its known keys, and the type each of its
type errors names, from it.  The writers, `serialize_corpus` and
`export_json`, keep their own field order and defaults: a walk over the
table, tried, saved one line and made both roughly 1.7 times slower at 500
applications.  `export_json` builds no dict tree: it writes each application
as one string, with the escaping and number forms of `json.dumps`.

Both readers report in input order: each invariant of `model` is checked
where its value is read, except that the entity-less warning, the count
total, and in text the application name (which comes before the id), wait
for the application to close.

`serialize_corpus` writes the canonical form shown above: two-space
indentation, fields in the order id, year, genre, subgenre, refs, entities,
defaults omitted.  Parsing the canonical form reproduces the corpus
exactly.  Text is read once: its leading canonical applications in which no
finding falls, with blank and `#` comment lines between them, are read by
one regex match per block (`_read_canonical`, its patterns built from the
field table), and the token parser (`_parse_tokens`), the only source of
text diagnostics, reads on from the first other block with the ids and
names read so far.  JSON, a one-object schema for interchange with other
tooling, is parsed by one `json.loads`.  A corpus in which the located read
(`_JsonReader`) would record no finding, in a text with no \\n, \\r or \\u
escape, is then read lean (`_read_lean`): each field of every application
and entity is tested as one column, in C-level passes, and the records are
built only once every test holds.  Any other corpus is read located from the
same parsed data, so the checker and that read remain the only source of
JSON diagnostics.  In either format a repeated key keeps its last value and
draws a warning.  `_read` is the one entry for a
file, stdin or the bundled asset: it decodes UTF-8 bytes and reads text
starting with "{" or "[" as JSON.  Its two callers, the CLI's corpus
commands and `load_golden`, run under `_uncollected`, the one home of the
pause of the cyclic collector.
"""

from __future__ import annotations

import enum
import gc
import json
import re
import sys
from functools import wraps
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, TypeVar

from .model import (
    _COUNTS,
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
# Unrolled, so that a run of plain characters is one repeat, not one alternation each.
_STRING_BODY = r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*'
# One group per token kind, named after it (EOF: the end of the text), each after
# the blanks, line ends and comments it skips, and two errors: a string that never
# closes (ESCAPE: at the backslash of an escape it does not support) and any other
# character.  An identifier is \w+ (isalnum() or "_"); _lex wants isalpha() or "_" first.
_TOKEN = re.compile(
    r"""
    (?: [ \t\n]+ | \#[^\n]* )*
    (?: (?P<STRING> " """ + _STRING_BODY + r""" " )
    | (?P<UNTERMINATED> " """ + _STRING_BODY + r""" (?P<ESCAPE> \\ )? )
    | (?P<INTEGER> [0-9]+ )
    | (?P<IDENT> \w+ )
    | (?P<LBRACE> \{ ) | (?P<RBRACE> \} ) | (?P<LBRACKET> \[ ) | (?P<RBRACKET> \] )
    | (?P<COLON> : ) | (?P<COMMA> , )
    | (?P<EOF> \Z )
    | (?P<ERROR> . ) )
    """,
    re.VERBOSE,
)


def _unescape(body: str | None) -> str | None:
    """The value of a string whose body (between the quotes) is ``body``.  A body holds
    no bare quote, so once each ``\\\\`` is undone, every quote left is a ``\\"``."""
    return body.replace("\\\\", "\\").replace('\\"', '"') if body and "\\" in body else body


def _lex(text: str, start: int = 0) -> list[_Token]:
    tokens: list[_Token] = []  # from ``start`` on, placed as in a lex of the whole text
    line, line_start = text.count("\n", 0, start) + 1, text.rfind("\n", 0, start) + 1
    for match in _TOKEN.finditer(text, start):
        kind = match.lastgroup
        begin, raw = match.start(kind), match.group(kind)
        if skipped := text.count("\n", match.start(), begin):  # line ends before the token
            line, line_start = line + skipped, text.rfind("\n", 0, begin) + 1
        column = begin - line_start + 1
        if kind == "EOF":  # the first end: after trailing blanks, \Z matches once more
            tokens.append(_Token(_TokenKind.EOF, raw, None, line, column))
            return tokens
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
    raise AssertionError("_TOKEN matches the end of every text")


def _too_long() -> str:
    return f"integer longer than {sys.get_int_max_str_digits()} digits"


class _Parser:
    def __init__(self, tokens: list[_Token], check: InvariantChecker):
        self._tokens = tokens
        self._pos = 0
        self.check = check

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

    def parse(self, read: Iterable[Application]) -> Corpus:
        applications: list[Application | None] = list(read)
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
        return Entity(name, role, tangibility, values.get("count", _COUNTS[1]), values.get("note"))

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
            return _COUNTS[token.value]
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
# At most 18 digits: no integer or count total meets the digit limit (0 or at least 640).
_QUOTED = f'"({_STRING_BODY})"'
_QUOTED_LIST = f'\\[("{_STRING_BODY}"(?:, "{_STRING_BODY}")*)\\]'
_COUNT_TEXT = "([1-9][0-9]{0,17}|many)"
_VALUE_PATTERNS = {int: "([0-9]{1,18})", str: _QUOTED, "_refs": _QUOTED_LIST, "_count": _COUNT_TEXT}
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
_QUOTED_ITEM = re.compile(_QUOTED)
_NAME = attrgetter("name")


def _read_canonical(text: str) -> tuple[list[Application], int, InvariantChecker]:
    """The leading canonical applications of ``text`` in which the token parser would
    record no finding; the offset after them, a line start; and a checker whose
    sets of seen ids and names, the one record of them, hold theirs."""
    check, applications, pos = InvariantChecker(), [], 0
    ids, names = check._ids, check._names
    while (match := _CANONICAL_APPLICATION.match(text, pos)) is not None:
        name, app_id, year, genre, subgenre, refs = match.groups()
        entities, end = [], match.end()
        while (match := _CANONICAL_ENTITY.match(text, end)) is not None:
            entity, what, how, count, note = match.groups()
            count = _COUNTS["many" if count == "many" else int(count or 1)]
            entity, note = _unescape(entity), _unescape(note)
            entities.append(Entity(entity, _ROLES[what], _TANGIBILITIES[how], count, note))
            end = match.end()
        name, app_id = _unescape(name), int(app_id)
        folded = name.strip().casefold()
        # The token parser's findings; as no code point casefolds to "", strip() tests entity names.
        if (
            not entities or app_id == 0 or app_id in ids or not folded or folded in names
            or not text.startswith("}\n", end) or not all(map(str.strip, map(_NAME, entities)))
        ):
            break
        ids.add(app_id)
        names.add(folded)
        refs = tuple(map(_unescape, _QUOTED_ITEM.findall(refs or "")))
        fields = year and int(year), _unescape(genre), _unescape(subgenre), refs
        applications.append(Application(app_id, name, *fields, tuple(entities)))
        pos = end + 2
    return applications, pos, check


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
    # The token parser reads on where the canonical reader stops; only a text without a
    # final newline is copied to end with one.
    return _parse_tokens(text, *_read_canonical(text if text.endswith("\n") else text + "\n"))


def _parse_tokens(
    text: str, read: Iterable[Application] = (), start: int = 0,
    check: InvariantChecker | None = None,
) -> tuple[Corpus, list[Diagnostic]]:
    """Read any text from the line start ``start`` on, after ``read``; locate every finding."""
    try:
        parser = _Parser(_lex(text, start), check or InvariantChecker())
        corpus = parser.parse(read)
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    return _all_or_nothing(corpus, parser.check)


def _quote(value: str) -> str:
    if "\n" in value or "\r" in value:
        raise ValueError(f"string {value!r} contains a line break; not representable")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The writers' tables: each term's text, and each entity's what: and how: lines.
_TERM_VALUES = {term: term.value for term in (*Role, *Tangibility)}
_WHAT_LINES = {role: f"    what: {role.value}" for role in Role}
_HOW_LINES = {tang: f"    how: {tang.value}" for tang in Tangibility}


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
            lines.append(_WHAT_LINES[entity.role])
            lines.append(_HOW_LINES[entity.tangibility])
            if entity.count.value != 1:
                lines.append(f"    count: {entity.count}")
            if entity.note is not None:
                lines.append(f"    note: {_quote(entity.note)}")
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# export_json writes each value as json.dumps does: an exact str or int inline, and
# anything else a library caller put in a record (True, 1999.0, an int name, a str or
# int subclass) through one json encoder.
_json_string = json.encoder.encode_basestring
_json_other = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
# The JSON text from what to the count's key, for every pair of terms _TERM_VALUES writes.
_JSON_TERMS = {
    (what, how): f',"what":"{_TERM_VALUES[what]}","how":"{_TERM_VALUES[how]}","count":'
    for what in _TERM_VALUES for how in _TERM_VALUES
}


def _json_str(value: Any) -> str:
    return _json_string(value) if type(value) is str else _json_other(value)


def _json_int(value: Any) -> str:
    return str(value) if type(value) is int else _json_other(value)


def export_json(corpus: Corpus) -> str:
    """Render the corpus as one JSON object, compact and deterministic: the text
    of ``json.dumps`` with compact separators, written one string per application."""
    applications = []
    for app in corpus.applications:
        year, genre, subgenre = app.year, app.genre, app.subgenre
        entities = [
            f'{{"name":{_json_str(e.name)}{_JSON_TERMS[e.role, e.tangibility]}'
            + ('"many"' if (count := e.count.value) is None else _json_int(count))
            + ("}" if e.note is None else f',"note":{_json_str(e.note)}}}')
            for e in app.entities
        ]
        applications.append(
            f'{{"id":{_json_int(app.id)},"name":{_json_str(app.name)}'
            + ("" if year is None else f',"year":{_json_int(year)}')
            + ("" if genre is None else f',"genre":{_json_str(genre)}')
            + ("" if subgenre is None else f',"subgenre":{_json_str(subgenre)}')
            + f',"refs":[{",".join(map(_json_str, app.refs))}]'
            + f',"entities":[{",".join(entities)}]}}'
        )
    return '{"applications":[' + ",".join(applications) + "]}"


# JSON holds the names as fields, and an application's entities as an array.
_APPLICATION_KEYS = frozenset({"name", *_APPLICATION.fields, "entities"})
_ENTITY_KEYS = frozenset({"name", *_ENTITY.fields})
# The JSON type of each key read by type, which _mistyped names.  json.loads makes
# no int or str subclass, so an exact type test is is_integer's (bool is not int).
_FIELD_TYPES = {"name": str, **_APPLICATION.fields, **_ENTITY.fields}
_INT_OR_NONE, _STR_OR_NONE = {int, type(None)}, {str, type(None)}  # an optional value's types
# Whether a JSON text holds a \n, \r or \u escape: only these can put a line
# break or a lone surrogate in a string, as json.loads refuses a raw line break
# and _text a raw lone surrogate.
_BREAK_ESCAPE = re.compile(r"\\[nru]").search


class _Repeats(dict):
    """A JSON object in which a key repeats; ``repeated`` holds the key of each repeat."""


def _object_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json.loads' object of ``pairs``: the last value of a repeated key wins, as
    without this hook, and an object with a repeated key is a _Repeats."""
    node = dict(pairs)
    if len(node) < len(pairs):
        node, seen = _Repeats(node), set()
        node.repeated = [key for key, _ in pairs if key in seen or seen.add(key)]
    return node


def _column(nodes: list[dict], key: str, default: Any = None) -> list[Any]:
    return list(map(dict.get, nodes, repeat(key), repeat(default)))


def _types(values: Iterable[Any]) -> set[type]:
    return set(map(type, values))


def _read_lean(data: Any) -> Corpus | None:
    """The corpus in ``data`` if the located read would record no finding in it, else
    None.  Each field of every application and entity is tested as one column, in
    C-level passes, and the records are built only once every test holds.  The
    caller has found no \\n, \\r or \\u escape in the text, so one_line holds."""
    if type(data) is not dict or data.keys() != {"applications"}:  # no _Repeats either
        return None
    apps = data["applications"]
    if type(apps) is not list or not _types(apps) <= {dict}:
        return None
    lists = _column(apps, "entities")
    if not (
        _types(lists) <= {list} and all(lists)
        and _types(entities := list(chain.from_iterable(lists))) <= {dict}
        and all(map(_APPLICATION_KEYS.issuperset, apps))
        and all(map(_ENTITY_KEYS.issuperset, entities))
    ):
        return None
    ids, names, years, genres, subgenres = (
        _column(apps, key) for key in ("id", "name", "year", "genre", "subgenre")
    )
    entity_names, whats, hows, notes = (
        _column(entities, key) for key in ("name", "what", "how", "note")
    )
    refs, counts = _column(apps, "refs", []), _column(entities, "count", 1)
    if not (
        _types(ids) <= {int} and min(ids, default=1) > 0 and len(set(ids)) == len(ids)
        and _types(chain(names, entity_names, whats, hows)) <= {str}
        and "" not in (folded := set(map(str.casefold, map(str.strip, names))))
        and len(folded) == len(names) and all(map(str.strip, entity_names))
        and set(whats) <= _ROLES.keys() and set(hows) <= _TANGIBILITIES.keys()
        and _types(years) <= _INT_OR_NONE and min(filter(None, years), default=0) >= 0
        and _types(chain(genres, subgenres, notes)) <= _STR_OR_NONE
        and _types(refs) <= {list} and _types(chain.from_iterable(refs)) <= {str}
        and _types(counts) <= {int, str}
        and _types(exact := set(counts) - {"many"}) <= {int} and min(exact, default=1) > 0
    ):
        return None
    # count_total's test, on a bound of every total: the largest count times the longest list.
    limit = sys.get_int_max_str_digits()
    bound = max(exact, default=0) * max(map(len, lists), default=0)
    if limit and bound.bit_length() > 3 * (limit - 1):
        return None
    records = map(
        Entity, entity_names, map(_ROLES.__getitem__, whats),
        map(_TANGIBILITIES.__getitem__, hows), map(_COUNTS.__getitem__, counts), notes,
    )
    grouped = map(tuple, map(islice, repeat(records), map(len, lists)))
    fields = ids, names, years, genres, subgenres, map(tuple, refs), grouped
    return Corpus(tuple(map(Application, *fields)))


class _JsonReader:
    """Reads the data json.loads made of ``text``: lean if no finding can occur
    in it, and otherwise each finding where it occurs."""

    def __init__(self, text: str) -> None:
        self.check = InvariantChecker()
        self._escaped = _BREAK_ESCAPE(text) is not None  # else one_line has nothing to find

    def read(self, data: Any) -> Corpus:
        lean = None if self._escaped else _read_lean(data)
        if lean is not None:
            return lean
        if not isinstance(data, dict):
            self.check.error("top level must be an object")
            return Corpus()
        for key in data:
            if key != "applications":
                self.check.warning(f"unknown key {key!r} at top level")
        for key in getattr(data, "repeated", ()):
            self.check.warning(f"duplicate key {key!r} at top level")
        apps_node = data.get("applications")
        if not isinstance(apps_node, list):
            self.check.error("'applications' must be an array")
            return Corpus()
        applications = []
        for index, node in enumerate(apps_node):
            applications.append(self._read_application(node, f"applications[{index}]"))
        return Corpus(tuple(filter(None, applications)))

    def _object(self, node: Any, ctx: str, known: frozenset[str]) -> bool:
        """Whether ``node`` is an object; each key it has outside ``known``, and each
        repeat of a key, draws a warning."""
        if not isinstance(node, dict):
            self.check.error(f"{ctx}: must be an object")
            return False
        for key in node:
            if key not in known:
                self.check.warning(f"{ctx}: unknown key {key!r}")
        for key in getattr(node, "repeated", ()):
            self.check.warning(f"{ctx}: duplicate key {key!r}")
        return True

    def _mistyped(self, ctx: str, key: str) -> None:
        noun = "an integer" if _FIELD_TYPES[key] is int else "a string"
        self.check.error(f"{ctx}: {key} must be {noun}")

    def _read_application(self, node: Any, ctx: str) -> Application | None:
        if not self._object(node, ctx, _APPLICATION_KEYS):
            return None
        check, escaped = self.check, self._escaped
        errors = check.errors
        app_id, name, year = node.get("id"), node.get("name"), node.get("year")
        genre, subgenre = node.get("genre"), node.get("subgenre")
        refs, entity_nodes = node.get("refs", []), node.get("entities", [])
        if type(app_id) is not int:
            self._mistyped(ctx, "id")
        check.app_id(ctx, app_id)
        if type(name) is not str:
            self._mistyped(ctx, "name")
        check.name(ctx, name, unique=True)
        if escaped:
            check.one_line(ctx, "name", name)
        if type(year) not in _INT_OR_NONE:
            self._mistyped(ctx, "year")
        check.year(ctx, year)
        if type(genre) not in _STR_OR_NONE:
            self._mistyped(ctx, "genre")
        if type(subgenre) not in _STR_OR_NONE:
            self._mistyped(ctx, "subgenre")
        if escaped:
            check.one_line(ctx, "genre", genre)
            check.one_line(ctx, "subgenre", subgenre)
        if type(refs) is not list or not all(type(ref) is str for ref in refs):
            check.error(f"{ctx}: refs must be an array of strings")
        elif escaped:
            for index, ref in enumerate(refs):
                check.one_line(ctx, f"refs[{index}]", ref)
        entities = []
        if type(entity_nodes) is not list:
            check.error(f"{ctx}: entities must be an array")
        else:
            for index, entity_node in enumerate(entity_nodes):
                entities.append(self._read_entity(entity_node, ctx, index))
        if check.errors > errors:  # each entity read as None counted one
            return None
        check.entity_records(ctx, len(entities))
        check.count_total(ctx, entities)
        return Application(app_id, name, year, genre, subgenre, tuple(refs), tuple(entities))

    def _read_entity(self, node: Any, ctx: str, index: int) -> Entity | None:
        ctx = f"{ctx}.entities[{index}]"
        if not self._object(node, ctx, _ENTITY_KEYS):
            return None
        check = self.check
        errors = check.errors
        name, what, how = node.get("name"), node.get("what"), node.get("how")
        count, note = node.get("count", 1), node.get("note")
        if type(name) is not str:
            self._mistyped(ctx, "name")
        check.name(ctx, name)
        if self._escaped:
            check.one_line(ctx, "name", name)
        role = _ROLES.get(what) if type(what) is str else None
        if role is None:
            check.error(f"{ctx}: unknown role {what!r}")
        tangibility = _TANGIBILITIES.get(how) if type(how) is str else None
        if tangibility is None:
            check.error(f"{ctx}: unknown tangibility {how!r}")
        if type(count) is not int and count != "many":
            check.error(f"{ctx}: count must be a positive integer or 'many'")
        check.count(ctx, count)
        if type(note) not in _STR_OR_NONE:
            self._mistyped(ctx, "note")
        if self._escaped:
            check.one_line(ctx, "note", note)
        if check.errors > errors:  # so Count is never built of a count that is not positive
            return None
        return Entity(name, role, tangibility, _COUNTS[count], note)


def import_json(text: str) -> tuple[Corpus, list[Diagnostic]]:
    """Read the JSON interchange form.  Same all-or-nothing contract as parse_corpus."""
    try:
        text = _text(text)
        reader = _JsonReader(text)
        corpus = reader.read(json.loads(text, object_pairs_hook=_object_pairs))
        return _all_or_nothing(corpus, reader.check)
    except _ParseError as exc:
        return Corpus(), [exc.diagnostic]
    except json.JSONDecodeError as exc:
        span = SourceSpan(exc.lineno, exc.colno)
        return Corpus(), [Diagnostic.error(f"invalid JSON: {exc.msg}", span)]
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return Corpus(), [Diagnostic.error(f"invalid JSON: {_too_long()}")]
    except RecursionError:  # too deep to read, or to print in a message
        return Corpus(), [Diagnostic.error("invalid JSON: nested too deeply")]


def _read(data: bytes) -> tuple[Corpus, list[Diagnostic]]:
    """Read UTF-8 bytes, decoded with "surrogateescape": JSON interchange if the
    text starts with "{" or "[", the annotation format otherwise."""
    text = data.decode("utf-8", "surrogateescape")
    is_json = text.removeprefix("\ufeff").lstrip().startswith(("{", "["))
    return import_json(text) if is_json else parse_corpus(text)


_T = TypeVar("_T")


def _uncollected(fn: Callable[..., _T]) -> Callable[..., _T]:
    """``fn`` with the cyclic collector paused while it runs, and left as it was
    found.  A corpus and the reports built from it hold no cycles: collecting
    while they are read or built would free nothing."""

    @wraps(fn)
    def paused(*args: Any) -> _T:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if collecting:
                gc.enable()

    return paused
