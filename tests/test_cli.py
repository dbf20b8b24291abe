"""End-to-end command-line behavior: outputs, diagnostics, exit codes."""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tangibility
from tangibility import cli, golden
from tangibility.cli import main

GOOD = """\
application "Demo" {
  id: 1
  genre: "G"
  subgenre: "S"
  entity "thing" { what: datum how: tangible }
}
"""
ID_ZERO = GOOD.replace("id: 1", "id: 0")  # an error at 2:7
NO_ENTITIES = 'application "Demo" {\n  id: 1\n}\n'  # a warning, and a report

BROKEN = """\
application "Demo" {
  id: 1
  entity "thing" {
    what: gizmo
    how: tangible
  }
}
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.corpus"
    path.write_text(GOOD, encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.corpus"
    path.write_text(BROKEN, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_clean_corpus(self, good_file, capsys):
        assert main(["validate", good_file]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_errors_go_to_stderr_with_positions(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{broken_file}:4:11: error: unknown role 'gizmo'\n"

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        path = tmp_path / "warn.corpus"
        path.write_text('application "A" { id: 1 }', encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "warning: application 1: no entity records" in capsys.readouterr().err

    def test_golden(self, capsys):
        assert main(["validate", "--golden"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.corpus")]) == 1
        err = capsys.readouterr().err
        assert "nope.corpus" in err and "error" in err

    def test_input_and_golden_conflict(self, good_file, capsys):
        assert main(["validate", good_file, "--golden"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_no_input(self, capsys):
        assert main(["validate"]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify"], "an input path (or --golden) is required"),
            (["classify", "-", "--golden"], "give an input path or --golden, not both"),
            (["classify", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        ],
    )
    def test_usage_errors_carry_the_commands_usage(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        usage = "usage: tangibility classify [-h] [--golden] [--format {text,csv,json}] [input]\n"
        assert (out, err[: len(usage)]) == ("", usage)
        assert err[len(usage) :].startswith(f"tangibility classify: error: {message}")

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(GOOD.encode())))
        assert main(["validate", "-"]) == 0
        assert capsys.readouterr().err == ""

    def test_stdin_error_label(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BROKEN.encode())))
        assert main(["validate", "-"]) == 1
        assert capsys.readouterr().err.startswith("<stdin>:4:11: error:")

    def test_json_input_autodetected(self, tmp_path, monkeypatch, capsys):
        assert main(["export", "--golden", "--format", "json"]) == 0
        exported = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(exported.encode())))
        assert main(["validate", "-"]) == 0
        assert capsys.readouterr().err == ""

    def test_top_level_array_goes_to_the_json_reader(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b'[{"id":1}]')))
        assert main(["validate", "-"]) == 1
        assert capsys.readouterr() == ("", "<stdin>: error: top level must be an object\n")


class TestClassify:
    def test_text(self, good_file, capsys):
        assert main(["classify", good_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["id", "name", "class", "reason"]
        assert "Demo" in out and " I" in out

    def test_golden_csv(self, capsys):
        assert main(["classify", "--golden", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("id,name,datible,")
        assert lines[0].endswith(",class")
        assert "20,TUISTER,0,0,0,0,0,0,1,0,0,0,0,0,IV" in lines

    def test_golden_json(self, capsys):
        assert main(["classify", "--golden", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["applications"]) == 33

    def test_dot_is_not_offered(self, capsys):
        assert main(["classify", "--golden", "--format", "dot"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_broken_corpus(self, broken_file, capsys):
        assert main(["classify", broken_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown role" in captured.err


class TestHallmark:
    def test_golden_text(self, capsys):
        assert main(["hallmark", "--golden"]) == 0
        out = capsys.readouterr().out
        assert "(2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0)" in out
        assert "(N, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)" in out

    def test_csv_many(self, capsys):
        assert main(["hallmark", "--golden", "--format", "csv"]) == 0
        assert "9,Pinwheels,many,0," in capsys.readouterr().out


class TestAnalyze:
    def test_golden_text(self, capsys):
        assert main(["analyze", "--golden"]) == 0
        out = capsys.readouterr().out
        assert "distinct hallmarks: 29" in out
        assert "distinct binary hallmarks: 27" in out
        assert "cross-tab by genre:" in out

    def test_subgenre_key(self, capsys):
        assert main(["analyze", "--golden", "--key", "subgenre"]) == 0
        assert "cross-tab by subgenre:" in capsys.readouterr().out

    def test_l1_on_golden_fails(self, capsys):
        assert main(["analyze", "--golden", "--metric", "l1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "<golden>: error: symbolic count 'many' in application 9; "
            "L1 distance is undefined\n"
        )

    def test_l1_on_exact_corpus(self, good_file, capsys):
        assert main(["analyze", good_file, "--metric", "l1"]) == 0
        assert "distance matrix (l1):" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["analyze", "--golden", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph corpus {")
        assert '"Pinwheels" -> "Class I";' in out

    def test_csv_deterministic(self, capsys):
        assert main(["analyze", "--golden", "--format", "csv"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--golden", "--format", "csv"]) == 0
        assert capsys.readouterr().out == first


class TestCluster:
    def test_golden(self, capsys):
        assert main(["cluster", "--golden"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "distinct hallmarks: 29"
        assert ": 20, 24, 31, 33" in out

    def test_golden_binary(self, capsys):
        assert main(["cluster", "--golden", "--binary"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "distinct binary hallmarks: 27"
        assert ": 2, 10, 19" in out
        assert ": 9, 29" in out

    MANY = "(N, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)"
    BINARY = "(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)"

    @pytest.mark.parametrize("command, keys", [("cluster", [MANY]), ("analyze", [MANY, BINARY])])
    def test_csv_cluster_key_prints_as_in_text(self, command, keys, tmp_path, capsys):
        # A component cell prints "many"; a cluster's key is one cell, in text form.
        entity = 'entity "e" { what: datum how: tangible count: many }'
        path = tmp_path / "many.corpus"
        path.write_text(
            "".join(f'application "{n}" {{ id: {i} {entity} }}\n' for i, n in ((1, "A"), (2, "B"))),
            encoding="utf-8",
        )
        assert main([command, str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for key in keys:
            assert f'"{key}",1 2' in lines


class TestTerm:
    def test_known(self, capsys):
        assert main(["term", "tolnible"]) == 0
        assert capsys.readouterr().out == (
            'tolnible = tool × intangible ("Tool is intangible")\n'
        )

    def test_case_insensitive(self, capsys):
        assert main(["term", "DATIBLE"]) == 0
        assert capsys.readouterr().out.startswith("datible = datum × tangible")

    def test_unknown(self, capsys):
        assert main(["term", "phicon"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown term 'phicon'")


class TestExport:
    def test_canonical_text(self, tmp_path, capsys):
        messy = 'application   "A"{id:1 entity "e"{what:datum how:tangible count:2}}'
        path = tmp_path / "messy.corpus"
        path.write_text(messy, encoding="utf-8")
        assert main(["export", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == (
            'application "A" {\n'
            "  id: 1\n"
            '  entity "e" {\n'
            "    what: datum\n"
            "    how: tangible\n"
            "    count: 2\n"
            "  }\n"
            "}\n"
        )

    def test_json_round_trip(self, capsys, monkeypatch):
        assert main(["export", "--golden", "--format", "json"]) == 0
        exported = capsys.readouterr().out
        assert exported.endswith("\n")
        payload = json.loads(exported)
        assert len(payload["applications"]) == 33
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(exported.encode())))
        assert main(["export", "-", "--format", "json"]) == 0
        assert capsys.readouterr().out == exported

    def test_golden_text_round_trip(self, tmp_path, capsys):
        assert main(["export", "--golden"]) == 0
        first = capsys.readouterr().out
        path = tmp_path / "copy.corpus"
        path.write_text(first, encoding="utf-8")
        assert main(["export", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_refusal_is_one_error_line(self, monkeypatch, capsys):
        def refuse(corpus):
            raise ValueError("string 'a\nb' contains a line break; not representable")

        monkeypatch.setattr(cli, "serialize_corpus", refuse)
        assert main(["export", "--golden"]) == 1
        assert capsys.readouterr() == (
            "",
            "<golden>: error: string 'a\nb' contains a line break; not representable\n",
        )


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_is_written_like_any_output(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr() == (cli._build_parser().format_help(), "")


# The --format values each corpus command takes; validate takes none.
FORMATS = {
    "validate": (),
    "classify": ("text", "csv", "json"),
    "hallmark": ("text", "csv", "json"),
    "analyze": ("text", "csv", "json", "dot"),
    "cluster": ("text", "csv", "json"),
    "export": ("text", "json"),
}

# The command surface, argv -> exit code: every command with each format it
# takes, and formats and options outside their own command, which are usage
# errors.
SURFACE = {
    "validate --golden": 0,
    **{f"{cmd} --golden --format {fmt}": 0 for cmd, fmts in FORMATS.items() for fmt in fmts},
    "term tolnible": 0,
    "export --golden --format csv": 2,
    "validate --golden --format text": 2,
    "analyze --golden --format xml": 2,
    "hallmark --golden --binary": 2,
    "cluster --golden --key genre": 2,
    "classify --golden --metric l1": 2,
    "term tolnible --golden": 2,
    "term": 2,
}


@pytest.mark.parametrize("argv", SURFACE)
def test_command_surface(argv, capsys):
    code = SURFACE[argv]
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and (out == "") is argv.startswith("validate")
    else:
        assert out == "" and "error:" in err


@pytest.mark.parametrize(
    "short, explicit",
    [
        ("classify --golden", "classify --golden --format text"),
        ("hallmark --golden", "hallmark --golden --format text"),
        ("analyze --golden", "analyze --golden --format text --key genre --metric hamming"),
        ("cluster --golden", "cluster --golden --format text"),
        ("export --golden", "export --golden --format text"),
    ],
)
def test_option_defaults(short, explicit, capsys):
    assert main(short.split()) == 0
    default = capsys.readouterr()
    assert main(explicit.split()) == 0
    assert capsys.readouterr() == default


class TestInputEncoding:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_dropped(self, fmt, source, tmp_path, monkeypatch, capsys):
        assert main(["export", "--golden", "--format", fmt]) == 0
        canonical = capsys.readouterr().out
        if source == "file":
            path = tmp_path / "bom.corpus"
            path.write_text("\ufeff" + canonical, encoding="utf-8")
            argv = ["export", str(path), "--format", fmt]
        else:
            stdin = io.BytesIO(("\ufeff" + canonical).encode())
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
            argv = ["export", "-", "--format", fmt]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (canonical, "")

    def test_deeply_nested_json_is_a_diagnostic(self):
        result = _run(["validate", "-"], b'{"applications":' + b"[" * 100_000)
        assert result.returncode == 1
        assert b"Traceback" not in result.stderr
        assert result.stderr == b"<stdin>: error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                b'application "a" {\n  id: ' + b"1" * 5_000 + b"\n}\n",
                b"<stdin>:2:7: error: integer longer than 4300 digits\n",
            ),
            (
                b'{"applications":[{"id":' + b"1" * 5_000 + b',"name":"a"}]}',
                b"<stdin>: error: invalid JSON: integer longer than 4300 digits\n",
            ),
        ],
        ids=["text", "json"],
    )
    def test_long_integer_is_a_diagnostic(self, text, expected):
        result = _run(["validate", "-"], text)
        assert result.returncode == 1
        assert b"Traceback" not in result.stderr
        assert result.stderr == expected

    @pytest.mark.parametrize(
        "path, where",
        [
            (("name",), "applications[0]: name"),
            (("genre",), "applications[0]: genre"),
            (("subgenre",), "applications[0]: subgenre"),
            (("refs", 1), "applications[0]: refs[1]"),
            (("entities", 0, "name"), "applications[0].entities[0]: name"),
            (("entities", 0, "note"), "applications[0].entities[0]: note"),
        ],
    )
    @pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["LF", "CR"])
    def test_validate_and_export_agree_on_a_line_break(
        self, path, where, line_break, monkeypatch, capsys
    ):
        app = {
            "id": 1,
            "name": "a",
            "genre": "g",
            "subgenre": "s",
            "refs": ["r", "q"],
            "entities": [{"name": "e", "what": "datum", "how": "tangible", "note": "n"}],
        }
        node = app
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = f"x{line_break}y"
        text = json.dumps({"applications": [app]})
        for command in ("validate", "export"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
            assert main([command, "-"]) == 1
            expected = f"<stdin>: error: {where} must not contain a line break\n"
            assert capsys.readouterr() == ("", expected)

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_lone_surrogate_in_json_is_a_diagnostic(self, command):
        text = _with_string(("name",), "\ud800")
        result = _run([command, "-"], text.encode("ascii"))
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == (
            b"<stdin>: error: applications[0]: name must not contain a lone surrogate\n"
        )

    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize("locale", [None, "C"], ids=["default locale", "C locale"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_bytes_that_are_not_utf8_are_a_diagnostic(
        self, command, locale, source, tmp_path
    ):
        # \xff is never UTF-8; \xed\xa0\x80 would encode the surrogate U+D800.
        for data in (b"\xff", b"\xed\xa0\x80", b"\xc3"):
            corpus = GOOD.encode().replace(b'"thing"', b'"thing' + data + b'"')
            if source == "file":
                path = tmp_path / "input.corpus"
                path.write_bytes(b"\xef\xbb\xbf" + corpus)  # after a byte order mark
                result = _run([command, str(path)], b"", locale)
                label = str(path).encode()
            else:
                result = _run([command, "-"], b"\xef\xbb\xbf" + corpus, locale)
                label = b"<stdin>"
            assert (result.returncode, result.stdout) == (1, b"")
            assert result.stderr == label + b":5:16: error: input is not valid UTF-8\n"

    def test_utf8_beyond_ascii_still_loads(self):
        text = GOOD.replace('"thing"', '"thing \u00e9\u00d7\U0001f600"')
        result = _run(["export", "-"], text.encode(), "C")
        assert (result.returncode, result.stderr) == (0, b"")
        assert '"thing \u00e9\u00d7\U0001f600"'.encode() in result.stdout

    @pytest.mark.parametrize(
        "argv, data, code, shown",
        [
            (["term", "tolnible"], "", 0, "×"),
            (["classify", "-"], GOOD.replace('"Demo"', '"Žebřík 日本"'), 0, "Žebřík 日本"),
            (["validate", "-"], GOOD.replace("what: datum", "what: dätum"), 1, "'dätum'\n"),
            (["analyze", "--golden", "--metric", "ü"], "", 2, "invalid choice: 'ü'"),
            # A file name that is not UTF-8 keeps the escape Python's stderr gives it.
            (
                ["validate", b"bad\xff.corpus"],
                ID_ZERO,
                1,
                "bad\\udcff.corpus:2:7: error: application 0: id must be positive\n",
            ),
        ],
        ids=["term", "classify", "diagnostic", "usage error", "file name"],
    )
    def test_output_is_utf8_whatever_the_stream_encoding(
        self, argv, data, code, shown, tmp_path, monkeypatch
    ):
        """stdout and stderr are UTF-8 whatever PYTHONIOENCODING says; ``shown``
        is in stdout on success and in stderr otherwise.  ``data`` is stdin,
        and also the file bad\\xff.corpus in the working directory."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / os.fsdecode(b"bad\xff.corpus")).write_bytes(data.encode())
        runs = {}
        for encoding in ("utf-8", "ascii", "latin-1"):
            result = _run(argv, data.encode(), env={"PYTHONIOENCODING": encoding})
            runs[encoding] = (result.returncode, result.stdout, result.stderr)
        assert runs["ascii"] == runs["latin-1"] == runs["utf-8"]
        returncode, stdout, stderr = runs["utf-8"]
        assert returncode == code
        assert (stdout, stderr)[code != 0].count(shown.encode()) == 1
        assert (stdout, stderr)[code == 0] == b""


_LIMIT = sys.get_int_max_str_digits()
_NINES = "9" * _LIMIT  # one more digit than the largest total that loads
_UNDER = "9" * (_LIMIT - 1)


def _app_text(app_id: int, *counts: tuple[str, str]) -> str:
    entities = "".join(
        f'  entity "{how}" {{ what: datum how: {how} count: {n} }}\n' for how, n in counts
    )
    return f'application "a{app_id}" {{\n  id: {app_id}\n{entities}}}\n'


def _app_json(app_id: int, *counts: tuple[str, str], **fields: object) -> str:
    """One application as JSON; counts are raw JSON, so any length prints."""
    head = json.dumps({"id": app_id, "name": f"a{app_id}", **fields})[:-1]
    entities = ",".join(
        f'{{"name":"{how}","what":"datum","how":"{how}","count":{n}}}' for how, n in counts
    )
    return f'{head}, "entities":[{entities}]}}'


def _apps_json(*apps: str) -> str:
    return '{"applications":[' + ",".join(apps) + "]}"


_STRING_FIELDS = [
    ("name",),
    ("genre",),
    ("subgenre",),
    ("refs", 0),
    ("entities", 0, "name"),
    ("entities", 0, "note"),
]


def _with_string(path: tuple, value: str) -> str:
    """JSON of one application whose string field at ``path`` is ``value``;
    a lone surrogate is written as a JSON escape."""
    app = json.loads(_app_json(1, ("tangible", "1"), genre="g", subgenre="s", refs=["r"]))
    app["entities"][0]["note"] = "n"
    node = app
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps({"applications": [app]})


# name -> (input, validate's exit code, whether analyze --metric l1 refuses
# a loaded corpus for its "many").
HOSTILE = {
    "huge counts, one term, text": (
        _app_text(1, ("tangible", _NINES), ("tangible", _NINES)),
        1,
        False,
    ),
    "huge counts, one term, json": (
        _apps_json(_app_json(1, ("tangible", _NINES), ("tangible", _NINES))),
        1,
        False,
    ),
    "huge counts, two terms, text": (
        _app_text(1, ("tangible", _NINES), ("graspable", _NINES))
        + _app_text(2, ("intangible", "1")),
        1,
        False,
    ),
    "huge counts, two terms, json": (
        _apps_json(
            _app_json(1, ("tangible", _NINES), ("graspable", _NINES)),
            _app_json(2, ("intangible", "1")),
        ),
        1,
        False,
    ),
    # Every term sum prints, and so does the L1 distance of L digits.
    "counts just under the limit": (
        _apps_json(_app_json(1, ("tangible", _UNDER)), _app_json(2, ("graspable", _UNDER))),
        0,
        False,
    ),
    "negative year": (_apps_json(_app_json(1, ("tangible", "1"), year=-5)), 1, False),
    "year zero and many": (_apps_json(_app_json(1, ("tangible", '"many"'), year=0)), 0, True),
    "5000-digit id, text": (
        _app_text(1, ("tangible", "1")).replace("id: 1", "id: " + "1" * 5_000),
        1,
        False,
    ),
    "5000-digit count, text": (_app_text(1, ("tangible", "1" * 5_000)), 1, False),
    "5000-digit year, json": (
        _apps_json(_app_json(1, ("tangible", "1"), year="Y")).replace('"Y"', "1" * 5_000),
        1,
        False,
    ),
    **{
        f"line break in {'.'.join(map(str, path))}": (_with_string(path, "x\ny"), 1, False)
        for path in _STRING_FIELDS
    },
    **{
        f"lone surrogate in {'.'.join(map(str, path))}": (
            _with_string(path, "x\ud800y"),
            1,
            False,
        )
        for path in _STRING_FIELDS
    },
}

COMMANDS = [
    ["validate"],
    ["export"],
    ["export", "--format", "json"],
    *[[cmd, "--format", f] for cmd in ("classify", "hallmark") for f in ("text", "csv", "json")],
    *[["cluster", "--format", f, *b] for f in ("text", "csv", "json") for b in ([], ["--binary"])],
    *[
        ["analyze", "--format", f, "--metric", metric]
        for f in ("text", "csv", "json", "dot")
        for metric in ("hamming", "l1")
    ],
]


@pytest.mark.parametrize("name", HOSTILE)
def test_every_command_agrees_with_validate(name, monkeypatch, capsys):
    text, verdict, l1_refused = HOSTILE[name]
    exits = {}
    for argv in COMMANDS:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        exits[" ".join(argv)] = main([argv[0], "-", *argv[1:]])  # raising fails the test
        capsys.readouterr()
    assert exits["validate"] == verdict
    expected = {command: 1 if l1_refused and "l1" in command else verdict for command in exits}
    assert exits == expected


def _run(
    argv: list[str | bytes],
    data: bytes = b"",
    locale: str | None = None,
    *,
    env: dict[str, str] | None = None,
    stdout: object = subprocess.PIPE,
    stderr: object = subprocess.PIPE,
    closed_fd: int | None = None,
) -> subprocess.CompletedProcess:
    """`tangibility <argv>` in a fresh interpreter, so a crash shows, on raw
    stdin bytes, under ``locale`` (LC_ALL) and the variables ``env`` when
    given, writing to ``stdout`` and ``stderr``, with ``closed_fd`` closed
    before it starts."""
    src = Path(tangibility.__file__).parent.parent
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(src)}
    if locale is not None:
        env["LC_ALL"] = locale
    return subprocess.run(
        [sys.executable, "-m", "tangibility.cli", *argv],
        input=data,
        stdout=stdout,
        stderr=stderr,
        env=env,
        preexec_fn=None if closed_fd is None else lambda: os.close(closed_fd),
    )


@pytest.mark.parametrize(
    "fd, argv, data, code, stderr",
    [
        (1, ["validate", "--golden"], "", 0, b""),
        (1, ["classify", "--golden"], "", 1, b"<golden>: error: standard output is closed\n"),
        (1, ["term", "tolnible"], "", 1, b"error: standard output is closed\n"),
        (1, ["--help"], "", 1, b"error: standard output is closed\n"),
        (1, ["classify", "--help"], "", 1, b"error: standard output is closed\n"),
        (2, ["classify", "-", "--format", "json"], NO_ENTITIES, 0, b""),
        (2, ["validate", "-"], ID_ZERO, 1, b""),
        (2, ["term", "nope"], "", 2, b""),
        (2, ["analyze", "--golden", "--format", "xml"], "", 2, b""),
    ],
    ids=[
        "validate",
        "classify",
        "term",
        "help",
        "classify help",
        "stderr: warning",
        "stderr: corpus error",
        "stderr: unknown term",
        "stderr: usage error",
    ],
)
def test_closed_stdout(fd, argv, data, code, stderr):
    """A command that writes nothing runs with fd 1 closed; one that writes
    prints one error line instead of a traceback.  With fd 2 closed, the
    diagnostics are lost and stdout and the exit code are as with it open."""
    result = _run(argv, data.encode(), closed_fd=fd)
    assert (result.returncode, result.stderr) == (code, stderr)
    if fd == 2:
        assert result.stdout == _run(argv, data.encode()).stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "stream, argv, data, code, stderr",
    [
        ("stdout", ["classify", "--golden"], "", 1, b"<golden>: error: No space left on device\n"),
        ("stdout", ["term", "tolnible"], "", 1, b"error: No space left on device\n"),
        ("stdout", ["--help"], "", 1, b"error: No space left on device\n"),
        ("stdout", ["classify", "--help"], "", 1, b"error: No space left on device\n"),
        ("stderr", ["classify", "-", "--format", "json"], NO_ENTITIES, 0, None),
        ("stderr", ["analyze", "--golden", "--format", "xml"], "", 2, None),
    ],
    ids=["classify", "term", "help", "classify help", "stderr: warning", "stderr: usage error"],
)
def test_failed_write(stream, argv, data, code, stderr):
    """A write to stdout that fails is one error line and exit 1, not a
    traceback; one to stderr loses the line and changes nothing else."""
    with open("/dev/full", "wb") as full:
        result = _run(argv, data.encode(), **{stream: full})
    assert (result.returncode, result.stderr) == (code, stderr)
    if stream == "stderr":
        assert result.stdout == _run(argv, data.encode()).stdout


def test_one_writer():
    """No module calls print, and in cli.py only _emit reads sys.stdout or
    sys.stderr, so every byte the CLI prints takes one path."""
    package = Path(tangibility.__file__).parent
    for path in sorted(package.rglob("*.py")):
        prints = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_bytes()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]
        assert prints == [], f"{path.name} calls print on lines {prints}"
    readers = {
        getattr(statement, "name", f"line {statement.lineno}")
        for statement in ast.parse((package / "cli.py").read_bytes()).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    }
    assert readers == {"_emit"}


def test_one_reading_path():
    """Only dsl.py decodes input bytes, and cli.py and golden.py read a corpus
    through dsl._read, never naming either reader."""
    package = Path(tangibility.__file__).parent

    def names(path):
        return {
            getattr(node, "attr", None) or getattr(node, "id", None) or node.name
            for node in ast.walk(ast.parse(path.read_bytes()))
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
        }

    decoders = {path.name for path in package.rglob("*.py") if "decode" in names(path)}
    assert decoders == {"dsl.py"}
    for name in ("cli.py", "golden.py"):
        assert names(package / name).isdisjoint({"parse_corpus", "import_json"}), name


def test_a_corrupted_bundled_corpus_is_one_error(tmp_path, monkeypatch, capsys):
    asset = tmp_path / golden.GOLDEN_RESOURCE
    asset.parent.mkdir()
    asset.write_bytes(b'application "a\xff" { id: 1 }')
    monkeypatch.setattr(golden, "resources", SimpleNamespace(files=lambda package: tmp_path))
    golden.load_golden.cache_clear()
    try:
        assert main(["classify", "--golden"]) == 1
    finally:
        golden.load_golden.cache_clear()
    message = "bundled corpus asset is corrupted: input is not valid UTF-8"
    assert capsys.readouterr() == ("", f"<golden>: error: {message}\n")


def _main_on(monkeypatch, argv, data="", closed=None):
    """main(argv) in-process on byte-backed standard streams, with the stream
    object named by ``closed`` closed.  Returns the exit code and the bytes
    written to stdout and stderr (None for the closed one)."""
    streams = {name: io.TextIOWrapper(io.BytesIO()) for name in ("stdout", "stderr")}
    streams["stdin"] = io.TextIOWrapper(io.BytesIO(data.encode()))
    if closed is not None:
        streams[closed].close()
    for name, stream in streams.items():
        monkeypatch.setattr(sys, name, stream)
    code = main(argv)  # raising fails the test
    out, err = streams["stdout"], streams["stderr"]
    return code, *(None if s.closed else s.buffer.getvalue() for s in (out, err))


_CLOSED_FILE = b"error: I/O operation on closed file.\n"


@pytest.mark.parametrize(
    "closed, argv, data, code, stderr",
    [
        (None, ["validate", "a\0b"], "", 1, b"a\0b: error: embedded null byte\n"),
        ("stdin", ["validate", "-"], "", 1, b"<stdin>: " + _CLOSED_FILE),
        ("stdout", ["classify", "--golden"], "", 1, b"<golden>: " + _CLOSED_FILE),
        ("stderr", ["classify", "-", "--format", "json"], NO_ENTITIES, 0, None),
        ("stderr", ["analyze", "--golden", "--format", "xml"], "", 2, None),
        ("stderr", ["term", "nope"], "", 2, None),
    ],
    ids=[
        "NUL in path",
        "stdin",
        "stdout",
        "stderr: warning",
        "stderr: usage error",
        "stderr: unknown term",
    ],
)
def test_refused_path_and_closed_stream_objects(monkeypatch, closed, argv, data, code, stderr):
    """A path holding a NUL byte is one error line, as a missing file is.  A
    closed stream object is treated as a closed fd: stdin or stdout is one
    error line and exit 1, and stderr loses its lines and changes nothing else."""
    exit_code, stdout, written = _main_on(monkeypatch, argv, data, closed)
    assert (exit_code, written) == (code, stderr)
    if closed == "stderr":
        assert stdout == _main_on(monkeypatch, argv, data)[1]
    elif closed != "stdout":
        assert stdout == b""


def test_closed_stdin():
    result = _run(["validate", "-"], closed_fd=0)
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        b"",
        b"<stdin>: error: standard input is closed\n",
    )


def test_text_only_stdin_reads_as_closed(monkeypatch, capsys):
    """Input is read as bytes, so a stdin object without a byte buffer is closed."""
    monkeypatch.setattr("sys.stdin", io.StringIO(GOOD))
    assert main(["validate", "-"]) == 1
    assert capsys.readouterr() == ("", "<stdin>: error: standard input is closed\n")


# Inputs read from a file and from stdin, each with every line-end convention:
# name -> (text with "\n" line ends, exit code).
_GOLDEN = Path(tangibility.__file__).parent / "data" / "golden.corpus"
PARITY = {
    "golden": (_GOLDEN.read_text("utf-8"), 0),
    "id 0 on line 2": (GOOD.replace("id: 1", "id: 0"), 1),
    "JSON syntax error": ('{\n  "applications": [\n    {"id": 1,}\n  ]\n}\n', 1),
}


@pytest.mark.parametrize("command", ["validate", "classify"])
@pytest.mark.parametrize("case", PARITY)
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_file_and_stdin_are_read_alike(command, case, line_end, tmp_path):
    text, code = PARITY[case]
    data = text.replace("\n", line_end).encode()
    path = tmp_path / "input.corpus"
    path.write_bytes(data)
    from_file, from_stdin = _run([command, str(path)]), _run([command, "-"], data)
    assert from_file.returncode == from_stdin.returncode == code
    assert from_file.stdout == from_stdin.stdout
    assert from_file.stderr.replace(str(path).encode(), b"<stdin>") == from_stdin.stderr
