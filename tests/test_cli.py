"""End-to-end command-line behavior: outputs, diagnostics, exit codes."""

from __future__ import annotations

import argparse
import ast
import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from corpusgen import colliding_corpus, random_corpus
from hypothesis import given, settings
from test_snapshots import CASES, run_cli

import tangibility
from tangibility import Corpus, Metric, classify, cli, export_json, golden, reporting
from tangibility.analysis import CLASS_LABELS
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
        assert capsys.readouterr() == (cli._build_parser.__wrapped__().format_help(), "")


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


# The command surface again, with help, both usage errors of a corpus command's
# handler, and each option given and then left to its default.
SEQUENCE = [
    *(argv.split() for argv in SURFACE),
    ["--help"],
    ["classify", "--help"],
    ["validate"],  # no input
    ["classify", "good.corpus", "--golden"],  # a path and --golden
    ["analyze", "--golden", "--key", "subgenre"],
    ["analyze", "--golden"],
    ["analyze", "-", "--metric", "l1"],
    ["analyze", "-"],
    ["cluster", "--golden", "--binary"],
    ["cluster", "--golden"],
    ["classify", "--golden", "--format", "csv"],
    ["classify", "--golden"],
]


def test_the_shared_parser_carries_no_state(monkeypatch):
    """Every main() call in a process parses with one parser.  Run on it forward
    and then in reverse, each argv list gives the exit code, stdout and stderr
    it gives on a freshly built parser."""
    sequence = SEQUENCE + SEQUENCE[::-1]
    shared = [run_cli(argv, GOOD) for argv in sequence]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert shared == [run_cli(argv, GOOD) for argv in sequence]


def test_the_parser_is_built_once(monkeypatch, capsys):
    """main() builds its parser at most once, and importing the CLI builds none."""
    built = []
    add_subparsers = cli._Parser.add_subparsers

    def spy(self, **kwargs):
        built.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", spy)
    for argv in 4 * ["validate --golden", "classify --golden", "term tolnible", "--help", "x"]:
        main(argv.split())  # 20 calls: corpus commands, term, help and a usage error
    assert len(built) <= 1
    src = Path(tangibility.__file__).parent.parent
    probe = "import tangibility.cli as cli; print(cli._build_parser.cache_info().currsize)"
    imported = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert imported.stdout == b"0\n"


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


# The command surface's former home: a table of help and --format choices, with
# each command's own options added after the loop over it.  Kept as the reference
# the built parser's help, usage, usage errors and parsed values are compared with.
_REFERENCE_COMMANDS = {
    "validate": ("parse a corpus and report diagnostics", ()),
    "classify": ("tangibility class per application", ("text", "csv", "json")),
    "hallmark": ("hallmark vector per application", ("text", "csv", "json")),
    "analyze": ("full corpus analytics", ("text", "csv", "json", "dot")),
    "cluster": ("applications sharing a hallmark", ("text", "csv", "json")),
    "term": ("expand one of the twelve what-how terms", None),
    "export": ("re-emit a corpus canonically", ("text", "json")),
}


def _reference_parser() -> argparse.ArgumentParser:
    parser = cli._Parser(
        prog="tangibility",
        description="Classify tangible-interface specimens and analyze annotated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, formats) in _REFERENCE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(parser=p)  # the handler's own parser, for its usage errors
        if formats is None:
            continue
        p.add_argument("input", nargs="?", help="corpus file, or '-' for stdin")
        p.add_argument("--golden", action="store_true", help="use the bundled reference corpus")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="text", help="output format (default: text)"
            )

    commands = sub.choices  # each command's parser, by name
    commands["analyze"].add_argument(
        "--key",
        choices=("genre", "subgenre"),
        default="genre",
        help="cross-tab grouping key (default: genre)",
    )
    commands["analyze"].add_argument(
        "--metric",
        choices=[metric.value for metric in Metric],
        default="hamming",
        help="distance metric (default: hamming)",
    )
    commands["cluster"].add_argument(
        "--binary", action="store_true", help="cluster on binarized hallmarks"
    )
    commands["term"].add_argument("name", help="term name, e.g. tolnible")
    return parser


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, by name, in the order they were added."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_help_and_usage_match_the_reference():
    built, reference = cli._build_parser.__wrapped__(), _reference_parser()
    assert built.format_help() == reference.format_help()
    assert built.format_usage() == reference.format_usage()
    commands, expected = _commands(built), _commands(reference)
    assert list(commands) == list(expected) == list(_REFERENCE_COMMANDS)
    for name, command in commands.items():
        assert command.format_help() == expected[name].format_help(), name
        assert command.format_usage() == expected[name].format_usage(), name


def test_each_command_takes_only_its_rows_arguments():
    """A command's arguments are input, --golden and --format as its row's choices
    say, then its row's own arguments, each with the dest report builders read:
    no argument is added outside the table."""
    commands = _commands(cli._build_parser.__wrapped__())
    assert list(commands) == list(cli._COMMANDS)
    for name, (_, formats, own, _) in cli._COMMANDS.items():
        shared = [] if formats is None else ["input", "--golden"] + ["--format"] * bool(formats)
        actions = {(a.option_strings or [a.dest])[-1]: a for a in commands[name]._actions}
        assert list(actions) == ["--help", *shared, *own], name
        if formats:
            assert actions["--format"].choices == formats
        assert [actions[flag].dest for flag in own] == [flag.lstrip("-") for flag in own]


def _parsed(parser: argparse.ArgumentParser, argv: list[str], capsys) -> tuple:
    """The values parsing ``argv`` gives, without the command's parser, or its
    exit code; with what it printed."""
    try:
        values = vars(parser.parse_args(argv))
        values.pop("parser")
    except SystemExit as exc:
        values = {"exit": exc.code}
    return values, capsys.readouterr()


@pytest.mark.parametrize("argv", dict.fromkeys(" ".join(argv) for argv in SEQUENCE))
def test_parsed_values_match_the_reference(argv, capsys):
    built = _parsed(cli._build_parser.__wrapped__(), argv.split(), capsys)
    assert built == _parsed(_reference_parser(), argv.split(), capsys)


# A report command's reporting builder, which bench/tracing.py wraps as one span, and
# the formats that build another: DOT prints the cross-tab alone and builds only that.
BUILDERS = {
    "classify": "class_table",
    "hallmark": "hallmark_table",
    "analyze": "analytics_report",
    "cluster": "clusters_report",
}
FORMAT_BUILDERS = {("analyze", "dot"): "crosstab_report"}


@pytest.mark.parametrize("command, fmt", [(cmd, fmt) for cmd in BUILDERS for fmt in FORMATS[cmd]])
def test_report_functions_are_looked_up_when_a_command_runs(command, fmt, monkeypatch, capsys):
    """Wrappers set on reporting after the CLI is imported see each report
    command's one builder call and one render call, in its format."""
    assert main([command, "--golden", "--format", fmt]) == 0
    expected = capsys.readouterr()
    calls = []

    def recording(name):
        function = getattr(reporting, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[-1]))
            return function(*args, **kwargs)

        return wrapper

    builder = FORMAT_BUILDERS.get((command, fmt), BUILDERS[command])
    for name in (builder, "render"):
        monkeypatch.setattr(reporting, name, recording(name))
    assert main([command, "--golden", "--format", fmt]) == 0
    assert capsys.readouterr() == expected
    assert [name for name, _ in calls] == [builder, "render"]
    assert calls[-1][1] == fmt


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


# Runs main on its arguments with the address space capped 64 MB above what the
# interpreter holds once it has imported tangibility.cli, in that process alone.
CAPPED_MAIN = """
import resource, sys
import tangibility.cli
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, ((kib + 64 * 1024) * 1024, hard))
sys.exit(tangibility.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_a_report_too_large_for_memory_is_one_error_line():
    """About 3,000 applications, whose text analyze needs about 180 MB: under
    the cap it is one error line and exit 1, not a MemoryError traceback."""
    corpus = random_corpus(random.Random(0), max_apps=3600, min_apps=3600, allow_many=False)
    data = export_json(Corpus(tuple(app for app in corpus.applications if app.entities)))
    env = {**os.environ, "PYTHONPATH": str(Path(tangibility.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "analyze", "-"],
        input=data.encode(),
        capture_output=True,
        env=env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        b"",
        b"<stdin>: error: out of memory\n",
    )


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


def _out_of_memory(*args):
    raise MemoryError


class _Unencodable(str):
    def encode(self, *args):
        _out_of_memory()


@pytest.mark.parametrize(
    "name, replacement",
    [
        ("_read", _out_of_memory),
        ("serialize_corpus", _out_of_memory),
        ("serialize_corpus", lambda corpus: _Unencodable(GOOD)),
    ],
    ids=["read", "build", "encode"],
)
def test_out_of_memory_is_one_error_line(monkeypatch, name, replacement):
    """Reading the input, building the report and encoding it are each one
    error line and exit 1 when memory runs out, with nothing on stdout."""
    monkeypatch.setattr(cli, name, replacement)
    assert _main_on(monkeypatch, ["export", "-"], GOOD) == (
        1,
        b"",
        b"<stdin>: error: out of memory\n",
    )


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--golden"], 0),
        (["validate", "-"], 1),
        (["analyze", "--golden", "--metric", "l1"], 1),
    ],
    ids=["success", "corpus error", "refused report"],
)
def test_a_corpus_command_pauses_the_collector(monkeypatch, collecting, argv, code):
    """The collector is off while a corpus command reads, builds and prints, and
    main() leaves it as it found it."""
    during = []
    print_diagnostics = cli._print_diagnostics

    def spy(*args):
        during.append(gc.isenabled())
        print_diagnostics(*args)

    monkeypatch.setattr(cli, "_print_diagnostics", spy)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert _main_on(monkeypatch, argv, ID_ZERO)[0] == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert during and not any(during)


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


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _csv_cross_tab(out: bytes, key: str) -> list[list[str]]:
    """The cross-tab table's rows, without the header."""
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    start = rows.index([key, *CLASS_LABELS]) + 1
    return rows[start : rows.index([], start)]


def _text_cross_tab_labels(out: bytes, key: str) -> list[str]:
    lines = out.decode("utf-8").splitlines()
    start = lines.index(f"cross-tab by {key}:") + 1
    header, *rows = lines[start : lines.index("", start)]
    width = header.index("I", 2 + len(key)) - 4  # the key column, padded
    assert all(row[2 + width : 4 + width] == "  " for row in rows)
    return [row[2 : 2 + width].rstrip() for row in rows]


@pytest.mark.parametrize("key", ["genre", "subgenre"])
@given(corpus=colliding_corpus())
@settings(max_examples=100, deadline=None)
def test_colliding_labels_print_alike_in_every_format(key, corpus):
    """Labels that collide (with each other, DOT's class nodes or "(none)")
    still give one cross-tab in text, CSV and JSON, and DOT one class edge
    per application, in id order, naming the class ``classify`` gives."""
    data = export_json(corpus)
    outputs = {}
    for fmt in ("text", "csv", "json", "dot"):
        code, outputs[fmt], stderr = run_cli(["analyze", "--format", fmt, "--key", key, "-"], data)
        assert code == 0, stderr
    rows = json.loads(outputs["json"])["cross_tab"]["rows"]
    assert _csv_cross_tab(outputs["csv"], key) == [
        [row["label"], *(" ".join(map(str, row[c])) for c in CLASS_LABELS)] for row in rows
    ]
    assert _text_cross_tab_labels(outputs["text"], key) == [row["label"] for row in rows]
    # Labels collide, so an edge is known by its place: class edges come last.
    edges = [line for line in outputs["dot"].decode("utf-8").splitlines() if " -> " in line]
    expected = []
    for app, mark in sorted(zip(corpus.applications, corpus.hallmarks), key=lambda p: p[0].id):
        label = classify(mark).label
        node = "Unclassified" if label == "unclassified" else f"Class {label}"
        expected.append(f"  {_dot_quote(app.name)} -> {_dot_quote(node)};")
    assert edges[len(edges) - len(expected) :] == expected


@given(corpus=colliding_corpus())
@settings(max_examples=50, deadline=None)
def test_every_case_exits_0_on_colliding_labels(corpus):
    """Every command and format exits 0 on a corpus that loads, except L1 on "many"."""
    data = export_json(corpus)
    many = any(mark.has_many for mark in corpus.hallmarks)
    for case, argv in CASES.items():
        code, _, stderr = run_cli(argv + ["-"], data)
        assert code == (1 if many and case.endswith("-l1") else 0), (case, stderr)
