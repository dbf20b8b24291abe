"""Command-line interface.

One corpus in, one report out.  Input is a file path, "-" for stdin, or
--golden for the bundled reference corpus.  All three are read alike, by
``dsl._read``: UTF-8 (a byte that is not is an error at its line and
column), one leading byte order mark dropped.  Text starting with "{" or "["
is JSON interchange, anything else the annotation format; both readers take
"\\r\\n" and a lone "\\r" as a line end.

The commands come from one table, ``_COMMANDS``, which gives each its help,
its --format choices and its handler; the options of a single command are
added after it.  Every command that reads a corpus runs the one handler
``_corpus_command`` makes from its row's ``build(corpus, args)``, which
returns the text to write.  The handler reads the input's bytes, prints the
reader's diagnostics, and builds and writes the report; its one ``except``
makes an unreadable input, a corrupted bundled corpus, a refused report or
memory running out one error line.  It runs with the cyclic
collector paused (``dsl._uncollected``, as ``load_golden`` does) and leaves
it as it found it.  The parser is built once per process, on the first
``main`` call, and every later call reuses it; handlers are still looked up
in ``_COMMANDS`` at call time.  Every byte printed, diagnostics
and usage errors too, goes through ``_emit`` as UTF-8 with "\\n" line ends
whatever the locale; a closed or failing stderr (a closed fd and a closed
stream object alike) loses them and changes nothing else.

Exit codes: 0 success; 1 corpus errors (diagnostics go to stderr as
"file:line:col: severity: message"), a refused report, a corrupted bundled
corpus, a path the OS refuses or one holding a NUL byte, a closed stdin or
stdout (fd or stream object), a failed write, of the help too, or memory
running out while reading, building or encoding a report (each one
"label: error: message" line); 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Callable, NoReturn, Sequence

from .dsl import _read, _uncollected, export_json, serialize_corpus
from .golden import load_golden
from .model import Corpus, Diagnostic, Metric

__all__ = ["main"]

EXIT_OK = 0
EXIT_CORPUS_ERROR = 1
EXIT_USAGE = 2


def _emit(text: str, stderr: bool = False) -> OSError | ValueError | None:
    """The only code that touches sys.stdout or sys.stderr.  Writes non-empty
    ``text`` as UTF-8 and flushes; returns the OSError of a closed fd or a failed
    write, or the ValueError of a closed stream object."""
    if not text:
        return None
    stream = sys.stderr if stderr else sys.stdout
    if stream is None:  # the fd was closed when Python started
        return OSError(f"standard {'error' if stderr else 'output'} is closed")
    try:
        if hasattr(stream, "buffer"):  # backslashreplace keeps a file name's lone surrogates
            stream.buffer.write(text.encode("utf-8", "backslashreplace"))
        else:  # a text-only stream; only bench/run.py's Sink still passes one
            stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:
        return exc
    return None


def _print_diagnostics(diagnostics: Sequence[Diagnostic], label: str | None = None) -> None:
    """One "label:line:col: severity: message" line per diagnostic, or
    "severity: message" without a label, on stderr.  A closed or failing
    stderr loses them and changes neither stdout nor the exit code."""
    for diagnostic in diagnostics:
        span = diagnostic.span
        position = f":{span.line}:{span.column}" if span is not None else ""
        prefix = f"{label}{position}: " if label is not None else ""
        _emit(f"{prefix}{diagnostic.severity.value}: {diagnostic.message}\n", stderr=True)


def _fail(error: Exception, label: str | None = None) -> int:
    """One "label: error: message" line, in ``error``'s strerror if it has one, or
    "out of memory" for a MemoryError, whose str() is empty; exit 1."""
    if isinstance(error, MemoryError):
        message = "out of memory"
    else:
        message = getattr(error, "strerror", None) or str(error)
    _print_diagnostics([Diagnostic.error(message)], label)
    return EXIT_CORPUS_ERROR


def _write(text: str, label: str | None = None) -> int:
    """A command's output.  Empty output touches nothing, so validate runs with fd 1
    closed; a closed stdout or a failed write is one error line and exit 1."""
    error = _emit(text)
    return EXIT_OK if error is None else _fail(error, label)


def _corpus_command(build: Callable[[Corpus, argparse.Namespace], str]) -> Callable[..., int]:
    """The handler of a command that reads a corpus and writes ``build(corpus, args)``.
    Usage problems exit 2 through the command's own parser.error; corpus errors
    and failures to read, build or write the report are exit 1."""

    def handler(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
        if args.golden and args.input is not None:
            parser.error("give an input path or --golden, not both")
        if not args.golden and args.input is None:
            parser.error("an input path (or --golden) is required")
        label = "<golden>" if args.golden else "<stdin>" if args.input == "-" else args.input
        try:
            if args.golden:
                corpus, diagnostics = load_golden(), []
            else:
                if args.input != "-":
                    with open(args.input, "rb") as handle:
                        data = handle.read()
                elif getattr(sys.stdin, "buffer", None) is None:  # fd 0 closed, or text-only
                    raise OSError("standard input is closed")
                else:
                    data = sys.stdin.buffer.read()
                corpus, diagnostics = _read(data)
            _print_diagnostics(diagnostics, label)
            if any(d.is_error for d in diagnostics):
                return EXIT_CORPUS_ERROR
            return _write(build(corpus, args), label)
        # RuntimeError: a corrupted bundled corpus.  ValueError: a refused report
        # (SymbolicCountError), a NUL in the path, or a closed stdin object.
        # MemoryError: an input or report too large to read, build or encode.
        except (OSError, RuntimeError, ValueError, MemoryError) as error:
            return _fail(error, label)

    return _uncollected(handler)


def _cmd_term(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .terms import UnknownTermError, parse_term

    try:
        term = parse_term(args.name)
    except UnknownTermError as exc:
        _print_diagnostics([Diagnostic.error(str(exc))])
        return EXIT_USAGE
    return _write(f'{term.name} = {term.role.value} × {term.tangibility.value} ("{term.gloss}")\n')


# The builders of the commands that render a report.  Each imports reporting, and
# the analysis it imports, when it runs: validate, export and term never load them.
def _class_table(corpus: Corpus, args: argparse.Namespace) -> str:
    from .reporting import class_table, render

    return render(class_table(corpus), args.format)


def _hallmark_table(corpus: Corpus, args: argparse.Namespace) -> str:
    from .reporting import hallmark_table, render

    return render(hallmark_table(corpus), args.format)


def _analytics_report(corpus: Corpus, args: argparse.Namespace) -> str:
    from .reporting import analytics_report, render

    return render(analytics_report(corpus, key=args.key, metric=Metric(args.metric)), args.format)


def _clusters_report(corpus: Corpus, args: argparse.Namespace) -> str:
    from .reporting import clusters_report, render

    return render(clusters_report(corpus, binary=args.binary), args.format)


# name -> (help, --format choices, handler).  A command with choices None
# reads no corpus; one with no choices reads a corpus but takes no --format.
# Builders look reporting's names up at call time, so wrappers set on reporting
# apply, and export's look this module's up.
_COMMANDS = {
    "validate": ("parse a corpus and report diagnostics", (), _corpus_command(lambda c, a: "")),
    "classify": (
        "tangibility class per application",
        ("text", "csv", "json"),
        _corpus_command(_class_table),
    ),
    "hallmark": (
        "hallmark vector per application",
        ("text", "csv", "json"),
        _corpus_command(_hallmark_table),
    ),
    "analyze": (
        "full corpus analytics",
        ("text", "csv", "json", "dot"),
        _corpus_command(_analytics_report),
    ),
    "cluster": (
        "applications sharing a hallmark",
        ("text", "csv", "json"),
        _corpus_command(_clusters_report),
    ),
    "term": ("expand one of the twelve what-how terms", None, _cmd_term),
    "export": (
        "re-emit a corpus canonically",
        ("text", "json"),
        _corpus_command(
            lambda c, a: export_json(c) + "\n" if a.format == "json" else serialize_corpus(c)
        ),
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help and usage errors, its commands' too, go through _emit."""

    def print_help(self, file: object = None) -> None:
        raise SystemExit(_write(self.format_help()))

    def error(self, message: str) -> NoReturn:
        _emit(f"{self.format_usage()}{self.prog}: error: {message}\n", stderr=True)
        raise SystemExit(EXIT_USAGE)


@cache  # built on the first main() call, not at import, and reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tangibility",
        description="Classify tangible-interface specimens and analyze annotated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, formats, _) in _COMMANDS.items():
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args, args.parser)
    except SystemExit as exc:  # a usage error, from parsing or from a command handler
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
