"""Command-line interface.

One corpus in, one report out.  Input is a file path, "-" for stdin, or
--golden for the bundled reference corpus.  Input must be UTF-8 (a byte
that is not is an error at its line and column).  One leading byte order
mark is dropped; then text starting with "{" is read as the JSON interchange
form, anything else as the annotation format.

Exit codes: 0 success, 1 corpus errors (diagnostics go to stderr as
"file:line:col: severity: message"), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from .analysis import Metric
from .dsl import export_json, import_json, parse_corpus, serialize_corpus
from .golden import load_golden
from .hallmark import SymbolicCountError
from .model import Corpus, Diagnostic
from .reporting import (
    analytics_report,
    class_table,
    clusters_report,
    hallmark_table,
    render,
)
from .terms import UnknownTermError, parse_term

__all__ = ["main"]

EXIT_OK = 0
EXIT_CORPUS_ERROR = 1
EXIT_USAGE = 2


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", help="corpus file, or '-' for stdin")
    parser.add_argument(
        "--golden", action="store_true", help="use the bundled reference corpus"
    )


def _add_format_argument(parser: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    parser.add_argument(
        "--format",
        choices=choices,
        default="text",
        help="output format (default: text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangibility",
        description="Classify tangible-interface specimens and analyze annotated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a corpus and report diagnostics")
    _add_input_arguments(p)

    p = sub.add_parser("classify", help="tangibility class per application")
    _add_input_arguments(p)
    _add_format_argument(p, ("text", "csv", "json"))

    p = sub.add_parser("hallmark", help="hallmark vector per application")
    _add_input_arguments(p)
    _add_format_argument(p, ("text", "csv", "json"))

    p = sub.add_parser("analyze", help="full corpus analytics")
    _add_input_arguments(p)
    _add_format_argument(p, ("text", "csv", "json", "dot"))
    p.add_argument(
        "--key",
        choices=("genre", "subgenre"),
        default="genre",
        help="cross-tab grouping key (default: genre)",
    )
    p.add_argument(
        "--metric",
        choices=("l1", "hamming"),
        default="hamming",
        help="distance metric (default: hamming)",
    )

    p = sub.add_parser("cluster", help="applications sharing a hallmark")
    _add_input_arguments(p)
    _add_format_argument(p, ("text", "csv", "json"))
    p.add_argument(
        "--binary", action="store_true", help="cluster on binarized hallmarks"
    )

    p = sub.add_parser("term", help="expand one of the twelve what-how terms")
    p.add_argument("name", help="term name, e.g. tolnible")

    p = sub.add_parser("export", help="re-emit a corpus canonically")
    _add_input_arguments(p)
    _add_format_argument(p, ("text", "json"))

    return parser


def _print_diagnostics(diagnostics: Sequence[Diagnostic], label: str, stream: TextIO) -> None:
    for diagnostic in diagnostics:
        severity = diagnostic.severity.value
        if diagnostic.span is not None:
            position = f":{diagnostic.span.line}:{diagnostic.span.column}"
        else:
            position = ""
        print(f"{label}{position}: {severity}: {diagnostic.message}", file=stream)


def _load_corpus(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[Corpus | None, str]:
    """Resolve the input selection to a corpus.

    Returns (corpus, label); corpus is None after diagnostics have been
    printed and the command should exit with a corpus error.  Usage
    problems exit through parser.error.
    """
    if args.golden and args.input is not None:
        parser.error("give an input path or --golden, not both")
    if not args.golden and args.input is None:
        parser.error("an input path (or --golden) is required")

    if args.golden:
        return load_golden(), "<golden>"

    # Bytes that are not UTF-8 are read as lone surrogates, which the readers refuse.
    if args.input == "-":
        label = "<stdin>"
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:  # a text-only stream, such as io.StringIO
            text = sys.stdin.read()
        else:
            text = stream.read().decode("utf-8", "surrogateescape")
    else:
        label = args.input
        try:
            with open(args.input, "r", encoding="utf-8", errors="surrogateescape") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"{label}: error: {exc.strerror or exc}", file=sys.stderr)
            return None, label

    text = text.removeprefix("\ufeff")  # a byte order mark is not content
    reader = import_json if text.lstrip().startswith("{") else parse_corpus
    corpus, diagnostics = reader(text)
    _print_diagnostics(diagnostics, label, sys.stderr)
    if any(d.is_error for d in diagnostics):
        return None, label
    return corpus, label


def _cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    corpus, _ = _load_corpus(args, parser)
    return EXIT_OK if corpus is not None else EXIT_CORPUS_ERROR


# Looked up by name at call time, so wrappers installed on this module apply.
_REPORT_BUILDERS = {
    "classify": lambda corpus, args: class_table(corpus),
    "hallmark": lambda corpus, args: hallmark_table(corpus),
    "cluster": lambda corpus, args: clusters_report(corpus, binary=args.binary),
    "analyze": lambda corpus, args: analytics_report(
        corpus, key=args.key, metric=Metric(args.metric)
    ),
}


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    corpus, label = _load_corpus(args, parser)
    if corpus is None:
        return EXIT_CORPUS_ERROR
    try:
        report = _REPORT_BUILDERS[args.command](corpus, args)
    except SymbolicCountError as exc:  # analyze --metric l1 on a 'many' count
        print(f"{label}: error: {exc}", file=sys.stderr)
        return EXIT_CORPUS_ERROR
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


def _cmd_term(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        term = parse_term(args.name)
    except UnknownTermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f'{term.name} = {term.role.value} × {term.tangibility.value} ("{term.gloss}")')
    return EXIT_OK


def _cmd_export(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    corpus, label = _load_corpus(args, parser)
    if corpus is None:
        return EXIT_CORPUS_ERROR
    if args.format == "json":
        sys.stdout.write(export_json(corpus) + "\n")
    else:
        try:
            sys.stdout.write(serialize_corpus(corpus))
        except ValueError as exc:
            print(f"{label}: error: {exc}", file=sys.stderr)
            return EXIT_CORPUS_ERROR
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_report,
    "hallmark": _cmd_report,
    "analyze": _cmd_report,
    "cluster": _cmd_report,
    "term": _cmd_term,
    "export": _cmd_export,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a command handler
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
