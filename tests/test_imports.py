"""No module of the package imports a name it never uses; the package's
names load their modules on first use; and a launch loads only the modules
its command runs."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tangibility

MODULES = sorted(Path(tangibility.__file__).parent.glob("*.py"))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _strings(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in a string annotation such as
    ``-> "Count"`` or ``ClassVar["Count"]``, or as a string anywhere in the value
    of an ``__all__`` assignment, a computed one too."""
    used = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for text in _strings(annotation):
            used |= _names(ast.parse(text, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= _strings(node.value)
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = _used_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text("utf-8")) == []


def test_the_check_finds_an_unused_import_and_counts_every_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, ClassVar, Iterator\n"
        "import os.path\n"
        "from .model import Count, Entity\n"
        "if TYPE_CHECKING:\n"
        "    from .hallmark import Hallmark\n"
        "__all__ = [*sorted(['Entity']), 'x']\n"
        "class C:\n"
        "    ONE: ClassVar['Count']\n"
        "    def f(self) -> 'tuple[Hallmark, ...]':\n"
        "        return os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 2: Iterator"]


def _fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports this package's source."""
    env = {**os.environ, "PYTHONPATH": str(Path(tangibility.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)


# Checks every public name against the module that defines it, then prints the
# findings as JSON: run after each import order below.
NAMESPACE_PROBE = """
import importlib, inspect, json
import tangibility
homes = {}
for name in tangibility.__all__:
    value = getattr(tangibility, name)
    if name != "__version__":
        home = importlib.import_module(value.__module__)
        homes[name] = getattr(home, name) is value and home.__name__.startswith("tangibility.")
star = {}
exec("from tangibility import *", star)
import tangibility.reporting, tangibility.classify
try:
    tangibility.no_such_name
    unknown = "no error"
except AttributeError as error:
    unknown = str(error)
print(json.dumps({
    "homes": homes,
    "star": sorted(name for name in tangibility.__all__ if star[name] is not getattr(tangibility, name)),
    "classify": inspect.isfunction(tangibility.classify),
    "dir": sorted(set(tangibility.__all__) - set(dir(tangibility))),
    "unknown": unknown,
}))
"""


@pytest.mark.parametrize(
    "first",
    [
        "import tangibility",
        "import tangibility.reporting",
        "import tangibility.classify",
        "from tangibility import *",
    ],
)
def test_the_package_namespace_in_every_import_order(first):
    run = _fresh(f"{first}\n{NAMESPACE_PROBE}")
    assert run.returncode == 0, run.stderr.decode()
    found = json.loads(run.stdout)
    assert found["homes"] == dict.fromkeys(found["homes"], True)
    assert len(found["homes"]) == len(tangibility.__all__) - 1
    assert found["star"] == []
    assert found["classify"] is True  # the function, not the submodule of its name
    assert found["dir"] == []
    assert found["unknown"] == "module 'tangibility' has no attribute 'no_such_name'"


def test_the_package_exports_its_names_in_order():
    # Written out, so a name added to the package's table shows here as a change of API.
    assert tangibility.__all__ == [
        "Application",
        "BinaryHallmark",
        "Corpus",
        "Count",
        "EmptyCorpusError",
        "Entity",
        "Hallmark",
        "Metric",
        "Role",
        "Severity",
        "SymbolicCountError",
        "Tangibility",
        "TangibilityClass",
        "UnknownTermError",
        "all_terms",
        "binarize",
        "class_distribution",
        "classify",
        "classify_by_patterns",
        "cluster_by_binary_hallmark",
        "cluster_by_hallmark",
        "compute_hallmark",
        "cross_tab",
        "distance_matrix",
        "distinct_binary_hallmark_count",
        "distinct_hallmark_count",
        "export_json",
        "hamming_distance",
        "import_json",
        "l1_distance",
        "load_golden",
        "parse_corpus",
        "parse_term",
        "pattern_table",
        "role_distribution",
        "serialize_corpus",
        "term_coverage",
        "term_of",
        "validate",
        "__version__",
    ]


def test_an_unknown_name_is_not_importable():
    with pytest.raises(ImportError):
        from tangibility import no_such_name
    assert not hasattr(tangibility, "no_such_name")


# Prints which of the modules that only reports need a launch loaded.
LOADED = (
    "import sys\n"
    "loaded = [m for m in ('reporting', 'analysis', 'hallmark') if f'tangibility.{m}' in sys.modules]\n"
    "print(' '.join(loaded), file=sys.stderr, end='')\n"
)
REPORTING = "reporting analysis hallmark"


@pytest.mark.parametrize(
    "launch, loaded",
    [
        ("import tangibility.cli; tangibility.cli.load_golden()", ""),
        ("from tangibility.cli import main; assert main(['validate', '--golden']) == 0", ""),
        ("from tangibility.cli import main; assert main(['export', '--golden']) == 0", ""),
        ("from tangibility.cli import main; assert main(['term', 'tolnible']) == 0", ""),
        (
            "from tangibility.cli import main\n"
            "assert main(['analyze', '--golden', '--format', 'json']) == 0",
            REPORTING,
        ),
        ("from tangibility.cli import main; assert main(['classify', '--golden']) == 0", REPORTING),
    ],
)
def test_a_launch_loads_only_the_modules_its_command_runs(launch, loaded):
    run = _fresh(f"{launch}\n{LOADED}")
    assert (run.returncode, run.stderr.decode()) == (0, loaded)


def test_importing_the_package_loads_only_it_and_classify():
    run = _fresh(
        "import sys, tangibility\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'tangibility')\n"
        "print(' '.join(loaded), file=sys.stderr, end='')\n"
    )
    assert (run.returncode, run.stderr.decode()) == (0, "tangibility tangibility.classify")


def test_the_metric_choices_keep_their_order_without_analysis():
    # The usage error of --metric loads no analysis: LOADED prints nothing after it.
    run = _fresh(
        "from tangibility.cli import main\n"
        "assert main(['analyze', '--golden', '--metric', 'x']) == 2\n" + LOADED
    )
    assert run.returncode == 0, run.stderr.decode()
    usage, _, error = run.stderr.decode().rpartition("tangibility analyze: error: ")
    assert usage.startswith("usage: tangibility analyze [-h] [--golden]")
    assert "[--metric {l1,hamming}]" in usage
    # Later Pythons print the choices unquoted; the order is the same.
    assert error.replace("'l1', 'hamming'", "l1, hamming") == (
        "argument --metric: invalid choice: 'x' (choose from l1, hamming)\n"
    )
