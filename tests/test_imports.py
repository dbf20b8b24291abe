"""No module of the package imports a name it never uses."""

from __future__ import annotations

import ast
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


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in a string annotation such as
    ``-> "Count"`` or ``ClassVar["Count"]``, or in ``__all__``."""
    used = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in node.value.elts}
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
        "__all__ = ['Entity']\n"
        "class C:\n"
        "    ONE: ClassVar['Count']\n"
        "    def f(self) -> 'tuple[Hallmark, ...]':\n"
        "        return os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 2: Iterator"]
