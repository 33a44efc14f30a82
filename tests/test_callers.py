"""Every function in src/topicaudit has a caller in src/topicaudit: a
def whose name no code there references is dead code, whatever the
tests call."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "topicaudit"


def _names(tree: ast.AST) -> set[str]:
    """Every name the code of tree references: each Name, each attribute
    and each imported name, under its alias too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.split(".")[-1],
                                       node.asname)))
    return found


def test_every_function_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_names, trees.values()))
    uncalled = [f"{name}:{node.lineno} {node.name}"
                for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))
                and node.name not in referenced]
    assert trees
    assert uncalled == []
