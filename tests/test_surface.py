"""Guard for the rule that the library defines nothing that the library leaves unused.

Every top-level function and class, and every method other than a dunder,
defined in src/hscm/*.py (the package __init__ aside) must be named
somewhere in those modules outside its own definition: by a Name, an
Attribute or a from-import.  Code that only the tests or the package's
exports reach belongs in tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hscm"
DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, bare name, node) of each definition the rule covers."""
    for node in tree.body:
        if not isinstance(node, DEF_TYPES):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEF_TYPES[:2]) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(tree):
    """How often each name appears as a Name, an Attribute or a from-import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_used_inside_the_library():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert trees, f"no modules under {SRC}"
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}: {qualified}"
              for module, tree in trees.items()
              for qualified, name, node in _definitions(tree)
              if total[name] - _uses(node)[name] <= 0]
    assert not unused, "defined in src/hscm but used nowhere in it:\n" + "\n".join(unused)
