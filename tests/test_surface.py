"""Guard for the rule that the library defines nothing that the library leaves unused.

Every top-level function and class, and every method other than a dunder,
defined in src/hscm/*.py (the package __init__ aside) must be named
somewhere in those modules outside its own definition: by a Name, an
Attribute or a from-import.  Every module-level constant they assign,
tuple targets included, must be read in them as a Name or an Attribute, so
a deleted branch cannot leave its constant behind.  Every parameter with a
default must be passed, by position or by keyword, by some call in them
(cli.main, the entry point, aside): a value that only the tests change is a
constant, not a parameter.  Code that only the tests or the package's
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


def _constants(tree):
    """Each name other than a dunder that a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and not _is_dunder(leaf.id):
                    yield leaf.id


def _reads(tree):
    """How often each name is read as a Name or an Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _library():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert trees, f"no modules under {SRC}"
    return trees


def test_every_definition_is_used_inside_the_library():
    trees = _library()
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}: {qualified}"
              for module, tree in trees.items()
              for qualified, name, node in _definitions(tree)
              if total[name] - _uses(node)[name] <= 0]
    assert not unused, "defined in src/hscm but used nowhere in it:\n" + "\n".join(unused)


def test_every_constant_is_read_inside_the_library():
    trees = _library()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name in _constants(tree) if not reads[name]]
    assert not unread, "assigned in src/hscm but read nowhere in it:\n" + "\n".join(unread)


def _defaulted_parameters(tree):
    """(qualified name, bare name, parameter, position or None) of each defaulted parameter.

    The position counts the arguments a call passes, so it skips the `self`
    of a method; keyword-only parameters have none.
    """
    for qualified, name, node in _definitions(tree):
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if "." in qualified else 0
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield qualified, name, positional[index].arg, index - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, name, arg.arg, None


def _passed(tree):
    """(callee name, parameter or position) of each argument a call passes by name or place."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        passed.update((name, index) for index, arg in enumerate(node.args)
                      if not isinstance(arg, ast.Starred))
        passed.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
    return passed


def test_every_defaulted_parameter_is_set_inside_the_library():
    trees = _library()
    passed = set().union(*(_passed(tree) for tree in trees.values()))
    unset = [f"{module}: {qualified}({parameter}=...)"
             for module, tree in trees.items()
             for qualified, name, parameter, position in _defaulted_parameters(tree)
             if (module, qualified) != ("cli.py", "main")
             and (name, parameter) not in passed and (name, position) not in passed]
    assert not unset, ("defaulted in src/hscm but set by no call in it:\n"
                       + "\n".join(unset))
