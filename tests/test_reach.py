"""Guards: every function, method, class and module-level constant in
``src/`` is reached by the program, and every CLI option is read by
``cli.py``.

The program is the package itself, its CLI and the benchmark under
``perfbench/``; code that only the tests call belongs in ``tests/``.  A
definition counts as reached when its name occurs anywhere in ``src/`` or
``perfbench/`` outside its own ``def`` or ``class`` line (as a name, an
attribute, an import, or a string that is exactly the name, as in
perfbench's traced-function table).  ``sandharm/__init__.py`` does not
count: it re-exports names and lists them in ``__all__``, so counting it
would make every exported name reached, test-only ones included.  Dunders
and overrides of a base-class method (such as ``_Parser.error``, which
argparse calls) are exempt.

The matching is by bare name and so is coarse: a use of one definition
reaches every definition of that name, so it cannot tell
``TorusPoint.from_csv`` from ``GreenTable.from_csv``, nor a method from a
dict's ``items``.  It finds names nothing uses at all, not every unused one.

The constant guard holds each module-level name that ``src/`` assigns to
the same rule, read more narrowly: a read is a load of the bare name in
its own module, an import of it from that module, or an attribute of that
name anywhere, so a constant moved to another module leaves no copy
behind that the other module's reads keep alive.  Dunders are exempt.

The option guard walks the parser and its subparsers and looks for each
option's dest in ``cli.py`` as ``ns.<dest>`` or as a string (the names
``getattr`` reads).  It too is coarse: any string equal to a dest counts.
"""

import argparse
import ast
import importlib
from pathlib import Path

from sandharm import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sandharm"


def _definitions(tree):
    """(qualified name, bare name, enclosing class name or None) of each def and class."""
    out = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name, owner))
                inner_owner = child.name if isinstance(child, ast.ClassDef) else None
                visit(child, prefix + child.name + ".", inner_owner)

    visit(tree, "", None)
    return out


def _names_used(tree):
    """Every identifier the module uses: names, attributes, imports and identifier strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def _overrides(module_name, owner, name):
    cls = getattr(importlib.import_module(module_name), owner, None)
    return cls is not None and any(hasattr(base, name) for base in cls.__mro__[1:])


def test_src_defines_nothing_only_the_tests_reach():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_") or path == PACKAGE / "__init__.py":
            continue
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "sandharm." + path.stem if path.stem != "__init__" else "sandharm"
        for qualname, name, owner in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if name in used or (name.startswith("__") and name.endswith("__")):
                continue
            if owner is not None and _overrides(module, owner, name):
                continue
            unreached.append("%s.%s" % (module, qualname))
    assert not unreached, "defined in src/ but reached only from the tests: %s" % ", ".join(unreached)


def _constants(tree):
    """Names assigned at module level, each once."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.setdefault(name.id)
    return list(names)


def _reads(tree, module):
    """(module, name) for each bare-name load and each import of a name from a module; attribute names as (None, name)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            reads.add((None, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            reads |= {(node.module.split(".")[-1], alias.name) for alias in node.names}
    return reads


def test_src_assigns_no_constant_nothing_reads():
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_") or path == PACKAGE / "__init__.py":
            continue
        reads |= _reads(ast.parse(path.read_text(), filename=str(path)), path.stem)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _constants(ast.parse(path.read_text(), filename=str(path))):
            if name.startswith("__") and name.endswith("__"):
                continue
            if (path.stem, name) not in reads and (None, name) not in reads:
                unread.append("%s.%s" % (path.stem, name))
    assert not unread, "assigned in src/ but read by nothing in src/ or perfbench/: %s" % ", ".join(unread)


def _options(parser):
    """Every option of the parser and of its subparsers, as (command path, action)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in dict.fromkeys(action.choices.values()):
                yield from _options(sub)
        elif action.option_strings and not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            yield parser.prog, action


def test_cli_reads_every_option():
    """Each option's dest is read in ``cli.py``, as ``ns.<dest>`` or as a string naming it (``getattr``)."""
    source = PACKAGE / "cli.py"
    read = set()
    for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ns":
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    unread = ["%s %s" % (prog, "/".join(action.option_strings))
              for prog, action in _options(cli._build_parser()) if action.dest not in read]
    assert not unread, "options that cli.py never reads: %s" % ", ".join(unread)
