"""Guard: every function, method and class in ``src/`` is reached by the program.

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
"""

import ast
import importlib
from pathlib import Path

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
