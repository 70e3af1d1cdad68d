"""Guard: the covering map's error rule has one home.

``XiSpec.field_err`` turns a field's sup into the err of its image, and
only ``harmonic.xi_apply_stack`` applies it.  Every other module reads the
``err`` of the images it compares, so a budget worked out again from an
assumed sup (``2 * spec.field_err(gamma - 1)``) fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sandharm"


def _references(tree, name):
    """Line numbers of every name, attribute or identifier string equal to ``name``."""
    lines = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name.split(".")[-1] == name)
            or (isinstance(node, ast.Constant) and node.value == name)
        ):
            lines.append(node.lineno)
    return lines


def test_field_err_is_applied_only_in_harmonic():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "harmonic.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += ["%s:%d" % (path.name, line) for line in _references(tree, "field_err")]
    assert not found, "field_err referenced outside harmonic.py: %s" % ", ".join(found)
    harmonic = ast.parse((PACKAGE / "harmonic.py").read_text())
    assert _references(harmonic, "field_err"), "the guard no longer sees the rule's home"
