"""Guard: the covering map reads no Green's table.

``harmonic`` computes every image from the map's Fourier symbol, so it has
no use for ``green``.  An import of ``green`` (or of a name from it) in
``harmonic.py`` is how a table would creep back into the map, and fails
this test.
"""

import ast
from pathlib import Path

HARMONIC = Path(__file__).resolve().parents[1] / "src" / "sandharm" / "harmonic.py"


def test_harmonic_imports_nothing_from_green():
    found = []
    for node in ast.walk(ast.parse(HARMONIC.read_text(), filename=str(HARMONIC))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names if not node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += ["line %d" % node.lineno for m in modules if "green" in m.split(".")]
    assert not found, "harmonic.py imports from green at %s" % ", ".join(found)
