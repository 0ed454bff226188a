"""Every top-level function and class of the package is used.

A top-level def or class in src/bredonkit must be read somewhere in the
package outside its own definition, or be imported by the package's
__init__ (the public API).  Code that only the tests call does not count.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bredonkit"


def names_read(node):
    """Names and attribute names read anywhere under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def dead_definitions(src):
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(src.glob("*.py"))}
    exported = {alias.name
                for node in ast.walk(modules.pop("__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # how many top-level statements of the package read each name
    statements = [(name, node, names_read(node))
                  for name, tree in modules.items() for node in tree.body]
    readers = Counter(n for _, _, read in statements for n in read)
    dead = []
    for module, node, read in statements:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in exported
                and readers[node.name] == (node.name in read)):
            dead.append("%s:%d %s" % (module, node.lineno, node.name))
    return dead


def test_every_top_level_definition_is_used_or_exported():
    assert dead_definitions(SRC) == []
