"""Every top-level function and class, and every method, of the package is used.

A top-level def or class in src/bredonkit must be read somewhere in the
package outside its own definition, or be imported by the package's
__init__ (the public API).  A method or property of a package class must
be read as an attribute somewhere in the package outside its own
definition (matched by attribute name, whatever the class), or be on KEEP
with the reason it stays.  Code that only the tests call does not count.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bredonkit"

# names that stay although nothing in the package reads them
KEEP = {
    "expand": "GCWComplex.expand is the test oracle for the orbit chains",
    "graded": "FreeSpaceCohomology.graded is read by the acceptance gate",
    "to_json": "ObstructionCertificate.to_json is used by the README and "
               "the demos",
    "free_cohomology": "a second name for FreeSpaceCohomology(x), exported; "
                       "it stays because the benchmark's required calls "
                       "name it",
}


def names_read(node):
    """Names and attribute names read anywhere under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def attributes_read(node):
    """Attribute names read anywhere under node."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def parse_package(src):
    return {path.name: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))}


def unread(units, candidates, reads):
    """The candidate definitions whose name no other unit reads.

    units are (module, node) pairs; a unit reads reads(node).
    """
    read = {id(node): reads(node) for _, node in units}
    readers = Counter(n for names in read.values() for n in names)
    return ["%s:%d %s" % (module, node.lineno, node.name)
            for module, node in units
            if id(node) in candidates
            and readers[node.name] == (node.name in read[id(node)])]


def dead_definitions(src):
    modules = parse_package(src)
    exported = {alias.name
                for node in ast.walk(modules.pop("__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # one unit per top-level statement of the package
    units = [(name, node) for name, tree in modules.items() for node in tree.body]
    return unread(units, {id(node) for _, node in units
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and node.name not in exported}, names_read)


def dead_methods(src):
    modules = parse_package(src)
    del modules["__init__.py"]
    # one unit per top-level statement, with each class body split into
    # one unit per statement
    units = [(name, sub) for name, tree in modules.items() for node in tree.body
             for sub in (node.body if isinstance(node, ast.ClassDef) else [node])]
    methods = {id(sub) for name, tree in modules.items() for node in tree.body
               if isinstance(node, ast.ClassDef) for sub in node.body
               if isinstance(sub, ast.FunctionDef) and sub.name not in KEEP
               and not (sub.name.startswith("__") and sub.name.endswith("__"))}
    return unread(units, methods, attributes_read)


def test_every_top_level_definition_is_used_or_exported():
    assert dead_definitions(SRC) == []


def test_every_method_is_used_or_kept():
    assert dead_methods(SRC) == []


def test_every_kept_name_is_defined():
    defined = {node.name for tree in parse_package(SRC).values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(set(KEEP) - defined) == []
