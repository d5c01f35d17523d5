"""The library's public names are the ones its own code or its package exports use.

A top-level public function or class in a ``geomqm`` module must be read by
some other ``geomqm`` code, outside its own definition, or be exported by
``geomqm/__init__.py``.  A public wrapper that only tests call is a second
path to a value the reports already compute.
"""

import ast
from pathlib import Path

import geomqm

SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(geomqm.__path__[0]).glob("*.py"))}


def _read_names(node) -> set[str]:
    """The names and attribute names that ``node`` reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def public_definitions() -> dict[str, str]:
    """module.name -> name for every top-level public function and class outside __init__."""
    return {f"{module}.{node.name}": node.name
            for module, tree in SOURCES.items() if module != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_name_is_used_or_exported():
    exported = {alias.asname or alias.name for node in SOURCES["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # each top-level statement of each module, with the name it defines (if any)
    statements = [(getattr(node, "name", None), _read_names(node))
                  for module, tree in SOURCES.items() if module != "__init__"
                  for node in tree.body]
    unused = sorted(qualified for qualified, name in public_definitions().items()
                    if name not in exported
                    and not any(name in reads for defined, reads in statements if defined != name))
    assert unused == [], f"public names that no library code uses or exports: {unused}"


def test_definitions_are_found():
    # the walk sees the modules' definitions, so an empty result above is not vacuous
    names = public_definitions()
    assert {"algebra.pair", "dual.star_report", "cli.run", "report.Suite"} <= set(names)
