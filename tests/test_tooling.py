"""Checks on the package source itself."""

import ast
import os

import mlunif

SRC = os.path.dirname(os.path.abspath(mlunif.__file__))

# top-level names that only the tests call, each waiting for a caller
UNREFERENCED_ALLOWED = {
    # the equational corollary, for a command that writes it (ROADMAP item 9)
    "eqtheory.parse_equation",
    "eqtheory.parse_term",
    "eqtheory.print_term",
    "eqtheory.theory_implications",
    "eqtheory.unification_instance",
    # the readers of written evidence, for `mlunif check` (ROADMAP item 4)
    "encoding.marker",
    "formula.parse_substitution",
}


def unreferenced_names():
    """Every top-level function, class and variable of the package, as
    "module.name", that no code in the package reads outside the name's own
    definition.  A read is a name bound to it by definition or by
    `from .module import name`, or an attribute of a module imported with
    `from . import module`.  Dunder names are left out."""
    trees = {}
    for entry in sorted(os.listdir(SRC)):
        if entry.endswith(".py"):
            with open(os.path.join(SRC, entry), encoding="utf-8") as handle:
                trees[entry[:-3]] = ast.parse(handle.read())
    defined = {}  # (module, name) -> its top-level defining statement
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                found = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in targets:
                if not name.startswith("__"):
                    defined[module, name] = node
    read = set()
    for module, tree in trees.items():
        imported, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for statement in tree.body:
            for node in ast.walk(statement):
                key = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = imported.get(node.id, (module, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    key = (modules[node.value.id], node.attr)
                if key in defined and defined[key] is not statement:
                    read.add(key)
    return {"%s.%s" % key for key in defined if key not in read}


def test_every_top_level_name_has_a_caller_in_the_package():
    assert unreferenced_names() == UNREFERENCED_ALLOWED
