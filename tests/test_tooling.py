"""Checks on the package source itself."""

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

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


# defaulted parameters that no call in the package passes, with the reason
# each one stays
UNSET_ALLOWED = {
    "cli.main(argv)": "the console script passes none, so argv comes from sys.argv",
    "formula.parse_substitution(language)": "waits for `mlunif check` (ROADMAP item 4)",
}


def unset_parameters():
    """Every defaulted parameter of a package function, as
    "module.function(parameter)", that no call in the package passes by
    keyword or by position.  Calls match definitions by bare function or
    method name; a call of a class counts for its `__init__`, and
    `functools.partial(f, ...)` for f."""
    defs = []  # (module, qualified name, leading parameters skipped, definition)
    calls = []
    for entry in sorted(os.listdir(SRC)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(SRC, entry), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        methods[item] = node.name + "." + item.name, 0 if static else 1
            elif isinstance(node, ast.Call):
                calls.append(node)
        defs += [(entry[:-3],) + methods.get(node, (node.name, 0)) + (node,)
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def name_of(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    passed = {}  # bare name -> [(positional count, keywords, passes every argument)]
    for call in calls:
        name, args = name_of(call.func), call.args
        if name == "partial" and args:
            name, args = name_of(args[0]), args[1:]
        unpacks = (any(isinstance(a, ast.Starred) for a in args)
                   or any(k.arg is None for k in call.keywords))
        passed.setdefault(name, []).append(
            (len(args), {k.arg for k in call.keywords}, unpacks))
    out = set()
    for module, qualified, skip, fn in defs:
        # a class is called by its own name
        name = qualified.split(".")[0] if fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        defaulted += [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        for arg in defaulted:
            index = positional.index(arg) - skip if arg in positional else None
            if not any(unpacks or arg.arg in keywords or index is not None and count > index
                       for count, keywords, unpacks in passed.get(name, ())):
                out.add("%s.%s(%s)" % (module, qualified, arg.arg))
    return out


def test_every_defaulted_parameter_is_set_by_a_caller_in_the_package():
    assert unset_parameters() == set(UNSET_ALLOWED)


def readme_names_not_in_the_package():
    """Every backticked bare identifier in README's `mlunif.<module>` rows
    that the package does not define: as a def or class, an assigned name
    or attribute, or a string literal other than a docstring."""
    defined = set()
    for entry in sorted(os.listdir(SRC)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(SRC, entry), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                defined.add(node.value)
    readme = os.path.join(os.path.dirname(os.path.dirname(SRC)), "README.md")
    named = set()
    with open(readme, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("| `mlunif."):
                contents = line.split("|", 2)[2]
                named.update(name for name in re.findall(r"`([^`]*)`", contents)
                             if re.fullmatch(r"[A-Za-z_]\w*", name))
    return named - defined


def test_readme_module_table_names_only_what_the_package_defines():
    assert readme_names_not_in_the_package() == set()


def readme_command_lines():
    """Every `mlunif <command> ...` line of README's `sh` blocks, with `\\`
    continuations joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(SRC)), "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(), re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("mlunif ")]


def test_readme_commands_use_only_real_options():
    from mlunif import cli

    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    lines = readme_command_lines()
    assert len(lines) >= 6
    unknown = []
    for line in lines:
        words = shlex.split(line, comments=True)
        options = commands[words[1]]._option_string_actions
        unknown += [(words[1], word) for word in words[2:]
                    if word.startswith("--") and word.split("=")[0] not in options]
    assert unknown == []


def test_every_annotation_resolves():
    """`typing.get_type_hints` evaluates the annotations of every package
    function and method, so each name they use must be imported (the
    annotations are strings under `from __future__ import annotations`)."""
    import importlib
    import inspect
    import typing

    checked = 0
    for entry in sorted(os.listdir(SRC)):
        if not entry.endswith(".py"):
            continue
        module = importlib.import_module("mlunif." + entry[:-3])
        owned = [v for v in vars(module).values()
                 if getattr(v, "__module__", None) == module.__name__]
        functions = [v for v in owned if inspect.isfunction(v)]
        for cls in filter(inspect.isclass, owned):
            functions += [getattr(v, "__func__", v) for v in vars(cls).values()
                          if inspect.isfunction(getattr(v, "__func__", v))]
        for fn in functions:
            typing.get_type_hints(fn)
            checked += 1
    assert checked > 100


def test_start_up_loads_no_heavy_modules(tmp_path):
    """Every `mlunif` call is a fresh process, so the package's imports are
    paid on each one: none of these may be loaded, by the imports or by a
    whole `verify` run (`dataclasses` alone brings in `inspect`, `ast`,
    `dis` and `tokenize`; argparse's own help formatter imports `shutil`,
    and with it bz2, lzma, zlib and fnmatch, for every `add_argument`)."""
    heavy = ("dataclasses", "typing", "inspect", "ast", "dis", "tokenize",
             "shutil", "bz2", "lzma")
    program = tmp_path / "program.txt"
    program.write_text("1 -> 2,0,+1\n")
    code = ("import sys, mlunif.cli, mlunif.eqtheory; "
            "code = mlunif.cli.main(['verify', '--program', %r, '--start', '1,0,0', "
            "'--target', '2,0,1']); "
            "print(code, *(name for name in %r if name in sys.modules), file=sys.stderr)"
            % (str(program), heavy))
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)), check=True)
    assert json.loads(run.stdout)["verdict"] == "unifiable"
    assert run.stderr.split() == ["0"]


@pytest.mark.parametrize("columns", [None, "120", "40"])
def test_help_is_the_stock_formatter_help(monkeypatch, columns):
    from mlunif import cli

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    parsers = [parser] + list(commands.values())
    ours = [p.format_help() for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert [p.format_help() for p in parsers] == ours


def test_traced_run_keeps_the_random_model_suite_spans(tmp_path):
    """`bench/tracing.py` wraps `truth_mask` at the name `workbench` calls it
    by, so a traced run of a suite instance counts its one truth-mask pass
    and times the suite."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    with open(os.path.join(bench, "workloads.json"), encoding="utf-8") as handle:
        instance = json.load(handle)["workloads"]["suite"]["instances"][0]
    program = tmp_path / "program.txt"
    program.write_text(instance["program"].replace(" / ", "\n") + "\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "layout": 0, "trace": 1, "result": str(tmp_path / "result.json"),
        "argv": ["verify", "--program", str(program), "--start", instance["start"],
                 "--target", instance["target"], "--mode", instance["mode"],
                 "--seed", "1", "--out", str(tmp_path / "out")]}))
    subprocess.run([sys.executable, "-S", os.path.join(bench, "child.py"), str(spec),
                    repr(time.perf_counter())],
                   env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)), cwd=tmp_path,
                   check=True, capture_output=True)
    layers = json.loads((tmp_path / "result.json").read_text())["layers"]
    assert layers["kripke.truth_mask_calls"] == 1
    assert layers["workbench.check_on_random_models_s"] > 0
