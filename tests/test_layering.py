"""The package's import layers, read from each module's AST, so an import
inside a function counts as much as one at the top of the file."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bockstein

PACKAGE = Path(bockstein.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def imports(source: str):
    """The package modules a module's source imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "bockstein":
                continue
            # `from . import x` and `from bockstein import x` name modules;
            # `from .x import y` and `from bockstein.x import y` name x
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            names = [parts[0]] if parts and parts[0] else [a.name for a in node.names]
            out.update(n for n in names if n in MODULES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bockstein" and len(parts) > 1 and parts[1] in MODULES:
                    out.add(parts[1])
    return out


def module_imports(module: str):
    return imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_the_oracles_reach_no_engine_code():
    # closedform certifies the engine, so nothing it imports, directly or
    # through another module, may be the engine or read the engine's output
    reached, todo = set(), ["closedform"]
    while todo:
        for dep in module_imports(todo.pop()) - reached:
            reached.add(dep)
            todo.append(dep)
    assert not reached & {"engine", "cases", "jsonio", "svg", "cli"}


@pytest.mark.parametrize("module", ["engine", "formulas", "algebra", "linalg", "towers"])
def test_the_layers_below_the_oracles_import_no_closedform(module):
    # closedform is the one module that builds the THH algebra
    assert "closedform" not in module_imports(module)


def test_imports_are_read_in_every_form_and_place():
    source = """
import json
from . import engine, towers
from .jsonio import emit_json
import bockstein.svg
from bockstein import cli
from bockstein.cases import Case

def lazy():
    from .closedform import thh_mod_p_algebra
"""
    assert imports(source) == {"engine", "towers", "jsonio", "svg", "cli", "cases",
                               "closedform"}


def test_the_cli_starts_on_the_standard_library_alone():
    # every `bockstein` command imports the CLI first, so a module it pulls
    # in that is neither the package's nor the standard library's would
    # cost every start; a fresh interpreter lists what the import adds
    code = ("import sys; before = set(sys.modules); import bockstein.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    added = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, text=True, check=True).stdout.split()
    assert "bockstein.cli" in added
    assert [name for name in added if name.split(".")[0] != "bockstein"
            and name.split(".")[0] not in sys.stdlib_module_names] == []


def test_only_the_page_compile_reads_a_rule():
    # _page_generators checks every rule and records the A-degrees of its
    # ends, which the later stages read, so no other code in the engine
    # reads a Rule's source or target and decides again what a rule is
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))

    def reads(root):
        return {(node.lineno, node.col_offset) for node in ast.walk(root)
                if isinstance(node, ast.Attribute) and node.attr in ("source", "target")}

    (compile_page,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       and node.name == "_page_generators"]
    assert reads(compile_page) and reads(tree) == reads(compile_page)
