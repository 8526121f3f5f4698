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


def names_taken(module: str):
    """Every name a module imports from another, loads or reads as an
    attribute (names_read, below, without the imports)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return names_read(tree, strings=False) | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names}


def test_a_ladder_steps_page_is_stated_once():
    # formulas.LambdaFamily.page is the one place a step's page is worked
    # out; the presentation and the schedule both read it there, so neither
    # may name a page formula of its own
    assert not names_taken("closedform") & {"r_conj", "r_len"}
    assert "r_conj" not in names_taken("engine")


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


def test_the_references_share_only_monomial_arithmetic_with_the_library():
    # tests/reference.py holds the Leibniz reference the engine is checked
    # against and the cross-check formulas; it reads no package module but
    # algebra, so a check against it never checks the engine against itself
    source = (Path(__file__).resolve().parent / "reference.py").read_text(encoding="utf-8")
    assert imports(source) == {"algebra"}


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


# Library names that only the tests, the benchmark or the demos read, each
# with the reason it stays; ROADMAP B1 frees the tracer hooks.
READ_ONLY_OUTSIDE = {
    "jsonio.emit_json": "public API: the benchmark and the demos write documents with it",
    "jsonio.monomial_str": "public API: the demos print monomials with it",
    "algebra.Algebra.monomial": "public API: how a caller names a monomial",
    "algebra.Algebra.adjoin": "public API: how a caller writes a rule target over A[v]",
    "closedform.rational_thh_dims": "oracle code, kept beside graded_dims",
    "algebra.basis_in_degree": "benchmark tracer hook",
    "linalg.left_kernel": "benchmark tracer hook",
    "engine.PageData.cells": "benchmark tracer hook (ROADMAP B1, D9)",
    "engine.PageData.diffs": "benchmark tracer hook (ROADMAP B1, D9)",
    "algebra.multiply": "benchmark tracer hook (ROADMAP B1)",
}


def definitions(tree):
    """(qualified name, how a reader reaches it) of each module-level
    function and class, by name or as a module's attribute, and of each
    method of such a class, as an attribute only; the dunder methods are
    left out, since Python calls those itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", "." + sub.name


def names_read(tree, strings):
    """Every name the code loads, and ".attr" for every attribute it reads;
    with strings, also each dotted part of a string constant in both forms,
    as the benchmark's tracer names the functions it hooks."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.update((node.attr, "." + node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                out.update((part, "." + part))
    return out


def data_attributes(tree):
    """".name" of each data attribute a class declares: an annotation in a
    class body, or an assignment to self.name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.update("." + sub.target.id for sub in node.body
                       if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name))
        targets = (list(node.targets) if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                out.add("." + target.attr)
    return out


def methods_called(tree):
    """".name" of each attribute the code calls, as in x.name(...)."""
    return {"." + node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def test_the_library_reads_what_it_defines():
    # a function, class or method defined under src/bockstein that no
    # library module reads, only tests/, perfbench/ or demos/, is code the
    # system does not need; the ones that stay are named above with their
    # reason, and a name the library comes to read, or that goes, leaves
    # the list.  A name is matched, not resolved, so a method counts as
    # read wherever an attribute of that name is, but for a method named
    # like a data attribute of a library class (PageData.degrees beside the
    # method TowerProfile.degrees): that one counts as read only where the
    # library calls .name(...)
    root = Path(__file__).resolve().parents[1]
    defined, inside, fields, called = {}, set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((f"{path.stem}.{qual}", name) for qual, name in definitions(tree))
        fields |= data_attributes(tree)
        if path.stem != "__init__":  # its imports export, they do not read
            inside |= names_read(tree, strings=False)
            called |= methods_called(tree)
    outside = set()
    for folder in ("tests", "perfbench", "demos"):
        for path in (root / folder).rglob("*.py"):
            outside |= names_read(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    colliding = {name for name in defined.values() if name in fields}
    assert colliding == {".degree", ".degrees", ".oracle"}
    unread = {qual for qual, name in defined.items()
              if name not in (called if name in colliding else inside)}
    assert {qual for qual in unread if defined[qual] not in outside} == set()
    assert unread == set(READ_ONLY_OUTSIDE)


# The tests that may read a (t, s) page view, PageData.cells or .diffs: the
# views' own tests and the tracer observers' test, which ROADMAP D9 deletes
# with the views; every other test reads a page through the window walks
# and readers (windows, windows_maps, window(a)).
VIEW_READERS = {
    "test_engine.py::test_lazy_views_equal_the_eager_ones",
    "test_engine.py::test_derived_views_equal_whole_views",
    "test_engine.py::test_no_library_reader_reads_a_page_view",
    "test_tracing_hooks.py::test_the_tracer_observers_count_the_page_views",
}


def test_only_the_view_tests_read_a_page_view():
    # each attribute .cells or .diffs in tests/, named by the module-level
    # function or class it is read in, or by <module> outside one
    readers = set()
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            readers.update(f"{path.name}::{top.name if named else '<module>'}"
                           for node in ast.walk(top)
                           if isinstance(node, ast.Attribute) and node.attr in ("cells", "diffs"))
    assert readers and readers <= VIEW_READERS, sorted(readers - VIEW_READERS)
