"""The benchmark's tracer hooks name functions that exist.

`perfbench/tracing.py` patches the functions its SPANS and LEAVES tables
name, and lists a missing one as absent instead of failing, so a renamed
function would silently read 0 in its per-layer metric.  This test reads
the tables without importing the benchmark package or writing beside it,
and requires every (module, attribute) to resolve under `bockstein`.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_tables():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return [(module_name, attr) for _, module_name, attr, _ in module.SPANS + module.LEAVES]


HOOKS = _tracing_tables()


def test_the_tracer_tables_are_read():
    assert len(HOOKS) > 10


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_every_tracer_hook_resolves(module_name, attr):
    owner = importlib.import_module(f"bockstein.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
