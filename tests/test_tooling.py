"""The benchmark's tracer wraps hpmetric functions by name: every name it
lists must still resolve, or a traced run fails on a missing attribute."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_tables() -> dict:
    """SPANNED and COUNTED as written in the tracer, read without running it."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


TRACED = [(table, mod, name)
          for table, by_module in sorted(tracer_tables().items())
          for mod, names in by_module.items() for name in names]


def test_tracer_tables_found():
    assert set(tracer_tables()) == {"SPANNED", "COUNTED"}
    assert TRACED


@pytest.mark.parametrize("table, mod, name", TRACED,
                         ids=[f"{t}-{m}.{n}" for t, m, n in TRACED])
def test_traced_name_is_callable(table, mod, name):
    module = importlib.import_module(f"hpmetric.{mod}")
    assert callable(getattr(module, name, None))
