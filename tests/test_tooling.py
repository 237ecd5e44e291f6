"""The benchmark's tracer wraps hpmetric functions by name, its workloads call
hpmetric by name and its worker reads result fields: every name must still
resolve, and every workload call must bind to its callee's signature, or a
benchmark run fails on a missing attribute or argument.  Each workload, built
small, must also pass its own output check.  Three tests pin the command
line: its one sidecar writer, a flag-check table with no dead rows, and the
scipy subpackages that it and the library leave unloaded.  The last two pin
the one factorization of G."""

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import hpmetric
from hpmetric.cli import FLAG_CHECKS, build_parser
from hpmetric.hitting import HittingProbabilities

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


WORKLOADS = TRACER.with_name("workloads.py")
WORKER = TRACER.with_name("worker.py")


WORKLOAD_TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def workload_imports() -> tuple:
    """The hpmetric modules the workloads import, and {local name: (module,
    name)} for the names they import from its submodules."""
    modules, names = set(), {}
    for node in ast.walk(WORKLOAD_TREE):
        if isinstance(node, ast.ImportFrom) and node.module == "hpmetric":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hpmetric."):
            names.update({alias.asname or alias.name: (node.module.split(".", 1)[1], alias.name)
                          for alias in node.names})
    return modules, names


def workload_names() -> list:
    """Every ``<module>.<name>`` the workloads read from an hpmetric module:
    attributes of the modules they import from ``hpmetric``, and the names
    they import from its submodules."""
    modules, imported = workload_imports()
    names = set(imported.values())
    for node in ast.walk(WORKLOAD_TREE):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((node.value.id, node.attr))
    return sorted(names)


def workload_calls() -> dict:
    """{(module, name): [call, ...]} for every call the workloads make into
    hpmetric, through an imported module or an imported name."""
    modules, imported = workload_imports()
    calls = {}
    for node in ast.walk(WORKLOAD_TREE):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            calls.setdefault((func.value.id, func.attr), []).append(node)
        elif isinstance(func, ast.Name) and func.id in imported:
            calls.setdefault(imported[func.id], []).append(node)
    return dict(sorted(calls.items()))


WORKLOAD_NAMES = workload_names()
WORKLOAD_CALLS = workload_calls()


def test_workload_names_found():
    assert ("hitting", "hitting_reference") in WORKLOAD_NAMES


def test_workload_calls_found():
    assert {("metric", "degenerate_pairs"), ("metric", "hp_distance"), ("cli", "main"),
            ("rng", "stream")} <= WORKLOAD_CALLS.keys()


@pytest.mark.parametrize("mod, name", WORKLOAD_NAMES,
                         ids=[f"{m}.{n}" for m, n in WORKLOAD_NAMES])
def test_workload_name_resolves(mod, name):
    module = importlib.import_module(f"hpmetric.{mod}")
    assert hasattr(module, name)


@pytest.mark.parametrize("mod, name", WORKLOAD_CALLS,
                         ids=[f"{m}.{n}" for m, n in WORKLOAD_CALLS])
def test_workload_calls_bind(mod, name):
    """Each call's positional count and keywords fit the callee's signature,
    so a renamed or removed parameter fails here, not in a benchmark run."""
    signature = inspect.signature(getattr(importlib.import_module(f"hpmetric.{mod}"), name))
    for call in WORKLOAD_CALLS[mod, name]:
        assert not any(isinstance(a, ast.Starred) for a in call.args), call.lineno
        assert all(k.arg is not None for k in call.keywords), call.lineno
        try:
            signature.bind(*range(len(call.args)), **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"workloads.py line {call.lineno}: {name}{signature}: {exc}")


def test_smoke_workloads_pass_their_checks(tmp_path, monkeypatch):
    """Each workload with ``smoke=True`` runs its operation on every input and
    its check finds no error.  A changed return type that the workloads pass
    from one library call to the next fails here; the AST checks above see
    only names and signatures."""
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    built = importlib.import_module("workloads").WORKLOADS
    assert built
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # as the worker does
        for name, make in built.items():
            (tmp_path / name).mkdir()
            wl = make(0, True, tmp_path / name, lambda *note: None)
            for index, inp in enumerate(wl.inputs):
                assert wl.check(index, wl.op(inp)) == [], (name, index)


@pytest.mark.parametrize("field", ["smw_fallbacks", "used_reference"])
def test_worker_reads_hitting_field(field):
    read = {node.attr for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert field in read
    assert field in {f.name for f in fields(HittingProbabilities)}


def bound_reads() -> list:
    """(traced name, key) for every ``bound["key"]`` that ``op_record`` in the
    worker reads under ``name == "<module>.<name>"`` or
    ``name.startswith(prefix)``; a prefix stands for every traced name it
    starts."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    op_record = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "op_record")
    reads = []
    for node in ast.walk(op_record):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.Eq):
            names = [test.comparators[0].value]
        elif isinstance(test, ast.Call) and getattr(test.func, "attr", None) == "startswith":
            names = [f"{mod}.{name}" for _, mod, name in TRACED
                     if f"{mod}.{name}".startswith(test.args[0].value)]
        else:
            continue
        keys = {sub.slice.value for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == "bound"}
        reads += [(name, key) for name in names for key in sorted(keys)]
    return reads


BOUND_READS = bound_reads()


def test_bound_reads_found():
    assert {("hitting.hitting_fast", "tm"), ("hitting.simulate_hit_before_return", "walks"),
            ("hitting.simulate_visit_counts", "walks"), ("files.write_dense_csv", "path"),
            ("files.write_meta", "path")} <= set(BOUND_READS)


@pytest.mark.parametrize("traced, key", BOUND_READS, ids=[f"{t}-{k}" for t, k in BOUND_READS])
def test_worker_binds_a_parameter(traced, key):
    mod, name = traced.split(".")
    fn = getattr(importlib.import_module(f"hpmetric.{mod}"), name)
    assert key in inspect.signature(fn).parameters


CLI = Path(hpmetric.__file__).with_name("cli.py")


def test_cli_writes_sidecars_only_in_main():
    """``main`` writes every .meta.json sidecar and keeps the clock: no
    command handler calls ``write_meta`` or reads ``args.started``."""
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    writers = [fn.name for fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "write_meta"]
    assert writers == ["main"]
    assert not [fn.name for fn in functions if fn.name.startswith("cmd_")
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and node.attr == "started"]


def test_every_flag_check_applies_to_some_command():
    """Each FLAG_CHECKS row names dests that one subcommand has all of: a row
    with a misspelt dest would apply to no command and check nothing."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = [{a.dest for a in p._actions} for p in sub.choices.values()]
    dead = [dests for dests, _, _ in FLAG_CHECKS if not any(set(dests) <= c for c in commands)]
    assert dead == []


def test_no_scipy_optimize_special_or_fft_after_imports_and_cluster(tmp_path):
    """Importing every hpmetric module and running ``cluster --truth`` on a
    small planted chain loads none of scipy.optimize, scipy.special and
    scipy.fft: each would add start-up time and memory to every process."""
    src = str(Path(hpmetric.__file__).resolve().parents[1])
    graph, truth = tmp_path / "pp.csv", tmp_path / "truth.csv"
    code = f"""
import contextlib, importlib, io, pkgutil, sys
import hpmetric
for m in pkgutil.iter_modules(hpmetric.__path__):
    importlib.import_module("hpmetric." + m.name)
from hpmetric import cli
assert cli.main(["generate", "--model", "planted", "--n", "30", "--k", "3", "--p-in", "0.9",
                 "--p-out", "0.1", "--seed", "1", "--out", {str(graph)!r},
                 "--truth", {str(truth)!r}]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["cluster", "--in", {str(graph)!r}, "--method", "kmedoids-d12", "--k", "3",
                     "--truth", {str(truth)!r}, "--trials", "50"]) == 0
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.special", "scipy.fft"))))
"""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


SRC = Path(hpmetric.__file__).parent


def dotted(node) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return node.id if isinstance(node, ast.Name) else ""


def src_calls() -> list:
    """(module, top-level function or '<module>', dotted callee) for every call
    under src/hpmetric; calls in nested functions count for the outer one."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            calls += [(path.stem, owner, dotted(node.func)) for node in ast.walk(top)
                      if isinstance(node, ast.Call)]
    return calls


SRC_CALLS = src_calls()
DENSE_INVERSES = {f"{lib}.{fn}" for lib in ("la", "np.linalg") for fn in ("inv", "solve")}


def test_g_is_built_only_to_be_factored():
    """G = I - P + 11^T/n has one caller, the function that factors it once
    per chain for phi and Q."""
    callers = [(mod, fn) for mod, fn, callee in SRC_CALLS
               if callee.rsplit(".", 1)[-1] == "fundamental_system"]
    assert callers == [("stationary", "factor_fundamental_system")]


def test_no_dense_inverse_or_solve_on_g():
    """No function that builds or factors G also calls la.inv, la.solve or
    numpy's: phi and Z come from the one LU."""
    on_g = {(mod, fn) for mod, fn, callee in SRC_CALLS if callee.rsplit(".", 1)[-1]
            in ("fundamental_system", "factor_fundamental_system")}
    inverting = {(mod, fn) for mod, fn, callee in SRC_CALLS if callee in DENSE_INVERSES}
    assert {("stationary", "stationary_distribution"), ("hitting", "hitting_fast")} <= on_g
    assert inverting and not on_g & inverting


def test_every_pivot_sweep_takes_rows_from_the_certificate():
    """The exhaustive pivot sweep runs only inside the certified sweep, on the
    rows its row bounds leave."""
    callers = [(mod, fn) for mod, fn, callee in SRC_CALLS
               if callee.rsplit(".", 1)[-1] == "pivot_maxima"]
    assert callers == [("metric", "certified_pivot_maxima")]
    tree = ast.parse((SRC / "metric.py").read_text(encoding="utf-8"))
    sweeps = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and dotted(node.func) == "pivot_maxima"]
    assert sweeps and all(len(node.args) == 3 and isinstance(node.args[2], ast.Name)
                          and node.args[2].id == "rows" for node in sweeps)
