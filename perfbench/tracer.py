"""Spans around calls into hpmetric's public functions, recorded from outside.

The tracer replaces each traced function by a wrapper in every loaded
``hpmetric`` module that holds a reference to it, so calls made through
``from .x import f`` bindings inside the library are seen too.  No file of
the library changes.  A span records its name, start, end and parent; a
function's self time is its span's duration minus the spans of traced
functions it called.  Spans are kept in memory per operation.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions that get a span, by module.  Helpers left out here (Tarjan,
# quotient_chain, hitting_reference, the walkers) are counted in the self
# time of the traced function that calls them.
SPANNED = {
    "graphs": ("load_edge_list", "largest_scc", "row_normalize"),
    "stationary": ("stationary_distribution",),
    "hitting": ("hitting_fast",),
    "metric": ("hp_similarity", "hp_distance", "degenerate_pairs", "verify_metric_axioms"),
    "quotient": ("quotient_from_report", "order_class", "segments", "check_quotient_bounds"),
    "spectral": ("symmetrize", "fiedler_vector"),
    "clustering": ("pca_embed", "kmedoids", "kmeans", "purity_accuracy"),
    "verify": ("level_identity", "level_metric", "level_quotient", "level_oracle",
               "submultiplicativity_slack"),
    "files": ("write_dense_csv", "write_meta"),
    "cli": ("main",),
}

# Functions whose calls are only counted (their time stays with the caller).
COUNTED = {
    "hitting": ("simulate_hit_before_return", "simulate_visit_counts"),
}


class Tracer:
    """Collects spans and per-call observations for one operation at a time."""

    def __init__(self):
        self.recording = False
        self.spans = []  # (name, start, end, parent index or -1)
        self.calls = []  # (name, fn, args, kwargs, result) of every wrapped call
        self._open = []  # indices of spans not yet ended
        self._installed = []

    def install(self) -> None:
        """Wrap the traced functions in every loaded hpmetric module."""
        replace = {}
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"hpmetric.{mod_name}"]
            for name in names:
                fn = getattr(mod, name)
                replace[fn] = self._spanned(f"{mod_name}.{name}", fn)
        for mod_name, names in COUNTED.items():
            mod = sys.modules[f"hpmetric.{mod_name}"]
            for name in names:
                fn = getattr(mod, name)
                replace[fn] = self._counted(f"{mod_name}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hpmetric" and not mod_name.startswith("hpmetric."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replace:
                    setattr(mod, attr, replace[value])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            self.calls.append((name, fn, args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.recording:
                self.calls.append((name, fn, args, kwargs, result))
            return result

        return wrapper

    def start_op(self) -> None:
        self.spans, self.calls, self._open = [], [], []
        self.recording = True

    def stop_op(self) -> None:
        self.recording = False

    def self_times(self) -> dict:
        """Self time per function name over the spans of the last operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out
