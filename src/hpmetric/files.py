"""CSV and sidecar I/O for the command line tools.

Dense matrices are written with a label header row and 17-significant-digit
values so that write-then-read round-trips exactly.  They are streamed one
row at a time in both directions: the writer formats each row with a single
C-level ``%`` over a row template, and the reader parses each line with one
``np.fromstring`` call, so neither holds the file's text in memory.  Every
CLI output file gets a JSON sidecar (same basename, .meta.json) recording
version, seed, parameters, and timing.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import ParseError
from .graphs import WeightedDigraph

# Every number written to a CSV file: 17 significant digits round-trip.
FLOAT_FMT = "%.17g"


def write_dense_csv(path, M: np.ndarray, labels) -> None:
    M = np.asarray(M)
    row_fmt = ",".join([FLOAT_FMT] * M.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(l) for l in labels) + "\n")
        for row in M:
            fh.write(row_fmt % tuple(row.tolist()))


def read_dense_csv(path):
    """Read a matrix written by :func:`write_dense_csv`.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line holds the labels and every later one a row.  A row whose value count
    differs from the labels', or that holds a non-numeric value, raises
    :class:`ParseError` with its line number in the file.
    """
    labels = None
    rows = []
    with open(path, "rb") as fh, warnings.catch_warnings():
        # Older numpy releases only warn on a partial parse; make them raise.
        warnings.simplefilter("error", DeprecationWarning)
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip(b"\r\n")
            if not line.strip() or line.startswith(b"#"):
                continue
            if labels is None:
                labels = line.decode("utf-8").split(",")
                continue
            try:
                row = np.fromstring(line, sep=",")
            except (ValueError, DeprecationWarning):
                raise ParseError("non-numeric value", lineno) from None
            # fromstring accepts a trailing comma, so count the commas too.
            if row.size != len(labels) or line.count(b",") != len(labels) - 1:
                raise ParseError(f"expected {len(labels)} values", lineno)
            rows.append(row)
    if labels is None:
        raise ParseError("empty matrix file", 1)
    return np.array(rows), labels


def write_edge_csv(path, g: WeightedDigraph) -> None:
    coo = g.weights.tocoo()
    line_fmt = f"%s,%s,{FLOAT_FMT}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            fh.write(line_fmt % (g.labels[i], g.labels[j], w))
        if coo.nnz == 0:
            fh.write("\n")  # an edgeless graph is written as one empty line


def write_column_csv(path, labels, columns: dict) -> None:
    """Write `label,<col1>,<col2>,...` rows with a header line."""
    names = list(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(names) + "\n")
        for i, lab in enumerate(labels):
            vals = []
            for name in names:
                v = columns[name][i]
                vals.append(FLOAT_FMT % v if isinstance(v, (int, float, np.floating)) else str(v))
            fh.write(f"{lab}," + ",".join(vals) + "\n")


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_meta(path, command: str, params: dict, seed=None, started: float = None) -> None:
    from . import __version__

    meta = {
        "version": __version__,
        "command": command,
        "parameters": params,
        "seed": seed,
    }
    if started is not None:
        meta["elapsed_seconds"] = time.time() - started
    meta_path(path).write_text(json.dumps(meta, indent=2, default=str) + "\n",
                               encoding="utf-8")
