"""The CSV reader that tropstat.cli.read_points used before numpy's C
tokenizer took over, kept as a test reference: tests/test_cli.py checks
that read_points returns the same float64 bits, or raises the same
CliError, on generated files.

It reads every csv record of the file as a list of Python strings,
converts them all with one np.array(rows, dtype=float) (float() on each
cell), and only when that fails scans the rows again for the first bad
cell or ragged row.  It has no handling of csv.Error, so a cell longer
than csv.field_size_limit() escapes it.
"""

from __future__ import annotations

import csv

import numpy as np

from tropstat.cli import EXIT_PARSE, CliError, _not_utf8


def read_points(path: str, header: bool) -> np.ndarray:
    rows = []
    linenos = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if row and not (header and lineno == 1):
                    rows.append(row)
                    linenos.append(lineno)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not rows:
        raise CliError(f"{path}: no data rows", EXIT_PARSE)
    try:
        X = np.array(rows, dtype=float)  # float() on each cell, as below
    except ValueError:
        # a bad cell or a ragged row: find the first, row by row
        for lineno, row in zip(linenos, rows):
            try:
                [float(cell) for cell in row]
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {exc}", EXIT_PARSE)
            if len(row) != len(rows[0]):
                raise CliError(
                    f"{path}:{lineno}: ragged row ({len(row)} cells, "
                    f"expected {len(rows[0])})",
                    EXIT_PARSE,
                )
        raise
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise CliError(f"{path}:{linenos[finite.argmin()]}: non-finite value", EXIT_PARSE)
    return X
