"""How the toolkit opens, checks and replaces its files: writes are atomic,
and every fault of an input file is reported as ``path: reason`` by naming."""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable

import numpy as np


# Floats in CSV/report outputs carry 9 significant digits.
fmt_float = "{:.9g}".format
_ROWS_PER_WRITE = 4096


def parse_optional(text: str, parse=int):
    """None for a blank cell, else parse(text)."""
    text = text.strip()
    return None if text == "" else parse(text)


@contextmanager
def naming(path):
    """Re-raise a ValueError or OverflowError as ``path: reason``, of the same class."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        cls = ValueError if isinstance(exc, UnicodeError) else type(exc)  # UnicodeDecodeError needs 5 args
        raise cls(f"{path}: {exc}") from exc


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temp file next to path, then os.replace it onto path.

    On failure the temp file is deleted and path keeps its old bytes. An
    existing non-regular destination (``/dev/null``, a FIFO) is written in place.
    """
    target = os.path.realpath(path)
    kwargs = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, **kwargs) as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header: str, columns: list) -> None:
    """A header line, then one line per row of the numpy columns, written
    _ROWS_PER_WRITE rows at a time; every cell of an absent (None) column is blank.

    Each distinct float64 bit pattern (so -0.0 apart from 0.0) is formatted once.
    """
    cells = [_cell_texts(col) for col in columns]
    n = min((col.size for col in columns if col is not None), default=0)
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _ROWS_PER_WRITE):
            rows = zip(*(texts(lo, lo + _ROWS_PER_WRITE) for texts in cells))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _cell_texts(col):
    """texts(lo, hi): the cell texts of col[lo:hi]."""
    if col is None:
        return lambda lo, hi: repeat("")
    if col.dtype.kind != "f":
        return lambda lo, hi: map(str, col[lo:hi].tolist())
    bits, where = np.unique(col.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
    distinct = np.array([fmt_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return lambda lo, hi: distinct[where[lo:hi]].tolist()


@dataclass(frozen=True)
class Column:
    """A CSV column of int64 or float64 cells.

    Called on one cell, it parses it with Python's int or float: that is the
    reference parse, and its ValueError names a bad row. An optional column
    reads a blank cell as None. valid, vectorised, must hold for every value;
    a value that fails it raises ValueError(invalid.format(value)).
    """

    dtype: type
    optional: bool = False
    valid: Callable | None = None
    invalid: str = ""

    def __call__(self, cell: str):
        parse = int if self.dtype is np.int64 else float
        value = parse_optional(cell, parse) if self.optional else parse(cell)
        if value is not None and self.valid is not None and not self.valid(value):
            raise ValueError(self.invalid.format(value))
        return value


INT, FLOAT = Column(np.int64), Column(np.float64)
OPTIONAL_INT, OPTIONAL_FLOAT = Column(np.int64, optional=True), Column(np.float64, optional=True)


def cast_columns(table, floats) -> None:
    """Cast each field of dataclass table that is not None to a float64 (if
    named in floats) or int64 column as long as the first; frozen ones too."""
    n = np.size(getattr(table, fields(table)[0].name))
    for f in fields(table):
        if (col := getattr(table, f.name)) is not None:
            col = np.asarray(col, dtype=np.float64 if f.name in floats else np.int64)
            if col.shape != (n,):
                raise ValueError(f"column {f.name} has shape {col.shape}, expected ({n},)")
            object.__setattr__(table, f.name, col)


def blank_cells(column, n: int) -> np.ndarray:
    """Which of the n cells of an optional column read_csv read as blank."""
    if column is None:
        return np.ones(n, dtype=bool)
    if isinstance(column, np.ndarray):
        return np.zeros(n, dtype=bool)
    return np.fromiter((cell is None for cell in column), dtype=bool, count=n)


def read_csv(path, header: str, parsers, what: str) -> list:
    """The columns of a CSV whose first line is header: parsers[j] converts
    every cell of column j, and each row has as many cells as the header.

    numpy's C parser reads the body first; its numpy columns are returned where
    they are sure to equal Python's parse (see _c_columns), and an optional
    column blank on every row is None. Otherwise the columns are lists from
    _python_columns, whose ValueError names the line of the first bad row.
    """
    with naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if not lines or lines[0] != header:
            raise ValueError(f"not a {what} file (bad header)")
        rows = lines[1:]
        ncells = header.count(",") + 1
        # numpy reads a text cell that starts with NUL as "", which Python's parse refuses
        return (("\0" not in text and _c_columns(rows, parsers, ncells))
                or _python_columns(rows, parsers, what, ncells))


def numpy_or_none(parse, *args, **kwargs):
    """parse(*args, **kwargs), a numpy parse, or None where it raised or
    warned: there its answer could differ from Python's, which then decides."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(*args, **kwargs)
        except (ValueError, OverflowError, Warning):
            return None


def _c_columns(rows: list[str], parsers, ncells: int) -> list | None:
    """The columns np.loadtxt parses from rows, or None wherever its answer
    could differ from Python's: it raised or warned (as on a row whose cell
    count is not ncells), it skipped a row, or a value fails valid. An optional
    column blank in the first row is read as text, must be blank on every
    row, and is returned as None."""
    if not rows or rows[0].count(",") != ncells - 1:
        return None
    blank = [parse.optional and cell == "" for parse, cell in zip(parsers, rows[0].split(","))]
    dtype = np.dtype([(f"c{j}", "U1" if blank[j] else p.dtype) for j, p in enumerate(parsers)])
    table = numpy_or_none(np.loadtxt, rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    if table is None or table.size != len(rows):
        return None
    columns = [table[name] for name in dtype.names]
    for parse, skip, values in zip(parsers, blank, columns):
        if not ((values == "").all() if skip else parse.valid is None or parse.valid(values).all()):
            return None
    return [None if skip else values for skip, values in zip(blank, columns)]


def _python_columns(rows: list[str], parsers, what: str, ncells: int) -> list[list]:
    """Python's parse of rows, one list per column, row by row: the reference
    answer, and the only source of the error text of a bad row."""
    columns = [[] for _ in parsers]
    for lineno, row in enumerate(rows, start=2):
        cells = row.split(",")
        try:
            if len(cells) != ncells:
                raise ValueError(f"{len(cells)} cells, expected {ncells}")
            for column, parse, cell in zip(columns, parsers, cells):
                column.append(parse(cell))
        except ValueError as exc:
            raise ValueError(f"bad {what} row at line {lineno}: {exc}") from exc
    return columns
