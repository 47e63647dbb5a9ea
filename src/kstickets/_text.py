"""How the toolkit opens, checks and replaces its files: writes are atomic,
and a bad CSV row is reported as ``path: bad <what> row at line N: reason``."""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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


def blank_cells(column, n: int) -> np.ndarray:
    """Which of the n cells of an optional column read_csv read as blank."""
    if column is None:
        return np.ones(n, dtype=bool)
    if isinstance(column, np.ndarray):
        return np.zeros(n, dtype=bool)
    return np.fromiter((cell is None for cell in column), dtype=bool, count=n)


def read_csv(path, header: str | None, parsers, what: str) -> list:
    """The columns of a CSV whose first line is header, or of a headerless one
    when header is None: parsers[j], or one Column for all, converts every cell
    of column j, and each row has as many cells as the header or the first row.

    numpy's C parser reads the body first; its numpy columns are returned where
    they are sure to equal Python's parse (see _c_columns), and an optional
    column blank on every row is None. Otherwise the columns are lists from
    _python_columns, whose ValueError names path and the line of the first bad row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    headed = header is not None
    if headed and (not lines or lines[0] != header):
        raise ValueError(f"{path}: not a {what} file (bad header)")
    rows = lines[headed:]
    ncells = (header if headed else next(iter(rows), "")).count(",") + 1
    if isinstance(parsers, Column):
        parsers = (parsers,) * ncells
    return (_c_columns(text, rows, parsers, ncells, headed)
            or _python_columns(path, rows, parsers, what, ncells, headed))


def _c_columns(text: str, rows: list[str], parsers, ncells: int, headed: bool) -> list | None:
    """The columns np.loadtxt parses from rows, or None wherever its answer
    could differ from Python's: it raised or warned, it skipped a row, a
    row's cell count is not ncells, or a value fails valid.

    Optional columns left blank in the first row, when trailing, are left
    out of the parse (usecols); they must be blank on every row.
    """
    if not rows or rows[0].count(",") != ncells - 1:
        return None
    first = rows[0].split(",")
    used = ncells
    while used > 1 and parsers[used - 1].optional and first[used - 1] == "":
        used -= 1
    # Every row has exactly ncells cells: the commas add up, numpy found the
    # used cells of every row, and every row ends with the blank ones.
    blank = "," * (ncells - used)
    if text.count(",") != (len(rows) + headed) * (ncells - 1):
        return None
    if blank and text.count(blank + "\n") + text.endswith(blank) != len(rows):
        return None
    dtype = np.dtype([(f"c{j}", parsers[j].dtype) for j in range(used)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                               usecols=tuple(range(used)), ndmin=1)
        except (ValueError, OverflowError, Warning):  # Python's parse decides
            return None
    if table.size != len(rows):
        return None
    parsed = [table[name] for name in dtype.names] + [None] * (ncells - used)
    for parse, values in zip(parsers, parsed):
        if parse.valid is not None and values is not None and not parse.valid(values).all():
            return None
    return parsed


def _python_columns(path, rows: list[str], parsers, what: str, ncells: int,
                    headed: bool) -> list[list]:
    """Python's parse of rows, one list per column: the reference answer, and
    the only source of the error text of a bad row."""
    try:
        if any(row.count(",") != ncells - 1 for row in rows):
            raise ValueError
        cells = ",".join(rows).split(",") if rows else []
        return [list(map(parse, cells[j::ncells])) for j, parse in enumerate(parsers)]
    except ValueError:
        for lineno, row in enumerate(rows, start=1 + headed):  # find the first bad row
            cells = row.split(",")
            try:
                if len(cells) != ncells:
                    raise ValueError(f"{len(cells)} cells, expected {ncells}")
                for parse, cell in zip(parsers, cells):
                    parse(cell)
            except ValueError as exc:
                raise ValueError(f"{path}: bad {what} row at line {lineno}: {exc}") from exc
        raise
