"""How the toolkit opens, checks and replaces its files: writes are atomic,
and a bad CSV row is reported as ``path: bad <what> row at line N: reason``."""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import repeat


# Floats in CSV/report outputs carry 9 significant digits.
fmt_float = "{:.9g}".format


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


def write_csv(path, header: str, lines) -> None:
    """A header line, then one line per formatted row."""
    write_text(path, "\n".join([header, *lines]) + "\n")


def column_lines(columns):
    """CSV lines from numpy columns; every cell of an absent (None) column is blank."""
    cells = [
        repeat("") if col is None
        else map(fmt_float if col.dtype.kind == "f" else str, col.tolist())
        for col in columns
    ]
    return map(",".join, zip(*cells))


def read_csv(path, header: str, parsers, what: str) -> list[list]:
    """The columns of a CSV whose first line is header, parsed one column at a
    time: parsers[j] converts every cell of column j.

    Each row must have as many cells as the header. A ValueError from a
    parser is re-raised naming path and the line of the first bad row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: not a {what} file (bad header)")
    ncells = header.count(",") + 1
    rows = lines[1:]
    try:
        if any(row.count(",") != ncells - 1 for row in rows):
            raise ValueError
        cells = ",".join(rows).split(",") if rows else []
        return [list(map(parse, cells[j::ncells])) for j, parse in enumerate(parsers)]
    except ValueError:
        for lineno, row in enumerate(rows, start=2):  # find the first bad row
            cells = row.split(",")
            try:
                if len(cells) != ncells:
                    raise ValueError(f"{len(cells)} cells, expected {ncells}")
                for parse, cell in zip(parsers, cells):
                    parse(cell)
            except ValueError as exc:
                raise ValueError(f"{path}: bad {what} row at line {lineno}: {exc}") from exc
        raise
