import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from kstickets import _text
from kstickets._text import (
    FLOAT,
    INT,
    OPTIONAL_FLOAT,
    OPTIONAL_INT,
    atomic_open,
    fmt_float,
    parse_optional,
    read_csv,
    write_csv,
    write_text,
)
from kstickets.certify import LOG_HEADER, PredictionLog, read_prediction_log, write_prediction_log
from kstickets.checkpoint import CheckpointError, import_csv_matrix
from kstickets.cli import _read_corpus, _read_counts_csv, run
from kstickets.selection import SCORES_HEADER, ScoreTable, read_scores_csv, write_scores_csv
from kstickets.toytrain import read_task_csv


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new partial")
            raise RuntimeError("writer died")
    assert path.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer previous file\n")
    write_text(path, "short\n")
    assert path.read_text() == "short\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_new_file_gets_default_permissions(tmp_path):
    reference = tmp_path / "reference.txt"
    with open(reference, "w"):
        pass
    write_text(tmp_path / "out.txt", "x\n")
    mode = lambda p: stat.S_IMODE(os.stat(p).st_mode)  # noqa: E731
    assert mode(tmp_path / "out.txt") == mode(reference)


def test_non_regular_destination_is_written_in_place():
    write_text(os.devnull, "discarded\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_symlink_keeps_pointing_at_its_target(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    i = np.arange(3)
    write_csv(path, "a,b", [i, i * i])
    assert path.read_bytes() == b"a,b\n0,0\n1,1\n2,4\n"


def per_cell_lines(columns):
    """write_csv's reference: each cell formatted on its own."""
    n = min(len(col) for col in columns if col is not None)
    cells = [[""] * n if col is None
             else [fmt_float(x) if col.dtype.kind == "f" else str(x) for x in col.tolist()[:n]]
             for col in columns]
    return [",".join(row) for row in zip(*cells)]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_write_csv_matches_per_cell_formatting(tmp_path, n):
    # repeated and distinct floats, -0.0 beside 0.0, non-finite values, float32
    # and int columns and a blank column, across the write chunk boundaries
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e300, 1 / 3, 1e-9, 0.1])
    columns = [
        np.arange(n),
        rng.normal(size=n),
        rng.choice(special, n),
        rng.choice(special[[0, 1, 2, 3, 4, 7, 9]], n).astype(np.float32),
        None,
        rng.integers(-(2**62), 2**62, n),
        np.round(rng.normal(size=n), 2),
    ]
    want = per_cell_lines(columns)
    write_csv(tmp_path / "t.csv", "a,b,c,d,e,f,g", columns)
    assert (tmp_path / "t.csv").read_text() == "\n".join(["a,b,c,d,e,f,g", *want]) + "\n"


def test_read_csv_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=rf"{path}: bad pairs row at line 3: .*'x'"):
        read_csv(path, "a,b", (INT, INT), "pairs")


def test_read_csv_cell_count_comes_from_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2: 3 cells, expected 2"):
        read_csv(path, "a,b", (INT, INT), "pairs")


def test_parse_optional():
    assert parse_optional(" ") is None
    assert parse_optional("7") == 7
    assert parse_optional("0.5", float) == 0.5


def test_read_csv_returns_columns_and_names_the_first_bad_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert [c.tolist() for c in read_csv(path, "a,b", (INT, FLOAT), "pairs")] == [[1, 3], [2.0, 4.0]]
    path.write_text("a,b\n")
    assert read_csv(path, "a,b", (INT, INT), "pairs") == [[], []]
    for text, line in (("a,b\n1,2\n3\n5,x\n", 3), ("a,b\n1,2\n5,x\n3\n", 3),
                       ("a,b\nx,2\n1,2,3\n", 2), ("a,b\n1,2\n\n", 3)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}: bad pairs row at line {line}: "):
            read_csv(path, "a,b", (INT, INT), "pairs")


# The C parser (numpy) must give Python's answer or hand the file to Python's
# parse: every case reads to the same columns, or fails with the same text.
CELLS = ["7", "+7", " 7 ", "1_000", "١٢", "1.0", "1e3", "99999999999999999999",
         "-99999999999999999999", "nan", "-nan", "inf", "-Infinity", "Infinity",
         "1e999", "1.5e-400", "-0", "0.1", "", " ", "#", "0x10", "1\x002", "\u20037",
         "7\u3000", "\xa07", "７", "1d3", "infinit", "nan(1)", ".", "-.5e-3", "1e", "e3"]
ROW = ["4", "0.25", "5", "0.75"]


def with_cell(j, cell):
    return ",".join(ROW[:j] + [cell] + ROW[j + 1:])


BODIES = {
    **{f"cell-{j}-{cell!r}": f"{with_cell(j, cell)}\n{','.join(ROW)}\n"
       for j in range(4) for cell in CELLS},
    **{f"row-2-cell-{j}-{cell!r}": f"{','.join(ROW)}\n{with_cell(j, cell)}\n"
       for j in range(4) for cell in ("", "1.0", "x")},
    "extra-cell": "1,0.5,2,0.5\n1,0.5,2,0.5,9\n",
    "missing-cell": "1,0.5,2,0.5\n1,0.5,2\n",
    "missing-and-extra-cell": "1,0.5,2,\n1,0.5,2,,\n1,0.5\n",
    "short-blank-row": "1,0.5,,\n1,0.5,\n1,0.5,,,\n",
    "hash-cell": "1,0.5,2,0.5\n#,0.5,2,0.5\n",
    "blank-line-mid-file": "1,0.5,2,0.5\n\n1,0.5,2,0.5\n",
    "whitespace-line": "1,0.5,2,0.5\n   \n1,0.5,2,0.5\n",
    "trailing-formfeed": "1,0.5,2,0.5\x0c\n1,0.5,2,0.5\n",
    "trailing-formfeed-blank-optionals": "1,0.5,,\x0c\n1,0.5,,\n",
    "crlf": "1,0.5,2,0.5\r\n3,0.25,4,0.125\r\n",
    "crlf-blank-optionals": "1,0.5,,\r\n3,0.25,,\r\n",
    "lone-cr": "1,0.5,2,0.5\r3,0.25,4,0.125\n",
    "no-final-newline": "1,0.5,2,0.5\n3,0.25,4,0.125",
    "no-final-newline-blank-optionals": "1,0.5,,\n3,0.25,,",
    "header-only": "",
    "one-row": "1,0.5,2,0.5\n",
    "blank-optionals": "1,0.5,,\n3,0.25,,\n",
    "blank-last-optional": "1,0.5,2,\n3,0.25,4,\n",
    "blank-first-optional": "1,0.5,,0.5\n3,0.25,,0.125\n",
    "mixed-blank-later": "1,0.5,,\n3,0.25,4,\n",
    "mixed-blank-first": "1,0.5,2,\n3,0.25,,\n",
    "mixed-blank-middle": "1,0.5,2,0.5\n3,0.25,,0.125\n",
    "blank-optional-as-space": "1,0.5, ,\n3,0.25,,\n",
}
PARSERS = (INT, FLOAT, OPTIONAL_INT, OPTIONAL_FLOAT)


def cells_of(column, n):
    """A column as Python values, floats by their bytes; absent is all blank."""
    values = [None] * n if column is None else np.asarray(column, dtype=object).tolist()
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def outcome(read):
    try:
        columns = read()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    n = len(columns[0])
    return [cells_of(c, n) for c in columns]


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_c_parser_gives_pythons_answer(tmp_path, monkeypatch, body):
    path = tmp_path / "t.csv"
    path.write_text("i,f,oi,of\n" + body, encoding="utf-8", newline="")
    read = lambda: read_csv(path, "i,f,oi,of", PARSERS, "t")  # noqa: E731
    fast = outcome(read)
    monkeypatch.setattr(_text, "_c_columns", lambda *args: None)
    assert fast == outcome(read)


@pytest.mark.parametrize("body", ["1\n2\n", "1\n\n2\n", "1\n \n2\n", "1\n2\n\n", "\n"])
def test_c_parser_gives_pythons_answer_on_one_column(tmp_path, monkeypatch, body):
    # without a comma to count, only the row count sees numpy skip a blank line
    path = tmp_path / "t.csv"
    path.write_text("i\n" + body)
    read = lambda: read_csv(path, "i", (INT,), "t")  # noqa: E731
    fast = outcome(read)
    monkeypatch.setattr(_text, "_c_columns", lambda *args: None)
    assert fast == outcome(read)


@pytest.mark.parametrize("cell", CELLS, ids=map(repr, CELLS))
def test_matrix_c_parser_gives_pythons_answer(tmp_path, monkeypatch, cell):
    # the headerless reader: the cell in each column, in the first row (which
    # sets the cell count) and in the second
    path = tmp_path / "m.csv"

    def read():
        try:
            tensor = import_csv_matrix(path, "m").tensor("m")
        except CheckpointError as exc:
            return str(exc)
        return tensor.shape, tensor.data.tobytes()

    bodies = [f"{with_cell(j, cell)}\n{','.join(ROW)}\n" for j in range(4)]
    bodies += [f"{','.join(ROW)}\n{with_cell(j, cell)}\n" for j in range(4)]
    fast = []
    for body in bodies:
        path.write_text(body, encoding="utf-8", newline="")
        fast.append(read())
    monkeypatch.setattr(_text, "_c_columns", lambda *args: None)
    for body, want in zip(bodies, fast):
        path.write_text(body, encoding="utf-8", newline="")
        assert read() == want, body


MALFORMED = [
    ("scores", read_scores_csv, f"{SCORES_HEADER}\n0,0,1,1,0,0,1,0,\n1,0,1,x,0,0,1,0,\n",
     "line 3: could not convert string to float: 'x'"),
    ("log", read_prediction_log, f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n0,1,1,1,0.9,zz,,,\n",
     "line 3: could not convert string to float: 'zz'"),
    ("counts", lambda p: _read_counts_csv(p, 8), "token_id,count\n0,1\n8,1\n",
     "line 3: token id 8 outside [0, 8)"),
    ("task", lambda p: read_task_csv(p, 8), "source,target\n0,1\n9,2\n",
     "line 3: source id 9 outside [0, 8)"),
    ("task", lambda p: read_task_csv(p, 8), "source,target\n0,1\n2,-1\n",
     "line 3: target id -1 outside [0, 8)"),
    ("matrix", lambda p: import_csv_matrix(p, "m"), "1,2\n3,x\n",
     "line 2: could not convert string to float: 'x'"),
    ("matrix", lambda p: import_csv_matrix(p, "m"), "1,2\n3,inf\n", "line 2: non-finite cell inf"),
    ("matrix", lambda p: import_csv_matrix(p, "m"), "1,2\n3\n", "line 2: 1 cells, expected 2"),
]


@pytest.mark.parametrize("what, read, text, reason", MALFORMED,
                         ids=["scores", "log", "counts", "task-source", "task-target",
                              "matrix-non-numeric", "matrix-non-finite", "matrix-ragged"])
def test_every_reader_names_path_and_line_of_a_bad_row(tmp_path, what, read, text, reason):
    path = tmp_path / f"{what}.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: bad {what} row at {reason}"


CORPORA = ["1 2 3\n", "1\n\n2\r\n3\t4\x0b5\x0c6 \n", "", "  \n", "\n", "-", "+", "- 1",
           "1 -", "1 +", "-0", "+7", "0001", "1_000", "١٢", "1.5", "1e3", "x", "1\x1c2",
           "1\xa02", "1\x002", "9223372036854775807", "9223372036854775808",
           "99999999999999999999", "-9223372036854775809"]


@pytest.mark.parametrize("corpus", CORPORA, ids=map(repr, CORPORA))
def test_corpus_c_parser_gives_pythons_answer(tmp_path, monkeypatch, corpus):
    path = tmp_path / "corpus.txt"
    path.write_text(corpus, encoding="utf-8", newline="")

    def read():
        try:
            ids = _read_corpus(path)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)
        return ids.dtype, ids.tobytes()

    fast = read()

    def refuse(*args, **kwargs):
        raise ValueError("forced fallback")

    monkeypatch.setattr(np, "fromstring", refuse)
    assert fast == read()


def test_workload_files_take_the_c_parser(tmp_path, monkeypatch):
    """Every file kind the pipeline writes is read without Python's parse."""
    def cli(*argv):
        assert run([str(a) for a in argv]) == 0

    t = tmp_path
    cli("toy", "gen", "--seed", 1, "--vocab", 64, "--pairs", 300, "--out", t / "task.csv")
    cli("toy", "init", "--seed", 1, "--vocab", 64, "--dim", 16, "--out", t / "base.ckpt")
    cli("toy", "train", "--model", t / "base.ckpt", "--task", t / "task.csv", "--mode", "embed",
        "--epochs", 3, "--out", t / "tuned.ckpt")
    (t / "corpus.txt").write_text((" ".join(map(str, range(64))) + "\n") * 3)
    cli("freq", "--corpus", t / "corpus.txt", "--vocab", 64, "--out", t / "counts.csv")
    pair = ["--base", t / "base.ckpt", "--tuned", t / "tuned.ckpt", "--tensor", "embedding"]
    cli("analyze", *pair, "--out", t / "scores.csv")
    cli("analyze", *pair, "--freq", t / "counts.csv", "--out", t / "scores-freq.csv")
    predict = ["toy", "predict-log", "--tuned", t / "tuned.ckpt", "--task", t / "task.csv"]
    cli(*predict, "--out", t / "log.csv")
    cli(*predict, "--partial", t / "tuned.ckpt", "--base", t / "base.ckpt", "--out", t / "log-full.csv")
    cli(*predict, "--partial", t / "tuned.ckpt", "--out", t / "log-partial.csv")

    def refuse(*args):
        raise AssertionError("Python's parse was entered")

    monkeypatch.setattr(_text, "_python_columns", refuse)
    assert read_scores_csv(t / "scores.csv").frequency is None
    assert read_scores_csv(t / "scores-freq.csv").frequency is not None
    assert read_prediction_log(t / "log.csv").base_p1 is None
    full = read_prediction_log(t / "log-full.csv")
    assert full.partial_prediction is not None and full.base_p2 is not None
    assert read_prediction_log(t / "log-partial.csv").base_p1 is None
    assert _read_counts_csv(t / "counts.csv", 64).sum() == 3 * 64
    assert len(read_task_csv(t / "task.csv", 64).sources) == 300


def test_reader_peak_memory(tmp_path):
    """Reading keeps no Python object per cell: the traced peak stays within
    3x the file plus its columns."""
    rng = np.random.default_rng(0)
    n = 100_000
    p1 = rng.uniform(0.5, 1.0, n)
    ids = rng.integers(0, 8192, (4, n))
    log = PredictionLog(np.arange(n) // 40, np.arange(n) % 40, ids[0], ids[1], p1, p1 / 3,
                        ids[2], p1, p1 / 4)
    v = 32_000
    scores = ScoreTable(rng.permutation(v), rng.integers(0, 65, v) / 64, *rng.random((6, v)))
    write_prediction_log(log, tmp_path / "log.csv")
    write_scores_csv(scores, tmp_path / "scores.csv")
    for read, name in ((read_prediction_log, "log.csv"), (read_scores_csv, "scores.csv")):
        path = tmp_path / name
        tracemalloc.start()
        try:
            table = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in vars(table).values() if c is not None)
        assert peak <= 3 * (path.stat().st_size + columns), name
