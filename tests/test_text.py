import os
import stat

import pytest

from kstickets._text import atomic_open, parse_optional, read_csv, write_csv, write_text


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
    write_csv(path, "a,b", (f"{i},{i * i}" for i in range(3)))
    assert path.read_bytes() == b"a,b\n0,0\n1,1\n2,4\n"


def test_read_csv_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=rf"{path}: bad pairs row at line 3: .*'x'"):
        read_csv(path, "a,b", (int, int), "pairs")


def test_read_csv_cell_count_comes_from_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2: 3 cells, expected 2"):
        read_csv(path, "a,b", (str, str), "pairs")


def test_parse_optional():
    assert parse_optional(" ") is None
    assert parse_optional("7") == 7
    assert parse_optional("0.5", float) == 0.5


def test_read_csv_returns_columns_and_names_the_first_bad_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert read_csv(path, "a,b", (int, float), "pairs") == [[1, 3], [2.0, 4.0]]
    path.write_text("a,b\n")
    assert read_csv(path, "a,b", (int, int), "pairs") == [[], []]
    for text, line in (("a,b\n1,2\n3\n5,x\n", 3), ("a,b\n1,2\n5,x\n3\n", 3),
                       ("a,b\nx,2\n1,2,3\n", 2), ("a,b\n1,2\n\n", 3)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}: bad pairs row at line {line}: "):
            read_csv(path, "a,b", (int, int), "pairs")
