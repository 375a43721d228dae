import csv
import math

import numpy as np
import pytest

from hopf import labelcsv


def word(text: bytes) -> int:
    """Up to 8 bytes as the value of the little-endian word that holds them."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def digit(a: int) -> bytes:
    return bytes([48 + a])


def test_text_tables_equal_their_per_entry_definitions():
    assert labelcsv._DIGITS4.tolist() == [word(f"{i:04d}".encode()) for i in range(10_000)]
    heads = ([b"0." + b"0" * (3 - d) + digit(a) for d in range(4) for a in range(10)]
             + [digit(a) + b"." for a in range(10)] + [digit(a) for a in range(10)])
    assert labelcsv._HEAD.tolist() == [word(text) for text in heads]
    texts = [f"e-{-e:02d}".encode() if e < -4 else b"" for e in range(-307, 0)]
    assert labelcsv._EXPONENT.tolist() == [word(text) for text in texts]
    assert labelcsv._EXPONENT_BITS.tolist() == [8 * len(text) for text in texts]
    assert labelcsv._KEEP_MIDDLE.tolist() == [2**64 - 1 >> 8 * max(cut - 8, 0) for cut in range(17)]
    assert labelcsv._KEEP_TAIL.tolist() == [2**64 - 1 >> 8 * min(cut, 8) for cut in range(17)]
    assert [labelcsv._ZERO, labelcsv._ONE, labelcsv._COMMA, labelcsv._CRLF] == \
        [word(b"0.0"), word(b"1.0"), word(b","), word(b"\r\n")]


FLOATS = [np.float64(0.1), -0.0, math.nan, math.inf, -math.inf, 5e-324, np.float32(0.1), 0.25]


def test_row_writer_writes_each_float_as_repr_of_float(tmp_path):
    path = tmp_path / "rows.csv"
    labelcsv.write_rows(path, ["a", "b", "c", "d"], [[7, None, "text", v] for v in FLOATS])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "c", "d"]
    assert rows[1:] == [["7", "", "text", repr(float(v))] for v in FLOATS]
    # repr of the numpy value itself would write its type's name under numpy 2
    assert rows[1][3] == "0.1"
    assert path.read_bytes().startswith(b"a,b,c,d\r\n7,,text,0.1\r\n")


def test_row_writer_without_a_header_appends(tmp_path):
    path = tmp_path / "rows.csv"
    labelcsv.write_rows(path, ["iteration", "f1"], [[1, 0.5]])
    labelcsv.write_rows(path, None, [[2, np.float64(0.75)]])
    assert path.read_bytes() == b"iteration,f1\r\n1,0.5\r\n2,0.75\r\n"
    labelcsv.write_rows(path, ["iteration", "f1"], [])  # a header starts the file afresh
    assert path.read_bytes() == b"iteration,f1\r\n"


@pytest.mark.parametrize("rows", [1, labelcsv.BLOCK_ROWS, labelcsv.BLOCK_ROWS + 1])
def test_matrix_with_an_index_matches_csv_writer(tmp_path, rows):
    m = np.random.default_rng(rows).random((rows, 3))
    m[0] = [5e-324, -0.0, 1.0]
    index = np.random.default_rng(0).integers(0, 10**12, rows)
    labelcsv.write(tmp_path / "got.csv", m, index=index)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "label_0", "label_1", "label_2"])
        writer.writerows([int(n)] + [repr(float(v)) for v in row] for n, row in zip(index, m))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
