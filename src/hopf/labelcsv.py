"""Label-matrix CSV text: the one formatter behind every ``{yhat,ytilde}`` CSV.

A label CSV has a ``label_0,...`` header, then one row per node: Python
``repr`` floats joined by commas, CRLF line ends and no quoting, the bytes of
``csv.writer`` with ``repr`` (no float's ``repr`` holds a comma, quote or
newline). Rows are formatted and written ``BLOCK_ROWS`` at a time, so a matrix
never exists as one whole string or one whole list of Python floats.

The module imports the standard library alone, so it also runs as a script in
an interpreter that loads neither numpy nor ``hopf``. ``hopf.iterate`` starts
it that way to format part of a run's label CSVs beside the calling process::

    python -I -S labelcsv.py COLS SNAPSHOT FIRST_ROW OUT [SNAPSHOT FIRST_ROW OUT ...]

Each ``SNAPSHOT`` holds a row-major matrix of ``COLS`` columns as raw native
float64 (``ndarray.tofile``). Its rows from ``FIRST_ROW`` on are written to
``OUT``: a whole CSV when ``FIRST_ROW`` is 0, else a tail without the header,
to be appended to the head the caller writes itself. A failure prints the
``OUT`` path and the cause on standard error and exits with status 1.
"""

from __future__ import annotations

import sys
from array import array

BLOCK_ROWS = 1024
_FLOAT_BYTES = 8


def write(path, cols: int, blocks, header: bool = True) -> None:
    """Write the CSV rows in ``blocks`` to ``path``, after a header if ``header``.

    ``blocks`` yields the rows in order, each item a flat row-major sequence
    of floats holding a whole number of rows (``BLOCK_ROWS`` of them, bar the
    last). Either ``ndarray.tolist()`` or an ``array('d')`` will do: both give
    floats whose ``repr`` is that of ``float(v)``.
    """
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(f"label_{j}" for j in range(cols)) + "\r\n")
        for values in blocks:
            fh.write("".join(",".join(map(repr, values[i : i + cols])) + "\r\n"
                             for i in range(0, len(values), cols)))


def snapshot_blocks(path, cols: int, first_row: int = 0):
    """The rows of a raw float64 snapshot of ``cols`` columns from ``first_row`` on,
    ``BLOCK_ROWS`` at a time."""
    row_bytes = cols * _FLOAT_BYTES
    with open(path, "rb") as fh:
        fh.seek(first_row * row_bytes)
        while raw := fh.read(BLOCK_ROWS * row_bytes):
            if len(raw) % row_bytes:
                raise ValueError(f"snapshot {path} ends inside a row of {cols} float64 values")
            block = array("d")
            block.frombytes(raw)
            yield block


def main(argv) -> int:
    cols, jobs = int(argv[0]), argv[1:]
    for snapshot, first_row, path in zip(jobs[::3], map(int, jobs[1::3]), jobs[2::3]):
        try:
            write(path, cols, snapshot_blocks(snapshot, cols, first_row), header=first_row == 0)
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
