"""Plain-text tables: the row formatter and CSV reader of every file curvspec
writes or reads back. Rows are `fmt % row` over the columns' `.tolist()`
scalars, formatted for the whole table by one `%`; `%.17g` prints every
float, -0, nan and inf as `{v:.17g}` does.
"""

from __future__ import annotations

import numpy as np


def format_rows(fmt: str, *columns, sep: str = "\n") -> str:
    """The `fmt % row` of every row of the equal-length columns, joined by sep."""
    cols = [np.asarray(c).tolist() for c in columns]
    n, k = len(cols[0]), len(cols)
    flat = [None] * (n * k)  # row-major: the arguments of one `%` over the table
    for j, col in enumerate(cols):
        flat[j::k] = col
    return ((fmt + sep) * (n - 1) + fmt) % tuple(flat) if n else ""


def write_table(path, header: str, fmt: str, *columns) -> None:
    """A header line, then one `fmt % row` line per row of the columns."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + format_rows(fmt + "\n", *columns, sep=""))


def read_csv(path, what: str, header_ok, error) -> tuple[list[str], np.ndarray]:
    """Header columns and the float data rows (blank lines skipped); an unreadable
    file, a bad header (`header_ok`) or a bad row raises `error` naming the path."""
    try:  # a non-ASCII byte becomes U+FFFD, which fails as a header or number below
        fh = open(path, "r", encoding="ascii", errors="replace")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    with fh:
        header = fh.readline().strip().split(",")
        if not header_ok(header):
            raise error(f"{path}:1: not a {what} (columns {header})")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise error(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
            try:
                rows.append([float(x) for x in parts])
            except ValueError:
                raise error(f"{path}:{lineno}: malformed number in {line!r}") from None
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))
