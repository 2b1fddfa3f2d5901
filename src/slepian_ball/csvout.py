"""CSV output: tables formatted and written `_CSV_CHUNK` rows at a time.

Each chunk of rows goes through one %-format.  Floats carry 17 significant
digits (%.17g), so doubles round-trip, and integers print as %d.  Columns
drawn from a short table, `lambda_radial` and `lambda_angular` of
`eigenvalues.csv` and the grid coordinates of the eigenfunction maps and
`values.csv`, format each distinct bit pattern once and gather the strings
chunk by chunk (`_Gathered`); every other float (`lambda`, map values,
`decay.csv`) is formatted per value.  Either way the bytes are the same.
The zero tail of a block solve's `eigenvalues.csv`, the rows
``rank,0,m,,``, takes one `str` per rank and no float formatting.
"""

from __future__ import annotations

import itertools

import numpy as np


_CSV_FORMATS = {"f": "%.17g", "i": "%d", "O": "%s"}
_CSV_CHUNK = 512  # rows formatted and encoded at a time


class _Gathered:
    """A float64 array, flattened, that its call site knows to be drawn from
    a short table, as a `_csv_rows` column: each distinct bit pattern is
    formatted once, as a float column's cells are, and a slice of rows
    gathers its strings by a binary search of its bit patterns.  The table
    sorts the int64 view, so 0.0 and -0.0 (or two NaN payloads) stay
    distinct."""

    dtype = np.dtype(object)  # a slice is the table's strings, printed as %s

    def __init__(self, column):
        self.bits = np.ravel(column).view(np.int64)
        table = np.sort(self.bits)
        self.table = np.delete(table, np.flatnonzero(table[1:] == table[:-1]))
        values = self.table.view(float).tolist()
        self.strings = np.array([_CSV_FORMATS["f"] % v for v in values], dtype=object)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, rows):
        return self.strings[np.searchsorted(self.table, self.bits[rows])]


def _csv_rows(*columns):
    """CSV lines of equal-length columns, one line per row, as encoded
    chunks of _CSV_CHUNK rows.

    Float columns print as %.17g (17 significant digits, so doubles
    round-trip), integer columns as %d and object columns (strings, and
    the strings a `_Gathered` column gathers) as they are; a None column
    stays empty.  All rows of a chunk go through one %-format.
    """
    present = [c for c in columns if c is not None]
    n = len(present[0])
    row = ",".join("" if c is None else _CSV_FORMATS[c.dtype.kind] for c in columns) + "\n"
    for start in range(0, n, _CSV_CHUNK):
        cells = np.empty((min(_CSV_CHUNK, n - start), len(present)), dtype=object)
        for j, c in enumerate(present):
            cells[:, j] = c[start:start + _CSV_CHUNK]
        yield ((row * len(cells)) % tuple(cells.ravel().tolist())).encode()


def _csv(header: str, *columns):
    """The chunks of a CSV file: its `header` line, then `_csv_rows(*columns)`."""
    return itertools.chain([(header + "\n").encode()], _csv_rows(*columns))


def _zero_tail_rows(start: int, orders):
    """CSV lines `rank,0,m,,` of ranks start, start + 1, ... with orders
    `orders`, as encoded chunks of _CSV_CHUNK rows.  Each run of one order
    in a chunk is one join of its ranks' `str`, with no %-format."""
    for lo in range(0, len(orders), _CSV_CHUNK):
        m = orders[lo:lo + _CSV_CHUNK]
        cuts = [0, *(np.flatnonzero(m[1:] != m[:-1]) + 1).tolist(), m.size]
        lines = []
        for a, b in zip(cuts, cuts[1:]):
            end = f",0,{int(m[a])},,\n"
            lines.append(end.join(map(str, range(start + lo + a, start + lo + b))) + end)
        yield "".join(lines).encode()


def _eigen_csv(res):
    """The chunks of eigenvalues.csv, through `_csv_rows`.  A separable
    solve's factor columns draw on short tables, of at most P radial and
    L (L + 1) / 2 angular values, so they are `_Gathered`.  A block solve
    ends in a tail of +0.0 eigenvalues, its padding (clamped zeros included),
    whose rows `_zero_tail_rows` writes."""
    header = "rank,lambda,m,lambda_radial,lambda_angular"
    if res.lam_radial is not None:
        return _csv(header, np.arange(len(res)), res.eigenvalues, res.orders,
                    _Gathered(res.lam_radial), _Gathered(res.lam_angular))
    nonzero = np.flatnonzero(res.eigenvalues.view(np.int64))  # +0.0 is all-zero bits
    n = int(nonzero[-1]) + 1 if nonzero.size else 0
    return itertools.chain(_csv(header, np.arange(n), res.eigenvalues[:n], res.orders[:n],
                                None, None), _zero_tail_rows(n, res.orders[n:]))
