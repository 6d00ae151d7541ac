"""The one writer of the lab's tables; it imports nothing of the package.

CSV is the text ``csv.writer`` writes, each distinct value formatted
once; JSON is a list of one object per row, keyed by the header.  A
table is given as its rows or as its columns.
"""

from __future__ import annotations


class _Fields(dict):
    """The text of each value, made on first use.  Zeros are not kept:
    0.0 and -0.0 are equal keys with different text."""

    def __missing__(self, value):
        text = value if isinstance(value, str) else repr(float(value))
        if value != 0.0:
            self[value] = text
        return text


def write_table(rows, header, stem, fmt: str = "csv") -> None:
    """Write ``rows`` under ``header`` to ``<stem>.csv``, or to ``<stem>.json``
    when ``fmt`` is "json".  A number is written as ``repr(float(v))`` in
    CSV and as a float in JSON; a string (a label, which needs no quoting)
    as it is."""
    write_columns(list(zip(*rows)), header, stem, fmt)


def write_columns(columns, header, stem, fmt: str = "csv") -> None:
    """:func:`write_table` of the table whose i-th column is ``columns[i]``,
    for tables made column by column from arrays."""
    with open(f"{stem}.{fmt}", "w", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            # Formatted a column at a time: ``map`` runs the lookups in C.
            get = _Fields().__getitem__
            lines = map(",".join, zip(*(map(get, column) for column in columns)))
            fh.write("\r\n".join([",".join(header), *lines]) + "\r\n")
        else:
            import json  # only JSON runs pay for it

            json.dump([dict(zip(header, (v if isinstance(v, str) else float(v)
                                         for v in row))) for row in zip(*columns)],
                      fh, indent=1)
