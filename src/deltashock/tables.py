"""The one writer of the lab's tables and JSON reports; it imports nothing
of the package.

A table is given by its columns, as every producer computes it.  CSV is
the text ``csv.writer`` writes, each distinct value formatted once; JSON
is a list of one object per row, keyed by the header, which
:func:`write_json` writes as it writes every report.
"""


class _Fields(dict):
    """The text of each value, made on first use.  Zeros are not kept:
    0.0 and -0.0 are equal keys with different text."""

    def __missing__(self, value):
        text = value if isinstance(value, str) else repr(float(value))
        if value != 0.0:
            self[value] = text
        return text


def write_table(columns, header, stem, fmt: str = "csv") -> None:
    """Write the table whose i-th column is ``columns[i]``, under ``header``,
    to ``<stem>.csv``, or to ``<stem>.json`` when ``fmt`` is "json".  A
    number is written as ``repr(float(v))`` in CSV and as a float in JSON;
    a string (a label, which needs no quoting) as it is."""
    if fmt == "json":
        write_json([dict(zip(header, (v if isinstance(v, str) else float(v) for v in row)))
                    for row in zip(*columns)], f"{stem}.json")
        return
    with open(f"{stem}.csv", "w", newline="") as fh:
        # Formatted a column at a time: ``map`` runs the lookups in C.
        get = _Fields().__getitem__
        lines = map(",".join, zip(*(map(get, column) for column in columns)))
        fh.write("\r\n".join([",".join(header), *lines]) + "\r\n")


def write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as JSON indented by one space: every report,
    and every table in the JSON format."""
    import json  # only JSON output pays for it

    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
