"""``deltashock.tables``: every table the lab writes, in one byte format.

The CLI's tables, the regime sweep's included, are written once into a
shared directory; each must be the bytes ``csv.writer`` writes for its
own rows read back as numbers.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from deltashock.cli import main
from deltashock.pairing import LEMMA_FAMILIES
from deltashock.tables import write_table

ROOT = Path(__file__).resolve().parents[1]

CLI_TABLES = ["front", "klimit", "riemann",
              *[f"lemma31_{name}_{ch}" for name in LEMMA_FAMILIES for ch in "AB"]]
SWEEP_TABLES = ["regimes_k0p1", "regimes_k0p5", "regimes_k1"]
# Columns of names; every other field is a number.
LABEL_COLUMNS = {"region", "regime"}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The root of one directory per writer: "cli", and "sweep" for the regime sweep."""
    root = tmp_path_factory.mktemp("tables")
    for where, args in (("cli", ["front"]), ("cli", ["k-limit"]), ("cli", ["verify-expansions"]),
                        ("cli", ["--config", str(ROOT / "configs" / "riemann.ini"), "riemann"]),
                        ("sweep", ["sweep"])):
        assert main(["--out", str(root / where), *args]) == 0
    return root


@pytest.mark.parametrize("where,name", [
    *[("cli", n) for n in CLI_TABLES],
    *[("sweep", n) for n in SWEEP_TABLES],
])
def test_every_table_is_bytes_csv_writer_writes(written, where, name):
    data = (written / where / f"{name}.csv").read_bytes()
    header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
    labels = [col in LABEL_COLUMNS for col in header]
    rows = [[v if label else float(v) for v, label in zip(row, labels)] for row in rows]
    assert rows
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    assert data == buf.getvalue().encode()


def test_json_rows_are_header_keyed_objects(tmp_path):
    write_table([(0.5, 1), (-0.0, 2.5), ("left", "fan-2")], ["x", "u", "region"],
                tmp_path / "t", "json")
    assert json.loads((tmp_path / "t.json").read_text()) == [
        {"x": 0.5, "u": -0.0, "region": "left"},
        {"x": 1.0, "u": 2.5, "region": "fan-2"}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [
    [(0.5, -0.0, "left"), (1, 2.5, "fan-2"), (-0.0, 0.0, "left")],
    [],
], ids=["rows", "empty"])
def test_columns_write_the_bytes_their_rows_write(tmp_path, fmt, rows):
    # The rows' bytes are those of the standard library's writers, each
    # number as a float: csv.writer's text, or json.dump's list of
    # header-keyed objects.
    header = ["x", "u", "region"]
    rows = [[v if isinstance(v, str) else float(v) for v in row] for row in rows]
    write_table([[row[i] for row in rows] for i in range(3)], header,
                tmp_path / "columns", fmt)
    buf = io.StringIO()
    if fmt == "csv":
        csv.writer(buf).writerows([header, *rows])
    else:
        json.dump([dict(zip(header, row)) for row in rows], buf, indent=1)
    assert (tmp_path / "columns").with_suffix(f".{fmt}").read_bytes() == buf.getvalue().encode()
