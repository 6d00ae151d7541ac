"""``deltashock.tables``: every table the lab writes, in one byte format.

The CLI's tables and both experiment scripts' tables are written once
into a shared directory; each must be the bytes ``csv.writer`` writes
for its own rows read back as numbers, and the worked example's front
and k-limit tables must be the CLI's.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltashock.cli import main
from deltashock.pairing import LEMMA_FAMILIES
from deltashock.tables import write_table

ROOT = Path(__file__).resolve().parents[1]

CLI_TABLES = ["front", "klimit", "riemann",
              *[f"lemma31_{name}_{ch}" for name in LEMMA_FAMILIES for ch in "AB"]]
WORKED_TABLES = {  # table -> (header, data rows)
    "front_k0p1": ("t,phi,e,re_p,im_p", 33),
    "fields_k0p1": ("x,re_u,im_u,sigma", 801),
    "front_k0": ("t,phi,e,re_p,im_p", 33),
    "fields_k0": ("x,re_u,im_u,sigma", 801),
    "klimit": ("k,gap", 3),
}
SWEEP_TABLES = ["regimes_k0p1", "regimes_k0p5", "regimes_k1"]
# Columns of names; every other field is a number.
LABEL_COLUMNS = {"region", "regime"}


def _run_script(name, out):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Directory per writer ("cli", "worked", "sweep") and the scripts' runs."""
    root = tmp_path_factory.mktemp("tables")
    cli = root / "cli"
    for args in (["front"], ["k-limit"], ["verify-expansions"],
                 ["--config", str(ROOT / "configs" / "riemann.ini"), "riemann"]):
        assert main(["--out", str(cli), *args]) == 0
    runs = {name: _run_script(f"{script}.py", root / name)
            for name, script in (("worked", "worked_example"), ("sweep", "regime_sweep"))}
    return root, runs


def test_worked_example_script_writes_its_tables(written):
    root, runs = written
    assert runs["worked"].returncode == 0, runs["worked"].stderr
    assert sorted(p.name for p in (root / "worked").iterdir()) == sorted(
        f"{name}.csv" for name in WORKED_TABLES)
    for name, (header, count) in WORKED_TABLES.items():
        lines = (root / "worked" / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header and len(lines) == 1 + count, name
    assert "small-k stress gap order: 2.0000" in runs["worked"].stdout


@pytest.mark.parametrize("where,name", [
    *[("cli", n) for n in CLI_TABLES],
    *[("worked", n) for n in WORKED_TABLES],
    *[("sweep", n) for n in SWEEP_TABLES],
])
def test_every_table_is_bytes_csv_writer_writes(written, where, name):
    root, runs = written
    assert all(run.returncode == 0 for run in runs.values())
    data = (root / where / f"{name}.csv").read_bytes()
    header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
    labels = [col in LABEL_COLUMNS for col in header]
    rows = [[v if label else float(v) for v, label in zip(row, labels)] for row in rows]
    assert rows
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    assert data == buf.getvalue().encode()


def test_worked_example_and_cli_write_the_same_numbers(written):
    # One writer and one trajectory function serve both: at the built-in
    # defaults (k = 0.1) the script's front table is the CLI's, and its
    # k-limit table is the CLI's k and gap columns.
    root, runs = written
    assert runs["worked"].returncode == 0, runs["worked"].stderr
    assert ((root / "worked" / "front_k0p1.csv").read_bytes()
            == (root / "cli" / "front.csv").read_bytes())
    cli_lines = (root / "cli" / "klimit.csv").read_bytes().split(b"\r\n")
    assert ((root / "worked" / "klimit.csv").read_bytes().split(b"\r\n")
            == [b",".join(line.split(b",")[:2]) for line in cli_lines])


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
