"""The regime sweep, ``deltashock sweep``: its tables, its summary lines and
its input rules, and the launcher ``scripts/regime_sweep.py``."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltashock import cli, riemann
from deltashock.cli import main
from deltashock.riemann import DELTA_REGIME, NO_SOLUTION, State, regime_sweep, solve
from deltashock.tables import write_table
from test_tooling import _CLI_LOADS, _COMMAND_LOADS

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "scripts" / "regime_sweep.py"


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def _config(tmp_path, text):
    """``text`` as a config file under tmp_path: its --config arguments."""
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    return ["--config", str(path)]


def _run(*args):
    """``python -m deltashock *args sweep`` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "deltashock", *args, "sweep"],
                          capture_output=True, text=True, env=_env(), timeout=60)


def test_small_sweep_tables_and_counts(tmp_path):
    out = tmp_path / "out"
    proc = _run(*_config(tmp_path, "[sweep]\nn = 9\nks = 0, 0.5\n"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    grid = np.linspace(-4.0, 4.0, 9)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for k, tag, line in zip((0.0, 0.5), ("0", "0p5"), lines):
        with open(out / f"regimes_k{tag}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["u1", "sigma1", "k", "regime"]
        rows = table[1:]
        assert len(rows) == 8 * 9  # the u1 = 0 column is left out
        counts = {}
        for u1, s1, k_row, regime in rows:
            u1, s1 = float(u1), float(s1)
            assert u1 != 0.0 and float(k_row) == k
            assert regime == solve(State(u1, s1), State(0.0, 0.0), k).regime
            counts[regime] = counts.get(regime, 0) + 1
        assert [float(r[1]) for r in rows[:9]] == list(grid)
        assert line == f"k = {k:g}: " + ", ".join(
            f"{r}={n}" for r, n in sorted(counts.items()))


def _csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def test_tables_are_bytes_csv_writer_writes(tmp_path):
    out = tmp_path / "out"
    proc = _run(*_config(tmp_path, "[sweep]\nn = 17\nks = 0, 0.3, 2\n"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    grid = np.linspace(-4.0, 4.0, 17)
    u1s = grid[grid != 0.0]
    for k, tag in ((0.0, "0"), (0.3, "0p3"), (2.0, "2")):
        regimes = regime_sweep(u1s, grid, [k])[0]
        rows = [(float(u1), float(s1), k, regime)
                for u1, row in zip(u1s, regimes) for s1, regime in zip(grid, row)]
        want = _csv_writer_text([("u1", "sigma1", "k", "regime"), *rows])
        assert (out / f"regimes_k{tag}.csv").read_bytes() == want.encode()


def test_negative_zero_k_is_k_zero(tmp_path, capsys):
    # -0.0 used to name its own table, regimes_k-0, with a -0.0 k column and
    # a "k = -0" line: it is the one k = 0, in its table, column and line.
    runs = []
    for ks in ("-0.0", "0"):
        out = tmp_path / ks
        rc = main([*_config(tmp_path, f"[sweep]\nn = 5\nks = {ks}\n"), "--out", str(out),
                   "sweep"])
        runs.append((rc, capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()}))
    (rc, captured, tables), zero = runs
    assert rc == 0 and not captured.err
    assert captured.out.startswith("k = 0: ")
    assert list(tables) == ["regimes_k0.csv"]
    rows = list(csv.reader(io.StringIO(tables["regimes_k0.csv"].decode())))[1:]
    assert {row[2] for row in rows} == {"0.0"}
    assert runs[0] == zero


def test_csv_text_keeps_the_sign_of_zero(tmp_path):
    # 0.0 and -0.0 are equal dict keys with different text; repeats of a
    # value are read from the writer's cache.
    header = ("u1", "sigma1", "k", "regime")
    columns = [(0.0, -0.0, 1e-300, 1e-300), (-0.0, 0.0, 2.5, 2.5), (0.1,) * 4,
               ("classical", "classical", DELTA_REGIME, NO_SOLUTION)]
    write_table(columns, header, tmp_path / "signs")
    assert (tmp_path / "signs.csv").read_bytes() == _csv_writer_text(
        [header, *zip(*columns)]).encode()


def test_launcher_writes_the_subcommands_bytes(tmp_path):
    # The cli benchmark runs the launcher: it is `deltashock sweep`, with the
    # same stdout, stderr, exit code and tables.
    runs = []
    for command in ([str(LAUNCHER)], ["-m", "deltashock", "sweep"]):
        out = tmp_path / f"out{len(runs)}"
        done = subprocess.run([sys.executable, *command, "--out", str(out)],
                              capture_output=True, text=True, env=_env(), timeout=60)
        runs.append((done.returncode, done.stdout, done.stderr,
                     {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0][0] == 0 and runs[0][1] and not runs[0][2]
    assert sorted(runs[0][3]) == ["regimes_k0p1.csv", "regimes_k0p5.csv", "regimes_k1.csv"]
    assert runs[0] == runs[1]


_FRESH_SWEEP = """
import json, sys
from deltashock.cli import main
assert main(["--out", sys.argv[1], "sweep"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "deltashock")))
print(json.dumps(["numpy" in sys.modules, "dataclasses" in sys.modules,
                  "configparser" in sys.modules]))
"""


def test_sweep_loads_only_the_modules_it_computes_with(tmp_path):
    # The cli benchmark times the sweep as a fresh process: writing its
    # tables must not load numpy (about 135 ms), the kernel layer, the
    # ansatz, the pairing engine or the verifier, nor build a dataclass
    # (each costs about a millisecond).  A run on the defaults reads no
    # file, so it does not load configparser either.
    done = subprocess.run([sys.executable, "-c", _FRESH_SWEEP, str(tmp_path)],
                          capture_output=True, text=True, env=_env(), timeout=60, check=True)
    *_, loaded, flags = done.stdout.splitlines()
    assert json.loads(loaded) == sorted(
        _CLI_LOADS + [f"deltashock.{m}" for m in _COMMAND_LOADS["sweep"]])
    assert json.loads(flags) == [False, False, False]


@pytest.mark.parametrize("text,message", [
    ("ks = -1", "[sweep] ks: k must be finite and nonnegative, got -1.0"),
    ("ks = nan", "[sweep] ks must be finite"),
    ("ks = inf", "[sweep] ks must be finite"),
    ("ks = 0.5, -1", "[sweep] ks: k must be finite and nonnegative, got -1.0"),
    ("n = -5", "[sweep] n must be at least 1"),
    ("n = 0", "[sweep] n must be at least 1"),
    ("ks = 0.1, 0.10000001", "0.1 and 0.10000001 share the table name regimes_k0p1"),
    ("ks = 0.5, 1, 0.5", "0.5 and 0.5 share the table name regimes_k0p5"),
    # -0.0 is k = 0, whose table regimes_k0 is listed first
    ("ks = 0, -0.0", "[sweep] ks 0.0 and -0.0 share the table name regimes_k0"),
], ids=["k-negative", "k-nan", "k-inf", "second-k-negative", "n-negative", "n-zero",
        "ks-same-name", "ks-duplicate", "ks-signed-zero"])
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, text, message):
    out = tmp_path / "sweep"
    rc = main([*_config(tmp_path, f"[sweep]\n{text}\n"), "--out", str(out), "sweep"])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_k_too_small_for_the_intermediate_state_exits_two_with_one_line(tmp_path, capsys):
    # At k = 1e-320 the classical u* of most jumps leaves the float range,
    # where solve raises: no regime would name its answer.
    out = tmp_path / "sweep"
    rc = main([*_config(tmp_path, "[sweep]\nn = 3\nks = 0.5, 1e-320\n"),
               "--out", str(out), "sweep"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: at k=1e-320 the intermediate state (u*, sigma*) of the jump "
        "u1=-4.0, sigma1=-4.0 is out of float range"]
    assert list(out.iterdir()) == []


def test_out_that_cannot_be_a_directory_exits_two_with_one_line(tmp_path):
    (tmp_path / "file").write_text("")
    proc = _run("--out", str(tmp_path / "file" / "below"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: --out {tmp_path / 'file' / 'below'}: "
                                        "Not a directory"]


@pytest.mark.parametrize("text,rows", [
    ("n = 1000000", "3000000000000 rows (3 ks times [sweep] n = 1000000 squared)"),
    ("n = 1183", "4198467 rows (3 ks times [sweep] n = 1183 squared)"),
    ("n = 2049\nks = 0.5", "4198401 rows (1 ks times [sweep] n = 2049 squared)"),
], ids=["huge-n", "default-ks-cap-plus-one", "one-k-cap-plus-one"])
def test_grid_above_the_row_cap_exits_one_with_one_line(tmp_path, capsys, text, rows):
    # Without numpy no failed allocation guards n: a grid above the cap is
    # refused before anything is computed, and a huge one does not run until
    # the OS kills it.
    out = tmp_path / "out"
    rc = main([*_config(tmp_path, f"[sweep]\n{text}\n"), "--out", str(out), "sweep"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: out of memory: {rows} exceed the {2**22} a run may tabulate"]
    assert list(out.iterdir()) == []


def test_row_cap_is_checked_on_ks_times_n_squared(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 2 * 9 * 9)
    at = _config(tmp_path, "[sweep]\nn = 9\nks = 0, 0.5\n")
    assert main([*at, "--out", str(tmp_path / "at"), "sweep"]) == 0
    assert len((tmp_path / "at" / "regimes_k0p5.csv").read_text().splitlines()) == 1 + 8 * 9
    capsys.readouterr()
    above = _config(tmp_path, "[sweep]\nn = 10\nks = 0, 0.5\n")
    assert main([*above, "--out", str(tmp_path / "above"), "sweep"]) == 1
    assert capsys.readouterr().err.startswith("error: out of memory: 200 rows")
    assert list((tmp_path / "above").iterdir()) == []


def test_grid_too_large_to_allocate_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    def too_large(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(99999, 100000) and data type float64")

    monkeypatch.setattr(riemann, "regime_sweep", too_large)
    rc = main([*_config(tmp_path, "[sweep]\nn = 3\n"), "--out", str(tmp_path), "sweep"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 74.5 GiB for an array with shape "
        "(99999, 100000) and data type float64"]


def test_bad_input_sets_the_process_exit_status(tmp_path):
    proc = _run(*_config(tmp_path, "[sweep]\nks = nan\n"), "--out", str(tmp_path / "sweep"))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
