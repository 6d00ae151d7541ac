"""``scripts/regime_sweep.py``: its tables, its summary lines and its input rules."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltashock.riemann import (
    DELTA_REGIME,
    NO_SOLUTION,
    REGIMES,
    State,
    regime_sweep,
    solve,
)
from deltashock.tables import write_table
from oracle import delta_regime_test
from test_tooling import _SWEEP_LOADS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regime_sweep.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("regime_sweep_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_small_sweep_tables_and_counts(tmp_path):
    proc = _run_script("--out", str(tmp_path), "--n", "9", "--ks", "0", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    grid = np.linspace(-4.0, 4.0, 9)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for k, tag, line in zip((0.0, 0.5), ("0", "0p5"), lines):
        with open(tmp_path / f"regimes_k{tag}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["u1", "sigma1", "k", "regime"]
        rows = table[1:]
        assert len(rows) == 8 * 9  # the u1 = 0 column is left out
        counts = {}
        for u1, s1, k_row, regime in rows:
            u1, s1 = float(u1), float(s1)
            assert u1 != 0.0 and float(k_row) == k
            left, right = State(u1, s1), State(0.0, 0.0)
            if k == 0.0:
                want = DELTA_REGIME if delta_regime_test(left, right, k) else NO_SOLUTION
            else:
                want = solve(left, right, k).regime
            assert regime == want
            counts[regime] = counts.get(regime, 0) + 1
        assert [float(r[1]) for r in rows[:9]] == list(grid)
        assert line == f"k = {k:g}: " + ", ".join(
            f"{r}={n}" for r, n in sorted(counts.items()))


def _csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def test_tables_are_bytes_csv_writer_writes(tmp_path):
    proc = _run_script("--out", str(tmp_path), "--n", "17", "--ks", "0", "0.3", "2")
    assert proc.returncode == 0, proc.stderr
    grid = np.linspace(-4.0, 4.0, 17)
    u1s = grid[grid != 0.0]
    for k, tag in ((0.0, "0"), (0.3, "0p3"), (2.0, "2")):
        codes = regime_sweep(u1s, grid, [k])[0]
        rows = [(float(u1), float(s1), k, REGIMES[c])
                for u1, row in zip(u1s, codes) for s1, c in zip(grid, row)]
        want = _csv_writer_text([("u1", "sigma1", "k", "regime"), *rows])
        assert (tmp_path / f"regimes_k{tag}.csv").read_bytes() == want.encode()


def test_csv_text_keeps_the_sign_of_zero(tmp_path):
    # 0.0 and -0.0 are equal dict keys with different text; repeats of a
    # value are read from the writer's cache.
    header = ("u1", "sigma1", "k", "regime")
    columns = [(0.0, -0.0, 1e-300, 1e-300), (-0.0, 0.0, 2.5, 2.5), (0.1,) * 4,
               ("classical", "classical", DELTA_REGIME, NO_SOLUTION)]
    write_table(columns, header, tmp_path / "signs")
    assert (tmp_path / "signs.csv").read_bytes() == _csv_writer_text(
        [header, *zip(*columns)]).encode()


_FRESH_SWEEP = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("regime_sweep_script", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
assert script.main(["--out", sys.argv[2], "--n", "3"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "deltashock")))
print(json.dumps(["numpy" in sys.modules, "dataclasses" in sys.modules]))
"""


def test_sweep_loads_only_the_modules_it_computes_with(tmp_path):
    # The cli benchmark times the sweep as a fresh process: writing its
    # tables must not load numpy (about 135 ms), the CLI, the config
    # reader, the kernel layer, the ansatz, the pairing engine or the
    # verifier, nor build a dataclass (each costs about a millisecond).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _FRESH_SWEEP, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    *_, loaded, flags = done.stdout.splitlines()
    assert json.loads(loaded) == ["deltashock"] + [f"deltashock.{m}" for m in _SWEEP_LOADS]
    assert json.loads(flags) == [False, False]


@pytest.mark.parametrize("argv,message", [
    (["--ks", "-1"], "finite and nonnegative"),
    (["--ks", "nan"], "finite and nonnegative"),
    (["--ks", "inf"], "finite and nonnegative"),
    (["--ks", "0.5", "-1"], "finite and nonnegative"),
    (["--n", "-5"], "--n must be at least 1"),
    (["--n", "0"], "--n must be at least 1"),
    (["--ks", "0.1", "0.10000001"], "0.1 and 0.10000001 share the table name regimes_k0p1"),
    (["--ks", "0.5", "1", "0.5"], "0.5 and 0.5 share the table name regimes_k0p5"),
], ids=["k-negative", "k-nan", "k-inf", "second-k-negative", "n-negative", "n-zero",
        "ks-same-name", "ks-duplicate"])
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep"
    rc = _load_script().main(["--out", str(out)] + argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_k_too_small_for_the_intermediate_state_exits_two_with_one_line(tmp_path, capsys):
    # At k = 1e-320 the classical u* of most jumps leaves the float range,
    # where solve raises: no regime code would name its answer.
    out = tmp_path / "sweep"
    rc = _load_script().main(["--out", str(out), "--n", "3", "--ks", "0.5", "1e-320"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: at k=1e-320 the intermediate state (u*, sigma*) of the jump "
        "u1=-4.0, sigma1=-4.0 is out of float range"]
    assert list(out.iterdir()) == []


def test_out_that_cannot_be_a_directory_exits_two_with_one_line(tmp_path):
    (tmp_path / "file").write_text("")
    proc = _run_script("--out", str(tmp_path / "file" / "below"), "--n", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: --out {tmp_path / 'file' / 'below'}: "
                                        "Not a directory"]


@pytest.mark.parametrize("argv,rows", [
    (["--n", "1000000"], "3000000000000 rows (3 ks times --n 1000000 squared)"),
    (["--n", "1183"], "4198467 rows (3 ks times --n 1183 squared)"),
    (["--n", "2049", "--ks", "0.5"], "4198401 rows (1 ks times --n 2049 squared)"),
], ids=["huge-n", "default-ks-cap-plus-one", "one-k-cap-plus-one"])
def test_grid_above_the_row_cap_exits_one_with_one_line(tmp_path, capsys, argv, rows):
    # Without numpy no failed allocation guards --n: a grid above the cap is
    # refused before anything is computed, and a huge one does not run until
    # the OS kills it.
    rc = _load_script().main(["--out", str(tmp_path)] + argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: out of memory: {rows} exceed the {2**22} a sweep may tabulate"]
    assert list(tmp_path.iterdir()) == []


def test_row_cap_is_checked_on_ks_times_n_squared(tmp_path, capsys, monkeypatch):
    script = _load_script()
    monkeypatch.setattr(script, "MAX_ROWS", 2 * 9 * 9)
    assert script.main(["--out", str(tmp_path / "at"), "--n", "9", "--ks", "0", "0.5"]) == 0
    assert len((tmp_path / "at" / "regimes_k0p5.csv").read_text().splitlines()) == 1 + 8 * 9
    capsys.readouterr()
    assert script.main(["--out", str(tmp_path / "above"), "--n", "10", "--ks", "0", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("error: out of memory: 200 rows")
    assert list((tmp_path / "above").iterdir()) == []


def test_grid_too_large_to_allocate_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    script = _load_script()

    def too_large(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(99999, 100000) and data type float64")

    monkeypatch.setattr(script, "regime_sweep", too_large)
    rc = script.main(["--out", str(tmp_path), "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 74.5 GiB for an array with shape "
        "(99999, 100000) and data type float64"]


def test_bad_input_sets_the_process_exit_status(tmp_path):
    proc = _run_script("--out", str(tmp_path / "sweep"), "--ks", "nan")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
