"""``scripts/regime_sweep.py``: its tables, its summary lines and its input rules."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltashock.riemann import (
    DELTA_REGIME,
    NO_SOLUTION,
    State,
    delta_regime_test,
    solve,
)

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


@pytest.mark.parametrize("argv,message", [
    (["--ks", "-1"], "finite and nonnegative"),
    (["--ks", "nan"], "finite and nonnegative"),
    (["--ks", "inf"], "finite and nonnegative"),
    (["--ks", "0.5", "-1"], "finite and nonnegative"),
    (["--n", "-5"], "--n must be at least 1"),
    (["--n", "0"], "--n must be at least 1"),
], ids=["k-negative", "k-nan", "k-inf", "second-k-negative", "n-negative", "n-zero"])
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep"
    rc = _load_script().main(["--out", str(out)] + argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_bad_input_sets_the_process_exit_status(tmp_path):
    proc = _run_script("--out", str(tmp_path / "sweep"), "--ks", "nan")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
