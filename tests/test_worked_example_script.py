"""``scripts/worked_example.py``: its input rules."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "worked_example.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("worked_example_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_eps_that_is_not_a_length_exits_two_with_one_line(tmp_path, capsys, eps):
    # A snapshot at eps = inf would be the constant plateau state, and one
    # at eps <= 0 or nan raised after the first table was written.
    out = tmp_path / "worked"
    rc = _load_script().main(["--out", str(out), "--eps", eps])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --eps must be positive and finite, got {float(eps)!r}"]
    assert not out.exists()


def test_out_that_is_a_file_exits_two_with_one_line(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("")
    rc = _load_script().main(["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: File exists"]
    assert sorted(tmp_path.iterdir()) == [out] and out.read_text() == ""


def test_bad_input_sets_the_process_exit_status(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path / "worked"),
                           "--eps", "inf"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "worked").exists()
