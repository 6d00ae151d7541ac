import json
from pathlib import Path

import pytest

from deltashock.cli import main
from deltashock.config import ConfigError, RunConfig, load_config

SHIPPED_WORKED = Path(__file__).resolve().parents[1] / "configs" / "worked.ini"

WORKED_INI = """\
[data]
u0 = 0.0
u1 = 2.0
sigma0 = 0.0
sigma1 = 0.5
e0 = 0.1
k = 0.1
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_defaults_match_shipped_file():
    assert load_config(str(SHIPPED_WORKED)) == RunConfig()
    assert load_config(None) == RunConfig()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="strictly decreasing"):
        load_config(write(tmp_path, "[grid]\neps = 0.5, 0.25, 0.3, 0.1\n"))
    with pytest.raises(ConfigError, match="not a number"):
        load_config(write(tmp_path, "[data]\nu1 = fast\n"))
    with pytest.raises(ConfigError, match="kind"):
        load_config(write(tmp_path, "[kernel]\nkind = gaussian\n"))
    with pytest.raises(ConfigError, match="at least 4"):
        load_config(write(tmp_path, "[grid]\neps = 0.5, 0.25, 0.125\n"))


def test_front_command_writes_table(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "front"])
    assert rc == 0
    lines = (tmp_path / "front.csv").read_text().strip().splitlines()
    assert lines[0] == "t,phi,e,re_p,im_p"
    assert len(lines) == 34
    last = lines[-1].split(",")
    assert float(last[1]) == 0.75
    assert float(last[2]) == pytest.approx(0.205, abs=1e-15)
    out = capsys.readouterr().out
    assert "front speed = 0.75" in out
    assert "admissible = True" in out


def test_front_json_format(tmp_path):
    rc = main(["--out", str(tmp_path), "--format", "json", "front"])
    assert rc == 0
    rows = json.loads((tmp_path / "front.json").read_text())
    assert rows[-1]["phi"] == 0.75


def test_front_degenerate_data_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "[data]\nu1 = 0.0\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "front"])
    assert rc == 1
    assert "u1" in capsys.readouterr().err


def test_config_error_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[grid]\neps = 0.5, 0.5, 0.25, 0.125\n")
    rc = main(["--config", cfg, "front"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text,command", [
    ("[grid]\nt_points = inf\n", "front"),
    ("[grid]\nt_points = nan\n", "front"),
    ("[data]\nu1 = nan\n", "front"),
    ("[grid]\neps = 0.1, 0.05, nan, 0.01\n", "verify-expansions"),
    ("[data]\nk = -1\n", "front"),
    ("[grid]\nt_max = -1\n", "verify-solution"),
    ("[grid]\nt_max = 0\n", "verify-solution"),
    ("[klimit]\nks = 0.1\n", "k-limit"),
    ("[verify]\nreplay_samples = -3\n", "verify-solution"),
], ids=["t_points-inf", "t_points-nan", "u1-nan", "eps-nan", "k-negative",
        "t_max-negative", "t_max-zero", "ks-single", "replay_samples-negative"])
def test_out_of_range_config_exits_two(tmp_path, capsys, text, command):
    cfg = write(tmp_path, text)
    rc = main(["--config", cfg, "--out", str(tmp_path), command])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:")


def test_verify_expansions_outputs(tmp_path):
    rc = main(["--out", str(tmp_path), "verify-expansions"])
    assert rc == 0
    report = json.loads((tmp_path / "lemma31_report.json").read_text())
    assert report["passed"] is True
    assert report["c"] == 0.375
    assert report["c_matches_data"] is True
    assert len(report["expansions"]) == 12
    assert (tmp_path / "lemma31_R2_A.csv").exists()
    assert (tmp_path / "lemma31_Hddelta_B.csv").exists()


def test_verify_expansions_c_mismatch_flagged(tmp_path, capsys):
    cfg = write(tmp_path, WORKED_INI + "\n[kernel]\nkind = quartic\nc = 0.2\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    assert rc == 0
    report = json.loads((tmp_path / "lemma31_report.json").read_text())
    assert report["c_matches_data"] is False
    # the measured step-times-delta dipole follows the configured plateau
    row = next(e for e in report["expansions"] if e["name"] == "Hddelta")
    assert row["measured"][1] == pytest.approx(0.2, abs=1e-6)
    assert "differs from the data value" in capsys.readouterr().out


def test_verify_solution_pass_and_report(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--eps-min", "0.001", "verify-solution"])
    assert rc == 0
    report = json.loads((tmp_path / "residual_report.json").read_text())
    assert report["passed"] is True
    assert "PASS weak-solution verification" in capsys.readouterr().out


def test_verify_solution_inadmissible_names_margin(tmp_path, capsys):
    cfg = write(tmp_path, "[data]\nu1 = 2.0\nsigma1 = 1.9\nk = 0.1\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "violated margin" in out
    assert "(u1/2 - k) - sigma1/u1" in out


def test_verify_solution_replay_sweep(tmp_path, capsys):
    cfg = write(tmp_path, WORKED_INI + "\n[verify]\nreplay_samples = 2\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "--seed", "7",
               "verify-solution"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "derivation replay (2 samples" in out
    report = json.loads((tmp_path / "residual_report.json").read_text())
    assert report["replay_samples"] == 2
    assert report["replay_max_coefficient"] < 1e-3


def test_riemann_command_worked(tmp_path, capsys):
    cfg = write(tmp_path, "[data]\nu1 = 2.0\nsigma1 = 1.0\nk = 1.0\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "u* = 0.5, sigma* = -0.5" in out
    assert "speed = 0.25" in out and "speed = 1.25" in out
    lines = (tmp_path / "riemann.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,u,sigma,region"
    assert len(lines) == 402
    assert lines[1].endswith("left") and lines[-1].endswith("right")


def test_riemann_command_delta_regime(tmp_path, capsys):
    cfg = write(tmp_path, "[data]\nu1 = 2.0\nsigma1 = 0.0\nk = 0.1\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    assert rc == 0
    assert "delta-shock" in capsys.readouterr().out


def test_riemann_command_k_zero_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "[data]\nu1 = 2.0\nsigma1 = 1.0\nk = 0.0\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    assert rc == 1
    assert "k > 0" in capsys.readouterr().err


def test_k_limit_command(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "k-limit"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted k-order: 2.0000" in out
    lines = (tmp_path / "klimit.csv").read_text().strip().splitlines()
    assert lines[0] == "k,gap,expected,abs_err"
    assert len(lines) == 4
    gap = float(lines[1].split(",")[1])
    assert gap == pytest.approx(-0.02, abs=1e-10)


def test_outputs_are_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["--out", str(out), "front"]) == 0
        assert main(["--out", str(out), "k-limit"]) == 0
    for name in ("front.csv", "klimit.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eps_override_validation(capsys):
    rc = main(["--eps-min", "0.5", "--eps-max", "0.1", "front"])
    assert rc == 2
    assert "eps-min" in capsys.readouterr().err
    # an infinite eps-max used to halve forever without reaching eps-min
    rc = main(["--eps-max", "inf", "front"])
    assert rc == 2
    assert "eps-max" in capsys.readouterr().err


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
