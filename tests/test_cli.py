import configparser
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltashock import default_eps_grid, kernels
from deltashock.ansatz import RiemannJumpData
from deltashock.cli import MAX_ROWS, _check_rows, main
from deltashock.config import _TABLE, ConfigError, RunConfig, load_config
from deltashock.riemann import k_limit_gap
from test_tooling import _exponential_worked

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


# Data in the classical regime, so ``riemann`` tabulates the solution.
CLASSICAL_INI = "[data]\nu1 = 2.0\nsigma1 = 1.0\nk = 1.0\n"


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_defaults_match_shipped_file():
    assert load_config(str(SHIPPED_WORKED)) == RunConfig()
    assert load_config(None) == RunConfig()


def test_shipped_k0_file_is_the_defaults_at_k_zero():
    # The worked study's degenerate half is a config, not a code path.
    assert load_config(str(SHIPPED_WORKED.with_stem("worked_k0"))) == RunConfig()._replace(k=0.0)


def test_shipped_file_sets_every_key():
    # A key missing from worked.ini equals its default, so the test above
    # cannot see it.  The file spells out every key but the eps list, which
    # excludes the powers, and the plateau override, whose default is the data's.
    parser = configparser.ConfigParser()
    parser.read(SHIPPED_WORKED, encoding="utf-8")
    shipped = {(section, key) for section in parser.sections() for key in parser[section]}
    assert shipped == set(_TABLE) - {("grid", "eps"), ("kernel", "c")}


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


def test_negative_zero_data_k_reads_as_zero(tmp_path):
    # [data] k passes the one k rule, deltashock.check_k, as [sweep] ks do:
    # -0.0 is k = 0, so no report prints k = -0.
    k = load_config(write(tmp_path, "[data]\nk = -0.0\n")).k
    assert k == 0.0 and str(k) == "0.0"


def test_config_error_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[grid]\neps = 0.5, 0.5, 0.25, 0.125\n")
    rc = main(["--config", cfg, "front"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text,command,named", [
    ("[grid]\nt_points = inf\n", "front", "t_points"),
    ("[grid]\nt_points = nan\n", "front", "t_points"),
    ("[data]\nu1 = nan\n", "front", "u1"),
    ("[grid]\neps = 0.1, 0.05, nan, 0.01\n", "verify-expansions", "eps"),
    ("[data]\nk = -1\n", "front", "[data] k: k must be finite and nonnegative, got -1.0"),
    ("[grid]\nt_max = -1\n", "verify-solution", "t_max"),
    ("[grid]\nt_max = 0\n", "verify-solution", "t_max"),
    ("[klimit]\nks = 0.1\n", "k-limit", "ks"),
    # the random replay sweep and its section are gone
    ("[verify]\nreplay_samples = 0\n", "verify-solution",
     "unknown section [verify]; expected one of [data], [grid], [kernel], [klimit], [riemann]"),
    # a misspelt key or section used to run on the defaults with exit 0
    ("[data]\nu_1 = 3.0\n", "front", "'u_1'"),
    ("[dta]\nu1 = 3.0\n", "front", "[dta]"),
    ("[data]\nu_1 = 3.0\n[dta]\nu1 = 3.0\n", "front", "'u_1'"),
    ("[kernel]\nkind = quartic\nplateau = 0.2\n", "verify-expansions", "'plateau'"),
    ("[DEFAULT]\nu1 = 3.0\n", "front", "[DEFAULT]"),
    # these ran: a header-only riemann.csv, a PASS at t = -1, a FAIL always,
    # or a traceback-free exit 1 from deep inside the solver
    (CLASSICAL_INI + "[riemann]\nxi_points = 0\n", "riemann", "xi_points"),
    (CLASSICAL_INI + "[riemann]\nxi_min = 1\nxi_max = -1\n", "riemann", "xi_min"),
    (CLASSICAL_INI + "[riemann]\nt = 0\n", "riemann", "[riemann] unknown key 't'"),
    ("[klimit]\nt = -1\n", "k-limit", "[klimit] t"),
    ("[klimit]\norder_tol = 0\n", "k-limit", "order_tol"),
    # an eps list used to drop the powers beside it unread, even malformed ones
    ("[grid]\neps = 0.5, 0.25, 0.125, 0.0625\neps_pow_min = 3\n", "front",
     "[grid] eps_pow_min cannot be set beside an eps list"),
    ("[grid]\neps = 0.5, 0.25, 0.125, 0.0625\neps_pow_min = fast\n", "front",
     "[grid] eps_pow_min = 'fast' is not a number"),
    ("[grid]\neps_pow_max = 12\neps = 0.5, 0.25, 0.125, 0.0625\n", "front",
     "[grid] eps_pow_max cannot be set beside an eps list"),
    # 2^1100 overflowed: a traceback
    ("[grid]\neps_pow_min = -1100\n", "front", "[grid] eps_pow_min must be at least -1023"),
    # these named default_eps_grid's parameters: "pow_max must exceed pow_min"
    ("[grid]\neps_pow_max = 2\n", "front",
     "[grid] eps_pow_max = 2 must exceed eps_pow_min = 3 (the default)"),
    ("[grid]\neps_pow_min = 12\neps_pow_max = 12\n", "front",
     "[grid] eps_pow_max = 12 must exceed eps_pow_min = 12"),
    ("[grid]\neps_pow_min = 2000\n", "verify-solution",
     "[grid] eps_pow_max = 12 (the default) must exceed eps_pow_min = 2000"),
    # the integer and number-list readers' own messages
    ("[grid]\nt_points = 2.5\n", "front", "[grid] t_points must be an integer"),
    ("[klimit]\nks = a, b\n", "k-limit", "[klimit] ks must be a list of numbers"),
    ("[klimit]\nks =\n", "k-limit", "[klimit] ks is empty"),
    ("[klimit]\nks = 0.1, -0.05\n", "k-limit", "[klimit] ks must be positive"),
    ("[grid]\neps =\n", "verify-expansions", "[grid] eps is empty"),
    ("[grid]\neps = 0.5 0.25 x\n", "verify-expansions", "[grid] eps must be a list of numbers"),
], ids=["t_points-inf", "t_points-nan", "u1-nan", "eps-nan", "k-negative",
        "t_max-negative", "t_max-zero", "ks-single", "verify-section",
        "unknown-key", "unknown-section", "unknown-key-and-section",
        "unknown-kernel-key", "default-section", "xi_points-zero",
        "xi-range-reversed", "riemann-t-zero", "klimit-t-negative",
        "order_tol-zero", "eps-and-pow-min", "eps-and-pow-min-malformed",
        "pow-max-and-eps", "eps_pow_min-overflows", "pow-max-below-default-min",
        "pow-max-equals-pow-min", "pow-min-above-default-max", "t_points-fractional",
        "ks-not-numbers", "ks-empty", "ks-negative", "eps-empty", "eps-not-numbers"])
def test_out_of_range_config_exits_two(tmp_path, capsys, text, command, named):
    cfg = write(tmp_path, text)
    rc = main(["--config", cfg, "--out", str(tmp_path), command])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert named in err[0]


@pytest.mark.parametrize("text,command,quantity", [
    ("u1 = 1e-300\nsigma1 = 1e300\n", "front", "front speed"),
    ("u1 = 2.0\nsigma1 = 1e300\n", "front", "amplitude rate"),
    ("u1 = 2.0\nk = 1e200\n", "k-limit", "amplitude rate"),
    ("u1 = 1e200\nsigma1 = 0.5\n", "verify-solution", "plateau level"),
    ("u1 = 1e-300\nsigma1 = 1e-300\n", "verify-expansions", "plateau level"),
    ("u0 = 1e10\n[grid]\nt_max = 1e300\n", "front", "front position"),
    ("u0 = 1e10\n[grid]\nt_max = 1e300\n", "verify-solution", "front position"),
    ("u0 = 1e10\n[klimit]\nt = 1e300\n", "k-limit", "front position"),
    ("e0 = 1e308\n", "front", "correction amplitude p^2"),
    ("e0 = 1e308\n", "verify-solution", "correction amplitude p^2"),
], ids=["speed", "rate-sigma1", "rate-k", "plateau-square-overflows",
        "plateau-square-underflows", "position-front", "position-verify-solution",
        "position-k-limit", "amplitude-front", "amplitude-verify-solution"])
def test_float_overflow_names_quantity_and_data(tmp_path, capsys, text, command,
                                                 quantity):
    # These used to print "error: (34, 'Numerical result out of range')",
    # "error: float division by zero", or numpy's "overflow encountered in
    # multiply" and "invalid value encountered in subtract".
    cfg = write(tmp_path, "[data]\n" + text)
    rc = main(["--config", cfg, "--out", str(tmp_path), command])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: " + quantity)
    assert "out of float range for RiemannJumpData(" in err[0]


@pytest.mark.parametrize("text,command,rows,source", [
    ("[grid]\nt_points = 1e17\n", "front", 10**17, "[grid] t_points"),
    (CLASSICAL_INI + "[riemann]\nxi_points = 1e17\n", "riemann", 10**17, "[riemann] xi_points"),
    (f"[grid]\nt_points = {MAX_ROWS + 1}\n", "front", MAX_ROWS + 1, "[grid] t_points"),
    # 61681 times x 17 eps values = 2^20 + 1 rows
    ("[grid]\nt_points = 61681\neps_pow_min = 3\neps_pow_max = 19\n", "verify-solution",
     MAX_ROWS + 1, "[grid] t_points = 61681 times 17 eps values"),
    (CLASSICAL_INI + f"[riemann]\nxi_points = {MAX_ROWS + 1}\n", "riemann", MAX_ROWS + 1,
     "[riemann] xi_points"),
], ids=["t_points", "xi_points", "t_points-cap-plus-one", "times-by-eps-cap-plus-one",
        "xi_points-cap-plus-one"])
def test_unallocatable_grid_exits_one_with_one_line(monkeypatch, tmp_path, capsys,
                                                     text, command, rows, source):
    # 1e17 float64 values (711 PiB) exceed any 64-bit address space; such a
    # grid used to end a 19-line traceback.  A grid numpy can allocate but
    # whose tables exhaust memory was killed by the OS (t_points = 1e8 ran
    # for minutes, then exit 137).  One row above the cap is refused before
    # any grid that large is made, or any verdict computed.
    from deltashock import cli, linear_grid, verifier

    def bounded(start, stop, num):
        assert num <= MAX_ROWS, f"a grid of {num} points was allocated"
        return linear_grid(start, stop, num)

    def refuse(*args, **kwargs):
        raise AssertionError("a verdict was computed")

    # Every grid of a run is made by linear_grid: riemann's in cli, the
    # time grid in kernels.default_t_grid.
    for module in (cli, kernels):
        monkeypatch.setattr(module, "linear_grid", bounded)
    monkeypatch.setattr(verifier, "verify_weak_solution", refuse)
    cfg = write(tmp_path, text)
    rc = main(["--config", cfg, "--out", str(tmp_path), command])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err == (f"error: out of memory: {rows} rows ({source}) exceed the "
                   f"{MAX_ROWS} a run may tabulate\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]
    _check_rows(MAX_ROWS, source)  # the cap itself is accepted


def test_front_that_swamps_eps_exits_one_with_one_line(tmp_path, capsys):
    # phi(t) reaches 1.5e17, where one ulp is 32, far wider than the front
    # band 8 eps: the quadrature nodes collapse.  This used to print a FAIL
    # verdict measured on rounding.
    cfg = write(tmp_path, "[data]\nu0 = 0\nu1 = 3e17\nsigma0 = 0\nsigma1 = 0\n"
                          "e0 = 0.1\nk = 1e17\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: front position |phi(t)| = ")
    assert "eps = 0.000244141" in err[0]
    assert captured.out == ""
    assert not (tmp_path / "residual_report.json").exists()


def test_huge_eps_exits_one_naming_the_cell(tmp_path, capsys):
    # At eps = 1e300 the linear bump's pairing times eps^a overflows; the
    # inf reaches the verdict's finiteness check, which names the cell,
    # instead of an overflow error that names nothing.
    cfg = write(tmp_path, "[data]\nu0 = 0\nu1 = 2\nsigma0 = 0\nsigma1 = 0.5\n"
                          "e0 = 0.1\nk = 0.1\n[grid]\neps = 1e300, 1, 0.5, 0.25\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        "error: non-finite residual pairing at equation=u, "
        "phi=linear-times-bump, eps=1e+300, t=0"]
    assert captured.out == ""


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
    delta = next(e for e in report["expansions"] if e["name"] == "delta")
    lines = (tmp_path / "lemma31_delta_A.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,value,abs-error-vs-limit"
    assert len(lines) == 1 + len(delta["A"]["epsilon"])
    first = lines[1].split(",")
    assert float(first[0]) == delta["A"]["epsilon"][0]
    assert float(first[1]) == delta["A"]["value"][0]


def test_verify_expansions_json_format_writes_json_channel_tables(tmp_path):
    rc = main(["--out", str(tmp_path), "--format", "json", "verify-expansions"])
    assert rc == 0
    report = json.loads((tmp_path / "lemma31_report.json").read_text())
    assert not list(tmp_path.glob("*.csv"))
    tables = sorted(p.name for p in tmp_path.glob("lemma31_*_?.json"))
    assert tables == sorted(f"lemma31_{e['name']}_{ch}.json"
                            for e in report["expansions"] for ch in "AB")
    assert len(tables) == 24
    for entry in report["expansions"]:
        for ch in "AB":
            rows = json.loads((tmp_path / f"lemma31_{entry['name']}_{ch}.json").read_text())
            assert [r["epsilon"] for r in rows] == entry[ch]["epsilon"]
            assert [r["value"] for r in rows] == entry[ch]["value"]
            assert all(set(r) == {"epsilon", "value", "abs-error-vs-limit"} for r in rows)


@pytest.mark.parametrize("text,command,message", [
    ("[grid]\neps = 0.125, 0.0625\n", "verify-solution", "at least 4 points"),
    # a 2- or 3-point power grid used to run: a FAIL fitted on two eps, or
    # an exit 1 from the expansion suite
    ("[grid]\neps_pow_min = 3\neps_pow_max = 4\n", "verify-solution",
     "at least 4 points"),
    ("[grid]\neps_pow_min = 3\neps_pow_max = 4\n", "verify-expansions",
     "at least 4 points"),
    ("[grid]\neps_pow_min = 3\neps_pow_max = 5\n", "front", "at least 4 points"),
], ids=["list-2", "powers-2-solution", "powers-2-expansions", "powers-3"])
def test_short_eps_grid_exits_two_with_one_line(tmp_path, capsys, text, command, message):
    rc = main(["--config", write(tmp_path, text), "--out", str(tmp_path / "out"), command])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
    assert captured.out == ""
    assert not list((tmp_path / "out").glob("*"))


def test_lemma_failure_names_its_family_and_channel(tmp_path, capsys):
    # 4 points over 3 dyadic decades pass every config rule.  The limits
    # are exact, but on so coarse a grid five series decay below their
    # order floor: their families FAIL, and the report names the channels.
    cfg = write(tmp_path, "[grid]\neps_pow_min = 3\neps_pow_max = 6\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    out = captured.out.splitlines()
    assert [line.split()[1] for line in out if line.startswith("FAIL ")] == [
        "R", "dR", "delta", "dH", "HdH", "expansion"]
    report = json.loads((tmp_path / "lemma31_report.json").read_text())
    slow = {(e["name"], ch): round(e[ch]["order"], 3) for e in report["expansions"]
            for ch in "AB" if e[ch]["order"] != "exact" and e[ch]["order"] < e["order_floor"]}
    assert slow == {("R", "A"): 0.469, ("dR", "B"): 0.396, ("delta", "B"): 0.966,
                    ("dH", "B"): 0.892, ("HdH", "B"): 0.886}


def test_lemma_family_without_a_limit_exits_one_with_one_line(tmp_path, capsys,
                                                             ddelta_without_limit):
    rc = main(["--out", str(tmp_path), "verify-expansions"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lemma family ddelta: its eps^-1 term")


def _below_the_lemma_bound(eps):
    return (f"[grid] lemma suite eps grid reaches eps = {eps:g}, below 2^-26 = "
            f"{2.0**-26:g}: there the rounding of the eps^-1 families' sums, scaled by "
            "1/eps, swamps their decay")


@pytest.mark.parametrize("kind,grid,message", [
    # four points that span less than 3 dyadic decades used to exit 1
    ("quartic", "eps = 0.1, 0.09, 0.08, 0.07",
     "[grid] eps grid spans 0.515 dyadic decades; the lemma suite needs at least 3"),
    # At eps = 2^-1000 the Rddelta family's power eps^-1.5 overflows, but
    # the grid is rejected first, far above that, by the 2^-26 bound.
    ("quartic", "eps_pow_min = 1000\neps_pow_max = 1010", _below_the_lemma_bound(2.0**-1010)),
    # At eps = 1e-310 RdR's eps^-1 overflows; the 2^-26 bound names the
    # grid's smallest eps instead.
    ("quartic", "eps = 1e-300, 1e-305, 1e-310, 1e-320", _below_the_lemma_bound(1e-320)),
    # Below 2^-26 the eps^-1 families' rounding, scaled by 1/eps, outgrows
    # their decay: 2^-19 .. 2^-28 printed FAIL rows whose measured and
    # expected coefficients agreed.
    *[(kind, "eps_pow_min = 19\neps_pow_max = 28", _below_the_lemma_bound(2.0**-28))
      for kind in ("quartic", "exponential")],
], ids=["narrow", "two-to-the-minus-1000", "subnormal",
        "below-two-to-the-minus-26-quartic", "below-two-to-the-minus-26-exponential"])
def test_lemma_grid_rule_exits_two_with_one_line(tmp_path, capsys, kind, grid, message):
    # Every grid rule of the lemma suite is a config error, checked before
    # any file is written.  These grids pass every rule of the reader.
    out = tmp_path / "out"
    cfg = write(tmp_path, f"[kernel]\nkind = {kind}\n[grid]\n{grid}\n")
    rc = main(["--config", cfg, "--out", str(out), "verify-expansions"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == ["config error: " + message]
    assert not list(out.iterdir())


@pytest.mark.parametrize("kind", ["quartic", "exponential"])
def test_lemma_grid_ending_at_two_to_the_minus_26_passes(tmp_path, capsys, kind):
    cfg = write(tmp_path, f"[kernel]\nkind = {kind}\n[grid]\neps_pow_min = 17\n"
                          "eps_pow_max = 26\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS expansion suite")


@pytest.mark.parametrize("kind,c", [("quartic", "1e200"), ("exponential", "1e300")])
def test_nonfinite_lemma_sample_names_its_family(tmp_path, capsys, kind, c):
    # H dH ~ c^2 overflows in its table column's weight: the error names
    # the family and c, in one line.
    cfg = write(tmp_path, f"[kernel]\nkind = {kind}\nc = {c}\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        f"error: non-finite lemma weight at family=HdH: c^2 overflows at c={float(c):g}"]
    assert captured.out == ""


def test_plateau_near_overflow_reaches_a_verdict(tmp_path, capsys):
    # c^2 = 1e308 is finite, but the exact limits' cancellation scale
    # overflows.  The suite still reaches its verdict instead of a bare
    # numpy overflow message: rounding at this scale fails the H dH family.
    cfg = write(tmp_path, "[kernel]\nc = 1e154\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    fails = [line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert "HdH" in fails and fails[-1] == "expansion"


def test_huge_coefficients_print_in_scientific_notation(tmp_path, capsys):
    # With c = 1e154 the dH, HdH and Hddelta coefficients reach 1e291, which
    # a fixed-point format printed with hundreds of digits.  From 1e6 up
    # they print in scientific notation; below it the bytes are unchanged.
    cfg = write(tmp_path, "[kernel]\nc = 1e154\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    families = [line for line in lines if line.split()[1] != "expansion"
                and line.startswith(("PASS", "FAIL"))]
    assert len(families) == 12 and max(len(line) for line in families) <= 100
    assert ("PASS R2        measured=(+0.71428571, +0.00000000) "
            "expected=(+0.71428571, +0.00000000)") in families
    assert ("FAIL Hddelta   measured=(+0.00000000, +1.00000000e+154) "
            "expected=(+0.00000000, +1.00000000e+154)") in families


def test_eps_powers_past_the_subnormals_exit_two_with_one_short_line(tmp_path, capsys):
    # 2^-1075 rounds to 0.0: the message names that first bad value and its
    # index, where it used to echo all eleven values of the grid.
    cfg = write(tmp_path, "[grid]\neps_pow_min = 1070\neps_pow_max = 1080\n")
    rc = main(["--config", cfg, "--out", str(tmp_path / "out"), "verify-solution"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "config error: [grid] eps grid must be positive, finite and strictly "
        "decreasing: eps[5] = 0.0 after 5e-324"]


def test_huge_eps_pow_max_builds_no_huge_grid(tmp_path, monkeypatch):
    # Every power from 2^-1075 on rounds to 0.0, so the grid is rejected at
    # its first zero; eps_pow_max = 1e300 used to build 1e300 floats first.
    def bounded_grid(pow_min, pow_max):
        assert pow_max <= 1075, pow_max
        return default_eps_grid(pow_min, pow_max)

    monkeypatch.setattr("deltashock.config.default_eps_grid", bounded_grid)
    with pytest.raises(ConfigError, match=r"^\[grid\] .*: eps\[1072\] = 0.0 after 5e-324$"):
        load_config(write(tmp_path, "[grid]\neps_pow_max = 1e300\n"))


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


def test_verify_expansions_without_data_plateau_flagged(tmp_path, capsys):
    # u1 = 0: the data define no plateau, so the configured c matches none.
    cfg = write(tmp_path, "[data]\nu1 = 0.0\n[kernel]\nc = 0.3\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-expansions"])
    assert rc == 0
    report = json.loads((tmp_path / "lemma31_report.json").read_text())
    assert report["c"] == 0.3 and report["c_matches_data"] is False
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("note:")]
    assert notes == ["note: the data define no plateau (u1 = 0); the suite runs "
                     "at the configured c=0.3"]


def test_verify_solution_pass_and_report(tmp_path, capsys):
    cfg = write(tmp_path, "[grid]\neps_pow_max = 9\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
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


@pytest.mark.parametrize("u1,named", [
    ("0.0", "sigma1/u1 is undefined at u1 = 0"),
    ("-0.0", "sigma1/u1 is undefined at u1 = 0"),
    ("1.38e-316", "(u1/2 - k) - sigma1/u1 is out of float range"),
], ids=["zero", "negative-zero", "subnormal"])
def test_verify_solution_names_a_degenerate_jump(tmp_path, capsys, u1, named):
    # The margins with sigma1/u1 used to print as nan (u1 = 0) or -inf.
    cfg = write(tmp_path, WORKED_INI.replace("u1 = 2.0", f"u1 = {u1}"))
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL inadmissible data: violated margin(s) u1 - 2k = -0.2; {named}"]


def test_verify_solution_follows_the_configured_plateau(tmp_path, capsys):
    # [kernel] c used to be read and ignored here: the report was the
    # default run's.  Off the data's plateau 0.375 the stress dipoles no
    # longer cancel, and the verdict fails on the sigma equation.
    cfg = write(tmp_path, WORKED_INI + "\n[kernel]\nc = 0.3\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == ("note: configured c=0.3 differs from the data value 0.375; "
                      "measured step-times-delta coefficient follows the configured plateau")
    assert out[1].startswith("FAIL weak-solution verification (k=0.1): equation=sigma ")
    assert "order=0.203" in out[1]
    report = json.loads((tmp_path / "residual_report.json").read_text())
    assert report["passed"] is False


@pytest.mark.parametrize("c", ["1e200", "-1.7976931348623157e308"])
def test_configured_plateau_whose_square_overflows_is_named(tmp_path, capsys, c):
    # The residual weights carry c^2; this used to print
    # "error: (34, 'Numerical result out of range')".
    cfg = write(tmp_path, f"[kernel]\nc = {c}\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: non-finite residual weight: c^2 overflows at c={float(c):g}"]


def test_verify_solution_replay_sweep_is_gone(tmp_path, capsys):
    # verify-solution checks the configured data alone; the random replay
    # sweep ran on other data, and its [verify] section is now unknown.
    cfg = write(tmp_path, WORKED_INI + "\n[verify]\nreplay_samples = 2\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify-solution"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: unknown section [verify]; ")
    assert not (tmp_path / "residual_report.json").exists()


def test_riemann_command_worked(tmp_path, capsys):
    cfg = write(tmp_path, CLASSICAL_INI)
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "u* = 0.5, sigma* = -0.5" in out
    assert "speed = 0.25" in out and "speed = 1.25" in out
    lines = (tmp_path / "riemann.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,u,sigma,region"
    assert len(lines) == 402
    assert lines[1].endswith("left") and lines[-1].endswith("right")


def test_riemann_row_where_waves_overlap_is_labelled_by_its_values(tmp_path):
    # The 1-shock lies 2^-45 right of the 2-fan's head; the first row holds
    # fan-2 values and used to be labelled "left".
    cfg = write(tmp_path, "[data]\nu0 = 1.25\nu1 = 0.75\nsigma0 = 0\n"
                          "sigma1 = 0.3125000000000284\nk = 0.25\n"
                          "[riemann]\nxi_min = 1.2499999999999432\nxi_max = 3.0\n"
                          "xi_points = 2\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    assert rc == 0
    lines = (tmp_path / "riemann.csv").read_text().splitlines()
    assert lines[1] == "1.2499999999999432,0.9999999999999432,0.06250000000001421,fan-2"


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


@pytest.mark.parametrize("data,left,right,k", [
    ("u0 = -0.857\nu1 = 0.843\nsigma1 = -1.42\nk = 1.38e-316\n",
     (-0.014000000000000012, -1.42), (-0.857, 0.0), "1.38e-316"),
    ("u0 = -2.124270810934185\nsigma1 = -1.119393568452709e+237\n"
     "k = 1.0521564180223287e-287\n",
     (-0.1242708109341848, -1.119393568452709e+237), (-2.124270810934185, 0.0),
     "1.0521564180223287e-287"),
    ("u1 = 4.0\nsigma1 = 1.0\nk = 1e308\n", (4.0, 1.0), (0.0, 0.0), "1e+308"),
], ids=["subnormal-k", "tiny-k", "huge-k"])
def test_riemann_intermediate_state_out_of_float_range_exits_one(tmp_path, capsys, data,
                                                                 left, right, k):
    # u* (tiny k) or sigma* (huge k) used to print as inf, with exit 0.
    cfg = write(tmp_path, f"[data]\n{data}")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: intermediate state (u*, sigma*) is out of float range for "
        f"left=State(u={left[0]!r}, sigma={left[1]!r}), "
        f"right=State(u={right[0]!r}, sigma={right[1]!r}), k={k}"]
    assert not (tmp_path / "riemann.csv").exists()


def test_riemann_shock_speed_out_of_float_range_exits_one(tmp_path, capsys):
    # Both velocities and u* are in range, but their sum in the 1-shock's
    # speed (u_left + u*)/2 - k rounds past it: this printed "wave 1: shock,
    # speed = -inf" and wrote a table with no left row, with exit 0.
    cfg = write(tmp_path, "[data]\nu0 = -7e307\nu1 = -3e307\nsigma1 = 1.3e308\nk = 1.0\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: wave 1 shock speed is out of float range for "
        "left=State(u=-1e+308, sigma=1.3e+308), right=State(u=-7e+307, sigma=0.0), k=1.0"]
    assert not (tmp_path / "riemann.csv").exists()


def test_riemann_left_state_out_of_float_range_exits_one(tmp_path, capsys):
    # u0 + u1 overflows: the window test read the jump as inf - 1e308 = inf
    # and this printed the delta regime with exit 0.
    cfg = write(tmp_path, "[data]\nu0 = 1e308\nu1 = 1e308\nsigma1 = 0.0\nk = 0.1\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: states must be finite, got left=State(u=inf, sigma=0.0), "
        "right=State(u=1e+308, sigma=0.0)"]


# Rarefactions on both sides at k = 1e308: each fan is one xi wide in
# rounding, so u = xi -+ k lands 5 or 4 from its side's state and k times that
# overflows sigma, while sigma* = 1e308 is in range.
HUGE_K_FANS = "[data]\nu0 = -3.0\nu1 = -2.0\nsigma1 = 0.5\nk = 1e308\n"
_FANS_AT = "for left=State(u=-5.0, sigma=0.5), right=State(u=-3.0, sigma=0.0), k=1e+308"


@pytest.mark.parametrize("text,message", [
    (CLASSICAL_INI + "[riemann]\nxi_min = -1e308\nxi_max = 1e308\n",
     "xi grid xi_min + i (xi_max - xi_min)/(xi_points - 1) is out of float range for "
     "xi_min=-1e+308, xi_max=1e+308, xi_points=401"),
    (CLASSICAL_INI + "[riemann]\nxi_min = 0.0\nxi_max = 1.7976931348623157e308\n"
     "xi_points = 120\n",
     "xi grid xi_min + i (xi_max - xi_min)/(xi_points - 1) is out of float range for "
     "xi_min=0.0, xi_max=1.7976931348623157e+308, xi_points=120"),
    (HUGE_K_FANS + "[riemann]\nxi_min = -1e308\nxi_max = 0.0\nxi_points = 2\n",
     f"sigma in the fan-1 region at xi=-1e+308 is out of float range {_FANS_AT}"),
    (HUGE_K_FANS + "[riemann]\nxi_min = 0.0\nxi_max = 1e308\nxi_points = 2\n",
     f"sigma in the fan-2 region at xi=1e+308 is out of float range {_FANS_AT}"),
], ids=["xi-span-overflows", "xi-last-multiple-overflows", "fan-1-huge-k", "fan-2-huge-k"])
def test_riemann_value_out_of_float_range_names_quantity(tmp_path, capsys, text, message):
    # These used to print numpy's "overflow encountered in subtract" (the xi
    # span) or "... in multiply" (the grid's last multiple of its spacing
    # before it is set to xi_max, and k (u - u_side) in a fan).  Every
    # tabulated xi, u and sigma is finite, or the run writes no table.
    cfg = write(tmp_path, text)
    rc = main(["--config", cfg, "--out", str(tmp_path), "riemann"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "riemann.csv").exists()


def test_riemann_table_reaching_the_largest_float_is_finite(tmp_path):
    # xi_max at the largest float, where the grid's last multiple of its
    # spacing stays in range: the row is tabulated at xi_max, not rejected.
    cfg = write(tmp_path, CLASSICAL_INI + "[riemann]\nxi_min = 0.0\n"
                "xi_max = 1.7976931348623157e308\nxi_points = 3\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "riemann"]) == 0
    rows = (tmp_path / "riemann.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.0", "8.988465674311579e+307",
                                                    "1.7976931348623157e+308"]


def test_kernel_free_commands_build_no_kernel(tmp_path, capsys, monkeypatch):
    # The front speed, the amplitude rate and the small-k gap are the data's,
    # and every kernel's omega0 is a constant of the package root: no kernel
    # enters them, so riemann, k-limit and front on either kernel build none
    # and print and write what they do with kernels at hand.
    def outputs(name, argv):
        out = tmp_path / name
        rc = main(["--out", str(out), *argv])
        return rc, capsys.readouterr().out, {f.name: f.read_bytes() for f in out.iterdir()}

    shipped = SHIPPED_WORKED.parent
    exponential = _exponential_worked(tmp_path)
    runs = [["--config", str(shipped / "worked.ini"), "riemann"],
            ["--config", str(shipped / "riemann.ini"), "riemann"],
            ["--config", str(shipped / "worked.ini"), "k-limit"],
            ["--config", str(shipped / "worked.ini"), "front"],
            ["--config", str(shipped / "worked_k0.ini"), "--format", "json", "front"],
            ["--config", str(exponential), "front"],
            ["--config", str(exponential), "--format", "json", "front"]]
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
    expected = [outputs(f"ref{i}", argv) for i, argv in enumerate(runs)]
    gap = k_limit_gap(data, 0.05, 1.0)

    def no_kernel(*args):
        raise AssertionError(f"built a kernel or its CDF fit: {args}")

    monkeypatch.setattr(kernels, "make_kernel", no_kernel)
    monkeypatch.setattr(kernels, "_exp_fit", no_kernel)
    with pytest.raises(AssertionError):
        kernels.make_kernel(kernels.QUARTIC)
    for i, (argv, want) in enumerate(zip(runs, expected)):
        assert want[0] == 0 and want[1]
        assert outputs(f"run{i}", argv) == want
    assert k_limit_gap(data, 0.05, 1.0) == gap


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


@pytest.mark.parametrize("ks,zero", [("1e-200, 2e-200", "1e-200"), ("1e-170, 0.1", "1e-170")],
                         ids=["both-zero", "first-zero"])
def test_k_limit_gap_that_rounds_to_zero_is_named(tmp_path, capsys, ks, zero):
    # k^2 u1 below the rounding of the amplitude rate makes the gap exactly
    # 0; the k-order fit used to end in "error: divide by zero encountered
    # in log".
    cfg = write(tmp_path, f"[klimit]\nks = {ks}\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "k-limit"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: the gap at k = {zero} rounds to 0")
    assert "k-order needs nonzero gaps" in err[0]


@pytest.mark.parametrize("t,gap", [("1e-320", "-2e-322"), ("1e-321", "-2e-323")])
def test_k_limit_subnormal_gap_is_named(tmp_path, capsys, t, gap):
    # Subnormal gaps carry their rounding: at t = 1e-320 the gap at k = 0.025
    # is -1.5e-323 where -1.25e-323 is meant, and the fit printed a k-order of
    # 1.8685 and a FAIL; at t = 1e-321 it underflows to 0, which was blamed on
    # the amplitude rate.
    cfg = write(tmp_path, f"[klimit]\nt = {t}\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "k-limit"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the gap at k = 0.1, t = {t} is {gap}, below the normal floats "
        "(from 2.23e-308); the fitted k-order needs normal gaps"]
    assert not (tmp_path / "klimit.csv").exists()


@pytest.mark.parametrize("sigma0", ["1e6", "-1e6"])
def test_k_limit_passes_with_a_large_background_stress(tmp_path, capsys, sigma0):
    # The bounded parts sigma0 int psi + sigma1 int_left psi do not depend on
    # k; the gap is the amplitudes' difference alone, so their rounding at
    # sigma0 = 1e6 cannot reach K_GAP_TOL.
    cfg = write(tmp_path, f"[data]\nsigma0 = {sigma0}\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "k-limit"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1].startswith("PASS small-k gap law"), out


def test_k_limit_bound_scales_with_the_gap(tmp_path, capsys):
    # At t = 1e300 the gaps reach 2e298 and their rounding 3.5e282; the
    # absolute bound 1e-10 failed a gap law that holds to 2e-16 relative.
    cfg = write(tmp_path, "[klimit]\nt = 1e300\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "k-limit"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1].startswith("PASS small-k gap law"), out


def test_k_limit_passes_with_a_large_initial_amplitude(tmp_path, capsys):
    # e(t) ~ 1e7 is rounded to about 1e-9; the gap is formed from the two
    # amplitude rates, in which e0 cancels exactly.
    cfg = write(tmp_path, "[data]\ne0 = 1e7\n")
    rc = main(["--config", cfg, "--out", str(tmp_path), "k-limit"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1].startswith("PASS small-k gap law"), out


def test_outputs_are_deterministic(tmp_path):
    # Every file, line and exit code is a function of the config alone: two
    # runs of each subcommand, the regime sweep included, in each format on
    # each shipped config agree.
    configs = sorted(SHIPPED_WORKED.parent.glob("*.ini"))
    assert SHIPPED_WORKED in configs

    def outputs(root):
        printed = []
        for config in configs:
            for fmt in ("csv", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes = [main(["--config", str(config),
                                   "--out", str(root / config.stem / fmt), "--format", fmt,
                                   command]) for command in (*_COMMANDS, "sweep")]
                printed.append((codes, out.getvalue(), err.getvalue()))
        files = {path.relative_to(root): path.read_bytes()
                 for path in sorted(root.rglob("*")) if path.is_file()}
        return printed, files

    first = outputs(tmp_path / "a")
    assert first == outputs(tmp_path / "b")
    # per config and format: the 24 lemma tables, lemma31_report.json, front
    # and klimit, plus residual_report.json (worked, worked_k0) or riemann
    # (whose data are classical, so verify-solution fails them as
    # inadmissible; at k = 0 riemann needs k > 0 and writes nothing), and
    # the sweep's three tables at the default ks
    assert len(first[1]) == len(configs) * 2 * (24 + 1 + 2 + 1 + 3)


@pytest.mark.parametrize("flag", ["--eps-min", "--eps-max"])
def test_eps_flags_are_gone(tmp_path, capsys, flag):
    # [grid] is the one place an eps grid is set
    with pytest.raises(SystemExit) as exc:
        main([f"{flag}=0.001", "--out", str(tmp_path), "front"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}=0.001" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("*"))


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_help_exits_zero_and_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(name in text for name in
               ("verify-expansions", "front", "verify-solution", "riemann", "k-limit", "sweep"))


def test_options_may_follow_the_subcommand(tmp_path, capsys):
    assert main(["front", "--out", str(tmp_path), "--format", "json"]) == 0
    assert (tmp_path / "front.json").exists()


@pytest.mark.parametrize("argv,named", [
    (["--seed=0", "front"], "--seed=0"),
    (["riemann", "--seed", "0"], "--seed 0"),
    (["verify-solution", "--seed", "7"], "--seed 7"),
], ids=["front", "riemann", "verify-solution"])
def test_seed_flag_is_gone(tmp_path, capsys, argv, named):
    # nothing the command line runs draws random numbers
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {named}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/below"], ids=["is-a-file", "below-a-file"])
def test_out_that_cannot_be_a_directory_exits_two_with_one_line(tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    rc = main(["--out", str(tmp_path / out), "front"])
    captured = capsys.readouterr()
    assert rc == 2
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: --out {tmp_path / out}: ")
    assert captured.out == ""


def test_config_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(b"\xff\xfe[data]\nu1 = 2.0\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "front"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"config error: cannot parse {cfg}: ")
    assert not (tmp_path / "out").exists()


# Property tests over load_config + main, driven in-process.  Every key a
# config may set, with a strategy for the text of an admissible value.
# Finite extremes, subnormal up to the float maximum, are drawn often: they
# must end in exit 1 with one line, not in inf or nan in a table or a line.
_EXTREMES = (5e-324, 1.38e-316, 2.2250738585072014e-308, 1e-300, 1e-150,
             1e150, 1e300, 1e308, 1.7976931348623157e308)
_POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                      st.sampled_from(_EXTREMES)).map(repr)
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EXTREMES + tuple(-x for x in _EXTREMES))).map(repr)
_ADMISSIBLE = {
    ("data", "u0"): _FINITE,
    ("data", "u1"): _FINITE,
    ("data", "sigma0"): _FINITE,
    ("data", "sigma1"): _FINITE,
    ("data", "e0"): _FINITE,
    ("data", "k"): st.one_of(st.just("0.0"), _POSITIVE),
    ("grid", "t_max"): st.floats(min_value=0.0, exclude_min=True,
                                 allow_infinity=False).map(repr),
    ("grid", "t_points"): st.integers(2, 200).map(str),
    ("kernel", "kind"): st.sampled_from(["quartic", "exponential"]),
    ("kernel", "c"): _FINITE,
    ("klimit", "t"): _POSITIVE,
    ("riemann", "xi_points"): st.integers(2, 500).map(str),
}
_NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False).map(repr)
_NOT_A_FINITE_NUMBER = st.sampled_from(["fast", "", "nan", "inf", "-inf", "1e999", "1,2"])


@st.composite
def _admissible_config(draw):
    """(section, key) -> value text of a config every rule accepts."""
    keys = draw(st.sets(st.sampled_from(sorted(_ADMISSIBLE))))
    entries = {key: draw(_ADMISSIBLE[key]) for key in keys}
    grid = draw(st.sampled_from(["default", "powers", "list"]))
    if grid == "powers":
        lo = draw(st.integers(0, 16))
        entries[("grid", "eps_pow_min")] = str(lo)
        # at least 4 points, so at least 3 dyadic decades
        entries[("grid", "eps_pow_max")] = str(draw(st.integers(lo + 3, 20)))
    elif grid == "list":
        # spanning at least 3 dyadic decades, as verify-expansions needs
        eps = sorted(draw(st.sets(st.floats(0.0, exclude_min=True,
                                            allow_infinity=False),
                                  min_size=4, max_size=8)
                          .filter(lambda eps: max(eps) >= 8.0 * min(eps))),
                     reverse=True)
        entries[("grid", "eps")] = ", ".join(map(repr, eps))
    if draw(st.booleans()):
        xi_min, xi_max = sorted(draw(st.sets(st.floats(allow_nan=False,
                                                       allow_infinity=False),
                                             min_size=2, max_size=2)))
        entries[("riemann", "xi_min")] = repr(xi_min)
        entries[("riemann", "xi_max")] = repr(xi_max)
    if draw(st.booleans()):
        ks = draw(st.sets(st.floats(0.0, exclude_min=True, allow_infinity=False),
                          min_size=2, max_size=4))
        entries[("klimit", "ks")] = " ".join(map(repr, ks))
    return entries


# One broken rule each, as (section, key) -> strategy for the value text.
_VIOLATIONS = [
    *[{key: _NOT_A_FINITE_NUMBER}
      for key in [*_ADMISSIBLE, ("riemann", "xi_min"), ("riemann", "xi_max")]
      if key != ("kernel", "kind")],
    {("data", "k"): st.floats(max_value=0.0, exclude_max=True,
                              allow_infinity=False).map(repr)},
    {("grid", "t_max"): st.floats(max_value=0.0, allow_infinity=False).map(repr)},
    {("grid", "t_points"): st.integers(-5, 1).map(str)},
    {("grid", "t_points"): st.sampled_from(["2.5", "33.1"])},
    {("kernel", "kind"): st.sampled_from(["gaussian", "", "quartic-bump"])},
    {("grid", "eps"): st.sampled_from(["0.5, 0.25, 0.125", "0.5, 0.5, 0.25, 0.125",
                                       "0.1, 0.2, 0.05, 0.01", "0.5, 0.25, 0, -0.1",
                                       "0.5, 0.25, nan, 0.1", "", "a, b, c, d"])},
    {("grid", "eps_pow_min"): st.just("8"), ("grid", "eps_pow_max"): st.just("8")},
    {("grid", "eps_pow_min"): st.just("3"), ("grid", "eps_pow_max"): st.just("4")},
    {("grid", "eps_pow_min"): st.just("3"), ("grid", "eps_pow_max"): st.just("5")},
    {("grid", "eps_pow_min"): st.just("9"), ("grid", "eps_pow_max"): st.just("4")},
    {("klimit", "ks"): st.sampled_from(["0.1", "0.1 0.1", "0.1 -0.05", "0.1 0",
                                        "", "0.1 nan"])},
    {("klimit", "t"): _NON_POSITIVE},
    {("sweep", "ks"): st.sampled_from(["", "a", "0.1 -1", "-0.5", "0.1 nan", "0.1 1e999",
                                       "0.1 0.10000001", "0.5 1 0.5"])},
    {("sweep", "n"): st.integers(-5, 0).map(str)},
    {("sweep", "n"): st.sampled_from(["2.5", "nan", "inf", "1e999", "fast"])},
    # a verdict bound is no key: any value is unknown and rejected
    {("klimit", "order_tol"): _NON_POSITIVE},
    {("riemann", "xi_points"): st.integers(-5, 1).map(str)},
    {("riemann", "xi_min"): st.floats(min_value=0.0, allow_infinity=False).map(repr),
     ("riemann", "xi_max"): _NON_POSITIVE},
    # an eps list and a power: both set, neither wins
    *[{("grid", "eps"): st.just("0.5, 0.25, 0.125, 0.0625"), ("grid", key): value}
      for key in ("eps_pow_min", "eps_pow_max")
      for value in (st.integers(0, 20).map(str), _NOT_A_FINITE_NUMBER)],
]


def _config_text(entries) -> str:
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


def _run(text: str, command: str = "front"):
    """Exit code, stdout and stderr lines of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--config", str(cfg), "--out", str(Path(tmp) / "out"), command])
    return rc, out.getvalue(), err.getvalue().splitlines()


def _assert_runs(text: str, command: str):
    rc, out, err = _run(text, command)
    assert rc in (0, 1)
    assert all(line.startswith("error:") for line in err) and len(err) <= 1
    # an overflow names its quantity, not an errno tuple
    assert not any(line.startswith("error: (") for line in err)
    if rc == 1 and err == []:
        # a silent exit 1 is a FAIL verdict, which front alone never prints
        assert command != "front" and re.search(r"^FAIL ", out, re.M)
    if rc == 0:
        assert err == [] and not {"nan", "inf"} & set(re.findall(r"[a-z]+", out.lower()))


_COMMANDS = ("front", "riemann", "k-limit", "verify-expansions", "verify-solution")


@given(_admissible_config())
@settings(max_examples=60, deadline=None)
# riemann and k-limit print a FAIL verdict and exit 1 with no error line
@example({("data", "u1"): "0.0", ("data", "e0"): "0.0"})
@example({("data", "e0"): "1048576.0"})
def test_admissible_config_runs(entries):
    # Every subcommand exits 0 or 1 with at most one error line, and a run
    # that succeeds prints no nan or inf.  The one exception is the lemma
    # suite's 2^-26 bound: a listed grid may reach below it, and then
    # verify-expansions exits 2 with the one config error line that names it.
    listed = entries.get(("grid", "eps"))
    below = listed is not None and min(map(float, listed.split(","))) < 2.0**-26
    for command in _COMMANDS:
        if command == "verify-expansions" and below:
            rc, out, err = _run(_config_text(entries), command)
            assert rc == 2 and out == "" and len(err) == 1
            assert err[0].startswith("config error: [grid] lemma suite eps grid reaches eps = ")
        else:
            _assert_runs(_config_text(entries), command)


@given(_admissible_config(), st.sampled_from(_VIOLATIONS), st.data())
@settings(max_examples=80)
def test_malformed_config_exits_two_with_one_line(entries, violation, data):
    for key, strategy in violation.items():
        entries[key] = data.draw(strategy)
    if ("grid", "eps_pow_min") in violation and ("grid", "eps") not in violation:
        entries.pop(("grid", "eps"), None)  # so the powers' own rule is what fails
    rc, _, err = _run(_config_text(entries))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("text", [
    "u1 = 2.0\n",                        # no section header
    "[data]\nu1 = 2.0\nu1 = 3.0\n",      # duplicate key
    "[data]\n[data]\n",                  # duplicate section
    "[data]\nthis line has no separator\n",
    "[data]\nu1 = 5%\n",                  # a bad interpolation: was a traceback
])
def test_unparseable_config_exits_two_with_one_line(text):
    rc, _, err = _run(text)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:")
