"""Seeded workloads: inputs, operations and the checks on their outputs.

Each workload yields an endless sequence of operations determined by the
seed.  An operation is a closure the runner times; its check compares the
output with closed forms computed here, independently of the package.
Input generation and checking happen between operations, never inside
the timed closure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Operations call the package through module attributes, so the tracer's
# wrappers on those attributes see every call.
import deltashock.cli
from deltashock import dynamics, pairing, verifier
from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.kernels import EXPONENTIAL, QUARTIC, make_kernel
from deltashock.riemann import CLASSICAL, DELTA_REGIME, NO_SOLUTION
from deltashock.verifier import sample_admissible_data

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REGIME_SWEEP = ROOT / "scripts" / "regime_sweep.py"

K_CYCLE = (0.0, 0.1, 0.5)
T_MAX = 1.0
REPLAY_TOL = 1e-3       # replay coefficients on the solved trajectory
EXPANSION_TOL = 1e-6    # verify_lemma31's coefficient tolerance
K_GAP_TOL = 1e-10       # the k-limit command's gap tolerance
K_ORDER_TOL = 0.01      # the k-limit command's default order tolerance
REL_TOL = 1e-12         # printed and tabulated closed forms
QUARTIC_OMEGA0 = 5.0 / 7.0
CHILD_TIMEOUT_S = 60.0

SIGN_CHANGE = "e changes sign"
DECREASING = "e decreasing"


@dataclass(frozen=True)
class Check:
    ok: bool
    coeff_err: float | None = None
    # A FAIL verdict from the documented defect (ROADMAP item 4): while
    # e(t) decreases towards a zero at t0, p-dot grows like |t - t0|^(-1/2)
    # and the default eps grid is too short to certify decay, both when t0
    # lies inside [0, t_max] and just beyond it.  Counted in ``failed``.
    known_defect: bool = False
    note: str = ""


@dataclass(frozen=True)
class Op:
    kind: str
    labels: frozenset[str]
    run: Callable[[], object]
    check: Callable[[object], Check]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    out: Path
    max_rss_kb: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]     # input properties whose share is reported
    setup_code: str             # run in a fresh interpreter to time set-up
    kernel_kind: str
    ops: Callable[..., Iterator[Op]]
    reference: Callable[[], object]   # timed beside every operation
    cycle: int                  # ops per cycle of the input rotation
    step_s: float               # rough seconds of one operation plus its reference
    trace_cycle_s: float        # rough untraced + traced seconds per cycle

    def n_ops(self, seconds: float) -> int:
        """Whole input cycles filling about ``seconds``; fixed per argument."""
        return self.cycle * max(1, round(seconds / (self.cycle * self.step_s)))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _rate(data) -> float:
    """Amplitude rate sigma1^2/u1 - k^2 u1, so e(t) = e0 + rate t."""
    return data.sigma1**2 / data.u1 - data.k**2 * data.u1


def _speed(data) -> float:
    return data.u0 + 0.5 * data.u1 - data.sigma1 / data.u1


def _data_labels(data, kernel_label: str) -> frozenset[str]:
    e_end = data.e0 + _rate(data) * T_MAX
    labels = {kernel_label}
    if data.k == 0.0:
        labels.add("k=0")
    if _rate(data) < 0.0:
        labels.add(DECREASING)
    if (data.e0 > 0.0) != (e_end > 0.0):
        labels.add(SIGN_CHANGE)
    if e_end < 0.0:
        labels.add("imaginary p at t_max")
    return frozenset(labels)


def exp_bump_omega0() -> float:
    """int omega^2 of the unit-mass exp(-1/(1 - y^2)) bump, 64 x 32 Gauss nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(-1.0, 1.0, 65)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    y = half * nodes + 0.5 * (edges[1:] + edges[:-1])[:, None]
    w = half * weights
    g = np.exp(-1.0 / (1.0 - y**2))
    return float(np.sum(w * g * g) / np.sum(w * g) ** 2)


def expected_expansions(omega0: float, c: float) -> dict[str, tuple[float, float]]:
    """Closed-form (A, B) of the twelve regularization products."""
    return {
        "R": (0.0, 0.0), "dR": (0.0, 0.0), "R2": (omega0, 0.0),
        "RdR": (0.0, 0.5 * omega0), "delta": (1.0, 0.0), "ddelta": (0.0, 1.0),
        "Rdelta": (0.0, 0.0), "Rddelta": (0.0, 0.0), "dH": (1.0, 0.0),
        "HdH": (0.5, 0.0), "RdH": (0.0, 0.0), "Hddelta": (0.0, c),
    }


def check_expansions(rows, omega0: float, c: float) -> Check:
    """``rows`` are (name, measured A, measured B, passed) per product."""
    expected = expected_expansions(omega0, c)
    rows = list(rows)
    if sorted(r[0] for r in rows) != sorted(expected):
        return Check(False, note=f"families {[r[0] for r in rows]}")
    err = max(max(abs(a - expected[n][0]), abs(b - expected[n][1]))
              for n, a, b, _ in rows)
    ok = all(p for *_, p in rows) and err <= EXPANSION_TOL
    return Check(ok, err, note="" if ok else f"max coefficient error {err:.3e}")


# --- references ------------------------------------------------------------
# The host's speed drifts by up to 2x over minutes, so a latency in seconds
# says as much about the host as about the package.  Each workload times a
# fixed reference computation right before and after every operation and
# reports latencies in units of it.  A reference is frozen here, outside
# the package, and resembles the work of its workload's operations.

_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(16)
_REF_ROUNDS = 3000


def quadrature_reference() -> float:
    """Composite Gauss-Legendre sums of a bump on small numpy arrays.

    Shaped like ``pairing.pair``: a Python loop over panel sets, each a few
    small array operations.  About 0.1 s on a 2 GHz Xeon.
    """
    total = 0.0
    for i in range(_REF_ROUNDS):
        edges = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3 * (1 + i % 7), 17)
        half = 0.5 * np.diff(edges)[:, None]
        x = half * _REF_NODES + 0.5 * (edges[1:] + edges[:-1])[:, None]
        y = np.exp(-1.0 / (1.0 - x * x)) * np.cos(3.0 * x)
        total += float(np.sum(half * _REF_WEIGHTS * y))
    return total


def startup_reference() -> int:
    """A fresh interpreter that imports numpy and exits, as every CLI run does."""
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"], cwd=ROOT,
                            env=child_env())
    # A blocking wait: ``wait(timeout=...)`` polls in sleeps of up to
    # 0.05 s, which would round the reference's time to that step.
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code:
        raise RuntimeError(f"reference interpreter exited with code {code}")
    return code


# --- weak-solution ---------------------------------------------------------

def weak_solution_ops(seed: int, workdir=None, in_process=False) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    kernel = make_kernel(QUARTIC)
    for i in itertools.count():
        data = sample_admissible_data(rng, k=K_CYCLE[i % len(K_CYCLE)])
        labels = _data_labels(data, "kernel=quartic")

        def run(data=data):
            ansatz = SmoothAnsatz(data, dynamics.solve_front(data), kernel)
            return verifier.verify_weak_solution(ansatz, data.k)

        def check(report, defect=DECREASING in labels):
            if report.passed:
                return Check(True)
            return Check(False, known_defect=defect, note=report.summary_line())
        yield Op("verify_weak_solution", labels, run, check)


# --- extraction ------------------------------------------------------------

def _check_replay(result) -> Check:
    # With the solved trajectory every closed-form coefficient vanishes, so
    # the measured coefficients are themselves the error.
    err = max(abs(m) for m in result.measured)
    return Check(err <= REPLAY_TOL, err,
                 note="" if err <= REPLAY_TOL else f"replay coefficient {err:.3e}")


def extraction_ops(seed: int, workdir=None, in_process=False) -> Iterator[Op]:
    # One operation is a replay followed by the expansion suite at that
    # data's plateau.  Alone, each takes 0.05-0.1 s with different medians,
    # and a median over alternating operations would jump between the two.
    rng = np.random.default_rng(seed)
    kernel = make_kernel(EXPONENTIAL)
    omega0 = exp_bump_omega0()
    for j in itertools.count():
        data = sample_admissible_data(rng, k=K_CYCLE[j % len(K_CYCLE)])

        def run(data=data):
            replay = verifier.replay_derivation(
                data, dynamics.solve_front(data, kernel.omega0), kernel, t=T_MAX)
            return replay, pairing.verify_lemma31(kernel, data.plateau())

        def check(result, c=0.5 - data.sigma1 / data.u1**2):
            replay, reports = result
            checks = (_check_replay(replay), check_expansions(
                ((r.name, r.measured_a, r.measured_b, r.passed) for r in reports),
                omega0, c))
            errs = [ch.coeff_err for ch in checks if ch.coeff_err is not None]
            return Check(all(ch.ok for ch in checks), max(errs, default=None),
                         note="; ".join(ch.note for ch in checks if ch.note))
        yield Op("replay+verify_lemma31", _data_labels(data, "kernel=exponential"),
                 run, check)


# --- cli -------------------------------------------------------------------

CLI_KINDS = ("front", "k-limit", "riemann-classical", "riemann-delta",
             "riemann-none", "verify-expansions", "regime-sweep")
# The sweep takes twice as long as any subcommand.  It fills two of the
# eight slots of a cycle so that the tail (the 11th-slowest of 72
# operations in a 35-s run) falls inside the sweep's latency cluster.  With one slot it
# could sit on the edge between two clusters and jump between them.
CLI_ROTATION = CLI_KINDS + ("regime-sweep",)
SWEEP_KS = (0.1, 0.5, 1.0)   # scripts/regime_sweep.py defaults
SWEEP_ROWS = 80 * 81


def _margins(u1: float, s1: float, k: float):
    half = 0.5 * u1 - k
    return (u1 - 2.0 * k, s1 / u1 + half, half - s1 / u1)


def oracle_regime(u0, u1, s0, s1, k, margin=1e-6):
    """(regime, u*, sigma*, leftmost, rightmost wave speed) from closed forms.

    The regime is None when the data lies within ``margin`` of a regime
    boundary, where rounding may decide it.
    """
    ul, sl = u0 + u1, s0 + s1
    du = ul - u0
    if du != 0.0:
        m = _margins(du, sl - s0, k)
        if abs(min(m)) <= margin:
            return None, None, None, None, None
        if min(m) > 0.0:
            return DELTA_REGIME, None, None, None, None
    u_star = 0.5 * (ul + u0) + (s0 - sl) / (2.0 * k)
    s_star = sl + k * (u_star - ul)
    d1, d2 = u_star - ul, u0 - u_star
    if min(abs(d1), abs(d2)) <= margin:
        return None, u_star, s_star, None, None
    fast1 = u_star - k if d1 > 0.0 else 0.5 * (ul + u_star) - k
    slow1 = ul - k if d1 > 0.0 else fast1
    slow2 = u_star + k if d2 > 0.0 else 0.5 * (u_star + u0) + k
    fast2 = u0 + k if d2 > 0.0 else slow2
    gap = slow2 - fast1
    if abs(gap) <= margin:
        return None, u_star, s_star, slow1, fast2
    return (CLASSICAL if gap > 0.0 else NO_SOLUTION), u_star, s_star, slow1, fast2


def _config_text(data) -> str:
    return "[data]\n" + "".join(
        f"{key} = {getattr(data, key)!r}\n"
        for key in ("u0", "u1", "sigma0", "sigma1", "e0", "k"))


def _riemann_data(rng, regime: str) -> tuple[RiemannJumpData, tuple]:
    for _ in range(100_000):
        d = RiemannJumpData(float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)),
                            float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)),
                            0.0, float(rng.uniform(0.2, 1.0)))
        if abs(d.u1) < 0.05:
            continue
        got = oracle_regime(d.u0, d.u1, d.sigma0, d.sigma1, d.k, margin=1e-3)
        if got[0] != regime:
            continue
        # Keep every wave inside the tabulated xi window [-5, 5].
        if regime == CLASSICAL and not (-4.5 < got[3] and got[4] < 4.5):
            continue
        return d, got
    raise RuntimeError(f"no {regime} data drawn")


_FLOAT = r"([-+0-9.eEinfa]+)"


def _parse(pattern: str, text: str) -> tuple[float, ...]:
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"missing output line /{pattern}/")
    return tuple(float(g) for g in m.groups())


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_front(data, res: CliResult) -> Check:
    speed, rate = _parse(rf"front speed = {_FLOAT}, amplitude rate = {_FLOAT}",
                         res.stdout)
    want_rate = _rate(data)
    admissible = min(_margins(data.u1, data.sigma1, data.k)) > 0.0
    ok = (res.code == 0 and _close(speed, _speed(data)) and _close(rate, want_rate)
          and f"admissible = {admissible};" in res.stdout)
    rows = _read_csv(res.out / "front.csv")
    ok = ok and len(rows) == 33
    for row in rows:
        t = float(row["t"])
        p = complex(float(row["re_p"]), float(row["im_p"]))
        e = data.e0 + want_rate * t
        ok = (ok and _close(float(row["phi"]), _speed(data) * t)
              and _close(float(row["e"]), e)
              and abs(p * p * QUARTIC_OMEGA0 / 2.0 - e) <= 1e-12 * max(1.0, abs(e))
              and p.real >= 0.0 and p.imag >= 0.0)
    return Check(ok, note="" if ok else "front output differs from closed form")


def _check_k_limit(data, res: CliResult) -> Check:
    rows = _read_csv(res.out / "klimit.csv")
    t = 1.0
    # The plain bump test function centred on the front takes value 1 there.
    errs = [abs(float(r["gap"]) - (-(float(r["k"]) ** 2) * data.u1 * t))
            for r in rows]
    (order,) = _parse(rf"fitted k-order: {_FLOAT}", res.stdout)
    err = max(errs) if errs else math.inf
    ok = (res.code == 0 and len(rows) == 3 and err <= K_GAP_TOL
          and abs(order - 2.0) <= K_ORDER_TOL and "PASS small-k gap law" in res.stdout)
    return Check(ok, err, note="" if ok else f"k-limit gap error {err:.3e}")


def _check_riemann_delta(data, res: CliResult) -> Check:
    speed, rate = _parse(rf"regime: delta-shock .*front speed = {_FLOAT}, "
                         rf"amplitude rate = {_FLOAT}", res.stdout)
    ok = res.code == 0 and _close(speed, _speed(data)) and _close(rate, _rate(data))
    return Check(ok, note="" if ok else "delta regime output differs")


def _check_riemann_classical(data, oracle, res: CliResult) -> Check:
    _, u_star, s_star, _, _ = oracle
    got_u, got_s = _parse(rf"u\* = {_FLOAT}, sigma\* = {_FLOAT}", res.stdout)
    ok = res.code == 0 and _close(got_u, u_star, 1e-9) and _close(got_s, s_star, 1e-9)
    rows = _read_csv(res.out / "riemann.csv")
    ul, sl = data.u0 + data.u1, data.sigma0 + data.sigma1
    k = data.k
    ok = ok and len(rows) == 401 and rows[0]["region"] == "left" \
        and rows[-1]["region"] == "right"
    for row in rows:
        xi, u, s = float(row["xi"]), float(row["u"]), float(row["sigma"])
        want = {
            "left": (ul, sl),
            "right": (data.u0, data.sigma0),
            "middle": (u_star, s_star),
            "fan-1": (xi + k, sl + k * (xi + k - ul)),
            "fan-2": (xi - k, s_star - k * (xi - k - u_star)),
        }.get(row["region"])
        ok = ok and want is not None and _close(u, want[0], 1e-9) \
            and _close(s, want[1], 1e-9)
    return Check(ok, note="" if ok else "classical Riemann output differs")


def _check_riemann_none(res: CliResult) -> Check:
    ok = res.code == 1 and "FAIL no solution constructed" in res.stdout
    return Check(ok, note="" if ok else f"exit {res.code}, expected 1")


def _check_verify_expansions(data, res: CliResult) -> Check:
    with open(res.out / "lemma31_report.json") as fh:
        report = json.load(fh)
    c = 0.5 - data.sigma1 / data.u1**2
    rows = ((e["name"], e["measured"][0], e["measured"][1], e["passed"])
            for e in report["expansions"])
    got = check_expansions(rows, QUARTIC_OMEGA0, c)
    ok = (got.ok and res.code == 0 and report["passed"] is True
          and report["c_matches_data"] is True and _close(report["c"], c))
    return Check(ok, got.coeff_err, note=got.note or ("" if ok else "report mismatch"))


def _check_regime_sweep(sample_seed: int, res: CliResult) -> Check:
    if res.code != 0:
        return Check(False, note=f"exit {res.code}")
    rng = np.random.default_rng(sample_seed)
    ok = True
    for k in SWEEP_KS:
        tag = f"{k:g}".replace(".", "p")
        rows = _read_csv(res.out / f"regimes_k{tag}.csv")
        counts = {}
        for r in rows:
            counts[r["regime"]] = counts.get(r["regime"], 0) + 1
        line = f"k = {k:g}: " + ", ".join(f"{g}={n}" for g, n in sorted(counts.items()))
        ok = ok and len(rows) == SWEEP_ROWS and line in res.stdout
        for i in rng.choice(len(rows), size=min(40, len(rows)), replace=False):
            r = rows[int(i)]
            want = oracle_regime(0.0, float(r["u1"]), 0.0, float(r["sigma1"]), k)[0]
            ok = ok and (want is None or want == r["regime"])
    return Check(ok, note="" if ok else "regime sweep differs from closed form")


def _cli_case(kind: str, rng):
    """(config data or None, argv tail without --out, checker(result))."""
    if kind == "front":
        while True:
            d = RiemannJumpData(
                float(rng.uniform(-1, 1)), float(rng.choice([-1, 1]) * rng.uniform(0.5, 3)),
                float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)),
                float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0, 1)))
            if min(abs(m) for m in _margins(d.u1, d.sigma1, d.k)) > 1e-6:
                return d, ["front"], lambda res, d=d: _check_front(d, res)
    if kind == "k-limit":
        d = sample_admissible_data(rng, k=0.1)
        return d, ["k-limit"], lambda res, d=d: _check_k_limit(d, res)
    if kind == "riemann-delta":
        d = sample_admissible_data(rng, k=float(rng.uniform(0.1, 0.8)))
        return d, ["riemann"], lambda res, d=d: _check_riemann_delta(d, res)
    if kind == "riemann-classical":
        d, oracle = _riemann_data(rng, CLASSICAL)
        return d, ["riemann"], lambda res: _check_riemann_classical(d, oracle, res)
    if kind == "riemann-none":
        d, _ = _riemann_data(rng, NO_SOLUTION)
        return d, ["riemann"], _check_riemann_none
    if kind == "verify-expansions":
        d = sample_admissible_data(rng, k=0.1)
        return d, ["verify-expansions"], lambda res, d=d: _check_verify_expansions(d, res)
    if kind == "regime-sweep":
        sample_seed = int(rng.integers(2**32))
        return None, None, lambda res: _check_regime_sweep(sample_seed, res)
    raise ValueError(kind)


def run_child(argv: list[str], out: Path) -> CliResult:
    """Run one process to completion; keeps its exit code and peak RSS."""
    with open(out / "stdout.txt", "w+") as so, open(out / "stderr.txt", "w+") as se:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=so, stderr=se)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        return CliResult(proc.returncode, so.read(), se.read(), out, usage.ru_maxrss)


def run_in_process(args: list[str] | None, out: Path) -> CliResult:
    """The same command through ``deltashock.cli.main`` or the sweep script."""
    so, se = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            if args is None:
                sys.argv = [str(REGIME_SWEEP), "--out", str(out)]
                runpy.run_path(str(REGIME_SWEEP), run_name="__main__")
                code = 0
            else:
                code = deltashock.cli.main(["--out", str(out)] + args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.argv = saved_argv
    return CliResult(code, so.getvalue(), se.getvalue(), out)


def cli_ops(seed: int, workdir: Path, in_process: bool = False) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        kinds = [str(k) for k in rng.permutation(CLI_ROTATION)]
        for j, kind in enumerate(kinds):
            out = Path(workdir) / f"op{i * len(CLI_ROTATION) + j}"
            out.mkdir(parents=True)
            data, args, check = _cli_case(kind, rng)
            if data is not None:
                cfg = out / "config.ini"
                cfg.write_text(_config_text(data))
                args = ["--config", str(cfg)] + args
            if in_process:
                run = (lambda args=args, out=out: run_in_process(args, out))
            elif args is None:
                argv = [sys.executable, str(REGIME_SWEEP), "--out", str(out)]
                run = (lambda argv=argv, out=out: run_child(argv, out))
            else:
                argv = [sys.executable, "-m", "deltashock", "--out", str(out)] + args
                run = (lambda argv=argv, out=out: run_child(argv, out))
            yield Op(kind, frozenset({f"subcommand={kind}"}), run, check)


_KERNEL_SETUP = ("import deltashock.dynamics, deltashock.verifier\n"
                 "from deltashock.kernels import make_kernel\n"
                 "make_kernel({!r}).cdf(0.0)")

_DATA_LABELS = ("k=0", DECREASING, SIGN_CHANGE, "imaginary p at t_max")

WORKLOADS = {
    w.name: w for w in (
        Workload("weak-solution", _DATA_LABELS + ("kernel=quartic",),
                 _KERNEL_SETUP.format(QUARTIC), QUARTIC, weak_solution_ops,
                 quadrature_reference, cycle=len(K_CYCLE), step_s=1.0,
                 trace_cycle_s=7.0),
        Workload("extraction", _DATA_LABELS + ("kernel=exponential",),
                 _KERNEL_SETUP.format(EXPONENTIAL), EXPONENTIAL, extraction_ops,
                 quadrature_reference, cycle=len(K_CYCLE), step_s=0.3,
                 trace_cycle_s=1.5),
        Workload("cli", tuple(f"subcommand={k}" for k in CLI_KINDS),
                 "import deltashock.cli", QUARTIC, cli_ops, startup_reference,
                 cycle=len(CLI_ROTATION), step_s=0.5, trace_cycle_s=4.0),
    )
}
