"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


def _bench(*args: str):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    return done.stdout, result


def test_benchmarked_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_untraced_run(workload):
    out, result = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # Whole input cycles, so a seed fixes which outputs are checked.
    assert result["attempted"] == workloads.WORKLOADS[workload].n_ops(1)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    for name in ("fail_ratio", "coeff_err_max", "input shares"):
        assert name in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = (_bench(*args)[1]["metrics"] for _ in range(2))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_pairs_per_verdict_at_default_grids():
    from deltashock import pairing

    original = pairing.pair
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_op(next(workloads.weak_solution_ops(0)), tracer, 0)
    finally:
        tracer.uninstall()
    assert pairing.pair is original
    metrics = tracer.layer_metrics()
    assert metrics["verifier.pairs_per_verdict"][0] == 1320
    assert metrics["ansatz.evals_per_pair"][0] == 2


def test_perturbed_pairing_counts_as_failure(monkeypatch):
    from deltashock import pairing

    def first_ops(n):
        ops = workloads.extraction_ops(5)
        return [run.run_op(next(ops)) for _ in range(n)]

    assert all(r.check.ok for r in first_ops(4))
    original = pairing.pair

    def scaled(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-3)

    for name, module in list(sys.modules.items()):
        if name.startswith("deltashock"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, scaled)
    records = first_ops(4)
    summary = run.summarize(records, [1.0] * (len(records) + 1), ())
    assert summary["failed"] > 0
    assert summary["coeff_err_max"] > workloads.EXPANSION_TOL
    assert not any(r.check.known_defect for r in records)

