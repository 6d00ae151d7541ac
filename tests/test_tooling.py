"""The benchmark's tracer, its lemma names and every module's exports resolve.

The benchmark under ``perfbench/`` wraps package functions by name, checks
results by name and is not collected with these tests, so a deletion or a
rename in the package could break it silently.  Its ``cli`` workload
times fresh processes, so import-time work in the package would show
there; the CLI import is checked to stay lazy and to load no third-party
module but numpy.
"""

import importlib
import importlib.util
import itertools
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import deltashock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, read from its file and left as is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(monkeypatch):
    import deltashock.pairing as pairing

    original = pairing.pair
    tracer = _load_perfbench(monkeypatch, "tracing").Tracer()
    try:
        tracer.install()  # raises if any target is missing
        assert pairing.pair is not original
    finally:
        tracer.uninstall()
    assert pairing.pair is original


def test_benchmark_expects_every_lemma_family(monkeypatch):
    # The extraction workload checks verify_lemma31's rows by name against
    # its own closed forms; a renamed family would fail every operation.
    from deltashock.pairing import LEMMA_FAMILIES

    workloads = _load_perfbench(monkeypatch, "workloads")
    assert sorted(workloads.expected_expansions(5 / 7, 0.375)) == sorted(LEMMA_FAMILIES)


def test_gated_workloads_pass_their_own_checks(monkeypatch, tmp_path):
    # The benchmark checks every output against its own closed forms, but
    # its tests are not collected here.  The first operations of both gated
    # workloads, run in this process, must pass those checks or fail as a
    # counted known defect.
    workloads = _load_perfbench(monkeypatch, "workloads")
    ops = itertools.chain(
        itertools.islice(workloads.weak_solution_ops(1, tmp_path, in_process=True), 3),
        itertools.islice(workloads.cli_ops(1, tmp_path / "cli", in_process=True),
                         len(workloads.CLI_ROTATION)))
    kinds = []
    for op in ops:
        check = op.check(op.run())
        assert check.ok or check.known_defect, (op.kind, check.note)
        kinds.append(op.kind)
    assert kinds[:3] == ["verify_weak_solution"] * 3
    assert sorted(kinds[3:]) == sorted(workloads.CLI_ROTATION)


@pytest.mark.parametrize("seed", [1, 5])
def test_extraction_workload_passes_its_own_checks(monkeypatch, seed):
    # The ungated extraction workload is the benchmark's only path to the
    # replay and the exponential lemma suite; its first operations, run in
    # this process, must pass its checks.
    workloads = _load_perfbench(monkeypatch, "workloads")
    for op in itertools.islice(workloads.extraction_ops(seed, in_process=True), 3):
        check = op.check(op.run())
        assert check.ok, (op.kind, check.note)


def test_every_exported_name_exists():
    names = [m.name for m in pkgutil.iter_modules(deltashock.__path__)
             if m.name != "__main__"]
    for name in ["", *names]:
        module = importlib.import_module(f"deltashock{'.' + name if name else ''}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


_FRESH_CLI = """
import json, sys
bare = set(sys.modules)

def loaded():
    # Top-level non-stdlib modules loaded beyond a bare interpreter's.
    return sorted({m.split(".")[0] for m in set(sys.modules) - bare}
                  - set(sys.stdlib_module_names))

import deltashock.cli
from deltashock import kernels
from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import solve_front
from deltashock.pairing import verify_lemma31
from deltashock.verifier import replay_derivation, verify_weak_solution

tables = [kernels.primitive_table.cache_info().currsize]
data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
for kind in ("quartic", "exponential"):
    kernel = kernels.make_kernel(kind)
    front = solve_front(data, kernel.omega0)
    verify_weak_solution(SmoothAnsatz(data, front, kernel), data.k)
    tables.append(kernels.primitive_table.cache_info().currsize)
    replay_derivation(data, front, kernel)
verify_lemma31(kernel, data.plateau())
print(json.dumps([tables, loaded()]))
"""


def test_package_import_loads_no_submodule():
    # Each subcommand and script imports the modules it computes with; the
    # package itself re-exports nothing, so it loads none of them.
    src = Path(deltashock.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, deltashock; "
         "print(sorted(m for m in sys.modules if m.startswith('deltashock.')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_is_lazy():
    # The cli benchmark times fresh processes: importing the CLI must build
    # no primitive table, each kernel's first verdict builds one, and a run
    # of either kernel loads only the package and numpy, its one runtime
    # dependency.
    src = Path(deltashock.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _FRESH_CLI], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    tables, loaded = json.loads(done.stdout)
    assert tables == [0, 1, 2]
    assert loaded == ["deltashock", "numpy"]
