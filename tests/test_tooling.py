"""The benchmark's tracer and every module's exports still resolve.

The benchmark under ``perfbench/`` wraps package functions by name and is
not collected with these tests, so a deletion in the package could break
it silently.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import deltashock

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(monkeypatch):
    import deltashock.pairing as pairing

    original = pairing.pair
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()  # raises if any target is missing
        assert pairing.pair is not original
    finally:
        tracer.uninstall()
    assert pairing.pair is original


def test_every_exported_name_exists():
    names = [m.name for m in pkgutil.iter_modules(deltashock.__path__)
             if m.name != "__main__"]
    for name in ["", *names]:
        module = importlib.import_module(f"deltashock{'.' + name if name else ''}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
