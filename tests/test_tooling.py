"""The benchmark's tracer, its lemma names and every module's exports resolve.

The benchmark under ``perfbench/`` wraps package functions by name, checks
results by name and is not collected with these tests, so a deletion or a
rename in the package could break it silently.  Its ``cli`` workload
times fresh processes, so import-time work in the package would show
there; the CLI import, ``--help`` and a config error are checked to load
neither numpy nor the kernel layer, and only a run that reads a config
file to load ``configparser``; each subcommand, the regime sweep
included, to load only the package modules it computes with, as README
lists them, those that compute on Python floats to run without
site-packages, and README's worked-study runs to run.  Every third-party
import is a declared dependency, no name is defined in two package
modules, and every name a package module imports from another is used.
"""

import ast
import importlib
import importlib.util
import itertools
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import deltashock

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = Path(deltashock.__file__).parent


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
    tracing = _load_perfbench(monkeypatch, "tracing")
    # The CLI loads each layer only when a subcommand runs; the benchmark's
    # workloads import every layer before the tracer is installed.
    for module, _, _ in tracing.TARGETS:
        importlib.import_module(f"deltashock.{module}")
    tracer = tracing.Tracer()
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


def test_extraction_check_sees_a_perturbed_lemma_table(monkeypatch):
    # The lemma suite reads every family from its kernel's primitive table,
    # not through ``pair``.  Scaled by 1 + 1e-3, that table's columns must
    # fail the extraction workload's check beyond its coefficient tolerance.
    from deltashock import kernels, pairing

    workloads = _load_perfbench(monkeypatch, "workloads")
    table = kernels.primitive_table(kernels.make_kernel(kernels.EXPONENTIAL),
                                    pairing._LEMMA_LAYOUT)
    monkeypatch.setattr(table, "rungs", tuple(rung._replace(columns=rung.columns * 1.001)
                                              for rung in table.rungs))
    op = next(workloads.extraction_ops(5, in_process=True))
    check = op.check(op.run())
    assert not check.ok and not check.known_defect
    assert check.coeff_err > workloads.EXPANSION_TOL


@pytest.mark.parametrize("command", ["verify-expansions", "front", "verify-solution",
                                     "riemann", "k-limit"])
def test_no_subcommand_calls_pair(monkeypatch, tmp_path, command):
    # ``pair``, ``Piecewise`` and the extrapolated limits are the tests'
    # per-cell oracle: no run of the lab goes through them.  Every exact
    # limit is read from a primitive table's moments.
    from deltashock import cli, pairing

    for name in ("pair", "extrapolate_limit", "extract_point_coeffs"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"pairing.{name} was called")

        monkeypatch.setattr(pairing, name, refuse)
    config = Path(deltashock.__file__).resolve().parents[2] / "configs" / "worked.ini"
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0


def _functions_calling(folder: Path, method: str) -> set[str]:
    """The functions in the modules of ``folder`` whose bodies call ``.method``."""
    found = set()
    for path in folder.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == method for call in ast.walk(node)):
                found.add(node.name)
    return found


def test_every_table_weight_goes_through_one_layout_gather(monkeypatch):
    # The verdict, the replay, the lemma suite and the averaged product all
    # reach PrimitiveTable.weights on a table of their declared layout, and
    # nothing else in the package builds table weights: its only callers
    # are theirs.
    from deltashock import kernels
    from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
    from deltashock.dynamics import solve_front, volpert_product_pairing
    from deltashock.pairing import verify_lemma31
    from deltashock.verifier import replay_derivation, verify_weak_solution

    callers, weights = [], kernels.PrimitiveTable.weights

    def recorded(self, coefficients, c):
        callers.append(sys._getframe(1).f_code.co_name)
        return weights(self, coefficients, c)

    monkeypatch.setattr(kernels.PrimitiveTable, "weights", recorded)
    kernel = kernels.make_kernel(kernels.QUARTIC)
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
    front = solve_front(data, kernel.omega0)
    verify_weak_solution(SmoothAnsatz(data, front, kernel), data.k)
    replay_derivation(data, front, kernel)
    verify_lemma31(kernel, data.plateau())
    volpert_product_pairing(RiemannJumpData(0.3, 2.0, 0.0, -2.0, 0.0, 1.0), kernel)
    assert callers == ["_expansion", "_expansion", "_lemma_pairings",
                       "volpert_product_pairing"]
    assert _functions_calling(PACKAGE, "weights") == set(callers)
    assert [name for name in vars(kernels.PrimitiveTable) if "weight" in name] == ["weights"]


def _module_constants(path: Path) -> set[str]:
    """The names a module binds by a plain assignment at its top level."""
    return {target.id for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name)}


def test_every_runtime_table_is_built_from_a_module_level_layout():
    # A table's products are read off the one layout that fills its
    # weights, so each call of primitive_table in the package passes a
    # layout constant of its own module, and each layout is a tuple of
    # (row, product) pairs.
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "primitive_table"):
                (_, layout), keywords = node.args, node.keywords
                assert not keywords and isinstance(layout, ast.Name), (path.name, node.lineno)
                assert layout.id in _module_constants(path), (path.name, layout.id)
                calls.append((path.stem, layout.id))
    assert sorted(calls) == [("dynamics", "_VOLPERT_LAYOUT"), ("pairing", "_LEMMA_LAYOUT"),
                             ("verifier", "_LAYOUT")]
    for module, name in calls:
        layout = getattr(importlib.import_module(f"deltashock.{module}"), name)
        assert all(isinstance(row, int) and isinstance(product, tuple) and product
                   for row, product in layout), (module, name)


# Package functions and classes that nothing outside the tests calls, each
# with the reason it stays in the package.
_UNCALLED = {
    # The shock-case measurement on the table engine that README presents
    # as a lab capability (ROADMAP item 7).
    "volpert_product_pairing",
}


def _defined(paths) -> set[str]:
    """Names of the module-level functions and classes of the files ``paths``."""
    return {node.name for path in paths for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_package_function_and_class_has_a_caller(monkeypatch):
    # Code that only the tests call belongs in ``tests/oracle.py``: every
    # module-level function and class of the package is named in the
    # package, the scripts or the benchmark, or wrapped by the benchmark's
    # tracer, or listed above with its reason.
    tracing = _load_perfbench(monkeypatch, "tracing")
    names = {attr.split(".")[0] for _, attr, _ in tracing.TARGETS}
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    assert sorted(_defined(PACKAGE.glob("*.py")) - names) == sorted(_UNCALLED)


def test_no_oracle_name_is_also_defined_in_the_package():
    # A derivation moved to ``tests/oracle.py`` must not come back as a
    # second copy in the package.
    both = _defined([ROOT / "tests" / "oracle.py"]) & _defined(PACKAGE.glob("*.py"))
    assert not both


def test_no_name_is_defined_in_two_package_modules():
    # One home per name: a function, class or upper-case constant that two
    # modules need is defined in one and imported by the other, as the
    # kernel kinds and the eps grid rules of the package root are.
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                continue
            for name in names:
                homes.setdefault(name, set()).add(path.stem)
    assert not {name: sorted(where) for name, where in homes.items() if len(where) > 1}


def _unused_package_imports(tree) -> list[str]:
    """The names ``tree`` imports from the package and never uses as a name,
    an attribute or in a string annotation; ``__all__`` is no use."""
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("deltashock")):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif annotation := getattr(node, "annotation", None) or getattr(node, "returns", None):
            used |= {name.id for text in ast.walk(annotation)
                     if isinstance(text, ast.Constant) and isinstance(text.value, str)
                     for name in ast.walk(ast.parse(text.value, mode="eval"))
                     if isinstance(name, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_package_import_is_used():
    # One import path per name: a package module imports another's name
    # only to use it, so no module passes a name on for others to import.
    unused = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := _unused_package_imports(ast.parse(path.read_text())))}
    assert not unused


# Parameters and fields that may default a kernel's constants, each with
# its reason.
_KERNEL_DEFAULTS = {
    # The benchmark calls ``solve_front(data)``; the docstring says that the
    # default is the quartic kernel's omega0.
    ("solve_front", "omega0"),
}


def _kernel_defaults(tree) -> set[tuple[str, str]]:
    """(function or class, name) of each ``kernel`` or ``omega0`` parameter
    or record field in ``tree`` that has a default."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
            found |= {(node.name, arg.arg) for arg in named}
        elif isinstance(node, ast.ClassDef):
            found |= {(node.name, field.target.id) for field in node.body
                      if isinstance(field, ast.AnnAssign) and field.value is not None
                      and isinstance(field.target, ast.Name)}
    return {(owner, name) for owner, name in found if name in ("kernel", "omega0")}


def test_every_kernel_dependent_call_names_its_kernel():
    # Only the regularized families depend on the mollifier, and their
    # caller decides which one: no package signature or record defaults a
    # kernel or its omega0 but those listed above, and every make_kernel
    # call passes a kind.
    defaults = set().union(*(_kernel_defaults(ast.parse(path.read_text()))
                             for path in PACKAGE.glob("*.py")))
    assert defaults == _KERNEL_DEFAULTS
    for folder in ("src", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            bare = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Call) and not (node.args or node.keywords)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "make_kernel"]
            assert not bare, (path.name, bare)


# Outside kernels, the statements that may name a kernel kind: the root's
# kind tables and config's record, whose default kind is the quartic.
_KIND_TABLES = {"__init__": {"QUARTIC", "EXPONENTIAL", "KERNEL_KINDS", "OMEGA0", "_ALIASES"},
                "config": {"RunConfig"}}


def _kind_uses(tree, tables) -> list[tuple[int, str]]:
    """(line, "branch" or "name") of each comparison or branch test in
    ``tree`` that involves a kernel kind or a config's kind, and of each
    kernel kind named outside the statements defining ``tables`` other than
    as a key of the root's omega0 table."""
    def kind(node):
        return (isinstance(node, ast.Name) and node.id in ("QUARTIC", "EXPONENTIAL")
                or isinstance(node, ast.Attribute) and node.attr == "kernel_kind"
                or isinstance(node, ast.Constant) and node.value in deltashock._ALIASES)

    tested = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            tested.append(node)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.comprehension):
            tested += node.ifs
        elif isinstance(node, ast.Match):
            tested.append(node.subject)
    uses = {(inner.lineno, "branch") for test in tested for inner in ast.walk(test) if kind(inner)}
    allowed = set()
    for node in tree.body:
        targets = ([node.name] if isinstance(node, ast.ClassDef)
                   else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
        if tables & set(targets):
            allowed |= {id(inner) for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "OMEGA0":
            allowed.add(id(node.slice))
    uses |= {(node.lineno, "name") for node in ast.walk(tree)
             if kind(node) and not isinstance(node, ast.Attribute) and id(node) not in allowed}
    return sorted(uses)


def test_only_kernels_branches_on_a_kernel_kind():
    # Each kernel's constants are entries of per-kind tables, so no module
    # but kernels compares a kind or branches on one: front reads its
    # kernel's omega0 from the root's table on every kernel, and a new kind
    # is a row of the tables, not a branch in the command line.
    found = {path.stem: uses for path in sorted(PACKAGE.glob("*.py")) if path.stem != "kernels"
             if (uses := _kind_uses(ast.parse(path.read_text()),
                                    _KIND_TABLES.get(path.stem, set())))}
    assert not found


def test_every_test_function_comes_from_the_suite_rule():
    # default_test_suite is the one rule that places test functions: the
    # only TestFunction calls in the package and the scripts are its own.
    def calls(node):
        return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "TestFunction"]

    found, rule = [], None
    for folder in ("src", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            found += [(path.name, line) for line in calls(tree)]
            if path == PACKAGE / "pairing.py":
                rule = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                            and node.name == "_suite_over")
    assert rule is not None and calls(rule)
    assert found == [("pairing.py", line) for line in calls(rule)]


def test_every_exported_name_exists():
    names = [m.name for m in pkgutil.iter_modules(deltashock.__path__)
             if m.name != "__main__"]
    for name in ["", *names]:
        module = importlib.import_module(f"deltashock{'.' + name if name else ''}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


def test_every_exported_function_and_class_is_defined_where_it_is_exported():
    # One home per name: a function or class in a module's ``__all__`` is
    # defined there, not re-exported from another module.
    for info in pkgutil.iter_modules(deltashock.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"deltashock.{info.name}")
        foreign = [name for name in getattr(module, "__all__", ())
                   if callable(obj := getattr(module, name))
                   and obj.__module__ != module.__name__]
        assert not foreign, (module.__name__, foreign)


def _third_party_imports(folder: Path) -> dict[str, list[str]]:
    """The top-level name of every module imported under ``folder`` that is
    neither stdlib nor the package nor a module at the folder's top, with
    the files that import it."""
    local = {"deltashock"} | {path.stem for path in folder.glob("*.py")}
    found = {}
    for path in sorted(folder.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in {name.split(".")[0] for name in names}:
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, []).append(path.name)
    return found


def test_every_third_party_import_is_declared():
    # The package and its scripts run on numpy alone, and a clean install
    # of the ``test`` extra must collect every test module.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime, extra = ({re.match(r"[A-Za-z0-9_.-]+", req)[0].lower() for req in reqs}
                      for reqs in (project["dependencies"],
                                   project["optional-dependencies"]["test"]))
    assert runtime == {"numpy"}
    for folder, allowed in (("src", runtime), ("scripts", runtime),
                            ("tests", runtime | extra)):
        undeclared = {name: files for name, files in _third_party_imports(ROOT / folder).items()
                      if name not in allowed}
        assert not undeclared, (folder, undeclared)


def test_no_record_has_string_annotations():
    # Under ``from __future__ import annotations`` a NamedTuple compiles a
    # ForwardRef per field when its class is built, at every start-up; the
    # modules that define records evaluate their annotations instead.
    records = []
    for info in pkgutil.iter_modules(deltashock.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"deltashock.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "__annotations__" in vars(cls)):
                records.append(cls)
                strings = [name for name, kind in vars(cls)["__annotations__"].items()
                           if isinstance(kind, str)]
                assert not strings, (cls, strings)
    assert {"RunConfig", "_TestFields", "ExpansionReport", "Piecewise"} <= {
        cls.__name__ for cls in records}


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


_FRESH_COMMAND = """
import json, runpy, sys
sys.argv = ["deltashock", *sys.argv[1:]]
try:
    runpy.run_module("deltashock", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "deltashock"),
                  "numpy" in sys.modules, "numpy.polynomial" in sys.modules,
                  "dataclasses" in sys.modules, "numpy.random" in sys.modules]))
"""

# The package modules each fresh run loads: every CLI run _CLI_LOADS, and
# each subcommand its own besides.  Only the subcommands in _NUMPY_COMMANDS
# load numpy.  README's "also loads" table is checked against these.
_CLI_LOADS = ["deltashock", "deltashock.cli", "deltashock.config"]
_COMMAND_LOADS = {
    "front": ["dynamics", "tables"],
    "riemann": ["dynamics", "riemann", "tables"],
    "k-limit": ["dynamics", "fit", "riemann", "tables"],
    "verify-expansions": ["dynamics", "fit", "kernels", "pairing", "tables"],
    "verify-solution": ["ansatz", "dynamics", "fit", "kernels", "pairing", "tables",
                        "verifier"],
    "sweep": ["dynamics", "riemann", "tables"],
}
_NUMPY_COMMANDS = {"verify-expansions", "verify-solution"}


def _fresh_command(tmp_path, config, command):
    """Run a subcommand in a fresh interpreter: its exit code, the package
    modules it loaded, and whether it loaded numpy, numpy.polynomial,
    dataclasses and numpy.random."""
    root = Path(deltashock.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_COMMAND, "--config", str(config),
         "--out", str(tmp_path), command],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    code, *loads = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return loads


@pytest.mark.parametrize("config,command,modules", [
    (config, command, _COMMAND_LOADS[command]) for config, command in (
        ("worked", "front"), ("riemann", "riemann"), ("worked", "k-limit"),
        ("worked", "verify-expansions"), ("worked", "verify-solution"), ("worked", "sweep"))])
def test_each_command_loads_only_the_modules_it_computes_with(tmp_path, config,
                                                              command, modules):
    # The cli benchmark times fresh processes, so a subcommand pays for every
    # module it loads: riemann, front, k-limit and sweep, on either kernel,
    # load neither numpy (about 135 ms) nor the kernel layer, only the two
    # verify subcommands compute with numpy, and only verify-solution loads
    # the ansatz.  On the quartic kernel no command loads
    # numpy.polynomial (the Gauss rule is literals), and only the commands
    # that pair load dataclasses, for ``Piecewise``: a frozen dataclass
    # costs about a millisecond to build.  No subcommand draws random
    # numbers, so none loads numpy.random either (about 12 ms).
    root = Path(deltashock.__file__).resolve().parents[2]
    loaded, numpy, polynomial, dataclasses, random = _fresh_command(
        tmp_path, root / "configs" / f"{config}.ini", command)
    assert loaded == sorted(_CLI_LOADS + [f"deltashock.{m}" for m in modules])
    assert numpy == (command in _NUMPY_COMMANDS)
    assert not polynomial
    assert dataclasses == ("pairing" in modules)
    assert not random


_BEFORE_DISPATCH = """
import json, runpy, sys
code = None
if sys.argv[1:]:
    sys.argv = ["deltashock", *sys.argv[1:]]
    try:
        runpy.run_module("deltashock", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    import deltashock.cli
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("deltashock", "numpy", "configparser"))]))
"""


@pytest.mark.parametrize("argv,code", [([], None), (["--help"], 0), (["front"], 2)],
                         ids=["import", "help", "config-error"])
def test_runs_that_compute_nothing_load_neither_numpy_nor_kernels(tmp_path, argv, code):
    # The CLI imports numpy just before it dispatches: a fresh import of
    # the CLI, --help and a config error load only the reader, and only the
    # config error, which reads a file, loads configparser.
    config = tmp_path / "bad.ini"
    config.write_text("[data]\nu0 = x\n")
    if code == 2:
        argv = ["--config", str(config), "--out", str(tmp_path), *argv]
    root = Path(deltashock.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", _BEFORE_DISPATCH, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loads = sorted(_CLI_LOADS + ["configparser"]) if code == 2 else _CLI_LOADS
    assert json.loads(done.stdout.splitlines()[-1]) == [code, loads]
    if code == 2:
        assert done.stderr.splitlines() == ["config error: [data] u0 = 'x' is not a number"]
    else:
        assert not done.stderr


def test_readme_names_the_modules_each_run_loads():
    # README's "also loads" table says what the footprint tests above pin.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    every = re.search(r"^Every run loads (.*?);", section, re.M | re.S)[1]
    assert ["deltashock." + m for m in re.findall(r"`(\w+)`", every)] == _CLI_LOADS[1:]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (yes|no) \|$", section, re.M)
    assert {command: re.findall(r"`(\w+)`", cells) for command, cells, _ in rows} \
        == _COMMAND_LOADS
    assert {command for command, _, numpy in rows if numpy == "yes"} == _NUMPY_COMMANDS


def test_readme_command_line_names_every_flag_and_section():
    # README's Command line section is the users' reference: every long
    # option and subcommand of the parser and every config section, and
    # none that is gone.
    from deltashock.cli import build_parser
    from deltashock.config import _TABLE

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) - {"--help"}
    actions = build_parser()._actions
    options = {opt for action in actions for opt in action.option_strings
               if opt.startswith("--")} - {"--help"}
    assert flags == options
    (commands,) = [action.choices for action in actions if action.dest == "command"]
    assert set(re.findall(r"^\| `([a-z-]+)` \|", section, re.M)) == set(commands)
    assert set(re.findall(r"\[([a-z]+)\]", section)) == {name for name, _ in _TABLE}


def test_readme_worked_study_runs_exit_zero(tmp_path, monkeypatch, capsys):
    # Each deltashock line of README's worked-study block runs as written,
    # from the repository root, with its --out moved under tmp_path: a
    # listed config or subcommand that is gone fails here.
    from deltashock.cli import main

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Worked study\n")[1].split("```sh\n")[1].split("```")[0]
    runs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("deltashock ")]
    assert runs
    monkeypatch.chdir(ROOT)
    for argv in runs:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, (argv, capsys.readouterr())


def _exponential_worked(tmp_path) -> Path:
    """configs/worked.ini on the exponential kernel, written under tmp_path."""
    root = Path(deltashock.__file__).resolve().parents[2]
    text = (root / "configs" / "worked.ini").read_text()
    assert "kind = quartic" in text
    config = tmp_path / "exponential.ini"
    config.write_text(text.replace("kind = quartic", "kind = exponential"))
    return config


def test_only_the_exponential_kernel_loads_numpy_polynomial(tmp_path):
    # Its CDF is a Chebyshev fit, made on first use.
    config = _exponential_worked(tmp_path)
    loaded, _, polynomial, *_ = _fresh_command(tmp_path, config, "verify-expansions")
    assert loaded == sorted(_CLI_LOADS + [f"deltashock.{m}"
                                          for m in _COMMAND_LOADS["verify-expansions"]])
    assert polynomial


def test_front_on_the_exponential_kernel_loads_no_kernel_and_no_numpy(tmp_path):
    # Every kernel's omega0 is a literal of the package root, so front on
    # the exponential kernel loads what it loads on the quartic kernel.
    loaded, numpy, polynomial, dataclasses, random = _fresh_command(
        tmp_path, _exponential_worked(tmp_path), "front")
    assert loaded == sorted(_CLI_LOADS + [f"deltashock.{m}" for m in _COMMAND_LOADS["front"]])
    assert not (numpy or polynomial or dataclasses or random)


@pytest.mark.parametrize("config,argv", [
    ("riemann", ["riemann"]), ("worked", ["front"]), ("worked", ["--format", "json", "front"]),
    ("worked", ["k-limit"]), (None, ["sweep"]), ("exponential", ["front"])],
    ids=["riemann", "front", "front-json", "k-limit", "sweep", "front-exponential"])
def test_float_runs_need_no_site_packages(tmp_path, config, argv):
    # Under ``python -S`` no site-packages directory is on the path, so numpy
    # cannot load: the runs that compute on Python floats exit 0 there, and
    # print and write what a normal run does.
    src = PACKAGE.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-S", "-c", "import numpy"], env=env,
                          capture_output=True, timeout=120).returncode != 0
    command = ["-m", "deltashock", *argv]
    if config == "exponential":
        command += ["--config", str(_exponential_worked(tmp_path))]
    elif config is not None:
        command += ["--config", str(ROOT / "configs" / f"{config}.ini")]
    runs = []
    for flags in ([], ["-S"]):
        out = tmp_path / f"out{len(runs)}"
        done = subprocess.run([sys.executable, *flags, *command, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, (flags, done.stderr)
        runs.append((done.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0][1] and runs[0] == runs[1]
