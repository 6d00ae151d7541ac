"""Span tracer installed on the package from outside it.

``Tracer.install`` wraps the public functions of each deltashock layer,
on the defining module and under every name another deltashock module
imported them as (``verifier.pair``, ``cli.solve_front``, ...), so no
call escapes the trace.  Each call that crosses into a layer records a
span: name, layer, operation id, parent span, start, end and the number
of points it evaluated.  A call from a layer into the same layer (for
example ``StepProfile.value`` into ``MollifierKernel.cdf``) is not a
boundary and records nothing.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Span names of functions that share one layer: calls among them are not
# boundaries.  Every other function is a layer of its own.
_SHARED_LAYERS = ("kernels", "ansatz", "dynamics")

# Counting the nodes a pairing hands to its integrand, not an argument.
INTEGRAND = "integrand"

# (module, attribute, index of the argument whose size counts as points)
TARGETS = (
    ("kernels", "MollifierKernel.value", 1),
    ("kernels", "MollifierKernel.deriv", 1),
    ("kernels", "MollifierKernel.cdf", 1),
    ("kernels", "StepProfile.value", 1),
    ("kernels", "StepProfile.deriv", 1),
    ("kernels", "eval_correction", 0),
    ("kernels", "eval_correction_dx", 0),
    ("kernels", "eval_delta_reg", 0),
    ("kernels", "eval_delta_reg_dx", 0),
    ("pairing", "pair", INTEGRAND),
    ("pairing", "extrapolate_limit", None),
    ("pairing", "extract_point_coeffs", None),
    ("pairing", "verify_lemma31", None),
    ("ansatz", "SmoothAnsatz.eval_fields", 1),
    ("ansatz", "SmoothAnsatz.eval_derivatives", 1),
    ("dynamics", "solve_front", None),
    ("dynamics", "overcompressivity", None),
    ("dynamics", "FrontTrajectory.phi", None),
    ("dynamics", "FrontTrajectory.e", None),
    ("dynamics", "FrontTrajectory.p", None),
    ("dynamics", "FrontTrajectory.p_dot", None),
    ("dynamics", "LinearTrajectory.phi", None),
    ("dynamics", "LinearTrajectory.e", None),
    ("dynamics", "LinearTrajectory.p", None),
    ("dynamics", "LinearTrajectory.p_dot", None),
    ("riemann", "solve", None),
    ("riemann", "regime_sweep", None),
    ("riemann", "eval_riemann", None),
    ("riemann", "k_limit_gap", None),
    ("verifier", "verify_weak_solution", None),
    ("verifier", "residual_integrand", None),
    ("verifier", "replay_derivation", None),
    ("config", "load_config", None),
    ("cli", "main", None),
)


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    points: int = 0
    child_s: float = 0.0
    outer: bool = True  # no enclosing span of the same layer

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans while ``op`` is set; inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def enter(self, name: str, layer: str, points: int = 0) -> Span:
        sp = Span(name, layer, self.op, self._stack[-1] if self._stack else -1,
                  points=points, outer=self._open[layer] == 0)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        self._open[sp.layer] += 1
        sp.start = time.perf_counter()
        return sp

    def exit(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        self._open[sp.layer] -= 1
        if sp.parent >= 0:
            self.spans[sp.parent].child_s += sp.end - sp.start

    def _wrap(self, fn, name: str, layer: str, points_arg):
        def traced(*args, **kwargs):
            if self.op is None or (self._stack
                                   and self.spans[self._stack[-1]].layer == layer):
                return fn(*args, **kwargs)
            points = 0
            if isinstance(points_arg, int) and len(args) > points_arg:
                points = int(np.size(args[points_arg]))
            sp = self.enter(name, layer, points)
            if points_arg == INTEGRAND:
                inner = args[0].fn

                def counted(x):
                    sp.points += int(np.size(x))
                    return inner(x)
                args = (dataclasses.replace(args[0], fn=counted),) + args[1:]
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(sp)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target on its owner and on every alias of it."""
        import deltashock.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items()
                   if n == "deltashock" or n.startswith("deltashock.")]
        for module_name, attr, points_arg in TARGETS:
            module = sys.modules[f"deltashock.{module_name}"]
            name = f"{module_name}.{attr}"
            layer = module_name if module_name in _SHARED_LAYERS else name
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[member]
                self._set(cls, member, self._wrap(original, name, layer, points_arg))
                continue
            original = getattr(module, member)
            wrapped = self._wrap(original, name, layer, points_arg)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Spans as gzip CSV, one row per span, in the order they opened."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "op", "parent", "name", "start_s", "end_s",
                             "points"])
            t0 = self.spans[0].start if self.spans else 0.0
            for i, sp in enumerate(self.spans):
                writer.writerow([i, sp.op, sp.parent, sp.name,
                                 f"{sp.start - t0:.9f}", f"{sp.end - t0:.9f}",
                                 sp.points])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer table: counts, busy time and self time."""
        calls = Counter()
        points = Counter()
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for sp in self.spans:
            for key in {sp.name, sp.layer}:
                calls[key] += 1
                points[key] += sp.points
                self_s[key] += sp.self_s
                if sp.outer:
                    busy[key] += sp.duration

        def ratio(num, den):
            return num / den if den else 0.0

        pairs = calls["pairing.pair"]
        verdicts = calls["verifier.verify_weak_solution"]
        evals = (calls["ansatz.SmoothAnsatz.eval_fields"]
                 + calls["ansatz.SmoothAnsatz.eval_derivatives"])
        count, sec, per = "count", "s", "ratio"
        return {
            "kernels.calls": (calls["kernels"], count),
            "kernels.points": (points["kernels"], count),
            "kernels.busy_s": (busy["kernels"], sec),
            "pairing.pair.calls": (pairs, count),
            "pairing.pair.nodes": (points["pairing.pair"], count),
            "pairing.nodes_per_pair": (ratio(points["pairing.pair"], pairs), per),
            "pairing.pair.busy_s": (busy["pairing.pair"], sec),
            "pairing.pair.self_s": (self_s["pairing.pair"], sec),
            "pairing.extrapolate_limit.calls": (calls["pairing.extrapolate_limit"], count),
            "pairing.extrapolate_limit.busy_s": (busy["pairing.extrapolate_limit"], sec),
            "pairing.extract_point_coeffs.calls": (calls["pairing.extract_point_coeffs"], count),
            "pairing.extract_point_coeffs.busy_s": (busy["pairing.extract_point_coeffs"], sec),
            "pairing.verify_lemma31.busy_s": (busy["pairing.verify_lemma31"], sec),
            "ansatz.eval_fields.calls": (calls["ansatz.SmoothAnsatz.eval_fields"], count),
            "ansatz.eval_derivatives.calls": (calls["ansatz.SmoothAnsatz.eval_derivatives"], count),
            "ansatz.points": (points["ansatz"], count),
            "ansatz.busy_s": (busy["ansatz"], sec),
            "ansatz.evals_per_pair": (ratio(evals, pairs), per),
            "dynamics.calls": (calls["dynamics"], count),
            "dynamics.busy_s": (busy["dynamics"], sec),
            "riemann.solve.calls": (calls["riemann.solve"], count),
            "riemann.regime_sweep.busy_s": (busy["riemann.regime_sweep"], sec),
            "riemann.eval_riemann.busy_s": (busy["riemann.eval_riemann"], sec),
            "riemann.k_limit_gap.calls": (calls["riemann.k_limit_gap"], count),
            "verifier.verify_weak_solution.busy_s": (busy["verifier.verify_weak_solution"], sec),
            "verifier.verify_weak_solution.self_s": (self_s["verifier.verify_weak_solution"], sec),
            "verifier.pairs_per_verdict": (ratio(pairs, verdicts), per),
            "verifier.residual_integrand.calls": (calls["verifier.residual_integrand"], count),
            "verifier.replay_derivation.busy_s": (busy["verifier.replay_derivation"], sec),
            "cli.main.busy_s": (busy["cli.main"], sec),
            "config.load_config.busy_s": (busy["config.load_config"], sec),
        }
