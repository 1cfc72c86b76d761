"""Span recorder for the traced benchmark runs.

The recorder wraps ineqlab's public functions from outside the package, at
each module boundary, and keeps one span per call in memory: name, layer,
parent span, start and end.  A call made from inside a span of the same
layer is folded into that span, so ``<layer>.calls`` counts entries into a
layer from another layer.

Self time of a span is its duration minus the part of its interval that its
child spans cover.  Children may run on other threads: trials of a
``run_suite`` with ``jobs > 1`` run on a thread pool, and a span opened on a
thread with no open span of its own is adopted by the open ``run_suite``
span, which is never folded.

Two binding traps are handled here:

* ``from .x import f`` copies ``f`` into every importing module, so each
  wrapped function is replaced in every ``ineqlab`` module that holds it.
* ``REGISTRY`` evaluators capture some chain functions at import time, so
  each ``SuiteSpec.evaluate`` is wrapped instead, as one span in the layer of
  the suite's chain module.

Inside ``numerical_radius`` spans the recorder also counts
``numpy.linalg.eigvalsh`` batch sizes, scalar ``eigvalsh`` calls and ``eigh``
calls; these counts are exact functions of the inputs.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

RADIUS = "numerical_radius"
ORACLE = "numerical_radius_sampling_oracle"
RUN_SUITE = "run_suite"

# (module, attribute, layer). Chain modules are added whole, see _chain_targets.
_FUNCTION_TARGETS = (
    ("ineqlab.ensembles", "draw", "ensembles"),
    ("ineqlab.ensembles", "trial_stream", "ensembles"),
    ("ineqlab.chains", "make_chain", "chains"),
    ("ineqlab.radius", RADIUS, "radius"),
    ("ineqlab.radius", ORACLE, "radius_oracle"),
    ("ineqlab.linalg", "operator_norm", "linalg"),
    ("ineqlab.linalg", "psd_power", "linalg"),
    ("ineqlab.linalg", "psd_sqrt", "linalg"),
    ("ineqlab.linalg", "polar_decompose", "linalg"),
    ("ineqlab.linalg", "require_hermitian", "linalg"),
    ("ineqlab.linalg", "require_positive_semidefinite", "linalg"),
    ("ineqlab.linalg", "require_orthogonal_projection", "linalg"),
    ("ineqlab.linalg", "require_nonzero_vector", "linalg"),
    ("ineqlab.linalg", "require_same_length", "linalg"),
    ("ineqlab.linalg", "require_operator_on", "linalg"),
    ("ineqlab.linalg", "load_matrix", "linalg"),
    ("ineqlab.linalg", "load_vector", "linalg"),
    ("ineqlab.harness", "parse_config", "harness"),
    ("ineqlab.harness", "execute_plans", "harness"),
    ("ineqlab.harness", "run_all", "harness"),
    ("ineqlab.harness", RUN_SUITE, "harness"),
    ("ineqlab.harness", "check_single", "harness"),
    ("ineqlab.harness", "write_report", "harness_report"),
    ("ineqlab.harness", "write_csv", "harness_report"),
)
_CHAIN_MODULES = ("ineqlab.vector_ineq", "ineqlab.operator_ineq")
_LOADERS = ("load_matrix", "load_vector")

# radius_oracle and harness_report are booked apart so that radius.self_ms
# and harness.self_ms leave out the sampling oracle and the report writers.
LAYERS = (
    "prng", "ensembles", "chains", "vector_ineq", "operator_ineq",
    "linalg", "radius", "radius_oracle", "harness", "harness_report", "cli",
)


def _chain_targets() -> list[tuple[str, str, str]]:
    """Every public function defined in the two chain modules."""
    targets = []
    for module_name in _CHAIN_MODULES:
        module = sys.modules[module_name]
        layer = module_name.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == module_name
                and not isinstance(value, type)
            ):
                targets.append((module_name, attr, layer))
    return targets


class Tracer:
    """In-memory span store; safe to record into from several threads."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, parent, start, end, amount]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, fn, name: str, layer: str, args, kwargs, amount: int = 0):
        stack = self._stack()
        # run_suite always gets its own span: pool threads need it as parent.
        if stack and stack[-1][1] == layer and name != RUN_SUITE:
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else self._adopter
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, parent, 0.0, 0.0, amount])
        stack.append((index, layer, name))
        previous_adopter = self._adopter
        if name == RUN_SUITE:
            self._adopter = index
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if name == RUN_SUITE:
                self._adopter = previous_adopter
            stack.pop()
            span = self.spans[index]
            span[3] = start
            span[4] = end

    def in_radius(self) -> bool:
        return any(entry[2] == RADIUS for entry in self._stack())

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(fn, name, layer, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self, suite_layers: dict[str, str]):
        """Patch every boundary for the duration of the block, then restore.

        ``suite_layers`` maps each registered suite to the layer its
        evaluator's span is booked under.
        """
        from ineqlab import harness
        from ineqlab.prng import Stream

        patches: list[tuple[object, str, object, object]] = []

        def patch(owner, attr, replacement, setter=setattr):
            patches.append((owner, attr, getattr(owner, attr), setter))
            setter(owner, attr, replacement)

        try:
            package_modules = [
                module for name, module in list(sys.modules.items())
                if module is not None and (name == "ineqlab" or name.startswith("ineqlab."))
            ]
            for module_name, attr, layer in list(_FUNCTION_TARGETS) + _chain_targets():
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(original, attr, layer)
                for module in package_modules:
                    for held_name, held in list(vars(module).items()):
                        if held is original:
                            patch(module, held_name, wrapper)

            raw = Stream.raw
            tracer = self

            def traced_raw(stream, count):
                return tracer.call(raw, "Stream.raw", "prng", (stream, count), {}, amount=int(count))

            patch(Stream, "raw", traced_raw)

            for spec in harness.REGISTRY.values():
                evaluate = self._wrap(spec.evaluate, "evaluate", suite_layers[spec.name])
                patch(spec, "evaluate", evaluate, object.__setattr__)

            eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh

            def counted_eigvalsh(a, *args, **kwargs):
                if tracer.in_radius():
                    if np.ndim(a) == 3:
                        tracer.count("grid_angles", int(np.shape(a)[0]))
                    else:
                        tracer.count("scalar_eigs")
                return eigvalsh(a, *args, **kwargs)

            def counted_eigh(a, *args, **kwargs):
                if tracer.in_radius():
                    tracer.count("witness_eighs")
                return eigh(a, *args, **kwargs)

            patch(np.linalg, "eigvalsh", counted_eigvalsh)
            patch(np.linalg, "eigh", counted_eigh)
            yield self
        finally:
            for owner, attr, original, setter in reversed(patches):
                setter(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time in seconds: duration minus the union of the
        child intervals, clipped to the span."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result = []
        for index, (_, _, _, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append(max(end - start - covered, 0.0))
        return result

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and milliseconds for this tracer's spans."""
        self_ms = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        named_calls = Counter()
        draws = 0
        load_ms = 0.0
        report_ms = 0.0
        radius_ms = 0.0
        for span, own in zip(self.spans, self.self_times()):
            name, layer, _, start, end, amount = span
            self_ms[layer] += own * 1e3
            calls[layer] += 1
            named_calls[name] += 1
            if layer == "prng":
                draws += amount
            if name in _LOADERS:
                load_ms += (end - start) * 1e3
            if layer == "harness_report":
                report_ms += (end - start) * 1e3
            if name == RADIUS:
                radius_ms += (end - start) * 1e3
        radius_calls = named_calls[RADIUS]

        def per_radius_call(value: float) -> float:
            return value / radius_calls if radius_calls else 0.0

        return {
            "prng.calls": calls["prng"],
            "prng.draws": draws,
            "prng.self_ms": self_ms["prng"],
            "ensembles.draws": named_calls["draw"],
            "ensembles.self_ms": self_ms["ensembles"],
            "chains.calls": calls["chains"],
            "chains.self_ms": self_ms["chains"],
            "vector_ineq.calls": calls["vector_ineq"],
            "vector_ineq.self_ms": self_ms["vector_ineq"],
            "operator_ineq.calls": calls["operator_ineq"],
            "operator_ineq.self_ms": self_ms["operator_ineq"],
            "linalg.calls": calls["linalg"],
            "linalg.self_ms": self_ms["linalg"],
            "linalg.load_ms": load_ms,
            "radius.calls": radius_calls,
            "radius.self_ms": self_ms["radius"],
            "radius.ms_per_call": per_radius_call(radius_ms),
            "radius.oracle_self_ms": self_ms["radius_oracle"],
            "radius.grid_angles_per_call": per_radius_call(self.counts["grid_angles"]),
            "radius.scalar_eigs_per_call": per_radius_call(self.counts["scalar_eigs"]),
            "radius.witness_eighs_per_call": per_radius_call(self.counts["witness_eighs"]),
            "harness.self_ms": self_ms["harness"],
            "harness.report_ms": report_ms,
            "cli.self_ms": self_ms["cli"],
        }

