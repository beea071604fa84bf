"""Spans around the library's public functions, for traced runs.

Each entry of `LAYERS` replaces one module global with a wrapper that
records a span.  The wrapper sits where the *calling* module looks the name
up (``subrad.scenario.evolve``, ``subrad.observables.kernel_basis``, ...), so
no library source changes.  Spans are kept in memory as
``[layer, start, end, parent, job]`` lists and written out when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans.  A layer's inclusive time counts only spans that are not nested in
another span of the same layer.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# (layer, module whose global is wrapped, attribute).  Order matters: a
# later entry whose global is the same function object as an earlier
# wrapped one wraps that wrapper, so `dynamics.checks` spans contain the
# `linalg.hermitian_eigen` span of the same call.
LAYERS = (
    ("linalg.hermitian_eigen", "subrad.linalg", "hermitian_eigen"),
    ("linalg.kernel_basis", "subrad.observables", "kernel_basis"),
    ("linalg.partial_trace", "subrad.observables", "partial_trace"),
    ("linalg.trace_norm_hermitian", "subrad.observables", "trace_norm_hermitian"),
    ("observables.dark_subspace", "subrad.observables", "dark_subspace"),
    ("observables.energy", "subrad.scenario", "energy"),
    ("observables.dark_overlap", "subrad.scenario", "dark_overlap"),
    ("observables.dark_overlap_sqrt", "subrad.scenario", "dark_overlap_sqrt"),
    ("observables.log_negativity", "subrad.scenario", "log_negativity"),
    ("observables.nes_report", "subrad.scenario", "nes_report"),
    ("dynamics.checks", "subrad.dynamics", "hermitian_eigen"),
    ("dynamics.evolve", "subrad.scenario", "evolve"),
    ("model.build_model", "subrad.scenario", "build_model"),
    ("model.build_initial_state", "subrad.scenario", "build_initial_state"),
    ("scenario.parse", "subrad.scenario", "scenario_from_dict"),
    ("scenario.parse", "subrad.scenario", "parse_sweep"),
    ("scenario.run", "subrad.scenario", "run_scenario"),
    ("scenario.sweep", "subrad.scenario", "run_sweep"),
    ("scenario.format_csv", "subrad.scenario", "format_csv"),
    ("scenario.format_csv", "subrad.scenario", "format_sweep_csv"),
)

# Spans the benchmark opens itself: one per job, and one per call of the
# observer closure that `run_scenario` hands to `evolve`.
JOB = "job"
OBSERVER = "observables.observer"

# Dormand-Prince 5(4) evaluates the right-hand side seven times per
# attempted step, plus once for the initial-step probe.
DP_STAGES = 7


class TracingError(RuntimeError):
    """A name the tracer must wrap does not exist in the library."""


def layer_names() -> list[str]:
    names = [JOB, OBSERVER]
    for layer, _, _ in LAYERS:
        if layer not in names:
            names.append(layer)
    return names


class Tracer:
    """Installs the wrappers and records spans, grouped by job."""

    def __init__(self) -> None:
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.jobs: list[dict] = []  # {"pass", "id"}, indexed by span job field
        self._dark_keys: list[set] = []
        self._keep_alive: list = []  # models whose id() is a dark-subspace key
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TracingError(f"{module_name}.{attr} no longer exists; update perfbench/tracer.py")
            original = getattr(module, attr)
            inner = wrapped.get(id(original), original)
            wrapper = self._wrap(layer, inner)
            wrapped.setdefault(id(original), wrapper)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, index = self.spans, self._stack, self._index[layer]
        after = self._after_dark_subspace if layer == "observables.dark_subspace" else None
        signature = inspect.signature(fn) if layer == "dynamics.evolve" else None

        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if bound.arguments.get("observer") is not None:
                    bound.arguments["observer"] = self._wrap_observer(bound.arguments["observer"])
                args, kwargs = bound.args, bound.kwargs
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_observer(self, observer):
        spans, stack, index = self.spans, self._stack, self._index[OBSERVER]

        def traced_observer(t, rho):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return observer(t, rho)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced_observer

    # -- dark-subspace requests ------------------------------------------------

    def _after_dark_subspace(self, _result, args, kwargs) -> None:
        model = args[0]
        sector = args[1] if len(args) > 1 else kwargs["sector"]
        self._keep_alive.append(model)
        self._dark_keys[self._job].add((id(model), int(sector)))

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, pass_index: int, job_id: str) -> None:
        self.jobs.append({"pass": pass_index, "id": job_id})
        self._dark_keys.append(set())
        self._job = len(self.jobs) - 1
        self._stack.append(len(self.spans))
        self.spans.append([self._index[JOB], perf_counter(), 0.0, -1, self._job])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self._job = -1

    # -- summaries -------------------------------------------------------------

    def job_layers(self) -> list[dict[str, list]]:
        """For each job in `jobs`, ``{layer: [calls, inclusive_s, self_s]}``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_job = [defaultdict(lambda: [0, 0.0, 0.0]) for _ in self.jobs]
        for i, (layer, start, end, parent, job) in enumerate(spans):
            entry = per_job[job][self.names[layer]]
            duration = end - start
            entry[0] += 1
            entry[2] += duration - child_time[i]
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                entry[1] += duration
        return per_job

    def dark_keys(self, job: int) -> set:
        """Distinct (model, sector) pairs passed to `dark_subspace` in one job."""
        return self._dark_keys[job]

    def span_records(self) -> dict:
        """Spans in a JSON-able form: layer names and job ids resolved."""
        return {
            "fields": ["layer", "start", "end", "parent", "job"],
            "layers": self.names,
            "jobs": self.jobs,
            "spans": self.spans,
        }


def rhs_evals(counters: dict[str, float]) -> float:
    """Right-hand-side evaluations derived from the step counters."""
    attempted = counters["steps_accepted"] + counters["steps_rejected"]
    return DP_STAGES * attempted + counters["probes"]


def layer_metrics(layers: dict[str, list], counters: dict[str, float], distinct_dark_keys: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its summed layer split and counters."""
    metrics: dict[str, float] = {}
    for name in layer_names()[1:]:
        calls, incl, _ = layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = float(calls)
        metrics[f"{name}.s"] = incl
    evolve_self = layers.get("dynamics.evolve", (0, 0.0, 0.0))[2]
    accepted, rejected = counters["steps_accepted"], counters["steps_rejected"]
    rhs = rhs_evals(counters)
    metrics["dynamics.evolve.self_s"] = evolve_self
    metrics["dynamics.steps_accepted"] = accepted
    metrics["dynamics.steps_rejected"] = rejected
    metrics["dynamics.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 1.0
    metrics["dynamics.rhs_evals"] = rhs
    metrics["dynamics.us_per_rhs"] = 1e6 * evolve_self / rhs if rhs else 0.0
    dark_calls = metrics["observables.dark_subspace.calls"]
    metrics["observables.dark_subspace.useful_ratio"] = (
        distinct_dark_keys / dark_calls if dark_calls else 1.0
    )
    metrics["scenario.sweep.points"] = counters["sweep_points"]
    metrics["scenario.sweep.failed"] = counters["sweep_failed"]
    metrics["scenario.format_csv.bytes"] = counters["csv_bytes"]
    return metrics
