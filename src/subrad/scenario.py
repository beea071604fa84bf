"""Scenario files: a JSON schema describing one simulation end to end.

Schema (all keys lowercase; defaults in brackets):

```
{
  "name": str ["scenario"],
  "system": {
    "emitters": [ "qubit" | {"levels": int, "frequencies": [float,...]} ],
    "collective": [ {"rate": float,
                     "weights": [weight,...],          # one per emitter
                     "transitions": [[u,l],...] }],    # [[1,0] per emitter]
    "local":      [ {"rate": float, "emitter": int, "transition": [u,l] [[1,0]]} ],
    "drives":     [ {"amplitude": float, "emitter": int,
                     "transition": [u,l], "detuning": float [0]} ],
    "frame": "lab" | "rotating" | {"rotating": float} [{"rotating": 1.0}],
    "dimension_cap": int [256]
  },
  "initial": state | [state,...],
  "time": {"unit": "omega"|"kappa" ["omega"], "horizon": float, "points": int},
  "observables": [ "energy" | "purity" | "nes" | "checks"
                   | {"fidelity": {"target": state, "sqrt": bool [false]}}
                   | {"log_negativity": {"bipartition": [[int,..],[int,..]]}} ],
  "integrator": {"rel_tol","abs_tol","initial_step","max_step",
                 "hermitize","fixed_step"}  [spec defaults],
  "output": {"path": str|null, "format": "csv"} [null]
}
```

A ``weight`` is a real number, an ``[re, im]`` pair, or
``{"magnitude": m, "phase": p}``.  A ``state`` is a label string (digit
basis strings, "vacuum", "psi_plus", "psi_minus", "W"/"psi1", "psi2",
"psi3"), ``{"amplitudes": {label: amp}}`` or
``{"mixture": [{"weight": w, "state": state},...], "name": str}``; non-label
states used as initial states need a ``"name"`` for their CSV column suffix.

Time unit "kappa" means the grid (and the CSV ``t`` column) is in units of
the inverse rate of the first collective channel.

CSV output: header ``t,<columns>,trace_error``; one row per grid point;
17-significant-digit scientific notation.  With several initial states each
observable column is suffixed ``:<label>`` and ``trace_error`` is the
worst value across them.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .dynamics import (
    HERMITICITY_TOL,
    MIN_EIGENVALUE_TOL,
    TRACE_TOL,
    IntegratorConfig,
    Trajectory,
    evolve,
)
from .errors import (
    InvariantBreach,
    ParseError,
    SubradError,
    UnknownLabel,
    ValidationError,
)
from .model import (
    CollectiveChannelSpec,
    DriveSpec,
    EmitterSpec,
    LocalChannelSpec,
    ModelOperators,
    StateSpec,
    SystemSpec,
    build_initial_state,
    build_model,
    state_vector,
)
from .observables import (
    dark_overlap,
    dark_overlap_sqrt,
    energy,
    log_negativity,
    nes_report,
)

__all__ = [
    "Scenario",
    "SweepSpec",
    "ScenarioResult",
    "SweepResult",
    "parse_scenario",
    "scenario_from_dict",
    "dump_scenario",
    "run_scenario",
    "parse_sweep",
    "run_sweep",
    "list_presets",
    "load_preset",
    "format_csv",
]


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{where}: {message}")


def _as_float(value, where: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), where, "expected a number")
    return float(value)


def _as_int(value, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return int(value)


def _as_bool(value, where: str) -> bool:
    _expect(isinstance(value, bool), where, "expected true or false")
    return value


def _as_list(value, where: str) -> list:
    _expect(isinstance(value, list), where, "expected a list")
    return value


def _as_transition(value, where: str) -> tuple[int, int]:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, where, "expected [upper, lower]")
    return _as_int(value[0], where), _as_int(value[1], where)


def _check_keys(data: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    _expect(not unknown, where, f"unknown keys {sorted(unknown)}")


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], where), _as_float(value[1], where))
    if isinstance(value, dict):
        mag = _as_float(value.get("magnitude", 1.0), f"{where}.magnitude")
        phase = _as_float(value.get("phase", 0.0), f"{where}.phase")
        return mag * np.exp(1j * phase)
    raise ValidationError(f"{where}: expected number, [re, im] or magnitude/phase object")


def _complex_to_json(z: complex) -> Any:
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _state_spec_from_json(value, where: str) -> StateSpec:
    if isinstance(value, str):
        return StateSpec.named(value)
    if isinstance(value, dict):
        if "amplitudes" in value:
            amps = value["amplitudes"]
            _expect(isinstance(amps, dict) and amps, where, "amplitudes must be a non-empty object")
            return StateSpec.from_amplitudes(
                {str(k): _as_complex(v, f"{where}.amplitudes[{k}]") for k, v in amps.items()}
            )
        if "mixture" in value:
            parts = value["mixture"]
            _expect(isinstance(parts, list) and parts, where, "mixture must be a non-empty list")
            mix = []
            for i, part in enumerate(parts):
                _expect(isinstance(part, dict) and "weight" in part and "state" in part,
                        f"{where}.mixture[{i}]", "expected {weight, state}")
                mix.append(
                    (
                        _as_float(part["weight"], f"{where}.mixture[{i}].weight"),
                        _state_spec_from_json(part["state"], f"{where}.mixture[{i}].state"),
                    )
                )
            return StateSpec.mix(mix)
        if "label" in value:
            return StateSpec.named(value["label"])
    raise ValidationError(f"{where}: expected a label string, amplitudes or mixture object")


def _state_spec_to_json(spec: StateSpec) -> Any:
    if spec.label is not None:
        return spec.label
    if spec.amplitudes is not None:
        return {"amplitudes": {k: _complex_to_json(v) for k, v in spec.amplitudes}}
    return {
        "mixture": [
            {"weight": w, "state": _state_spec_to_json(s)} for w, s in spec.mixture
        ]
    }


# ---------------------------------------------------------------------------
# Scenario dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSpec:
    unit: str
    horizon: float
    points: int

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.points)


@dataclass(frozen=True)
class ObservableSpec:
    kind: str
    target: StateSpec | None = None
    sqrt: bool = False
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    system: SystemSpec
    initials: tuple[tuple[str, StateSpec], ...]
    time: TimeSpec
    observables: tuple[ObservableSpec, ...]
    integrator: IntegratorConfig
    output: OutputSpec


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """A parsed sweep; ``base`` is the normalized scenario dict the axis paths address."""

    base: dict
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    reductions: tuple[dict, ...]


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    header: tuple[str, ...]
    rows: np.ndarray
    trajectories: dict[str, Trajectory]
    breached: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Summary table of a sweep; ``failed`` counts the points whose status is an error."""

    header: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    failed: int


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _system_from_dict(data: Mapping, where: str = "system") -> SystemSpec:
    _expect(isinstance(data, Mapping), where, "expected an object")
    _check_keys(data, {"emitters", "collective", "local", "drives", "frame", "dimension_cap"}, where)

    raw_emitters = data.get("emitters")
    _expect(isinstance(raw_emitters, list) and raw_emitters, f"{where}.emitters", "non-empty list required")
    emitters = []
    for i, e in enumerate(raw_emitters):
        w = f"{where}.emitters[{i}]"
        if e == "qubit":
            emitters.append(EmitterSpec.qubit())
        elif isinstance(e, dict):
            _check_keys(e, {"levels", "frequencies"}, w)
            levels = _as_int(e.get("levels", 2), f"{w}.levels")
            freqs = e.get("frequencies")
            _expect(isinstance(freqs, list), f"{w}.frequencies", "list of floats required")
            emitters.append(
                EmitterSpec(levels, tuple(_as_float(f, f"{w}.frequencies") for f in freqs))
            )
        else:
            raise ValidationError(f"{w}: expected 'qubit' or an object")

    n = len(emitters)
    collective = []
    for i, ch in enumerate(_as_list(data.get("collective", []), f"{where}.collective")):
        w = f"{where}.collective[{i}]"
        _expect(isinstance(ch, dict), w, "expected an object")
        _check_keys(ch, {"rate", "weights", "transitions"}, w)
        rate = _as_float(ch.get("rate", 0.0), f"{w}.rate")
        _expect(rate >= 0, f"{w}.rate", "must be >= 0")
        weights = ch.get("weights", [1.0] * n)
        _expect(isinstance(weights, list) and len(weights) == n, f"{w}.weights", f"need {n} entries")
        transitions = ch.get("transitions", [[1, 0]] * n)
        _expect(isinstance(transitions, list) and len(transitions) == n,
                f"{w}.transitions", f"need {n} entries")
        collective.append(
            CollectiveChannelSpec(
                rate=rate,
                weights=tuple(_as_complex(x, f"{w}.weights[{j}]") for j, x in enumerate(weights)),
                transitions=tuple(_as_transition(t, f"{w}.transitions[{j}]") for j, t in enumerate(transitions)),
            )
        )

    local = []
    for i, ch in enumerate(_as_list(data.get("local", []), f"{where}.local")):
        w = f"{where}.local[{i}]"
        _expect(isinstance(ch, dict), w, "expected an object")
        _check_keys(ch, {"rate", "emitter", "transition"}, w)
        rate = _as_float(ch.get("rate", 0.0), f"{w}.rate")
        _expect(rate >= 0, f"{w}.rate", "must be >= 0")
        local.append(
            LocalChannelSpec(
                rate=rate,
                emitter_index=_as_int(ch.get("emitter", 0), f"{w}.emitter"),
                transition=_as_transition(ch.get("transition", [1, 0]), f"{w}.transition"),
            )
        )

    drives = []
    for i, dr in enumerate(_as_list(data.get("drives", []), f"{where}.drives")):
        w = f"{where}.drives[{i}]"
        _expect(isinstance(dr, dict), w, "expected an object")
        _check_keys(dr, {"amplitude", "emitter", "transition", "detuning"}, w)
        drives.append(
            DriveSpec(
                amplitude=_as_float(dr.get("amplitude", 0.0), f"{w}.amplitude"),
                emitter_index=_as_int(dr.get("emitter", 0), f"{w}.emitter"),
                transition=_as_transition(dr.get("transition"), f"{w}.transition"),
                drive_detuning=_as_float(dr.get("detuning", 0.0), f"{w}.detuning"),
            )
        )

    frame_raw = data.get("frame", {"rotating": 1.0})
    if frame_raw == "lab":
        frame, frame_freq = "lab", 1.0
    elif frame_raw == "rotating":
        frame, frame_freq = "rotating", 1.0
    elif isinstance(frame_raw, dict) and set(frame_raw) == {"rotating"}:
        frame, frame_freq = "rotating", _as_float(frame_raw["rotating"], f"{where}.frame.rotating")
    else:
        raise ValidationError(f"{where}.frame: expected 'lab', 'rotating' or {{'rotating': freq}}")

    try:
        spec = SystemSpec(
            emitters=tuple(emitters),
            collective_channels=tuple(collective),
            local_channels=tuple(local),
            drives=tuple(drives),
            frame=frame,
            frame_frequency=frame_freq,
            dimension_cap=_as_int(data.get("dimension_cap", 256), f"{where}.dimension_cap"),
        )
        spec.validate()
    except SubradError:
        raise
    except Exception as exc:  # dataclass-level validation errors
        raise ValidationError(f"{where}: {exc}") from exc
    return spec


def _initials_from_json(value, where: str = "initial") -> tuple[tuple[str, StateSpec], ...]:
    entries = value if isinstance(value, list) else [value]
    _expect(len(entries) >= 1, where, "at least one initial state required")
    initials = []
    seen = set()
    for i, entry in enumerate(entries):
        w = f"{where}[{i}]"
        if isinstance(entry, str):
            label, spec = entry, StateSpec.named(entry)
        elif isinstance(entry, dict):
            spec = _state_spec_from_json(entry, w)
            if spec.label is not None:
                label = entry.get("name", spec.label)
            else:
                _expect("name" in entry, w, "non-label states need a 'name'")
                label = entry["name"]
        else:
            raise ValidationError(f"{w}: expected a state")
        label = str(label)
        _expect(label not in seen, w, f"duplicate initial label {label!r}")
        seen.add(label)
        initials.append((label, spec))
    return tuple(initials)


def _observables_from_json(value, n_emitters: int, where: str = "observables"):
    _expect(isinstance(value, list) and value, where, "non-empty list required")
    obs = []
    for i, entry in enumerate(value):
        w = f"{where}[{i}]"
        if entry in ("energy", "purity", "nes", "checks"):
            obs.append(ObservableSpec(kind=entry))
        elif isinstance(entry, dict) and set(entry) == {"fidelity"}:
            params = entry["fidelity"]
            _expect(isinstance(params, dict) and "target" in params, w, "fidelity needs a target")
            _check_keys(params, {"target", "sqrt"}, w)
            obs.append(
                ObservableSpec(
                    kind="fidelity",
                    target=_state_spec_from_json(params["target"], f"{w}.target"),
                    sqrt=_as_bool(params.get("sqrt", False), f"{w}.sqrt"),
                )
            )
        elif isinstance(entry, dict) and set(entry) == {"log_negativity"}:
            params = entry["log_negativity"]
            _expect(isinstance(params, dict), w, "expected an object")
            _check_keys(params, {"bipartition"}, w)
            bip = params.get("bipartition")
            if bip is None and n_emitters == 2:
                bip = [[0], [1]]
            _expect(
                isinstance(bip, list) and len(bip) == 2,
                f"{w}.bipartition",
                "expected two emitter index groups",
            )
            groups = tuple(
                tuple(_as_int(j, f"{w}.bipartition") for j in _as_list(g, f"{w}.bipartition")) for g in bip
            )
            _expect(all(groups), f"{w}.bipartition", "groups must be non-empty")
            obs.append(ObservableSpec(kind="log_negativity", bipartition=groups))
        else:
            raise ValidationError(f"{w}: unknown observable {entry!r}")
    return tuple(obs)


def scenario_from_dict(data: Mapping) -> Scenario:
    """Validate a parsed JSON object and resolve it into a `Scenario`."""
    _expect(isinstance(data, Mapping), "scenario", "top level must be an object")
    _check_keys(data, {"name", "system", "initial", "time", "observables", "integrator", "output"}, "scenario")
    for key in ("system", "initial", "time", "observables"):
        _expect(key in data, "scenario", f"missing required key {key!r}")

    system = _system_from_dict(data["system"])
    layout = system.layout()
    initials = _initials_from_json(data["initial"])
    # Resolve every state now so unknown labels fail at parse time.
    for label, spec in initials:
        build_initial_state(spec, layout)

    traw = data["time"]
    _expect(isinstance(traw, Mapping), "time", "expected an object")
    _check_keys(traw, {"unit", "horizon", "points"}, "time")
    unit = traw.get("unit", "omega")
    _expect(unit in ("omega", "kappa"), "time.unit", "must be 'omega' or 'kappa'")
    if unit == "kappa":
        _expect(
            bool(system.collective_channels) and system.collective_channels[0].rate > 0,
            "time.unit",
            "'kappa' unit needs a first collective channel with positive rate",
        )
    horizon = _as_float(traw.get("horizon"), "time.horizon")
    _expect(horizon > 0, "time.horizon", "must be > 0")
    points = _as_int(traw.get("points"), "time.points")
    _expect(points >= 2, "time.points", "must be >= 2")
    time = TimeSpec(unit=unit, horizon=horizon, points=points)

    observables = _observables_from_json(data["observables"], len(system.emitters))
    for ob in observables:
        if ob.kind == "fidelity":
            state_vector(ob.target, layout)  # must be pure and resolvable
        if ob.kind == "log_negativity":
            n = len(system.emitters)
            flat = [j for g in ob.bipartition for j in g]
            _expect(
                len(set(flat)) == len(flat) and all(0 <= j < n for j in flat),
                "observables",
                f"bipartition {ob.bipartition} invalid for {n} emitters",
            )

    iraw = data.get("integrator", {})
    _expect(isinstance(iraw, Mapping), "integrator", "expected an object")
    _check_keys(iraw, {"rel_tol", "abs_tol", "initial_step", "max_step", "hermitize", "fixed_step"}, "integrator")
    try:
        integrator = IntegratorConfig(
            rel_tol=_as_float(iraw.get("rel_tol", 1e-8), "integrator.rel_tol"),
            abs_tol=_as_float(iraw.get("abs_tol", 1e-10), "integrator.abs_tol"),
            initial_step=(
                None if iraw.get("initial_step") is None
                else _as_float(iraw["initial_step"], "integrator.initial_step")
            ),
            max_step=(
                None if iraw.get("max_step") is None
                else _as_float(iraw["max_step"], "integrator.max_step")
            ),
            hermitize_each_step=_as_bool(iraw.get("hermitize", True), "integrator.hermitize"),
            fixed_step=(
                None if iraw.get("fixed_step") is None
                else _as_float(iraw["fixed_step"], "integrator.fixed_step")
            ),
        )
    except ValueError as exc:
        raise ValidationError(f"integrator: {exc}") from exc

    oraw = data.get("output") or {}
    _expect(isinstance(oraw, Mapping), "output", "expected an object")
    _check_keys(oraw, {"path", "format"}, "output")
    fmt = oraw.get("format", "csv")
    _expect(fmt == "csv", "output.format", "only 'csv' is supported")
    output = OutputSpec(path=oraw.get("path"), format=fmt)

    return Scenario(
        name=str(data.get("name", "scenario")),
        system=system,
        initials=initials,
        time=time,
        observables=observables,
        integrator=integrator,
        output=output,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; raises `ParseError` / `ValidationError`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical normalized dict form (all defaults explicit)."""
    system = scenario.system
    return {
        "name": scenario.name,
        "system": {
            "emitters": [
                {"levels": e.levels, "frequencies": list(e.level_frequencies)}
                for e in system.emitters
            ],
            "collective": [
                {
                    "rate": ch.rate,
                    "weights": [_complex_to_json(w) for w in ch.weights],
                    "transitions": [list(t) for t in ch.transitions],
                }
                for ch in system.collective_channels
            ],
            "local": [
                {"rate": ch.rate, "emitter": ch.emitter_index, "transition": list(ch.transition)}
                for ch in system.local_channels
            ],
            "drives": [
                {
                    "amplitude": dr.amplitude,
                    "emitter": dr.emitter_index,
                    "transition": list(dr.transition),
                    "detuning": dr.drive_detuning,
                }
                for dr in system.drives
            ],
            "frame": "lab" if system.frame == "lab" else {"rotating": system.frame_frequency},
            "dimension_cap": system.dimension_cap,
        },
        "initial": [
            (
                _state_spec_to_json(spec)
                if spec.label == label
                else {"name": label, **_state_dict(spec)}
            )
            for label, spec in scenario.initials
        ],
        "time": {
            "unit": scenario.time.unit,
            "horizon": scenario.time.horizon,
            "points": scenario.time.points,
        },
        "observables": [_observable_to_json(ob) for ob in scenario.observables],
        "integrator": {
            "rel_tol": scenario.integrator.rel_tol,
            "abs_tol": scenario.integrator.abs_tol,
            "initial_step": scenario.integrator.initial_step,
            "max_step": scenario.integrator.max_step,
            "hermitize": scenario.integrator.hermitize_each_step,
            "fixed_step": scenario.integrator.fixed_step,
        },
        "output": {"path": scenario.output.path, "format": scenario.output.format},
    }


def _state_dict(spec: StateSpec) -> dict:
    as_json = _state_spec_to_json(spec)
    return {"label": as_json} if isinstance(as_json, str) else as_json


def _observable_to_json(ob: ObservableSpec) -> Any:
    if ob.kind == "fidelity":
        return {"fidelity": {"target": _state_spec_to_json(ob.target), "sqrt": ob.sqrt}}
    if ob.kind == "log_negativity":
        return {"log_negativity": {"bipartition": [list(g) for g in ob.bipartition]}}
    return ob.kind


def dump_scenario(scenario: Scenario) -> str:
    """Normalized JSON text; `parse_scenario` of this is the identity."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _observable_columns(
    ob: ObservableSpec, model: ModelOperators
) -> list[tuple[tuple[str, ...], Callable[[float, np.ndarray], tuple[float, ...]]]]:
    """Column names of one observable and the function giving their values."""
    layout = model.layout
    if ob.kind == "energy":
        return [(("energy",), lambda t, rho: (energy(rho, model),))]
    if ob.kind == "purity":
        return [(("purity",), lambda t, rho: (float(np.real(np.trace(rho @ rho))),))]
    if ob.kind == "fidelity":
        target = state_vector(ob.target, layout)
        if ob.sqrt:
            return [(("fidelity_sqrt",), lambda t, rho: (dark_overlap_sqrt(rho, target),))]
        return [(("fidelity",), lambda t, rho: (dark_overlap(rho, target),))]
    if ob.kind == "log_negativity":
        bip = ob.bipartition
        name = "log_negativity[" + ",".join(map(str, bip[0])) + "|" + ",".join(map(str, bip[1])) + "]"
        return [((name,), lambda t, rho: (log_negativity(rho, layout, bip),))]
    if ob.kind == "nes":
        names = tuple(f"nes_excitation_{j}" for j in range(layout.n_subsystems))

        def nes_values(t, rho):
            report = nes_report(rho, model)
            return (*report.per_emitter_excitation, report.dark_weight, float(report.is_nonequilibrium))

        return [(names + ("nes_dark_weight", "nes_is_nonequilibrium"), nes_values)]
    if ob.kind == "checks":
        return []  # filled from the integrator's built-in records
    raise ValidationError(f"unknown observable kind {ob.kind!r}")


def run_scenario(
    scenario: Scenario,
    *,
    fixed_step: float | None = None,
    check_strict: bool = False,
    initial: str | None = None,
) -> ScenarioResult:
    """Evolve every initial state and assemble the output table.

    ``fixed_step`` (scenario time units) overrides the integrator config;
    ``initial`` restricts the run to one labelled initial state;
    ``check_strict`` escalates any invariant breach to an exception
    (otherwise breaches are only flagged in the result).
    """
    model = build_model(scenario.system)
    layout = model.layout

    time_scale = 1.0
    if scenario.time.unit == "kappa":
        time_scale = 1.0 / scenario.system.collective_channels[0].rate
    grid_scenario_units = scenario.time.grid()
    grid = grid_scenario_units * time_scale

    cfg = scenario.integrator
    if fixed_step is not None:
        cfg = replace(cfg, fixed_step=fixed_step * time_scale)

    initials = scenario.initials
    if initial is not None:
        initials = tuple((lbl, sp) for lbl, sp in scenario.initials if lbl == initial)
        if not initials:
            raise UnknownLabel(f"scenario has no initial state labelled {initial!r}")
    multi = len(initials) > 1

    column_fns = []
    for ob in scenario.observables:
        column_fns.extend(_observable_columns(ob, model))
    want_checks = any(ob.kind == "checks" for ob in scenario.observables)

    header: list[str] = ["t"]
    columns: list[np.ndarray] = [grid_scenario_units]
    trajectories: dict[str, Trajectory] = {}
    trace_cols: list[np.ndarray] = []

    for label, state_spec in initials:
        rho0 = build_initial_state(state_spec, layout)

        def observer(t: float, rho: np.ndarray) -> dict[str, float]:
            values: dict[str, float] = {}
            for names, fn in column_fns:
                values.update(zip(names, fn(t, rho)))
            return values

        traj = evolve(model, rho0, grid, cfg, observer)
        trajectories[label] = traj
        suffix = f":{label}" if multi else ""
        for names, _ in column_fns:
            for name in names:
                header.append(name + suffix)
                columns.append(traj.records[name])
        if want_checks:
            header.append("herm_error" + suffix)
            columns.append(traj.records["herm_error"])
            header.append("min_eigenvalue" + suffix)
            columns.append(traj.records["min_eigenvalue"])
        trace_cols.append(traj.records["trace_error"])

    trace_error = np.max(np.vstack(trace_cols), axis=0)
    header.append("trace_error")
    columns.append(trace_error)

    # Written so that a NaN trace or Hermiticity error counts as a breach;
    # min_eigenvalue is NaN only when positivity checking is off.
    breached = False
    for traj in trajectories.values():
        if (
            not np.all(traj.records["trace_error"] <= TRACE_TOL)
            or not np.all(traj.records["herm_error"] <= HERMITICITY_TOL)
            or np.any(np.nan_to_num(traj.records["min_eigenvalue"], nan=0.0) < MIN_EIGENVALUE_TOL)
        ):
            breached = True
    if breached and check_strict:
        raise InvariantBreach("invariant check tripped (strict mode)")

    rows = np.column_stack(columns)
    return ScenarioResult(
        scenario=scenario,
        header=tuple(header),
        rows=rows,
        trajectories=trajectories,
        breached=breached,
    )


# Rows formatted per joined string in `format_csv`: the lines of one chunk are
# alive at once, never the whole table's.
_CSV_CHUNK_ROWS = 128


def format_csv(header: Sequence[str], rows: np.ndarray) -> str:
    """17-significant-digit scientific CSV, deterministic for equal input."""
    rows = np.atleast_2d(rows)
    chunks = [",".join(header) + "\n"]
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunks.append(
            "".join(
                ",".join(f"{v:.16e}" for v in row) + "\n"
                for row in rows[start : start + _CSV_CHUNK_ROWS].tolist()
            )
        )
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)|\[(\d+)\]")


def _path_tokens(path: str) -> list[Any]:
    tokens: list[Any] = []
    pos = 0
    while pos < len(path):
        if path[pos] == ".":
            pos += 1
            continue
        m = _PATH_TOKEN.match(path, pos)
        if not m:
            raise ValidationError(f"invalid parameter path {path!r} at offset {pos}")
        tokens.append(m.group(1) if m.group(1) is not None else int(m.group(2)))
        pos = m.end()
    if not tokens:
        raise ValidationError("empty parameter path")
    return tokens


def _apply_path(data: dict, path: str, value) -> None:
    tokens = _path_tokens(path)
    node = data
    for tok in tokens[:-1]:
        try:
            node = node[tok]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValidationError(f"parameter path {path!r}: cannot resolve {tok!r}") from exc
    last = tokens[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"parameter path {path!r}: cannot resolve {last!r}") from exc
    node[last] = value


def parse_sweep(text: str) -> SweepSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _expect(isinstance(data, Mapping), "sweep", "top level must be an object")
    _check_keys(data, {"base", "axes", "reductions"}, "sweep")
    _expect("base" in data and "axes" in data, "sweep", "base and axes are required")

    base = data["base"]
    if isinstance(base, str):
        base = load_preset(base)
    elif not isinstance(base, Mapping):
        raise ValidationError("sweep.base: expected a preset name or an inline scenario")
    # Validate the base eagerly and keep its normalized form, where every
    # axis path resolves (e.g. the shorthand "qubit" becomes an explicit emitter).
    base_dict = scenario_to_dict(scenario_from_dict(base))

    axes_raw = data["axes"]
    _expect(isinstance(axes_raw, Mapping) and axes_raw, "sweep.axes", "non-empty object required")
    axes = []
    for path, values in axes_raw.items():
        _expect(isinstance(values, list) and values, f"sweep.axes[{path}]", "non-empty list required")
        for sub in str(path).split("|"):  # "a|b" sets both paths to the same value
            _path_tokens(sub)
        axes.append((str(path), tuple(values)))

    reductions = []
    for i, red in enumerate(data.get("reductions", [])):
        w = f"sweep.reductions[{i}]"
        _expect(isinstance(red, Mapping), w, "expected an object")
        kind = red.get("kind", "final")
        _expect(kind in ("final", "fit_exp_rate"), f"{w}.kind", "must be 'final' or 'fit_exp_rate'")
        _expect("column" in red, w, "missing 'column'")
        reductions.append(
            {
                "name": str(red.get("name", f"{kind}_{red['column']}")),
                "kind": kind,
                "column": str(red["column"]),
                "t_min": _as_float(red.get("t_min", 0.0), f"{w}.t_min"),
                "t_max": None if red.get("t_max") is None else _as_float(red["t_max"], f"{w}.t_max"),
            }
        )
    if not reductions:
        reductions.append({"name": "final_trace_error", "kind": "final",
                           "column": "trace_error", "t_min": 0.0, "t_max": None})

    return SweepSpec(base=base_dict, axes=tuple(axes), reductions=tuple(reductions))


def fit_exponential_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Decay rate from a least-squares line through log(values).

    Returns the positive rate ``r`` of the best fit ``values ~ A exp(-r t)``;
    non-positive samples are dropped.
    """
    mask = values > 0
    if int(mask.sum()) < 2:
        return float("nan")
    t = times[mask]
    y = np.log(values[mask])
    slope = np.polyfit(t, y, 1)[0]
    return float(-slope)


def _reduce(result: ScenarioResult, red: dict) -> float:
    column = red["column"]
    try:
        idx = result.header.index(column)
    except ValueError as exc:
        raise ValidationError(f"reduction column {column!r} not in output") from exc
    t = result.rows[:, 0]
    y = result.rows[:, idx]
    if red["kind"] == "final":
        return float(y[-1])
    mask = t >= red["t_min"]
    if red["t_max"] is not None:
        mask &= t <= red["t_max"]
    return fit_exponential_rate(t[mask], y[mask])


def run_sweep(sweep: SweepSpec, *, fixed_step: float | None = None) -> SweepResult:
    """Run the cartesian product of all axes; one summary row per point.

    Rows are ordered lexicographically by grid index.  A failing point is
    recorded with NaN reductions and its error in the status column; the
    sweep always completes.
    """
    paths = [p for p, _ in sweep.axes]
    grids = [v for _, v in sweep.axes]
    header = tuple(paths + [red["name"] for red in sweep.reductions] + ["status"])

    rows = []
    failed = 0
    for index in np.ndindex(*[len(g) for g in grids]):
        values = [grids[k][i] for k, i in enumerate(index)]
        point = copy.deepcopy(sweep.base)
        row: list[Any] = list(values)
        try:
            for path, value in zip(paths, values):
                for sub in path.split("|"):
                    _apply_path(point, sub, value)
            result = run_scenario(scenario_from_dict(point), fixed_step=fixed_step)
            for red in sweep.reductions:
                row.append(_reduce(result, red))
            row.append("ok")
        except SubradError as exc:
            row.extend([float("nan")] * len(sweep.reductions))
            row.append(f"error:{type(exc).__name__}")
            failed += 1
        rows.append(tuple(row))
    return SweepResult(header=header, rows=tuple(rows), failed=failed)


def format_sweep_csv(result: SweepResult) -> str:
    lines = [",".join(result.header)]
    for row in result.rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            else:
                cells.append(f"{float(v):.16e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_FILE_PRESETS = {
    "fig2": (
        "fig2.json",
        "Two resonant qubits, collective decay only (rate 1e-3); energy and "
        "dark-overlap fidelity from initials 11, 10, psi_minus, psi_plus.",
    ),
    "fig3a": (
        "fig3a.json",
        "fig2 system plus local decay 5e-5 on both qubits (ratio 0.05 to the "
        "collective rate); two-timescale energy/fidelity decay.",
    ),
    "fig3c": (
        "fig3c.json",
        "fig2 system with qubit 1 detuned by 0.1 and no local decay; "
        "oscillatory fidelity under a decaying envelope.",
    ),
    "fig3e-clockwork": (
        "fig3e_clockwork.json",
        "Qubit + four-level qudit, collective rate 1 on qubit(1->0) with "
        "qudit(e->g); pump 2 on g<->f, repump 3 on f->e, qubit loss 0.1; "
        "steady-state entanglement tracked by log-negativity on a kappa*t axis.",
    ),
    "fig4": (
        "fig4.json",
        "Three resonant qubits, collective decay 1e-3; energy and fidelity "
        "against the surviving single-excitation dark state from 100 and 011.",
    ),
}

_NQUBIT_DESC = (
    "N equal qubits on one collective channel (rate 1e-3) from the "
    "single-excitation basis state 10...0; use 'nqubit:<N>' or "
    "'nqubit:<N>:<phi0,phi1,...>' for weight phases in radians."
)


def _nqubit_scenario(n: int = 4, phases: Sequence[float] | None = None) -> dict:
    if n < 2:
        raise ValidationError("nqubit preset needs N >= 2")
    if phases is None:
        phases = [0.0] * n
    if len(phases) != n:
        raise ValidationError(f"nqubit preset needs {n} phases, got {len(phases)}")
    weights = [_complex_to_json(np.exp(1j * p)) for p in phases]
    return {
        "name": f"nqubit{n}",
        "system": {
            "emitters": ["qubit"] * n,
            "collective": [{"rate": 0.001, "weights": weights}],
            "frame": {"rotating": 1.0},
        },
        "initial": ["1" + "0" * (n - 1)],
        "time": {"unit": "omega", "horizon": 10000.0, "points": 201},
        "observables": ["energy", "nes", "checks"],
    }


def list_presets() -> list[tuple[str, str]]:
    """Names and one-line descriptions of all built-in presets."""
    entries = [(name, desc) for name, (_, desc) in sorted(_FILE_PRESETS.items())]
    entries.append(("nqubit", _NQUBIT_DESC))
    return entries


def load_preset(name: str) -> dict:
    """Scenario dict of a preset; supports the parameterized 'nqubit' family."""
    if name == "clockwork":  # shorthand
        name = "fig3e-clockwork"
    if name in _FILE_PRESETS:
        filename, _ = _FILE_PRESETS[name]
        text = resources.files("subrad").joinpath("presets", filename).read_text("utf-8")
        return json.loads(text)
    if name == "nqubit" or name.startswith("nqubit:"):
        parts = name.split(":")
        n = 4
        phases = None
        if len(parts) >= 2 and parts[1]:
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise UnknownLabel(f"bad nqubit size in {name!r}") from exc
        if len(parts) >= 3 and parts[2]:
            try:
                phases = [float(x) for x in parts[2].split(",")]
            except ValueError as exc:
                raise UnknownLabel(f"bad nqubit phase list in {name!r}") from exc
        return _nqubit_scenario(n, phases)
    raise UnknownLabel(f"unknown preset {name!r}")
