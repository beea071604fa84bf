"""Scenario files: a JSON schema describing one simulation end to end.

Schema (all keys lowercase; defaults in brackets):

```
{
  "name": str ["scenario"],
  "system": {
    "emitters": [ "qubit" | {"levels": int [2], "frequencies": [float,...]} ],
    "collective": [ {"rate": float [0],
                     "weights": [weight,...],          # [1 per emitter]
                     "transitions": [[u,l],...] }],    # [[1,0] per weight]
    "local":      [ {"rate": float [0], "emitter": int [0], "transition": [u,l] [[1,0]]} ],
    "drives":     [ {"amplitude": float [0], "emitter": int [0],
                     "transition": [u,l], "detuning": float [0]} ],
    "frame": "lab" | "rotating" | {"rotating": float} [{"rotating": 1.0}],
    "dimension_cap": int [256]
  },
  "initial": state | [state,...],
  "time": {"unit": "omega"|"kappa" ["omega"], "horizon": float, "points": int},
  "observables": [ "energy" | "purity" | "nes" | "checks"
                   | {"fidelity": {"target": state, "sqrt": bool [false]}}
                   | {"log_negativity": {"bipartition": [[int,..],[int,..]]}} ],
  "integrator": {"rel_tol","abs_tol","initial_step","fixed_step"} [spec defaults],
  "output": {"path": str|null, "format": "csv"} [null]
}
```

A ``weight`` is a real number, an ``[re, im]`` pair, or
``{"magnitude": m [1], "phase": p [0]}``.  A ``state`` is a label string (digit
basis strings, "vacuum", "psi_plus", "psi_minus", "W"/"psi1", "psi2",
"psi3"), ``{"label": str}``, ``{"amplitudes": {label: weight}}`` or
``{"mixture": [{"weight": float, "state": state},...]}``.  An initial state
object may add a ``"name"``, its CSV column suffix (the label by default,
required for the other forms): `dump_scenario` writes a renamed label as
``{"name": str, "label": str}``.  The bipartition defaults to ``[[0], [1]]``
for two emitters.  Every object rejects unknown keys, and no field converts
between JSON types (a number is not a string, 0 is not false).

Time unit "kappa" means the grid (and the CSV ``t`` column) is in units of
the inverse rate of the first collective channel.  The integrator's step
lengths (``initial_step``, ``fixed_step``) are in the same unit.

CSV output: header ``t,<columns>,trace_error``; one row per grid point;
17-significant-digit scientific notation.  With several initial states each
observable column is suffixed ``:<label>`` and ``trace_error`` is the
worst value across them.  A log-negativity column separates the emitters of
a group by spaces: ``log_negativity[0 1|2]``.  Both CSV writers write a
number in 17-digit notation, text as it is unless it holds a comma, a quote
or a line break (then quoted, its quotes doubled), and anything else,
booleans included, as compact JSON in one quoted cell.

Sweep files: ``{"base": preset-name | scenario, "axes": {path: [value,...]},
"reductions": [{"column": str, "kind": "final"|"fit_exp_rate" ["final"],
"name": str ["<kind>_<column>"], "t_min": float [0], "t_max": float|null}]}``;
the reductions default to ``[{"column": "trace_error"}]`` (named
"final_trace_error").  An axis path such as ``system.local[0].rate``
addresses the base's `dump_scenario` form; ``"a|b"`` sets both paths.
`run_sweep` parses the base once; each point writes the base's top-level
fields that its paths start in, sets the axis values in that JSON and reads
the fields back, so a point runs, or fails, as the base's dump form with
those values in it would.  The summary CSV has one row per point: the axis
values, the reductions and a status (``ok`` or ``error:<type>``).
"""

from __future__ import annotations

import copy
import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, evolve
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
# `perfbench/tracer.py` wraps `energy`, `dark_overlap`, `dark_overlap_sqrt`,
# `log_negativity` and `nes_report` under these names to time each observable,
# and a traced run stops when one is gone.  The energy and fidelity columns
# call the unchecked formulas, so the first three are not called here.
from .observables import (  # noqa: F401
    dark_overlap,
    dark_overlap_sqrt,
    energy,
    log_negativity,
    mean_energy,
    nes_report,
    overlap,
    overlap_sqrt,
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
# Scenario dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSpec:
    unit: str
    horizon: float
    points: int

    def __post_init__(self):
        if self.unit not in ("omega", "kappa") or not self.horizon > 0 or self.points < 2:
            raise ValidationError(f"need unit 'omega' or 'kappa', horizon > 0 and points >= 2, got {self}")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.points)


@dataclass(frozen=True)
class ObservableSpec:
    """One observable of `_OBSERVABLES`; a fidelity needs a target, a bipartition two non-empty groups."""

    kind: str
    target: StateSpec | None = None
    sqrt: bool = False
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        _expect(self.kind in _OBSERVABLES, "kind", f"unknown observable {self.kind!r}")
        _expect(self.kind != "fidelity" or self.target is not None, "target", "a fidelity needs a target state")
        _expect(self.bipartition is None or (len(self.bipartition) == 2 and all(self.bipartition)), "bipartition",
                f"expected two non-empty emitter index groups, got {self.bipartition}")


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.format != "csv":
            raise ValidationError(f"only the 'csv' format is supported, got {self.format!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One simulation, checked when it is built: parsed, `replace`d or by hand alike.

    Each field checks its own rules; this constructor checks the rules that
    need the whole scenario: one or more initial states with distinct labels
    and one or more observables, each state and fidelity target resolving on
    the layout, a first collective channel with positive rate for the 'kappa'
    unit, and distinct emitters in a bipartition (``[[0], [1]]`` when two
    emitters give none).
    ``states`` holds the initial density matrices in ``initials`` order and
    ``targets`` each observable's fidelity vector (None for other kinds),
    a read-only unit vector.
    """

    name: str
    system: SystemSpec
    initials: tuple[tuple[str, StateSpec], ...]
    time: TimeSpec
    observables: tuple[ObservableSpec, ...]
    integrator: IntegratorConfig
    output: OutputSpec
    states: tuple[np.ndarray, ...] = field(init=False, repr=False)
    targets: tuple[np.ndarray | None, ...] = field(init=False, repr=False)

    def __post_init__(self):
        _expect(bool(self.initials), "initial", "at least one initial state is required")
        names = [name for name, _ in self.initials]
        _expect(len(set(names)) == len(names), "initial", f"duplicate initial labels in {names}")
        _expect(bool(self.observables), "observables", "at least one observable is required")
        layout = self.system.layout()
        states = tuple(build_initial_state(spec, layout) for _, spec in self.initials)
        channels = self.system.collective_channels
        _expect(self.time.unit != "kappa" or bool(channels) and channels[0].rate > 0, "time.unit",
                "'kappa' unit needs a first collective channel with positive rate")
        n = layout.n_subsystems
        observables = list(self.observables)
        targets = []
        for i, ob in enumerate(observables):
            where = f"observables[{i}]"
            targets.append(state_vector(ob.target, layout) if ob.kind == "fidelity" else None)  # must be pure
            if ob.kind == "log_negativity":
                if ob.bipartition is None:
                    _expect(n == 2, f"{where}.log_negativity.bipartition", "expected two emitter index groups")
                    observables[i] = ob = replace(ob, bipartition=((0,), (1,)))
                flat = [j for g in ob.bipartition for j in g]
                _expect(len(set(flat)) == len(flat) and all(0 <= j < n for j in flat), where,
                        f"bipartition {ob.bipartition} invalid for {n} emitters")
        object.__setattr__(self, "observables", tuple(observables))
        object.__setattr__(self, "states", states)
        for target in targets:
            if target is not None:
                target.flags.writeable = False
        object.__setattr__(self, "targets", tuple(targets))


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """A parsed sweep; ``base`` is the normalized scenario dict the axis paths address.

    `run_sweep` parses ``base`` once and sets each point's axis values on
    the parsed form by a dump round trip of each top-level field the paths
    start in; ``axes`` keeps each value as given, a list or object as JSON.
    """

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
    """Summary table of a sweep; ``failed`` counts the points whose status is an error, breaches included."""

    header: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    failed: int


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------
#
# Each JSON object is read and written through one table, an ordered dict
# from JSON key to `_Field`.  A field's kind is a `_Kind`, or a plain
# ``(read, write)`` pair: ``read(value, path)`` checks one JSON value and
# returns its parsed form, ``write(parsed)`` returns the JSON value.  `_read`
# checks the key set, reads the present keys, fills the defaults and builds
# the result with ``make``; `_write` inverts it, so a dump parses back to the
# same fields.

_REQUIRED = object()  # default of a key that must be present
_ABSENT = object()  # default of a key whose absence passes no argument to ``make``
_Kind = namedtuple("_Kind", "read write")  # how one JSON value is read and written


class _Field(NamedTuple):
    attr: str  # the keyword argument of ``make``
    get: Callable[[Any], Any]  # reads the value back from a parsed object, for `_write`
    kind: _Kind
    default: Any


def _table(*rows) -> dict[str, _Field]:
    """Rows are ``(key, kind, default[, attr[, get]])``; ``attr`` is the key and ``get`` reads it unless given."""
    table = {}
    for key, kind, default, attr, get in (row + (None,) * (5 - len(row)) for row in rows):
        table[key] = _Field(attr or key, get or attrgetter(attr or key), _Kind(*kind), default)
    return table


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{where}: {message}")


def _build(make: Callable, kwargs: dict, where: str):
    """``make(**kwargs)``; a constructor's `ValidationError` or `ValueError` is re-raised with the path."""
    try:
        return make(**kwargs)
    except (ValidationError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _read(data, table: dict[str, _Field], where: str, make: Callable, prefix: str | None = None):
    """Read the object ``data`` found at path ``where``.

    A key's path is ``prefix + key``: ``where.key`` by default, the bare key for the scenario's top level.
    """
    if not isinstance(data, (dict, Mapping)):  # dict first: the ABC check is slow
        raise ValidationError(f"{where}: expected an object")
    prefix = f"{where}." if prefix is None else prefix
    kwargs = {}
    for key, value in data.items():
        field = table.get(key)
        if field is None:
            raise ValidationError(f"{where}: unknown keys {sorted(data.keys() - table.keys())}")
        kwargs[field.attr] = field.kind.read(value, prefix + key)
    if len(data) < len(table):
        for key, field in table.items():
            if key in data or field.default is _ABSENT:
                continue
            if field.default is _REQUIRED:
                raise ValidationError(f"{where}: missing required key {key!r}")
            kwargs[field.attr] = field.default
    return _build(make, kwargs, where)


def _write(obj, table: dict[str, _Field]) -> dict:
    return {key: field.kind.write(field.get(obj)) for key, field in table.items()}


def _object(table: dict[str, _Field], make: Callable) -> _Kind:
    return _Kind(lambda value, where: _read(value, table, where, make), partial(_write, table=table))


def _same(value):
    return value


def _scalar(types: tuple, message: str, convert: Callable | None = None):
    """The kind of a JSON scalar that is an instance of ``types``.

    A boolean counts only as a boolean.  Where floats are allowed, a number
    must fit a finite float: `json.loads` reads ``NaN``, ``Infinity`` and
    ``1e999`` as floats and 10**400 as an integer.
    """

    def read(value, where: str):
        if isinstance(value, types) and (type(value) is not bool or bool in types):
            if float not in types or abs(value) <= sys.float_info.max:  # False for NaN
                return value if convert is None else convert(value)
        raise ValidationError(f"{where}: {message}")

    return _Kind(read, _same)


def _list(kind) -> _Kind:
    read, write = kind

    def read_list(value, where: str) -> tuple:
        _expect(isinstance(value, list), where, "expected a list")
        return tuple([read(item, f"{where}[{i}]") for i, item in enumerate(value)])

    return _Kind(read_list, lambda items: [write(item) for item in items])


def _optional(kind) -> _Kind:
    read, write = kind
    return _Kind(
        lambda value, where: None if value is None else read(value, where),
        lambda parsed: None if parsed is None else write(parsed),
    )


_FLOAT = _scalar((int, float), "expected a finite number", float)
_INT = _scalar((int,), "expected an integer")
_BOOL = _scalar((bool,), "expected true or false")
_STR = _scalar((str,), "expected a string")
_REAL_WEIGHT = _scalar((int, float), "expected a finite number, [re, im] or magnitude/phase object")


def _as_transition(value, where: str) -> tuple[int, int]:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, where, "expected [upper, lower]")
    return _INT.read(value[0], where), _INT.read(value[1], where)


# --- Unions: the JSON values with more than one form ------------------------


def _complex_to_json(z: complex) -> Any:
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _polar(magnitude: float, phase: float) -> complex:
    return complex(magnitude * np.exp(1j * phase))


def _read_weight(value, where: str) -> complex:
    if isinstance(value, dict):
        return _read(value, _POLAR, where, _polar)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_FLOAT.read(value[0], where), _FLOAT.read(value[1], where))
    return complex(_REAL_WEIGHT.read(value, where))


def _read_amplitudes(value, where: str) -> tuple[tuple[str, complex], ...]:
    _expect(isinstance(value, dict), where, "expected an object")
    return tuple((label, _read_weight(amp, f"{where}[{label}]")) for label, amp in value.items())


def _read_emitter(value, where: str) -> EmitterSpec:
    if value == "qubit":
        return EmitterSpec.qubit()
    _expect(isinstance(value, dict), where, "expected 'qubit' or an object")
    return _read(value, _EMITTER, where, EmitterSpec)


def _read_frame(value, where: str) -> tuple[str, float]:
    """The ``(frame, frame_frequency)`` pair; `_read_system` splits it."""
    if value in ("lab", "rotating"):
        return value, 1.0
    _expect(isinstance(value, dict) and value.keys() == {"rotating"}, where,
            "expected 'lab', 'rotating' or {'rotating': freq}")
    return "rotating", _FLOAT.read(value["rotating"], f"{where}.rotating")


def _write_frame(frame: tuple[str, float]) -> Any:
    return "lab" if frame[0] == "lab" else {"rotating": frame[1]}


def _read_system(value, where: str) -> SystemSpec:
    """The system, which `SystemSpec` checks as a whole when it is built."""
    kwargs = _read(value, _SYSTEM, where, dict)
    if "frame" in kwargs:
        kwargs["frame"], kwargs["frame_frequency"] = kwargs["frame"]
    # The collective weights default to one per emitter, and `CollectiveChannelSpec` gives each a transition.
    weights = {"weights": (1.0,) * len(kwargs["emitters"])}
    if "collective_channels" in kwargs:
        kwargs["collective_channels"] = tuple(
            _build(CollectiveChannelSpec, {**weights, **channel}, f"{where}.collective[{i}]")
            for i, channel in enumerate(kwargs["collective_channels"])
        )
    return _build(SystemSpec, kwargs, where)


def _read_state(value, where: str) -> StateSpec:
    return StateSpec.named(value) if isinstance(value, str) else _read(value, _STATE, where, StateSpec)


def _state_object(spec: StateSpec) -> dict:
    return {key: value for key, value in _write(spec, _STATE).items() if value is not None}


def _write_state(spec: StateSpec) -> Any:
    return spec.label if spec.label is not None else _state_object(spec)


def _initial(name: str | None = None, **state) -> tuple[str, StateSpec]:
    spec = StateSpec(**state)
    _expect(name is not None or spec.label is not None, "name", "required for a state that is not a label")
    return (spec.label if name is None else name), spec


def _read_initial(value, where: str) -> tuple[str, StateSpec]:
    return (value, StateSpec.named(value)) if isinstance(value, str) else _read(value, _INITIAL, where, _initial)


def _write_initial(initial: tuple[str, StateSpec]) -> Any:
    name, spec = initial
    return name if spec.label == name else {"name": name, **_state_object(spec)}


def _read_initials(value, where: str) -> tuple[tuple[str, StateSpec], ...]:
    return _INITIALS.read(value if isinstance(value, list) else [value], where)


def _read_observable(value, where: str) -> ObservableSpec:
    """A kind without parameters is its bare name, any other ``{kind: parameters}``."""
    if isinstance(value, str) and value in _OBSERVABLES and _OBSERVABLES[value] is None:
        return ObservableSpec(value)
    if isinstance(value, dict) and len(value) == 1:
        ((kind, params),) = value.items()
        if _OBSERVABLES.get(kind) is not None:
            return _read(params, _OBSERVABLES[kind], f"{where}.{kind}", partial(ObservableSpec, kind))
    raise ValidationError(f"{where}: unknown observable {value!r}")


def _write_observable(ob: ObservableSpec) -> Any:
    table = _OBSERVABLES[ob.kind]
    return ob.kind if table is None else {ob.kind: _write(ob, table)}


def _read_output(value, where: str) -> OutputSpec:
    return OutputSpec() if value is None else _read(value, _OUTPUT, where, OutputSpec)


# --- Tables -----------------------------------------------------------------

_Part = namedtuple("_Part", "weight state")  # one entry of a mixture
_STATE_KIND = (_read_state, _write_state)
_TRANSITION = (_as_transition, list)
_AMPLITUDES = (_read_amplitudes, lambda amps: {label: _complex_to_json(amp) for label, amp in amps})

_POLAR = _table(("magnitude", _FLOAT, 1.0), ("phase", _FLOAT, 0.0))
_EMITTER = _table(("levels", _INT, 2), ("frequencies", _list(_FLOAT), _REQUIRED, "level_frequencies"))
_COLLECTIVE = _table(
    ("rate", _FLOAT, 0.0),
    ("weights", _list((_read_weight, _complex_to_json)), _ABSENT),  # filled per emitter by `_read_system`
    ("transitions", _list(_TRANSITION), _ABSENT),
)
_LOCAL = _table(
    ("rate", _FLOAT, 0.0),
    ("emitter", _INT, 0, "emitter_index"),
    ("transition", _TRANSITION, _ABSENT),
)
_DRIVE = _table(
    ("amplitude", _FLOAT, 0.0),
    ("emitter", _INT, 0, "emitter_index"),
    ("transition", _TRANSITION, _REQUIRED),
    ("detuning", _FLOAT, _ABSENT, "drive_detuning"),
)
_SYSTEM = _table(
    ("emitters", _list((_read_emitter, partial(_write, table=_EMITTER))), _REQUIRED),
    ("collective", _list(_object(_COLLECTIVE, dict)), _ABSENT, "collective_channels"),
    ("local", _list(_object(_LOCAL, LocalChannelSpec)), _ABSENT, "local_channels"),
    ("drives", _list(_object(_DRIVE, DriveSpec)), _ABSENT),
    ("frame", (_read_frame, _write_frame), _ABSENT, "frame", attrgetter("frame", "frame_frequency")),
    ("dimension_cap", _INT, _ABSENT),
)
_PART = _table(("weight", _FLOAT, _REQUIRED), ("state", _STATE_KIND, _REQUIRED))
# A mixture holds plain (weight, state) pairs; `_Part` names them for `_write`.
_PART_KIND = (_object(_PART, _Part).read, lambda part: _write(_Part(*part), _PART))
_STATE = _table(
    ("label", _optional(_STR), _ABSENT),
    ("amplitudes", _optional(_AMPLITUDES), _ABSENT),
    ("mixture", _optional(_list(_PART_KIND)), _ABSENT),
)
_INITIAL = {**_STATE, **_table(("name", _STR, _ABSENT))}
_INITIALS = _list((_read_initial, _write_initial))
# Every observable kind, with the table of its parameters (None: written as the bare kind).
_OBSERVABLES = {
    **dict.fromkeys(("energy", "purity", "nes", "checks")),
    "fidelity": _table(("target", _STATE_KIND, _REQUIRED), ("sqrt", _BOOL, _ABSENT)),
    "log_negativity": _table(("bipartition", _list(_list(_INT)), _ABSENT)),
}
_TIME = _table(("unit", _STR, "omega"), ("horizon", _FLOAT, _REQUIRED), ("points", _INT, _REQUIRED))
_INTEGRATOR = _table(
    ("rel_tol", _FLOAT, _ABSENT),
    ("abs_tol", _FLOAT, _ABSENT),
    ("initial_step", _optional(_FLOAT), _ABSENT),
    ("fixed_step", _optional(_FLOAT), _ABSENT),
)
_OUTPUT = _table(("path", _optional(_STR), _ABSENT), ("format", _STR, _ABSENT))
_SCENARIO = _table(
    ("name", _STR, "scenario"),
    ("initial", (_read_initials, _INITIALS.write), _REQUIRED, "initials"),
    ("time", _object(_TIME, TimeSpec), _REQUIRED),
    ("observables", _list((_read_observable, _write_observable)), _REQUIRED),
    ("integrator", _object(_INTEGRATOR, IntegratorConfig), IntegratorConfig()),
    ("output", (_read_output, partial(_write, table=_OUTPUT)), OutputSpec()),
    # Last: a sweep point reports a fault in another field before one that the system's checks find.
    ("system", (_read_system, partial(_write, table=_SYSTEM)), _REQUIRED),
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def scenario_from_dict(data: Mapping) -> Scenario:
    """Validate a parsed JSON object and resolve it into a `Scenario`."""
    # Built outside `_read`, which would prefix "scenario: " to the paths the constructor's checks name.
    return Scenario(**_read(data, _SCENARIO, "scenario", dict, prefix=""))


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; raises `ParseError` / `ValidationError`."""
    return scenario_from_dict(_load_json(text))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical normalized dict form (all defaults explicit)."""
    return _write(scenario, _SCENARIO)


def dump_scenario(scenario: Scenario) -> str:
    """Normalized JSON text; `parse_scenario` of this is the identity."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _observable_columns(
    ob: ObservableSpec, target: np.ndarray | None, model: ModelOperators
) -> list[tuple[tuple[str, ...], Callable[[float, np.ndarray], tuple[float, ...]]]]:
    """Column names of one observable and the function giving their values; ``target`` is a fidelity's vector."""
    layout = model.layout
    if ob.kind == "energy":
        free_energies = model.free_energies
        return [(("energy",), lambda t, rho: (mean_energy(rho, free_energies),))]
    if ob.kind == "purity":
        return [(("purity",), lambda t, rho: (float(np.real(np.trace(rho @ rho))),))]
    if ob.kind == "fidelity":
        if ob.sqrt:
            return [(("fidelity_sqrt",), lambda t, rho: (overlap_sqrt(rho, target),))]
        return [(("fidelity",), lambda t, rho: (overlap(rho, target),))]
    if ob.kind == "log_negativity":
        bip = ob.bipartition
        name = "log_negativity[" + "|".join(" ".join(map(str, group)) for group in bip) + "]"
        return [((name,), lambda t, rho: (log_negativity(rho, layout, bip),))]
    if ob.kind == "nes":
        names = tuple(f"nes_excitation_{j}" for j in range(layout.n_subsystems))

        def nes_values(t, rho):
            report = nes_report(rho, model)
            return (*report.per_emitter_excitation, report.dark_weight, float(report.is_nonequilibrium))

        return [(names + ("nes_dark_weight", "nes_is_nonequilibrium"), nes_values)]
    return []  # "checks": filled from the integrator's built-in records


def run_scenario(
    scenario: Scenario,
    *,
    fixed_step: float | None = None,
    check_strict: bool = False,
    initial: str | None = None,
) -> ScenarioResult:
    """Evolve every initial state the scenario resolved when it was built and assemble the output table.

    ``fixed_step`` replaces the integrator's; both step lengths are in the
    scenario's time unit and converted to the model's with the grid;
    ``initial`` restricts the run to one labelled initial state;
    ``check_strict`` escalates any invariant breach to an exception
    (otherwise breaches are only flagged in the result).

    The energy and fidelity columns do not validate their input again: they
    read the grid-point state that `evolve` checked and constants checked
    when they were built (the model's free energies, the scenario's fidelity
    targets), where the public `energy`, `dark_overlap` and
    `dark_overlap_sqrt` check theirs.
    """
    model = build_model(scenario.system)

    time_scale = 1.0 / scenario.system.collective_channels[0].rate if scenario.time.unit == "kappa" else 1.0
    grid_scenario_units = scenario.time.grid()
    grid = grid_scenario_units * time_scale

    cfg = scenario.integrator if fixed_step is None else replace(scenario.integrator, fixed_step=fixed_step)
    steps = {key: getattr(cfg, key) for key in ("initial_step", "fixed_step")}
    cfg = replace(cfg, **{key: step * time_scale for key, step in steps.items() if step is not None})

    initials = [(label, rho0) for (label, _), rho0 in zip(scenario.initials, scenario.states)]
    if initial is not None:
        initials = [(label, rho0) for label, rho0 in initials if label == initial]
        if not initials:
            raise UnknownLabel(f"scenario has no initial state labelled {initial!r}")
    multi = len(initials) > 1

    column_fns = []
    for ob, target in zip(scenario.observables, scenario.targets):
        column_fns.extend(_observable_columns(ob, target, model))
    record_names = [name for names, _ in column_fns for name in names]
    if any(ob.kind == "checks" for ob in scenario.observables):
        record_names += ["herm_error", "min_eigenvalue"]

    header: list[str] = ["t"]
    columns: list[np.ndarray] = [grid_scenario_units]
    trajectories: dict[str, Trajectory] = {}
    trace_cols: list[np.ndarray] = []

    for label, rho0 in initials:

        def observer(t: float, rho: np.ndarray) -> dict[str, float]:
            values: dict[str, float] = {}
            for names, fn in column_fns:
                values.update(zip(names, fn(t, rho)))
            return values

        traj = evolve(model, rho0, grid, cfg, observer)
        trajectories[label] = traj
        suffix = f":{label}" if multi else ""
        for name in record_names:
            header.append(name + suffix)
            columns.append(traj.records[name])
        trace_cols.append(traj.records["trace_error"])

    trace_error = np.max(np.vstack(trace_cols), axis=0)
    header.append("trace_error")
    columns.append(trace_error)

    breached = any(traj.breached for traj in trajectories.values())
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


def _csv_cell(value) -> str:
    """One CSV cell by the rule in the module docstring."""
    if isinstance(value, str) and not any(c in value for c in ',"\n\r'):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{float(value):.16e}"
    text = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
    return '"' + text.replace('"', '""') + '"'


def format_csv(header: Sequence[str], rows: np.ndarray) -> str:
    """17-significant-digit scientific CSV, deterministic for equal input; header names written by `_csv_cell`."""
    rows = np.atleast_2d(rows)
    chunks = [",".join(map(_csv_cell, header)) + "\n"]
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


def _set_json(node, tokens: Sequence, value, path: str) -> None:
    """Put ``value`` at ``tokens`` inside the JSON value ``node``; every token must already resolve."""
    try:
        for tok in tokens[:-1]:
            node = node[tok]
        node[tokens[-1]]  # a path never adds a key
        node[tokens[-1]] = value
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"parameter path {path!r} does not resolve") from exc


def _axis_setter(axes: Sequence[tuple[str, Sequence]]) -> Callable[[Scenario, Sequence], Scenario]:
    """``set(scenario, values)``: ``values[k]`` put at every path of axis ``k``, in axis order.

    Each top-level field that a path starts in is written with its writer,
    the paths are set in that JSON in axis order, and the fields are read
    back with their readers in table order, so the result is what reading
    the base's dump form with the values in it gives (the dump round trip is
    exact); the `replace` runs the `Scenario`'s checks that span fields.
    """
    paths = [(k, sub, _path_tokens(sub)) for k, (path, _) in enumerate(axes) for sub in path.split("|")]
    keys = {tokens[0] for _, _, tokens in paths}
    fields = [(key, field) for key, field in _SCENARIO.items() if key in keys]  # any other first key fails to resolve

    def set_paths(scenario, values):
        data = {key: field.kind.write(field.get(scenario)) for key, field in fields}
        for k, sub, tokens in paths:  # a later path may set something inside this value: copy it
            _set_json(data, tokens, copy.deepcopy(values[k]), sub)
        return replace(scenario, **{field.attr: field.kind.read(data[key], key) for key, field in fields})

    return set_paths


def _read_base(value, where: str) -> dict:
    if isinstance(value, str):
        value = load_preset(value)
    _expect(isinstance(value, Mapping), where, "expected a preset name or an inline scenario")
    # Validate the base eagerly and keep its normalized form, where every
    # axis path resolves (e.g. the shorthand "qubit" becomes an explicit emitter).
    return scenario_to_dict(scenario_from_dict(value))


def _read_axes(value, where: str) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    _expect(isinstance(value, Mapping) and value, where, "non-empty object required")
    for path, values in value.items():
        _expect(isinstance(values, list) and values, f"{where}[{path}]", "non-empty list required")
        for sub in path.split("|"):  # "a|b" sets both paths to the same value
            _path_tokens(sub)
    return tuple((path, tuple(values)) for path, values in value.items())


def _read_reduction_kind(value, where: str) -> str:
    _expect(value in ("final", "fit_exp_rate"), where, "must be 'final' or 'fit_exp_rate'")
    return value


def _reduction(**red) -> dict:
    red.setdefault("name", f"{red['kind']}_{red['column']}")
    return red


_REDUCTION = _table(
    ("name", _STR, _ABSENT),  # "<kind>_<column>", filled by `_reduction`
    ("kind", (_read_reduction_kind, None), "final"),
    ("column", _STR, _REQUIRED),
    ("t_min", _FLOAT, 0.0),
    ("t_max", _optional(_FLOAT), None),
)
_SWEEP = _table(
    ("base", (_read_base, None), _REQUIRED),
    ("axes", (_read_axes, None), _REQUIRED),
    ("reductions", _list(_object(_REDUCTION, _reduction)), ()),
)


def parse_sweep(text: str) -> SweepSpec:
    sweep = _read(_load_json(text), _SWEEP, "sweep", SweepSpec)
    if sweep.reductions:
        return sweep
    default = _read({"column": "trace_error"}, _REDUCTION, "sweep.reductions", _reduction)
    return replace(sweep, reductions=(default,))


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

    The base is parsed once.  Each point writes the parsed base's top-level
    fields that its paths start in, sets its axis values there, reads the
    fields back (`_axis_setter`), whose `replace` runs the `Scenario`'s
    checks that span fields, so a point fails exactly where parsing the
    base's dump form with those values in it would.  Rows are
    ordered lexicographically by grid index.  A failing point is recorded
    with NaN reductions and its error in the status column; a point whose
    run breaches an invariant fails as ``error:InvariantBreach``.  The
    sweep always completes.
    """
    paths = [p for p, _ in sweep.axes]
    grids = [v for _, v in sweep.axes]
    header = tuple(paths + [red["name"] for red in sweep.reductions] + ["status"])
    base = scenario_from_dict(sweep.base)
    set_axes = _axis_setter(sweep.axes)

    rows = []
    failed = 0
    for index in np.ndindex(*[len(g) for g in grids]):
        values = [grids[k][i] for k, i in enumerate(index)]
        row: list[Any] = list(values)
        try:
            result = run_scenario(set_axes(base, values), fixed_step=fixed_step, check_strict=True)
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
    """The summary table as CSV, every header name and cell written by `_csv_cell`."""
    lines = [",".join(map(_csv_cell, row)) for row in (result.header, *result.rows)]
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
