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
for two emitters (filled by `Scenario`), a channel's weights to one per
emitter (filled by `SystemSpec`).  Every object rejects unknown keys, no
field converts between JSON types (a number is not a string, 0 is not
false), and ``null`` stands for None where a spec field may be None.  Each
key, its kind and its default are declared once, as a `spec_field` of the
spec it builds.

Each observable kind is declared once, by its entry in the private table
`_OBSERVABLES`: the parameters it takes (none: the file gives it as its bare
name), how a scenario resolves it on the layout (a fidelity's target vector;
a log-negativity's bipartition, checked, ``[[0], [1]]`` when two emitters give
none), the columns it writes for n emitters, and its form compiled on a
checked ``(k, dim, dim)`` stack (none for ``checks``, whose columns are the
records `evolve` keeps).  Adding a kind is one entry and its formula.

Time unit "kappa" means the grid (and the CSV ``t`` column) is in units of
the inverse rate of the first collective channel.  The integrator's step
lengths (``initial_step``, ``fixed_step``) are in the same unit.

CSV output: header ``t,<columns>,trace_error``; one row per grid point;
17-significant-digit scientific notation.  With several initial states each
observable column is suffixed ``:<label>`` and ``trace_error`` is the
worst value across them.  A log-negativity column separates the emitters of
a group by spaces: ``log_negativity[0 1|2]``.  Each column has one writer:
`Scenario` refuses two observables that write one column name, naming the
second and the column.  Both CSV writers write a
number in 17-digit notation, text as it is unless it holds a comma, a quote
or a line break (then quoted, its quotes doubled), and anything else,
booleans included, as compact JSON in one quoted cell.

Sweep files: ``{"base": preset-name | scenario, "axes": {path: [value,...]},
"reductions": [{"column": str, "kind": "final"|"fit_exp_rate" ["final"],
"name": str ["<kind>_<column>"], "t_min": float [0], "t_max": float|null}]}``;
the reductions default to ``[{"column": "trace_error"}]`` (named
"final_trace_error").  A sweep reads as a `SweepSpec` and each reduction as
a `ReductionSpec`, declared and checked like a scenario's specs.  An axis
path such as ``system.local[0].rate`` addresses the base's `dump_scenario`
form; ``"a|b"`` sets both paths.
`parse_sweep` parses the base once; each point writes the base's top-level
fields that its paths start in, sets the axis values in that JSON and reads
the fields back, so a point runs, or fails, as the base's dump form with
those values in it would.  The summary CSV has one row per point: the axis
values, the reductions and a status (``ok`` or ``error:<type>``).
"""

from __future__ import annotations

import copy
import json
import re
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from importlib import resources
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, block_key, evolve
from .errors import (
    DimensionMismatch,
    InvariantBreach,
    ParseError,
    SubradError,
    UnknownLabel,
    ValidationError,
)
from .model import (
    OMIT,
    EmitterSpec,
    ModelOperators,
    Opt,
    Seq,
    StateSpec,
    SystemSpec,
    as_complex,
    as_flag,
    as_integer,
    as_real,
    as_text,
    as_transition,
    build_initial_state,
    build_model,
    check_fields,
    spec_class,
    spec_field,
    state_vector,
)
# `perfbench/tracer.py` wraps `energy`, `dark_overlap`, `dark_overlap_sqrt`,
# `log_negativity` and `nes_report` under these names to time each observable,
# and a traced run stops when one is gone.  Every column reads a checked state
# through an unchecked formula or compiled form, so none of the five is called here.
from .observables import (  # noqa: F401
    bipartition_groups,
    dark_overlap,
    dark_overlap_sqrt,
    energy,
    log_negativity,
    mean_energy,
    negativity,
    nes_report,
    nes_values,
    overlap,
    overlap_sqrt,
)

__all__ = [
    "Scenario",
    "SweepSpec",
    "ReductionSpec",
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


@spec_class
class TimeSpec:
    unit: str = spec_field(as_text, missing="omega")
    horizon: float = spec_field(as_real)
    points: int = spec_field(as_integer)

    def __post_init__(self):
        check_fields(self)
        if self.unit not in ("omega", "kappa") or not self.horizon > 0 or self.points < 2:
            raise ValidationError(f"need unit 'omega' or 'kappa', horizon > 0 and points >= 2, got {self}")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.points)


@spec_class
class ObservableSpec:
    """One observable of a kind in `_OBSERVABLES`, whose entry names the parameters the kind takes: a required one
    (the fidelity's target) is given, any other stays at its default.  A bipartition has two non-empty groups."""

    kind: str = spec_field(as_text, key=None)  # a file gives it as the observable's name or object key
    target: StateSpec | None = spec_field(Opt(StateSpec), None, missing=MISSING)
    sqrt: bool = spec_field(as_flag, False)
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = spec_field(Opt(Seq(Seq(as_integer))), None)

    def __post_init__(self):
        check_fields(self)
        _expect(self.kind in _OBSERVABLES, "kind", f"unknown observable {self.kind!r}")
        taken = _OBSERVABLES[self.kind].params or {}
        for key, (attr, _, _, missing) in _OBSERVABLE.items():  # every parameter; its class attribute is its default
            value, default = getattr(self, attr), getattr(ObservableSpec, attr)
            _expect(key in taken or value == default, attr, f"expected {default!r}: {self.kind!r} takes no {attr}")
            _expect(key not in taken or missing is not MISSING or value is not None, attr, f"required by {self.kind!r}")
        _expect(self.bipartition is None or (len(self.bipartition) == 2 and all(self.bipartition)), "bipartition",
                f"expected two non-empty emitter index groups, got {self.bipartition}")


@spec_class
class OutputSpec:
    path: str | None = spec_field(Opt(as_text), None)
    format: str = spec_field(as_text, "csv")

    def __post_init__(self):
        check_fields(self)
        if self.format != "csv":
            raise ValidationError(f"only the 'csv' format is supported, got {self.format!r}")


@spec_class(eq=False)
class Scenario:
    """One simulation, checked when it is built: parsed, `replace`d or by hand alike.

    Each field checks its own rules; this constructor checks the rules that need the whole scenario: one or more
    initial states with distinct labels and one or more observables, no two writing one column, each state
    resolving on the layout and each observable as its kind's entry in `_OBSERVABLES` resolves it, and a first
    collective channel with positive rate for the 'kappa' unit.
    ``states`` holds the initial density matrices in ``initials`` order and
    ``targets`` each observable's fidelity vector (None for other kinds),
    a read-only unit vector.
    """

    name: str = spec_field(as_text, missing="scenario")
    system: SystemSpec = spec_field(SystemSpec)
    initials: tuple[tuple[str, StateSpec], ...] = spec_field(Seq((as_text, StateSpec)), key="initial", label="initial")
    time: TimeSpec = spec_field(TimeSpec)
    observables: tuple[ObservableSpec, ...] = spec_field(Seq(ObservableSpec))
    integrator: IntegratorConfig = spec_field(IntegratorConfig, missing=IntegratorConfig())
    output: OutputSpec = spec_field(OutputSpec, missing=OutputSpec())
    states: tuple[np.ndarray, ...] = field(init=False, repr=False)
    targets: tuple[np.ndarray | None, ...] = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        _expect(bool(self.initials), "initial", "at least one initial state is required")
        names = [name for name, _ in self.initials]
        _expect(len(set(names)) == len(names), "initial", f"duplicate initial labels in {names}")
        _expect(bool(self.observables), "observables", "at least one observable is required")
        layout = self.system.layout()
        states = tuple(_resolved(f"initial[{i}]", build_initial_state, spec, layout)
                       for i, (_, spec) in enumerate(self.initials))
        channels = self.system.collective_channels
        _expect(self.time.unit != "kappa" or bool(channels) and channels[0].rate > 0, "time.unit",
                "'kappa' unit needs a first collective channel with positive rate")
        resolved, writers = [], {}  # writers: each column name and the first observable that writes it
        for i, ob in enumerate(self.observables):
            kind, where = _OBSERVABLES[ob.kind], f"observables[{i}]"
            resolved.append(kind.resolve(ob, layout, where))
            for column in kind.columns(resolved[-1][0], layout.n_subsystems):
                _expect(writers.setdefault(column, i) == i, where,
                        f"writes the column {column!r}, as observables[{writers[column]}] does")
        observables, targets = zip(*resolved)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "targets", targets)


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
# Each JSON object is read and written through a table from JSON key to
# ``(attr, read, write, missing)``, derived for a spec from its `spec_field`s
# (`_spec_table`): ``read(value, path)`` gives the argument ``attr``,
# ``write`` the JSON value, ``missing`` is `spec_field`'s.  `_read` checks the
# keys, reads and fills them and calls ``make``; `_write` inverts it.

_Kind = namedtuple("_Kind", "read write")  # how one JSON value is read and written


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{where}: {message}")


def _build(make: Callable, kwargs: dict, where: str):
    """``make(**kwargs)``; a constructor's `ValidationError` is re-raised with the path."""
    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _resolved(where: str, resolve: Callable, *args):
    """``resolve(*args)``; an error it raises is raised again, of its own type, with the path ``where``."""
    try:
        return resolve(*args)
    except SubradError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _read(data, table: dict[str, tuple], where: str, make: Callable, prefix: str | None = None):
    """Read the object ``data`` found at path ``where``.

    A key's path is ``prefix + key``: ``where.key`` by default, the bare key for the scenario's top level.
    """
    if not isinstance(data, (dict, Mapping)):  # dict first: the ABC check is slow
        raise ValidationError(f"{where}: expected an object")
    prefix = f"{where}." if prefix is None else prefix
    kwargs = {}
    for key, value in data.items():
        row = table.get(key)
        if row is None:
            raise ValidationError(f"{where}: unknown keys {sorted(data.keys() - table.keys())}")
        kwargs[row[0]] = row[1](value, prefix + key)
    if len(data) < len(table):
        for key, (attr, _, _, missing) in table.items():
            if key in data or missing is OMIT:
                continue
            if missing is MISSING:
                raise ValidationError(f"{where}: missing required key {key!r}")
            kwargs[attr] = missing
    return _build(make, kwargs, where)


def _write(obj, table: dict[str, tuple]) -> dict:
    return {key: write(getattr(obj, attr)) for key, (attr, _, write, _) in table.items()}


def _object(table: dict[str, tuple], make: Callable) -> _Kind:
    return _Kind(lambda value, where: _read(value, table, where, make), partial(_write, table=table))


def _same(value, where: str = ""):  # writes, or reads, a value as it is
    return value


def _form(kind) -> _Kind:
    """How a value of ``kind`` (see `spec_field`, or a `_Kind` itself) is read and written, `_FORMS` first."""
    if isinstance(kind, Seq):
        read, write = _form(kind.item)

        def read_list(value, where: str) -> tuple:
            _expect(isinstance(value, list), where, "expected a list")
            return tuple([read(item, f"{where}[{i}]") for i, item in enumerate(value)])

        return _Kind(read_list, lambda items: [write(item) for item in items])
    if isinstance(kind, Opt):
        read, write = _form(kind.kind)
        return _Kind(lambda value, where: None if value is None else read(value, where),
                     lambda parsed: None if parsed is None else write(parsed))
    if isinstance(kind, _Kind):
        return kind
    if kind in _FORMS:
        return _Kind(*_FORMS[kind])
    if isinstance(kind, type):
        return _object(_spec_table(kind), kind)
    return _Kind(kind, _same)


def _spec_table(cls, **forms) -> dict[str, tuple]:
    """The table of the spec class ``cls`` by its `spec_field` declarations; ``forms[attr]`` replaces a kind's form."""
    table = {}
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        if "kind" in f.metadata and key is not None:
            missing = f.metadata.get("missing", MISSING if f.default is MISSING else OMIT)
            table[key] = (f.name, *(forms.get(f.name) or _form(f.metadata["kind"])), missing)
    return table


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
        return complex(as_real(value[0], where), as_real(value[1], where))
    return as_complex(value, where)


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
    return "rotating", as_real(value["rotating"], f"{where}.rotating")


def _read_system(value, where: str) -> SystemSpec:
    kwargs = _read(value, _SYSTEM, where, dict)
    if "frame" in kwargs:
        kwargs["frame"], kwargs["frame_frequency"] = kwargs["frame"]
    return _build(SystemSpec, kwargs, where)


def _write_system(spec: SystemSpec) -> dict:
    """The system's table, with ``frame_frequency`` in ``"frame"`` as `_read_frame` reads it."""
    return {**_write(spec, _SYSTEM), "frame": "lab" if spec.frame == "lab" else {"rotating": spec.frame_frequency}}


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
    if isinstance(value, str) and value in _OBSERVABLES and _OBSERVABLES[value].params is None:
        return ObservableSpec(value)
    if isinstance(value, dict) and len(value) == 1:
        ((kind, params),) = value.items()
        if kind in _OBSERVABLES and _OBSERVABLES[kind].params is not None:
            return _read(params, _OBSERVABLES[kind].params, f"{where}.{kind}", partial(ObservableSpec, kind))
    raise ValidationError(f"{where}: unknown observable {value!r}")


def _write_observable(ob: ObservableSpec) -> Any:
    table = _OBSERVABLES[ob.kind].params
    return ob.kind if table is None else {ob.kind: _write(ob, table)}


def _read_output(value, where: str) -> OutputSpec:
    return OutputSpec() if value is None else _read(value, _OUTPUT, where, OutputSpec)


def _resolve_target(ob: ObservableSpec, layout, where: str) -> tuple[ObservableSpec, np.ndarray]:
    """A fidelity's target state as a read-only unit vector."""
    target = _resolved(where, state_vector, ob.target, layout)  # must be pure
    target.flags.writeable = False
    return ob, target


def _resolve_bipartition(ob: ObservableSpec, layout, where: str) -> tuple[ObservableSpec, None]:
    """The bipartition, ``[[0], [1]]`` when two emitters give none, held to the rule `log_negativity` holds it to."""
    if ob.bipartition is None:
        _expect(layout.n_subsystems == 2, f"{where}.{ob.kind}.bipartition", "expected two emitter index groups")
        ob = replace(ob, bipartition=((0,), (1,)))
    try:
        bipartition_groups(ob.bipartition, layout.n_subsystems)
    except DimensionMismatch as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    return ob, None


def _energy(ob: ObservableSpec, target, model: ModelOperators) -> Callable[[np.ndarray], tuple]:
    free_energies = model.free_energies
    return lambda rho: (mean_energy(rho, free_energies).tolist(),)


def _fidelity(ob: ObservableSpec, target: np.ndarray, model: ModelOperators) -> Callable[[np.ndarray], tuple]:
    value = overlap_sqrt if ob.sqrt else overlap
    return lambda rho: (value(rho, target).tolist(),)


def _log_negativity(ob: ObservableSpec, target, model: ModelOperators) -> Callable[[np.ndarray], tuple]:
    value = negativity(model.layout, ob.bipartition)
    return lambda rho: (value(rho).tolist(),)


# --- Tables -----------------------------------------------------------------

# The kinds whose JSON value is not read by their checker or spec table alone.
_FORMS = {
    as_complex: (_read_weight, _complex_to_json),
    as_transition: (as_transition, list),
    EmitterSpec: (_read_emitter, lambda emitter: _write(emitter, _EMITTER)),
    SystemSpec: (_read_system, _write_system),
    StateSpec: (_read_state, _write_state),
    ObservableSpec: (_read_observable, _write_observable),
    OutputSpec: (_read_output, lambda output: _write(output, _OUTPUT)),
}
_POLAR = {"magnitude": ("magnitude", as_real, _same, 1.0), "phase": ("phase", as_real, _same, 0.0)}
_Part = namedtuple("_Part", "weight state")  # a mixture's plain (weight, state) pair, named for `_write`
_PART = {"weight": ("weight", as_real, _same, MISSING), "state": ("state", _read_state, _write_state, MISSING)}
_PART_KIND = _Kind(_object(_PART, _Part).read, lambda part: _write(_Part(*part), _PART))
_AMPLITUDES = _Kind(_read_amplitudes, lambda amps: {label: _complex_to_json(amp) for label, amp in amps})

_EMITTER = _spec_table(EmitterSpec)
_SYSTEM = _spec_table(SystemSpec, frame=(_read_frame, _same))
_STATE = _spec_table(StateSpec, amplitudes=_form(Opt(_AMPLITUDES)), mixture=_form(Opt(Seq(_PART_KIND))))
_INITIAL = {**_STATE, "name": ("name", as_text, _same, OMIT)}
_INITIALS = _form(Seq(_Kind(_read_initial, _write_initial)))
_OBSERVABLE = _spec_table(ObservableSpec)  # every parameter of every kind
# Each observable kind, declared once (see the module docstring): columns, compiled form, parameters and resolution.
_Observable = namedtuple("_Observable", "columns form params resolve", defaults=(None, lambda ob, *_: (ob, None)))
_OBSERVABLES = {
    "energy": _Observable(lambda ob, n: ("energy",), _energy),
    "purity": _Observable(lambda ob, n: ("purity",), lambda ob, target, model: (
        lambda rho: (np.trace(rho @ rho, axis1=-2, axis2=-1).real.tolist(),))),
    "fidelity": _Observable(lambda ob, n: ("fidelity_sqrt",) if ob.sqrt else ("fidelity",),
                            _fidelity, {key: _OBSERVABLE[key] for key in ("target", "sqrt")}, _resolve_target),
    "log_negativity": _Observable(
        lambda ob, n: ("log_negativity[" + "|".join(" ".join(map(str, group)) for group in ob.bipartition) + "]",),
        _log_negativity, {"bipartition": _OBSERVABLE["bipartition"]}, _resolve_bipartition),
    "nes": _Observable(
        lambda ob, n: (*(f"nes_excitation_{j}" for j in range(n)), "nes_dark_weight", "nes_is_nonequilibrium"),
        lambda ob, target, model: nes_values(model)),
    "checks": _Observable(lambda ob, n: ("herm_error", "min_eigenvalue"), None),  # `evolve`'s records
}
_OUTPUT = _spec_table(OutputSpec)
_SCENARIO = _spec_table(Scenario, initials=_INITIALS._replace(read=_read_initials))
# Last: a sweep point reports a fault in another field before one that the system's checks find.
_SCENARIO["system"] = _SCENARIO.pop("system")


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
    except ValueError as exc:  # an integer literal longer than `sys.get_int_max_str_digits` allows
        raise ParseError(str(exc)) from exc


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


def _observable_columns(ob: ObservableSpec, target: np.ndarray | None, model: ModelOperators) -> list[tuple]:
    """The columns of an observable of ``model`` and its kind's form compiled for it (see `_OBSERVABLES`), one
    ``(names, form)`` pair; a form gives each column as a list of k floats, which `evolve` assembles faster than
    arrays, and is None for the records `evolve` keeps.  ``target``: a fidelity's."""
    kind = _OBSERVABLES[ob.kind]
    return [(kind.columns(ob, model.layout.n_subsystems), kind.form and kind.form(ob, target, model))]


def run_scenario(
    scenario: Scenario,
    *,
    fixed_step: float | None = None,
    check_strict: bool = False,
    initial: str | None = None,
) -> ScenarioResult:
    """Evolve every initial state the scenario resolved when it was built and assemble the output table.

    The initial states of one `block_key` are stepped as one stack, in their order, by one `evolve` call; each one's
    columns and trajectory are those of its own run, bit for bit (a state of a Dormand-Prince block is a stack of one).

    ``fixed_step`` replaces the integrator's; both step lengths are in the
    scenario's time unit and converted to the model's with the grid;
    ``initial`` restricts the run to one labelled initial state;
    ``check_strict`` escalates any invariant breach to an exception
    (otherwise breaches are only flagged in the result).

    No column validates its input again: each reads the grid-point state that `evolve` checked through its kind's
    form (`_OBSERVABLES`), compiled once per model from constants checked when they were built.
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

    compiled = [entry for ob, target in zip(scenario.observables, scenario.targets)
                for entry in _observable_columns(ob, target, model)]
    column_fns = [(names, fn) for names, fn in compiled if fn is not None]
    # `evolve`'s records (the columns without a form) last; stable: the rest keep their order
    record_names = [name for names, fn in sorted(compiled, key=lambda entry: entry[1] is None) for name in names]

    header: list[str] = ["t"]
    columns: list[np.ndarray] = [grid_scenario_units]

    def observer(t: float, rho: np.ndarray) -> dict:
        values: dict = {}
        for names, fn in column_fns:
            values.update(zip(names, fn(rho)))
        return values

    groups: dict[bytes | str, list] = {}  # the initial states by `block_key`, in order; a state with None, alone
    for label, rho0 in initials:
        groups.setdefault((multi and block_key(model, rho0)) or label, []).append((label, rho0))
    runs: dict[str, Trajectory] = {}
    for group in groups.values():
        labels, states = zip(*group)
        traj = evolve(model, np.stack(states), grid, cfg, observer)
        runs.update({label: _member(traj, j) for j, label in enumerate(labels)})
    trajectories = {label: runs[label] for label, _ in initials}
    for label, traj in trajectories.items():
        suffix = f":{label}" if multi else ""
        for name in record_names:
            header.append(name + suffix)
            columns.append(traj.records[name])
    header.append("trace_error")  # the worst across the initial states
    columns.append(np.max([traj.records["trace_error"] for traj in trajectories.values()], axis=0))

    breached = any(traj.breached for traj in trajectories.values())
    if breached and check_strict:
        raise InvariantBreach("invariant check tripped (strict mode)")

    return ScenarioResult(
        scenario=scenario,
        header=tuple(header),
        rows=np.column_stack(columns),
        trajectories=trajectories,
        breached=breached,
    )


def _member(traj: Trajectory, j: int) -> Trajectory:
    """State ``j`` of a stacked trajectory, with its own records, final state and ``max_herm_drift``."""
    records = {key: values[:, j] for key, values in traj.records.items()}
    meta = {**traj.meta, "max_herm_drift": float(records["herm_error"].max())}
    return Trajectory(times=traj.times, records=records, final_state=traj.final_state[j], meta=meta)


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


@spec_class
class ReductionSpec:
    """One summary column of a sweep: the last value of the output column ``column`` ("final"), or the decay
    rate fitted to it over ``t_min <= t <= t_max`` ("fit_exp_rate"), a window that must hold two or more grid
    points, or the point fails; ``name`` defaults to ``<kind>_<column>``."""

    column: str = spec_field(as_text)
    kind: str = spec_field(as_text, "final")
    name: str | None = spec_field(Opt(as_text), None)
    t_min: float = spec_field(as_real, 0.0)
    t_max: float | None = spec_field(Opt(as_real), None)

    def __post_init__(self):
        check_fields(self)
        _expect(self.kind in ("final", "fit_exp_rate"), "kind", "must be 'final' or 'fit_exp_rate'")
        for attr in ("t_min", "t_max"):  # the fit window; its class attribute is its default
            _expect(self.kind == "fit_exp_rate" or getattr(self, attr) == getattr(ReductionSpec, attr), attr,
                    f"expected {getattr(ReductionSpec, attr)!r}: 'final' takes no {attr}")
        _expect(self.t_max is None or self.t_max >= self.t_min, "t_max", f"expected t_max >= t_min = {self.t_min}")
        if self.name is None:
            object.__setattr__(self, "name", f"{self.kind}_{self.column}")


@spec_class(eq=False)
class SweepSpec:
    """A sweep: the scenario ``base``, parsed once, whose dump form the axis paths address; ``axes``, one or
    more ``(path, values)`` pairs of one or more values kept as given; `ReductionSpec`s [final_trace_error]."""

    base: Scenario = spec_field(Scenario)
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = spec_field(Seq((as_text, Seq(_same))))
    reductions: tuple[ReductionSpec, ...] = spec_field(Seq(ReductionSpec), ())
    _set_axes: Callable[[Scenario, Sequence], Scenario] = field(init=False, repr=False)  # see `_axis_setter`

    def __post_init__(self):
        check_fields(self)
        _expect(bool(self.axes) and all(values for _, values in self.axes), "axes", "expected one or more, none empty")
        object.__setattr__(self, "_set_axes", _axis_setter(self.axes))  # parses every path
        if not self.reductions:
            object.__setattr__(self, "reductions", (ReductionSpec("trace_error"),))


_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)|\[([0-9]+)\]")  # ASCII only: `\d` matches any Unicode digit


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
    rows = [(key, row) for key, row in _SCENARIO.items() if key in keys]  # any other first key fails to resolve

    def set_paths(scenario, values):
        data = {key: write(getattr(scenario, attr)) for key, (attr, _, write, _) in rows}
        for k, sub, tokens in paths:  # a later path may set something inside this value: copy it
            _set_json(data, tokens, copy.deepcopy(values[k]), sub)
        return replace(scenario, **{attr: read(data[key], key) for key, (attr, read, _, _) in rows})

    return set_paths


def _read_base(value, where: str) -> Scenario:
    if isinstance(value, str):
        value = load_preset(value)
    _expect(isinstance(value, Mapping), where, "expected a preset name or an inline scenario")
    return scenario_from_dict(value)


def _read_axes(value, where: str) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    """The object ``{path: [value,...]}`` as `SweepSpec.axes` pairs."""
    _expect(isinstance(value, Mapping), where, "expected an object")
    return tuple((path, _form(Seq(_same)).read(values, f"{where}[{path}]")) for path, values in value.items())


_SWEEP = _spec_table(SweepSpec, base=(_read_base, None), axes=(_read_axes, None))  # a sweep is never written


def parse_sweep(text: str) -> SweepSpec:
    return _read(_load_json(text), _SWEEP, "sweep", SweepSpec)


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


def _reduce(result: ScenarioResult, red: ReductionSpec) -> float:
    try:
        idx = result.header.index(red.column)
    except ValueError as exc:
        raise ValidationError(f"reduction column {red.column!r} not in output") from exc
    t, y = result.rows[:, 0], result.rows[:, idx]
    if red.kind == "final":
        return float(y[-1])
    window = (t >= red.t_min) & (t <= (np.inf if red.t_max is None else red.t_max))
    _expect(np.count_nonzero(window) >= 2, red.name, "the fit window holds fewer than two grid points")
    return fit_exponential_rate(t[window], y[window])


def run_sweep(sweep: SweepSpec, *, fixed_step: float | None = None) -> SweepResult:
    """Run the cartesian product of all axes; one summary row per point.

    Each point writes the top-level fields of the parsed base that its
    paths start in, sets its axis values there, reads the fields back
    (`_axis_setter`), whose `replace` runs the `Scenario`'s checks that
    span fields, so a point fails exactly where parsing the base's dump
    form with those values in it would.  Rows are ordered
    lexicographically by grid index.  A failing point is recorded
    with NaN reductions and its error in the status column; a point whose
    run breaches an invariant fails as ``error:InvariantBreach``.  The
    sweep always completes.
    """
    paths = [p for p, _ in sweep.axes]
    grids = [v for _, v in sweep.axes]
    header = tuple(paths + [red.name for red in sweep.reductions] + ["status"])

    rows = []
    failed = 0
    for index in np.ndindex(*[len(g) for g in grids]):
        values = [grids[k][i] for k, i in enumerate(index)]
        row: list[Any] = list(values)
        try:
            result = run_scenario(sweep._set_axes(sweep.base, values), fixed_step=fixed_step, check_strict=True)
            row += [_reduce(result, red) for red in sweep.reductions] + ["ok"]  # no cell unless all reduce
        except SubradError as exc:
            row += [float("nan")] * len(sweep.reductions) + [f"error:{type(exc).__name__}"]
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
    family, *fields = name.split(":")
    if family == "nqubit":
        if len(fields) > 2:
            raise UnknownLabel(f"nqubit preset takes at most a size and a phase list, got {name!r}")
        size, *phases = fields or ["4"]
        if not re.fullmatch("[0-9]+", size):  # a plain decimal: no sign, space or underscore
            raise UnknownLabel(f"bad nqubit size in {name!r}")
        phases = phases[0].split(",") if phases else []
        if not all(re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", x) and np.isfinite(float(x)) for x in phases):
            raise UnknownLabel(f"bad nqubit phase list in {name!r}")  # an empty list too
        return _nqubit_scenario(int(size), [float(x) for x in phases] or None)
    raise UnknownLabel(f"unknown preset {name!r}")
