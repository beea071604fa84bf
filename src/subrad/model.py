"""Declarative emitter-network descriptions compiled to concrete operators.

Conventions (fixed once, used by the whole package):

* Units: hbar = 1 and the reference excitation frequency is 1, so every
  rate, detuning and amplitude is dimensionless and times are in units of
  the inverse reference frequency (scenario files may relabel the time
  axis in units of a collective rate instead).
* Emitter 0 is the leftmost tensor factor and the leftmost character of a
  basis-string label ("10" means emitter 0 in level 1, emitter 1 in level
  0).  All indices in the API are 0-based.
* Dissipator convention: each jump channel contributes
  ``rate * (2 L rho L† - L†L rho - rho L†L)`` to the master equation.
  Consequently a single driven-free qubit with a local channel of rate
  ``a`` loses excited population at ``2a``, and the symmetric two-qubit
  superposition under a collective channel of rate ``k`` decays at ``4k``.
* Rotating frame: level energies are replaced by their detuning from
  ``level_index * frame_frequency``; drives are only representable in the
  rotating frame, where they are time-independent by construction.
* Input values: each spec field is declared once, as a `spec_field` of its
  dataclass: its kind (a checker such as `as_real`, a spec class, a `Seq` or
  an `Opt`), JSON key and JSON default.  The constructor checks each field by
  its kind (`check_fields`; a `ValidationError`, also a `ValueError`, if
  refused) and the scenario and sweep readers derive their tables from the
  same declarations; only rules that span fields are code, such as the
  collective weights that `SystemSpec` fills, one per emitter.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidTransition,
    NonNormalizable,
    UnknownLabel,
    ValidationError,
)
from .linalg import DimsLayout, as_integer

DEFAULT_DIMENSION_CAP = 256


def as_real(value, name: str) -> float:
    """``value`` as a float: a real number that fits a finite float, not a boolean or a string."""
    # The exact type test goes first: the ABC test costs about seven times as much.
    if type(value) in (float, int) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):  # converts to float, which overflows for an integer beyond its range
                return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name}: expected a finite number")


def as_positive(value, name: str) -> float:
    """``value`` as a float that passes `as_real` and is above 0."""
    try:
        if as_real(value, name) > 0:
            return float(value)
    except ValidationError:
        pass
    raise ValidationError(f"{name} must be finite and positive")


def as_complex(value, name: str) -> complex:
    """``value`` as a complex number whose real and imaginary parts each pass `as_real`."""
    if type(value) is complex or isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        return complex(as_real(value.real, name), as_real(value.imag, name))
    return complex(as_real(value, name))


def as_text(value, name: str) -> str:
    if isinstance(value, str):
        return value
    raise ValidationError(f"{name}: expected a string")


def as_flag(value, name: str) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValidationError(f"{name}: expected true or false")


def as_transition(value, name: str) -> tuple[int, int]:
    """``value`` as an ``(upper, lower)`` pair: a two-entry list or tuple of integers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return as_integer(value[0], name), as_integer(value[1], name)
    raise ValidationError(f"{name}: expected [upper, lower]")


Seq = namedtuple("Seq", "item")  # kind of a tuple of ``item`` values, given as a list, a tuple or an array
Opt = namedtuple("Opt", "kind")  # kind of None or a ``kind`` value
OMIT = object()  # ``missing`` of a JSON key whose absence passes no argument


def spec_field(kind, default=MISSING, **json):
    """A `spec_class` field of ``kind``: a checker, a spec class (its name if it nests itself), a `Seq`, an `Opt`,
    or a tuple of kinds for an entry of one value each.  ``json`` may set ``key`` (the JSON key, None for none;
    the attribute's name by default), ``missing`` (what an absent key reads as; by default `OMIT` for a field
    with a default, else `MISSING`, a required key) and ``label`` (the name errors give; the attribute's)."""
    return field(default=default, metadata={"kind": kind, **json})


def _checker(kind, cls) -> Callable[[Any, str], Any]:
    """``check(value, name)`` -> the value to store, by ``kind`` of a field of ``cls``."""
    if isinstance(kind, Opt):
        inner = _checker(kind.kind, cls)
        return lambda value, name: None if value is None else inner(value, name)
    if isinstance(kind, Seq):
        item = _checker(kind.item, cls)

        def check(value, name):
            if isinstance(value, (tuple, list, np.ndarray)):
                return tuple([item(v, name) for v in value])
            raise ValidationError(f"{name}: expected a list or tuple")

        return check
    if isinstance(kind, tuple):  # an entry of one value per kind
        items = [_checker(k, cls) for k in kind]

        def check(value, name):
            if isinstance(value, (tuple, list)) and len(value) == len(items):
                return tuple([c(v, name) for c, v in zip(items, value)])
            raise ValidationError(f"{name}: expected an entry of {len(items)} values")

        return check
    if kind == cls.__name__ or isinstance(kind, type):
        spec = cls if kind == cls.__name__ else kind

        def check(value, name):
            if isinstance(value, spec):
                return value
            raise ValidationError(f"{name}: expected {spec.__name__}, got {type(value).__name__}")

        return check
    return kind


def spec_class(cls=None, /, **options):
    """`dataclass(frozen=True, **options)` whose `spec_field` checks are compiled once, here, for `check_fields`."""
    if cls is None:
        return partial(spec_class, **options)
    cls = dataclass(frozen=True, **options)(cls)
    cls._checks = tuple((f.name, _checker(f.metadata["kind"], cls), f.metadata.get("label", f.name))
                        for f in fields(cls) if "kind" in f.metadata)
    return cls


def check_fields(obj) -> None:
    """Check each `spec_field` of ``obj`` by its kind and store the checked value (a list becomes a tuple)."""
    values = obj.__dict__  # a frozen spec's fields, written past its `__setattr__`
    for name, check, label in obj._checks:
        values[name] = check(values[name], label)


# ---------------------------------------------------------------------------
# System description
# ---------------------------------------------------------------------------


@spec_class
class EmitterSpec:
    """One emitter: a ladder of ``levels`` states with fixed lab frequencies.

    ``level_frequencies[0]`` must be 0 and the list strictly increasing.
    The level index doubles as the excitation count of that level.
    """

    levels: int = spec_field(as_integer, missing=2)
    level_frequencies: tuple[float, ...] = spec_field(Seq(as_real), key="frequencies")

    def __post_init__(self):
        check_fields(self)
        freqs = self.level_frequencies
        if self.levels < 2:
            raise ValidationError(f"emitter needs >= 2 levels, got {self.levels}")
        if len(freqs) != self.levels:
            raise ValidationError(f"expected {self.levels} level frequencies, got {len(freqs)}")
        if freqs[0] != 0.0:
            raise ValidationError("level 0 frequency must be 0")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValidationError(f"level frequencies must be strictly increasing: {freqs}")

    @staticmethod
    def qubit(frequency: float = 1.0) -> "EmitterSpec":
        return EmitterSpec(2, (0.0, frequency))


@spec_class
class CollectiveChannelSpec:
    """A shared decay channel: one jump operator summing weighted lowerings.

    ``weights[j]`` multiplies the lowering operator of emitter ``j`` on
    ``transitions[j]``; complex weights carry the relative dissipation
    phases.  Emitters with weight 0 do not participate.  The weights default
    to one per emitter, filled by the `SystemSpec` holding the channel, and
    the transitions to one ``(1, 0)`` per weight.
    """

    rate: float = spec_field(as_real, missing=0.0)
    weights: tuple[complex, ...] | None = spec_field(Opt(Seq(as_complex)), None)
    transitions: tuple[tuple[int, int], ...] | None = spec_field(Opt(Seq(as_transition)), None)

    def __post_init__(self):
        check_fields(self)
        if self.transitions is None and self.weights is not None:
            object.__setattr__(self, "transitions", ((1, 0),) * len(self.weights))
        if self.rate < 0:
            raise ValidationError(f"collective rate must be >= 0, got {self.rate}")
        if self.weights is not None and len(self.weights) != len(self.transitions):
            raise ValidationError("weights and transitions must have equal length")


@spec_class
class LocalChannelSpec:
    """An independent decay channel on a single emitter transition."""

    rate: float = spec_field(as_real, missing=0.0)
    emitter_index: int = spec_field(as_integer, key="emitter", missing=0)
    transition: tuple[int, int] = spec_field(as_transition, (1, 0))

    def __post_init__(self):
        check_fields(self)
        if self.rate < 0:
            raise ValidationError(f"local rate must be >= 0, got {self.rate}")


@spec_class
class DriveSpec:
    """A coherent pump on one transition, static in the rotating frame.

    Enters the Hamiltonian as ``amplitude * (|u><l| + |l><u|)`` plus
    ``drive_detuning * |u><u|`` (a positive detuning shifts the upper
    level up relative to exact resonance with the pump).
    """

    amplitude: float = spec_field(as_real, missing=0.0)
    emitter_index: int = spec_field(as_integer, key="emitter", missing=0)
    transition: tuple[int, int] = spec_field(as_transition)
    drive_detuning: float = spec_field(as_real, 0.0, key="detuning")

    __post_init__ = check_fields


@spec_class
class SystemSpec:
    """Complete declarative description of an emitter network, checked as a whole when it is built."""

    emitters: tuple[EmitterSpec, ...] = spec_field(Seq(EmitterSpec))
    collective_channels: tuple[CollectiveChannelSpec, ...] = spec_field(Seq(CollectiveChannelSpec), (), key="collective")
    local_channels: tuple[LocalChannelSpec, ...] = spec_field(Seq(LocalChannelSpec), (), key="local")
    drives: tuple[DriveSpec, ...] = spec_field(Seq(DriveSpec), ())
    frame: str = spec_field(as_text, "rotating")
    frame_frequency: float = spec_field(as_real, 1.0, key=None)  # a file gives it in "frame"
    dimension_cap: int = spec_field(as_integer, DEFAULT_DIMENSION_CAP)

    def __post_init__(self):
        check_fields(self)
        ones = (1.0,) * len(self.emitters)  # the weights of a channel that gives none
        object.__setattr__(self, "collective_channels", tuple(
            ch if ch.weights is not None else replace(ch, weights=ones) for ch in self.collective_channels))
        if not self.emitters:
            raise ValidationError("at least one emitter is required")
        if self.frame not in ("lab", "rotating"):
            raise ValidationError(f"frame must be 'lab' or 'rotating', got {self.frame!r}")
        for ch in self.collective_channels:
            if len(ch.weights) != len(self.emitters):
                raise ValidationError(
                    "collective channel needs one weight per emitter "
                    f"({len(self.emitters)}), got {len(ch.weights)}"
                )
        dim = math.prod(e.levels for e in self.emitters)
        if dim > self.dimension_cap:  # `str` refuses an integer of thousands of digits: give a large one by its order
            shown = dim if dim < 10**15 else f"about 10^{math.log10(dim):.0f}"
            raise DimensionCapExceeded(f"Hilbert dimension {shown} exceeds cap {self.dimension_cap}")
        for ch in self.collective_channels:
            active = [j for j, w in enumerate(ch.weights) if w != 0]
            for j in active:
                self._check_transition(j, ch.transitions[j])
            if len(active) < 2:
                raise ValidationError(
                    "collective channel needs >= 2 emitters with nonzero weight "
                    "(use a local channel for a single emitter)"
                )
        for ch in (*self.local_channels, *self.drives):
            self._check_transition(ch.emitter_index, ch.transition)
        if self.drives and self.frame != "rotating":
            raise ValidationError("drives are only representable in the rotating frame")

    def layout(self) -> DimsLayout:
        return DimsLayout(tuple(e.levels for e in self.emitters))

    def _check_transition(self, j: int, transition: tuple[int, int]) -> None:
        if not 0 <= j < len(self.emitters):
            raise ValidationError(f"emitter index {j} out of range")
        u, l = transition
        levels = self.emitters[j].levels
        if not (0 <= l < u < levels):
            raise InvalidTransition(f"transition {u}->{l} invalid for emitter {j} with {levels} levels")


@dataclass(frozen=True, eq=False)
class ModelOperators:
    """Compiled operators on the full tensor-product space, dense ``(dim, dim)`` complex arrays.

    ``jumps`` lists ``(rate, operator)`` pairs, collective channels first
    (the first ``n_collective`` entries), then local channels; each
    operator is a sum of single-emitter lowerings |l><u|, so its entries
    are the channel's weights (1 for a local channel) and zeros.
    ``hamiltonian`` is the evolution generator in the chosen frame.
    ``levels`` (`basis_levels` of ``layout``) and ``free_energies`` (the
    diagonal of the drive-free lab-frame energy operator) are read-only
    tables over the basis indices that the readout uses.  ``_dark_cache``
    holds the per-model constants of the readout, each built on first use
    and read-only: the dark subspaces of `observables.dark_subspace` (keyed
    by sector number) and their projector, `observables.dark_projector`
    (keyed ``"projector"``).
    """

    dim: int
    hamiltonian: np.ndarray
    free_energies: np.ndarray
    levels: np.ndarray
    jumps: tuple[tuple[float, np.ndarray], ...]
    n_collective: int
    layout: DimsLayout
    system: SystemSpec
    _dark_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def collective_ops(self) -> tuple[np.ndarray, ...]:
        """Jump operators of the collective channels with nonzero rate."""
        return tuple(op for rate, op in self.jumps[: self.n_collective] if rate > 0)


# ---------------------------------------------------------------------------
# Basis bookkeeping
# ---------------------------------------------------------------------------


def basis_levels(layout: DimsLayout) -> np.ndarray:
    """Level of emitter ``j`` in flat basis index ``i`` at ``[j, i]``."""
    total = layout.total_dim
    levels = np.empty((layout.n_subsystems, total), dtype=int)
    stride = total
    for j, d in enumerate(layout.subsystem_dims):
        stride //= d
        levels[j] = (np.arange(total) // stride) % d
    return levels


def basis_index(layout: DimsLayout, levels: Sequence[int]) -> int:
    if len(levels) != layout.n_subsystems:
        raise DimensionMismatch(
            f"expected {layout.n_subsystems} levels, got {len(levels)}"
        )
    idx = 0
    for level, d in zip(levels, layout.subsystem_dims):
        level = as_integer(level, "levels")
        if not 0 <= level < d:
            raise DimensionMismatch(f"level {level} out of range for local dim {d}")
        idx = idx * d + level
    return idx


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------


def _transition_entries(layout: DimsLayout, level_at: np.ndarray, j: int, transition) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the unit entries of |l><u| on emitter ``j``, lifted to the full space.

    ``level_at`` is `basis_levels` of ``layout``.  Column i with emitter
    ``j`` in level u has its entry in row i - (u - l) stride_j, the index
    with that emitter lowered to l; stride_j is the product of the local
    dimensions right of ``j``.  The transition is one that `SystemSpec`
    has checked, 0 <= l < u < levels of ``j``, so no row wraps round.
    """
    u, l = transition
    cols = np.flatnonzero(level_at[j] == u)
    return cols - (u - l) * int(np.prod(layout.subsystem_dims[j + 1 :])), cols


def build_model(spec: SystemSpec) -> ModelOperators:
    """Compile a `SystemSpec`, checked when it was built, into Hamiltonian and jump operators.

    `basis_levels` is computed once and kept as ``levels``; every operator
    is written entry by entry from it: the free and frame energies on the
    diagonal (the free ones kept as the vector ``free_energies``), and each
    drive and lowering at the entries of its single-emitter transitions
    (`_transition_entries`).  No tensor product is formed.
    """
    layout = spec.layout()
    dim = layout.total_dim

    # The free and frame energies are diagonal: emitter j adds its level's value at each basis index.
    level_at = basis_levels(layout)
    free = np.zeros(dim)
    frame = np.zeros(dim)
    for j, emitter in enumerate(spec.emitters):
        freqs = np.asarray(emitter.level_frequencies)
        offsets = np.arange(emitter.levels) * spec.frame_frequency if spec.frame == "rotating" else 0.0
        free += freqs[level_at[j]]
        frame += (freqs - offsets)[level_at[j]]

    frame_h = np.zeros((dim, dim), dtype=np.complex128)
    for dr in spec.drives:
        rows, cols = _transition_entries(layout, level_at, dr.emitter_index, dr.transition)
        frame_h[rows, cols] += dr.amplitude
        frame_h[cols, rows] += dr.amplitude
        if dr.drive_detuning != 0.0:
            frame += dr.drive_detuning * (level_at[dr.emitter_index] == dr.transition[0])
    frame_h[np.diag_indices(dim)] += frame

    # Each jump sums (emitter, weight, transition) terms: one per nonzero collective weight, one of weight 1 per local channel.
    emitters = range(len(spec.emitters))
    channels = [(ch.rate, zip(emitters, ch.weights, ch.transitions)) for ch in spec.collective_channels]
    channels += [(ch.rate, [(ch.emitter_index, 1.0, ch.transition)]) for ch in spec.local_channels]
    jumps = []
    for rate, terms in channels:
        op = np.zeros((dim, dim), dtype=np.complex128)
        for j, w, transition in terms:
            if w != 0:
                op[_transition_entries(layout, level_at, j, transition)] += w
        jumps.append((rate, op))

    level_at.flags.writeable = False
    free.flags.writeable = False
    return ModelOperators(
        dim=dim,
        hamiltonian=frame_h,
        free_energies=free,
        levels=level_at,
        jumps=tuple(jumps),
        n_collective=len(spec.collective_channels),
        layout=layout,
        system=spec,
    )


# ---------------------------------------------------------------------------
# Initial states
# ---------------------------------------------------------------------------


@spec_class
class StateSpec:
    """A named state, an amplitude table, or a convex mixture of states.

    Exactly one of ``label``, ``amplitudes``, ``mixture`` is set; a table or
    mixture has at least one entry.
    """

    label: str | None = spec_field(Opt(as_text), None)
    amplitudes: tuple[tuple[str, complex], ...] | None = spec_field(Opt(Seq((as_text, as_complex))), None)
    mixture: tuple[tuple[float, StateSpec], ...] | None = spec_field(Opt(Seq((as_real, "StateSpec"))), None)

    def __post_init__(self):
        check_fields(self)
        if sum(x is not None for x in (self.label, self.amplitudes, self.mixture)) != 1:
            raise ValidationError("StateSpec needs exactly one of label/amplitudes/mixture")
        if any(entries is not None and not entries for entries in (self.amplitudes, self.mixture)):
            raise ValidationError("an amplitude table or mixture needs at least one entry")

    @staticmethod
    def named(label: str) -> "StateSpec":
        return StateSpec(label=label)


# The amplitude tables of the named superpositions, normalised when resolved.
_NAMED_STATES = {
    "psi_plus": (("10", 1.0), ("01", 1.0)),
    "psi_minus": (("10", 1.0), ("01", -1.0)),
    "W": (("100", 1.0), ("010", 1.0), ("001", 1.0)),
    "psi1": (("100", 1.0), ("010", 1.0), ("001", 1.0)),
    "psi2": (("100", 2.0), ("010", -1.0), ("001", -1.0)),
    "psi3": (("010", 1.0), ("001", -1.0)),
}


def _unit_vector(amplitudes: Sequence[tuple[str, complex]], layout: DimsLayout) -> np.ndarray:
    """The normalised sum of ``amplitude * |label>`` over an amplitude table.  A label is a basis string: one
    ASCII digit per emitter, its level, leftmost digit = emitter 0."""
    vec = np.zeros(layout.total_dim, dtype=np.complex128)
    for label, amp in amplitudes:
        levels = tuple(map(int, label)) if label.isascii() and label.isdigit() else ()
        if len(levels) != layout.n_subsystems or any(lv >= d for lv, d in zip(levels, layout.subsystem_dims)):
            raise UnknownLabel(f"label {label!r} is not a basis string of one digit per emitter below {layout.subsystem_dims}")
        vec[basis_index(layout, levels)] += amp
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise NonNormalizable("amplitude table sums to the zero vector")
    return vec / norm


def named_state_vector(label: str, layout: DimsLayout) -> np.ndarray:
    """Resolve a named pure state to a normalized vector: its amplitude table, normalised by `_unit_vector`
    as `state_vector` normalises a table it is given.

    Names: basis strings of ASCII digits (a table of one entry), "vacuum" (all
    digits 0), the two-emitter "psi_plus"/"psi_minus" and the three-emitter
    single-excitation "W" (= "psi1"), "psi2" and "psi3", whose tables are
    `_NAMED_STATES`.
    """
    n = layout.n_subsystems
    if label == "vacuum":
        table = (("0" * n, 1.0),)
    elif label in _NAMED_STATES:
        table = _NAMED_STATES[label]
        if len(table[0][0]) != n:
            raise UnknownLabel(f"{label!r} requires exactly {len(table[0][0])} emitters, layout has {n}")
    elif label.isascii() and label.isdigit():
        table = ((label, 1.0),)
    else:
        raise UnknownLabel(f"unknown state label {label!r}")
    return _unit_vector(table, layout)


def state_vector(spec: StateSpec, layout: DimsLayout) -> np.ndarray:
    """Resolve a pure `StateSpec` (label or amplitudes) to a unit vector."""
    if spec.label is not None:
        return named_state_vector(spec.label, layout)
    if spec.amplitudes is not None:
        return _unit_vector(spec.amplitudes, layout)
    raise NonNormalizable("a mixture has no single state vector")


def build_initial_state(spec: StateSpec, layout: DimsLayout) -> np.ndarray:
    """Resolve a `StateSpec` to a density matrix (pure states as rank-1)."""
    if spec.mixture is not None:
        weights = np.array([w for w, _ in spec.mixture], dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise NonNormalizable("mixture weights must be >= 0 with positive sum")
        weights = weights / weights.sum()
        rho = np.zeros((layout.total_dim, layout.total_dim), dtype=np.complex128)
        for w, part in zip(weights, (s for _, s in spec.mixture)):
            rho += w * build_initial_state(part, layout)
        return rho
    vec = state_vector(spec, layout)
    return np.outer(vec, vec.conj())
