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
* Input values: one checker per kind (`as_integer`, `as_real`, `as_complex`,
  `as_text`, `as_flag`, `as_transition`), shared by the spec constructors
  (naming the field) and the scenario-file reader (naming the JSON path).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidTransition,
    NonNormalizable,
    UnknownLabel,
    ValidationError,
)
from .linalg import DimsLayout

DEFAULT_DIMENSION_CAP = 256


def as_integer(value, name: str) -> int:
    """``value`` as an int; like a file, a spec's integer field refuses a boolean or non-integral value."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


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


# ---------------------------------------------------------------------------
# System description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmitterSpec:
    """One emitter: a ladder of ``levels`` states with fixed lab frequencies.

    ``level_frequencies[0]`` must be 0 and the list strictly increasing.
    The level index doubles as the excitation count of that level.
    """

    levels: int
    level_frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(as_real(f, "level_frequencies") for f in self.level_frequencies)
        object.__setattr__(self, "level_frequencies", freqs)
        object.__setattr__(self, "levels", as_integer(self.levels, "levels"))
        if self.levels < 2:
            raise ValidationError(f"emitter needs >= 2 levels, got {self.levels}")
        if len(freqs) != self.levels:
            raise ValidationError(
                f"expected {self.levels} level frequencies, got {len(freqs)}"
            )
        if freqs[0] != 0.0:
            raise ValidationError("level 0 frequency must be 0")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValidationError(f"level frequencies must be strictly increasing: {freqs}")

    @staticmethod
    def qubit(frequency: float = 1.0) -> "EmitterSpec":
        return EmitterSpec(2, (0.0, frequency))


@dataclass(frozen=True)
class CollectiveChannelSpec:
    """A shared decay channel: one jump operator summing weighted lowerings.

    ``weights[j]`` multiplies the lowering operator of emitter ``j`` on
    ``transitions[j]``; complex weights carry the relative dissipation
    phases.  Emitters with weight 0 do not participate.  The transitions
    default to one ``(1, 0)`` per weight.
    """

    rate: float
    weights: tuple[complex, ...]
    transitions: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "rate", as_real(self.rate, "rate"))
        object.__setattr__(self, "weights", tuple(as_complex(w, "weights") for w in self.weights))
        transitions = ((1, 0),) * len(self.weights) if self.transitions is None else self.transitions
        object.__setattr__(self, "transitions", tuple(as_transition(t, "transitions") for t in transitions))
        if self.rate < 0:
            raise ValidationError(f"collective rate must be >= 0, got {self.rate}")
        if len(self.weights) != len(self.transitions):
            raise ValidationError("weights and transitions must have equal length")


@dataclass(frozen=True)
class LocalChannelSpec:
    """An independent decay channel on a single emitter transition."""

    rate: float
    emitter_index: int
    transition: tuple[int, int] = (1, 0)

    def __post_init__(self):
        object.__setattr__(self, "rate", as_real(self.rate, "rate"))
        object.__setattr__(self, "emitter_index", as_integer(self.emitter_index, "emitter_index"))
        object.__setattr__(self, "transition", as_transition(self.transition, "transition"))
        if self.rate < 0:
            raise ValidationError(f"local rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class DriveSpec:
    """A coherent pump on one transition, static in the rotating frame.

    Enters the Hamiltonian as ``amplitude * (|u><l| + |l><u|)`` plus
    ``drive_detuning * |u><u|`` (a positive detuning shifts the upper
    level up relative to exact resonance with the pump).
    """

    amplitude: float
    emitter_index: int
    transition: tuple[int, int]
    drive_detuning: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_real(self.amplitude, "amplitude"))
        object.__setattr__(self, "emitter_index", as_integer(self.emitter_index, "emitter_index"))
        object.__setattr__(self, "transition", as_transition(self.transition, "transition"))
        object.__setattr__(self, "drive_detuning", as_real(self.drive_detuning, "drive_detuning"))


@dataclass(frozen=True)
class SystemSpec:
    """Complete declarative description of an emitter network, checked as a whole when it is built."""

    emitters: tuple[EmitterSpec, ...]
    collective_channels: tuple[CollectiveChannelSpec, ...] = ()
    local_channels: tuple[LocalChannelSpec, ...] = ()
    drives: tuple[DriveSpec, ...] = ()
    frame: str = "rotating"
    frame_frequency: float = 1.0
    dimension_cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "collective_channels", tuple(self.collective_channels))
        object.__setattr__(self, "local_channels", tuple(self.local_channels))
        object.__setattr__(self, "drives", tuple(self.drives))
        object.__setattr__(self, "frame_frequency", as_real(self.frame_frequency, "frame_frequency"))
        object.__setattr__(self, "dimension_cap", as_integer(self.dimension_cap, "dimension_cap"))
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
        dim = 1
        for e in self.emitters:
            dim *= e.levels
        if dim > self.dimension_cap:
            raise DimensionCapExceeded(
                f"Hilbert dimension {dim} exceeds cap {self.dimension_cap}"
            )
        for ch in self.collective_channels:
            active = 0
            for j, (w, (u, l)) in enumerate(zip(ch.weights, ch.transitions)):
                if w == 0:
                    continue
                active += 1
                self._check_transition(j, (u, l))
            if active < 2:
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

    def _check_emitter(self, j: int) -> None:
        if not 0 <= j < len(self.emitters):
            raise ValidationError(f"emitter index {j} out of range")

    def _check_transition(self, j: int, transition: tuple[int, int]) -> None:
        self._check_emitter(j)
        u, l = transition
        levels = self.emitters[j].levels
        if not (0 <= l < u < levels):
            raise InvalidTransition(
                f"transition {u}->{l} invalid for emitter {j} with {levels} levels"
            )


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
    by sector number), the projector of `observables.dark_projector` (keyed
    ``"projector"``) and the ground-level indicator of
    `observables.nes_report` (keyed ``"ground"``).
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
        level = int(level)
        if not 0 <= level < d:
            raise DimensionMismatch(f"level {level} out of range for local dim {d}")
        idx = idx * d + level
    return idx


def basis_vector(layout: DimsLayout, levels: Sequence[int]) -> np.ndarray:
    vec = np.zeros(layout.total_dim, dtype=np.complex128)
    vec[basis_index(layout, levels)] = 1.0
    return vec


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


@dataclass(frozen=True)
class StateSpec:
    """A named state, an amplitude table, or a convex mixture of states.

    Exactly one of ``label``, ``amplitudes``, ``mixture`` is set; a table or
    mixture has at least one entry.
    """

    label: str | None = None
    amplitudes: tuple[tuple[str, complex], ...] | None = None
    mixture: tuple[tuple[float, "StateSpec"], ...] | None = None

    def __post_init__(self):
        set_fields = sum(x is not None for x in (self.label, self.amplitudes, self.mixture))
        if set_fields != 1:
            raise ValidationError("StateSpec needs exactly one of label/amplitudes/mixture")
        if any(entries is not None and not entries for entries in (self.amplitudes, self.mixture)):
            raise ValidationError("an amplitude table or mixture needs at least one entry")
        object.__setattr__(self, "label", None if self.label is None else as_text(self.label, "label"))
        if self.amplitudes is not None:
            amps = tuple((as_text(k, "amplitudes"), as_complex(v, "amplitudes")) for k, v in self.amplitudes)
            object.__setattr__(self, "amplitudes", amps)
        if self.mixture is not None:
            object.__setattr__(self, "mixture", tuple((as_real(w, "mixture"), s) for w, s in self.mixture))

    @staticmethod
    def named(label: str) -> "StateSpec":
        return StateSpec(label=label)

    @staticmethod
    def from_amplitudes(amps: Mapping[str, complex]) -> "StateSpec":
        return StateSpec(amplitudes=tuple(amps.items()))

    @staticmethod
    def mix(parts: Sequence[tuple[float, "StateSpec"]]) -> "StateSpec":
        return StateSpec(mixture=tuple(parts))


def parse_basis_label(label: str, layout: DimsLayout) -> tuple[int, ...]:
    """Digit-string label -> per-site levels, leftmost digit = emitter 0."""
    if len(label) != layout.n_subsystems or not label.isdigit():
        raise UnknownLabel(
            f"label {label!r} is not a {layout.n_subsystems}-digit basis string"
        )
    levels = tuple(int(ch) for ch in label)
    for level, d in zip(levels, layout.subsystem_dims):
        if level >= d:
            raise UnknownLabel(f"label {label!r}: level {level} out of range (dim {d})")
    return levels


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)


def named_state_vector(label: str, layout: DimsLayout) -> np.ndarray:
    """Resolve a named pure state to a normalized vector.

    Supported: digit basis strings, "vacuum", the two-emitter
    superpositions "psi_plus"/"psi_minus", and the three-emitter
    single-excitation family "W" (= "psi1"), "psi2", "psi3".
    """
    n = layout.n_subsystems

    def basis(s: str) -> np.ndarray:
        return basis_vector(layout, parse_basis_label(s, layout))

    if label == "vacuum":
        return basis_vector(layout, (0,) * n)
    if label in ("psi_plus", "psi_minus"):
        if n != 2:
            raise UnknownLabel(f"{label!r} requires exactly 2 emitters, layout has {n}")
        sign = 1.0 if label == "psi_plus" else -1.0
        return (basis("10") + sign * basis("01")) / _SQRT2
    if label in ("W", "psi1", "psi2", "psi3"):
        if n != 3:
            raise UnknownLabel(f"{label!r} requires exactly 3 emitters, layout has {n}")
        if label in ("W", "psi1"):
            return (basis("100") + basis("010") + basis("001")) / _SQRT3
        if label == "psi2":
            return (2.0 * basis("100") - basis("010") - basis("001")) / _SQRT6
        return (basis("010") - basis("001")) / _SQRT2
    if label.isdigit():
        return basis(label)
    raise UnknownLabel(f"unknown state label {label!r}")


def state_vector(spec: StateSpec, layout: DimsLayout) -> np.ndarray:
    """Resolve a pure `StateSpec` (label or amplitudes) to a unit vector."""
    if spec.label is not None:
        return named_state_vector(spec.label, layout)
    if spec.amplitudes is not None:
        vec = np.zeros(layout.total_dim, dtype=np.complex128)
        for label, amp in spec.amplitudes:
            vec[basis_index(layout, parse_basis_label(label, layout))] += amp
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise NonNormalizable("amplitude table sums to the zero vector")
        return vec / norm
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
