"""Readout quantities: energy, overlaps, entanglement, dark-space structure.

The quantity reported as "fidelity" throughout the package is the plain
overlap ``<target|rho|target>``; the square-root variant is available
separately as `dark_overlap_sqrt` / the ``fidelity_sqrt`` column.  Both are
emitted so either convention can be read off.

Validation lives at the public functions: each checks its input before it
reads anything off (`energy`, `nes_report` and `log_negativity` a finite
state of the layout's dimension, the overlaps a unit target of the state's
dimension).  Behind them, for a checked state, are the formulas
`mean_energy`, `overlap` and `overlap_sqrt` and the functions of it compiled
once per model by `nes_values(model)` and `negativity(layout, bipartition)`;
`run_scenario`'s columns read the grid-point state `evolve` checked with them.
The formulas also read a ``(k, dim, dim)`` stack: `numpy.vecdot` takes each
state's dot product as ``@`` and `numpy.vdot` take one state's, bit for bit.
`negativity` traces down and transposes with `linalg._reduction`, the
builder that the checked `partial_trace` calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonNormalizable
from .linalg import (
    DimsLayout,
    _reduction,
    as_complex_matrix,
    as_integer,
    dagger,
    kernel_basis,
    trace_norm_hermitian,
)
# `perfbench/tracer.py` wraps `partial_trace` under this name, and a traced run stops when it is gone; unused here.
from .linalg import partial_trace  # noqa: F401
from .model import ModelOperators

# `nes_report` counts a state as non-equilibrium above this excitation spread.
NES_EQUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DarkSubspace:
    """Orthonormal basis of the collective-jump kernel within one sector.

    ``basis`` holds the vectors as columns of a ``(dim, dimension)`` array
    in full-space coordinates.
    """

    sector: int
    basis: np.ndarray
    dimension: int


@dataclass(frozen=True)
class NesReport:
    """Non-equilibrium diagnostic of a state.

    ``per_emitter_excitation[j]`` is the probability that emitter ``j`` is
    not in its ground level; ``dark_weight`` is the total population on the
    dark subspaces of all excited sectors (the vacuum is not counted).
    """

    per_emitter_excitation: tuple[float, ...]
    dark_weight: float
    is_nonequilibrium: bool


def mean_energy(rho: np.ndarray, free_energies: np.ndarray) -> float:
    """`energy` of a checked ``(dim, dim)`` state: ``free_energies`` dotted with its populations."""
    if rho.ndim > 2:
        return np.vecdot(free_energies, rho.diagonal(axis1=1, axis2=2).real)
    return float(free_energies @ rho.diagonal().real)


def overlap(rho: np.ndarray, target: np.ndarray) -> float:
    """`dark_overlap` of a checked state and a unit complex target vector of its dimension."""
    return np.vecdot(target, rho @ target).real if rho.ndim > 2 else float(np.vdot(target, rho @ target).real)


def overlap_sqrt(rho: np.ndarray, target: np.ndarray) -> float:
    """`dark_overlap_sqrt` of a checked state and a unit complex target vector of its dimension."""
    if rho.ndim > 2:  # math.sqrt rounds as np.sqrt does
        return [math.sqrt(max(value, 0.0)) for value in overlap(rho, target).tolist()]
    return float(np.sqrt(max(overlap(rho, target), 0.0)))


def energy(rho, model: ModelOperators) -> float:
    """Mean energy tr(rho H_free) against the lab-frame free Hamiltonian.

    H_free is diagonal, so this is ``free_energies`` dotted with the
    populations.  Level populations are frame-invariant, so this is valid
    for states evolved in either frame.
    """
    return mean_energy(model.layout.check_matrix(rho), model.free_energies)


def _checked_overlap_input(rho, target) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and ``target`` as complex arrays.

    Refuses a non-unit target, then a state that is not a finite square
    matrix (`as_complex_matrix`) of the target's dimension.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(target))
    if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise NonNormalizable(f"target vector norm {norm} != 1")
    rho = as_complex_matrix(rho, square=True, name="rho")
    if rho.shape[0] != target.size:
        raise DimensionMismatch(f"state dim {rho.shape} vs target dim {target.size}")
    return rho, target


def dark_overlap(rho, target: np.ndarray) -> float:
    """Population overlap <target|rho|target> of a normalized pure target."""
    return overlap(*_checked_overlap_input(rho, target))


def dark_overlap_sqrt(rho, target: np.ndarray) -> float:
    """Square root of `dark_overlap` (the literal-formula fidelity variant)."""
    return overlap_sqrt(*_checked_overlap_input(rho, target))


def bipartition_groups(bipartition, n_emitters: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both groups sorted; `DimensionMismatch` unless two disjoint non-empty groups of emitters below ``n_emitters``."""
    groups = tuple(tuple(sorted(as_integer(i, "bipartition") for i in group)) for group in bipartition)
    flat = sum(groups, ())
    if len(groups) != 2 or not all(groups) or len(set(flat)) < len(flat):
        raise DimensionMismatch(f"bipartition {bipartition} must be two disjoint non-empty groups of distinct emitters")
    if any(i < 0 or i >= n_emitters for i in flat):
        raise DimensionMismatch(f"bipartition {bipartition} out of range for {n_emitters} emitters")
    return groups


def negativity(layout: DimsLayout, bipartition) -> Callable[[np.ndarray], float]:
    """`log_negativity` of a checked state of ``layout``: the groups checked once, and the state traced down to
    the emitters of both groups and transposed on the second by one `_reduction`."""
    group_a, group_b = bipartition_groups(bipartition, layout.n_subsystems)
    reduce = _reduction(layout, tuple(sorted(group_a + group_b)), group_b)
    return lambda rho: float(np.log2(trace_norm_hermitian(reduce(rho))))


def log_negativity(
    rho,
    layout: DimsLayout,
    bipartition: tuple[Sequence[int], Sequence[int]] = ((0,), (1,)),
) -> float:
    """log2 of the trace norm of the partial transpose across a bipartition.

    ``bipartition`` names two disjoint non-empty groups of distinct integer
    emitter indices.  If they do not cover all emitters, the remaining ones
    are traced out first, so for larger networks a named pair yields the
    pairwise entanglement of the reduced two-emitter state.
    """
    return negativity(layout, bipartition)(layout.check_matrix(rho))


def dark_subspace(model: ModelOperators, sector: int) -> DarkSubspace:
    """Joint kernel of all collective jump operators within one sector.

    The sector holds the basis indices whose ``model.levels`` sum to
    ``sector``.  Computed once per sector and kept on ``model``; repeat
    calls return the same object, whose basis is read-only.
    """
    cached = model._dark_cache.get(sector)
    if cached is not None:
        return cached
    idx = np.flatnonzero(model.levels.sum(axis=0) == sector)
    basis = np.zeros((model.dim, 0), np.complex128)
    if idx.size:
        restricted = [op[:, idx] for op in model.collective_ops] or [np.zeros((1, idx.size), np.complex128)]
        local = kernel_basis(np.vstack(restricted))
        basis = np.zeros((model.dim, local.shape[1]), dtype=np.complex128)
        basis[idx, :] = local
    basis.flags.writeable = False
    result = DarkSubspace(sector=sector, basis=basis, dimension=basis.shape[1])
    model._dark_cache[sector] = result
    return result


def dark_projector(model: ModelOperators) -> np.ndarray:
    """Projector onto the dark subspaces of all excited sectors k >= 1.

    Built once per model and kept on it; repeat calls return the same
    read-only array.
    """
    proj = model._dark_cache.get("projector")
    if proj is None:
        proj = np.zeros((model.dim, model.dim), dtype=np.complex128)
        kmax = sum(model.layout.subsystem_dims) - model.layout.n_subsystems
        for k in range(1, kmax + 1):
            basis = dark_subspace(model, k).basis
            if basis.shape[1]:
                proj += basis @ dagger(basis)
        proj.flags.writeable = False
        model._dark_cache["projector"] = proj
    return proj


def nes_values(model: ModelOperators) -> Callable[[np.ndarray], tuple[float, ...]]:
    """`nes_report` of a checked state as ``(*per_emitter_excitation, dark_weight, is_nonequilibrium)``, all floats."""
    ground = (model.levels == 0).astype(float)  # ground[j, i]: basis index i has emitter j in level 0
    projector = dark_projector(model)

    def values(rho: np.ndarray) -> tuple[float, ...]:
        excitations = 1.0 - ground @ np.diagonal(rho).real
        weight = np.einsum("ij,ji->", projector, rho).real
        spread = excitations.max() - excitations.min()
        return (*excitations.tolist(), float(weight), float(spread > NES_EQUAL_TOL))

    return values


def nes_report(rho, model: ModelOperators) -> NesReport:
    """Per-emitter excitation and dark weight of ``rho``.

    Both are linear in ``rho`` and read off with per-model constants
    (`nes_values`): ``excitation_j = 1 - sum_{i: level_j(i) = 0} rho_ii``
    and ``dark_weight = tr(P_dark rho)`` with ``P_dark = dark_projector(model)``,
    the projector onto the dark subspaces of every sector k >= 1.  The state
    counts as non-equilibrium when the excitations differ by more than
    ``NES_EQUAL_TOL``.
    """
    *excitations, weight, nonequilibrium = nes_values(model)(model.layout.check_matrix(rho))
    return NesReport(tuple(excitations), weight, bool(nonequilibrium))

