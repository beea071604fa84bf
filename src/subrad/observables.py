"""Readout quantities: energy, overlaps, entanglement, dark-space structure.

The quantity reported as "fidelity" throughout the package is the plain
overlap ``<target|rho|target>``; the square-root variant is available
separately as `dark_overlap_sqrt` / the ``fidelity_sqrt`` column.  Both are
emitted so either convention can be read off.

Validation lives at the public functions: each checks its input before it
reads anything off (`energy` a finite state of the model's dimension, the
overlaps a unit target of the state's dimension).  `mean_energy`,
`overlap` and `overlap_sqrt` are the formulas behind `energy`,
`dark_overlap` and `dark_overlap_sqrt` without those checks, for callers
whose state and constants were checked already: `run_scenario`'s columns
read the grid-point state that `evolve` checked, ``model.free_energies``
and the fidelity targets the `Scenario` resolved when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonNormalizable
from .linalg import (
    DimsLayout,
    dagger,
    kernel_basis,
    partial_trace,
    partial_transpose,
    reduced_layout,
    trace_norm_hermitian,
)
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
    return float(free_energies @ rho.diagonal().real)


def overlap(rho: np.ndarray, target: np.ndarray) -> float:
    """`dark_overlap` of a checked state and a unit complex target vector of its dimension."""
    return float(np.vdot(target, rho @ target).real)


def overlap_sqrt(rho: np.ndarray, target: np.ndarray) -> float:
    """`dark_overlap_sqrt` of a checked state and a unit complex target vector of its dimension."""
    return float(np.sqrt(max(overlap(rho, target), 0.0)))


def energy(rho, model: ModelOperators) -> float:
    """Mean energy tr(rho H_free) against the lab-frame free Hamiltonian.

    H_free is diagonal, so this is ``free_energies`` dotted with the
    populations.  Level populations are frame-invariant, so this is valid
    for states evolved in either frame.
    """
    return mean_energy(model.layout.check_matrix(rho), model.free_energies)


def _checked_overlap_input(rho, target) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and ``target`` as complex arrays, refusing a non-unit target or mismatched dimensions."""
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(target))
    if abs(norm - 1.0) > 1e-9:
        raise NonNormalizable(f"target vector norm {norm} != 1")
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (target.size, target.size):
        raise DimensionMismatch(f"state dim {rho.shape} vs target dim {target.size}")
    return rho, target


def dark_overlap(rho, target: np.ndarray) -> float:
    """Population overlap <target|rho|target> of a normalized pure target."""
    return overlap(*_checked_overlap_input(rho, target))


def dark_overlap_sqrt(rho, target: np.ndarray) -> float:
    """Square root of `dark_overlap` (the literal-formula fidelity variant)."""
    return overlap_sqrt(*_checked_overlap_input(rho, target))


def log_negativity(
    rho,
    layout: DimsLayout,
    bipartition: tuple[Sequence[int], Sequence[int]] = ((0,), (1,)),
) -> float:
    """log2 of the trace norm of the partial transpose across a bipartition.

    ``bipartition`` names two disjoint non-empty emitter groups.  If they do
    not cover all emitters, the remaining ones are traced out first, so for
    larger networks a named pair yields the pairwise entanglement of the
    reduced two-emitter state.
    """
    group_a = tuple(sorted({int(i) for i in bipartition[0]}))
    group_b = tuple(sorted({int(i) for i in bipartition[1]}))
    if not group_a or not group_b or set(group_a) & set(group_b):
        raise DimensionMismatch(f"bipartition {bipartition} must be two disjoint non-empty groups")
    n = layout.n_subsystems
    if any(i < 0 or i >= n for i in group_a + group_b):
        raise DimensionMismatch(f"bipartition {bipartition} out of range for {n} emitters")

    rho = layout.check_matrix(rho)
    kept = tuple(sorted(group_a + group_b))
    if len(kept) < n:
        rho = partial_trace(rho, layout, kept)
        layout = reduced_layout(layout, kept)
        group_b = tuple(kept.index(i) for i in group_b)

    pt = rho
    for idx in group_b:
        pt = partial_transpose(pt, layout, idx)
    return float(np.log2(trace_norm_hermitian(pt)))


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


def _ground_indicator(model: ModelOperators) -> np.ndarray:
    """``(n_emitters, dim)`` 0/1 matrix: basis index ``i`` has emitter ``j`` in level 0.

    Built once per model and kept on it, read-only.
    """
    ground = model._dark_cache.get("ground")
    if ground is None:
        ground = (model.levels == 0).astype(float)
        ground.flags.writeable = False
        model._dark_cache["ground"] = ground
    return ground


def nes_report(rho, model: ModelOperators) -> NesReport:
    """Per-emitter excitation and dark weight of ``rho``.

    Both are linear in ``rho`` and read off with per-model constants:
    ``excitation_j = 1 - sum_{i: level_j(i) = 0} rho_ii`` (one product of
    the ground-level indicator with the populations) and ``dark_weight =
    tr(P_dark rho)`` with ``P_dark = dark_projector(model)``, the projector
    onto the dark subspaces of every sector k >= 1.  Indicator and
    projector are cached on ``model``.  The state counts as
    non-equilibrium when the excitations differ by more than ``NES_EQUAL_TOL``.
    """
    rho = model.layout.check_matrix(rho)
    excitations = 1.0 - _ground_indicator(model) @ np.diagonal(rho).real
    weight = np.einsum("ij,ji->", dark_projector(model), rho).real
    spread = excitations.max() - excitations.min()
    return NesReport(
        per_emitter_excitation=tuple(excitations.tolist()),
        dark_weight=float(weight),
        is_nonequilibrium=bool(spread > NES_EQUAL_TOL),
    )


def trace_distance(a, b) -> float:
    """(1/2) trace norm of the difference of two Hermitian matrices."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * trace_norm_hermitian(a - b)
