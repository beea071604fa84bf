"""Independent reference for the ``sweep`` workload's two-qubit points.

Builds the Liouvillian of the sweep's system directly from Pauli lowering
operators, without the library, and steps it exactly with a matrix
exponential over the uniform output grid.  Conventions follow the library's
documented master equation
``drho/dt = -i[H, rho] + sum_k rate_k (2 L rho L† - L†L rho - rho L†L)``,
frame rotating at 1.0, energy read against the lab-frame free Hamiltonian.
"""

from __future__ import annotations

import numpy as np

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)
_EYE4 = np.eye(4, dtype=np.complex128)
# Basis |q0 q1> with index 2*q0 + q1; "10" excites qubit 0.
_PSI_MINUS = np.array([0.0, -1.0, 1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
_INITIAL_INDEX = 2


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-20 Taylor sum."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = out.copy()
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Column-stacking superoperator of rho -> left @ rho @ right."""
    return np.kron(right.T, left)


def fit_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Decay rate r of the least-squares line log(values) ~ c - r t over positive samples."""
    mask = values > 0
    if int(mask.sum()) < 2:
        return float("nan")
    return float(-np.polyfit(times[mask], np.log(values[mask]), 1)[0])


def two_qubit_point(
    detuning: float, local_rate: float, collective_rate: float, horizon: float, points: int
) -> tuple[float, float]:
    """Final energy and fitted psi_minus-overlap decay rate, starting from |10>."""
    s0, s1 = np.kron(_LOWER, _EYE2), np.kron(_EYE2, _LOWER)
    n0, n1 = s0.conj().T @ s0, s1.conj().T @ s1
    hamiltonian = (detuning - 1.0) * n1
    jumps = ((collective_rate, s0 + s1), (local_rate, s0), (local_rate, s1))
    generator = -1j * (_superop(hamiltonian, _EYE4) - _superop(_EYE4, hamiltonian))
    for rate, op in jumps:
        decay = op.conj().T @ op
        generator += rate * (
            2.0 * _superop(op, op.conj().T) - _superop(decay, _EYE4) - _superop(_EYE4, decay)
        )
    times = np.linspace(0.0, horizon, points)
    step = _expm(generator * (times[1] - times[0]))
    free_energy = n0 + detuning * n1
    state = np.zeros(16, dtype=np.complex128)
    state[_INITIAL_INDEX * 4 + _INITIAL_INDEX] = 1.0
    overlaps = np.empty(points)
    for k in range(points):
        rho = state.reshape(4, 4, order="F")
        overlaps[k] = np.vdot(_PSI_MINUS, rho @ _PSI_MINUS).real
        if k + 1 < points:
            state = step @ state
    final_energy = float(np.trace(rho @ free_energy).real)
    return final_energy, fit_rate(times, overlaps)
