"""Random systems and states shared by the property tests, and the formulas the tests check the library against.

`random_system` draws a random qubit/qutrit `SystemSpec` from an ``rng`` and
hypothesis-drawn sizes, and `random_model` builds it; every draw comes from
the seeded ``rng``, so a failing example reproduces from its seed.
`lindblad_rhs`, `partial_transpose` and `trace_distance` are the textbook
formulas, written independently of the library's compiled forms, and
`single_excitation_states` the exact evolution of one excitation, built from
the spec values alone.
"""

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm

import subrad as sr


def random_density(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


LEVELS = st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4).filter(lambda ls: int(np.prod(ls)) <= 16)


def random_system(rng, levels, n_collective, n_local, driven):
    """Random qubit/qutrit system: mixed-size collective transitions, optional local loss and drive."""
    n = len(levels)

    def transition(j):
        upper = int(rng.integers(1, levels[j]))
        return (upper, int(rng.integers(0, upper)))

    emitters = tuple(
        sr.EmitterSpec(d, (0.0, *np.cumsum(1.0 + rng.uniform(-0.3, 0.3, d - 1)))) for d in levels
    )
    collective = []
    for _ in range(n_collective):
        weights = rng.normal(size=n) + 1j * rng.normal(size=n)
        weights[rng.permutation(n)[2:]] *= rng.integers(0, 2, n - 2)  # at least two stay active
        collective.append(
            sr.CollectiveChannelSpec(rng.uniform(0.05, 0.5), weights, tuple(transition(j) for j in range(n)))
        )
    local = []
    for _ in range(n_local):
        j = int(rng.integers(n))
        local.append(sr.LocalChannelSpec(rng.uniform(0.05, 0.5), j, transition(j)))
    drives = ()
    if driven:
        j = int(rng.integers(n))
        drives = (sr.DriveSpec(rng.uniform(0.1, 0.5), j, transition(j), rng.uniform(-0.2, 0.2)),)
    return sr.SystemSpec(emitters, tuple(collective), tuple(local), drives)


def random_model(rng, levels, n_collective, n_local, driven):
    """`random_system` built into operators."""
    return sr.build_model(random_system(rng, levels, n_collective, n_local, driven))


def random_sector_state(rng, model):
    """Random density matrix on a random nonempty union of excitation sectors, and its support."""
    exc = model.levels.sum(axis=0)
    sectors = np.unique(exc)
    chosen = sectors[rng.random(sectors.size) < 0.5]
    if chosen.size == 0:
        chosen = sectors[rng.integers(sectors.size, size=1)]
    support = np.flatnonzero(np.isin(exc, chosen))
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[np.ix_(support, support)] = random_density(rng, support.size)
    return rho0, support


def lindblad_rhs(model, rho):
    """The master equation as the `dynamics` module docstring writes it, term by term.

    -i[H, rho] + sum rate (2 L rho L† - L†L rho - rho L†L), over ``model.jumps``.
    """
    out = -1j * (model.hamiltonian @ rho - rho @ model.hamiltonian)
    for rate, op in model.jumps:
        op_dag = op.conj().T
        out += rate * (2.0 * op @ rho @ op_dag - op_dag @ op @ rho - rho @ op_dag @ op)
    return out


def partial_transpose(rho, dims, subsystem):
    """``rho`` with the ket and bra indices of one subsystem of ``dims`` swapped: one reshape and axis swap."""
    n = len(dims)
    return np.swapaxes(rho.reshape(tuple(dims) * 2), subsystem, n + subsystem).reshape(rho.shape)


def trace_distance(a, b):
    """Half the sum of the absolute eigenvalues of the Hermitian difference a - b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def single_excitation_states(system, c0, c1, times):
    """The exact states at ``times`` of undriven qubits from c0 |vacuum> + sum_j c1[j] |1_j>, from the spec values.

    Under collective and local decay the vacuum and the single-excitation states |1_j> span a closed block
    (Lehmberg, PRA 2, 883 (1970)): psi(t) = exp(-i H_nh t) c1 with
    H_nh = diag(omega_j - omega_frame) - i sum_c rate_c conj(w_c) w_c^T - i diag(local rates), the vacuum
    population is |c0|^2 + |c1|^2 - |psi|^2 and the coherence with the vacuum is c0 conj(psi).  Emitter 0 is the
    leftmost tensor factor, so |1_j> is basis index 2^(N-1-j).
    """
    n = len(system.emitters)
    frame = system.frame_frequency if system.frame == "rotating" else 0.0
    h_nh = np.diag([emitter.level_frequencies[1] - frame for emitter in system.emitters]).astype(complex)
    for channel in system.collective_channels:
        w = np.asarray(channel.weights)
        h_nh -= 1j * channel.rate * np.outer(w.conj(), w)
    for channel in system.local_channels:
        h_nh[channel.emitter_index, channel.emitter_index] -= 1j * channel.rate
    index = np.ix_(*[[0] + [2 ** (n - 1 - j) for j in range(n)]] * 2)
    states = np.zeros((len(times), 2**n, 2**n), dtype=complex)
    for state, t in zip(states, times):
        psi = expm(-1j * h_nh * t) @ c1
        amplitudes = np.concatenate([[c0], psi])
        block = np.outer(amplitudes, amplitudes.conj())
        block[0, 0] = abs(c0) ** 2 + np.vdot(c1, c1).real - np.vdot(psi, psi).real
        state[index] = block
    return states
