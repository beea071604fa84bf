"""Model compilation: operator embedding, channels, frames, initial states."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subrad as sr
from subrad.errors import (
    DimensionCapExceeded,
    InvalidTransition,
    NonNormalizable,
    UnknownLabel,
    ValidationError,
)
from subrad.linalg import DimsLayout, kernel_basis, max_abs
from subrad.model import _transition_entries, basis_levels

from random_systems import LEVELS, random_system


def kron_transition(layout, j, upper, lower):
    """|lower><upper| on emitter ``j`` lifted by np.kron: the reference for the entries `build_model` writes."""
    dims = layout.subsystem_dims
    local = np.zeros((dims[j], dims[j]), dtype=complex)
    local[lower, upper] = 1.0
    return np.kron(np.kron(np.eye(int(np.prod(dims[:j]))), local), np.eye(int(np.prod(dims[j + 1 :]))))


def kron_levels(layout):
    """Level of each emitter at each basis index: the diagonals of the kron-lifted number operators."""
    return np.array([
        np.diagonal(sum(level * kron_transition(layout, j, level, level) for level in range(d))).real.astype(int)
        for j, d in enumerate(layout.subsystem_dims)
    ])


def kron_operators(spec):
    """Drive part of the Hamiltonian and the jump list of ``spec``, summed from `kron_transition` terms."""
    layout = spec.layout()
    drives = np.zeros((layout.total_dim,) * 2, dtype=complex)
    for dr in spec.drives:
        low = kron_transition(layout, dr.emitter_index, *dr.transition)
        drives += dr.amplitude * (low + low.conj().T)
    jumps = []
    for ch in spec.collective_channels:
        op = np.zeros_like(drives)
        for j, (w, transition) in enumerate(zip(ch.weights, ch.transitions)):
            if w != 0:
                op += w * kron_transition(layout, j, *transition)
        jumps.append((ch.rate, op))
    jumps += [(ch.rate, kron_transition(layout, ch.emitter_index, *ch.transition)) for ch in spec.local_channels]
    return drives, jumps


def two_qubit_spec(rate=0.001, frame="rotating", delta=0.0, alpha=0.0):
    locals_ = ()
    if alpha:
        locals_ = (sr.LocalChannelSpec(alpha, 0), sr.LocalChannelSpec(alpha, 1))
    return sr.SystemSpec(
        emitters=(sr.EmitterSpec.qubit(1.0), sr.EmitterSpec(2, (0.0, 1.0 + delta))),
        collective_channels=(sr.CollectiveChannelSpec(rate, (1, 1), ((1, 0), (1, 0))),),
        local_channels=locals_,
        frame=frame,
    )


class TestLiftSiteOperator:
    """A single-emitter lowering written into the full space at the entries `_transition_entries` gives."""

    layout = DimsLayout((2, 2))

    def lowering(self, j):
        op = np.zeros((4, 4), dtype=complex)
        op[_transition_entries(self.layout, basis_levels(self.layout), j, (1, 0))] = 1.0
        return op

    def test_lowering_on_first_site(self):
        state = np.eye(4)[2]  # |10>
        assert np.array_equal(self.lowering(0) @ state, np.eye(4)[0])

    def test_lowering_on_second_site_annihilates_ground(self):
        state = np.eye(4)[2]
        assert np.array_equal(self.lowering(1) @ state, np.zeros(4))


def collective_model(weights, transitions=None, local_channels=()):
    """A model of qubits, one per weight, with one collective channel of rate 1 and the given local channels."""
    return sr.build_model(sr.SystemSpec(
        emitters=(sr.EmitterSpec.qubit(),) * len(weights),
        collective_channels=(sr.CollectiveChannelSpec(1.0, weights, transitions),),
        local_channels=local_channels,
    ))


class TestCollectiveLowering:
    """The collective jump `build_model` writes: one weighted lowering per nonzero weight."""

    layout = DimsLayout((2, 2))

    def bell(self, sign):
        return (np.eye(4)[2] + sign * np.eye(4)[1]) / np.sqrt(2)  # (|10> + sign |01>) / sqrt(2)

    def test_equal_weights_bright_and_dark(self):
        op = collective_model((1, 1)).jumps[0][1]
        bright = op @ self.bell(+1)
        assert np.allclose(bright, np.sqrt(2) * np.eye(4)[0])
        assert np.allclose(op @ self.bell(-1), 0.0)

    def test_opposite_phase_swaps_roles(self):
        op = collective_model((1, -1)).jumps[0][1]
        assert np.allclose(op @ self.bell(-1), np.sqrt(2) * np.eye(4)[0])
        assert np.allclose(op @ self.bell(+1), 0.0)

    def test_zero_weight_leaves_the_local_lowerings_of_the_others(self):
        local = (sr.LocalChannelSpec(1.0, 0), sr.LocalChannelSpec(1.0, 2))
        model = collective_model((1, 0, 1), local_channels=local)
        (_, collective), (_, first), (_, last) = model.jumps
        assert np.array_equal(collective, first + last)
        assert np.array_equal(first, kron_transition(model.layout, 0, 1, 0))

    @pytest.mark.parametrize("transition", [(2, 0), (1, 1), (1, -1)])
    def test_invalid_transition_is_refused(self, transition):
        # the spec refuses it: the lowered row index would fall outside the emitter's ladder and wrap round
        with pytest.raises(InvalidTransition):
            collective_model((1, 1), (transition, (1, 0)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_excitation_kernel_dimension(self, n):
        model = collective_model((1,) * n)
        idx = np.flatnonzero(model.levels.sum(axis=0) == 1)
        assert kernel_basis(model.jumps[0][1][:, idx]).shape[1] == n - 1

    def test_transitions_default_to_one_lowering_per_weight(self):
        assert sr.CollectiveChannelSpec(1.0, (1, 1j, 0)).transitions == ((1, 0),) * 3


class TestBuildModel:
    def test_lab_frame_hamiltonian_and_jump(self):
        model = sr.build_model(two_qubit_spec(frame="lab"))
        assert np.allclose(model.hamiltonian, np.diag([0.0, 1.0, 1.0, 2.0]))
        assert model.n_collective == 1
        rate, op = model.jumps[0]
        assert rate == 0.001
        expected = kron_transition(model.layout, 0, 1, 0) + kron_transition(model.layout, 1, 1, 0)
        assert np.array_equal(op, expected)

    def test_rotating_frame_resonant_hamiltonian_vanishes(self):
        model = sr.build_model(two_qubit_spec())
        assert np.max(np.abs(model.hamiltonian)) == 0.0
        # the jump list is frame independent
        lab = sr.build_model(two_qubit_spec(frame="lab"))
        assert np.array_equal(model.jumps[0][1], lab.jumps[0][1])

    def test_local_channels_append_jumps(self):
        model = sr.build_model(two_qubit_spec(alpha=5e-5))
        assert len(model.jumps) == 3
        assert model.jumps[1][0] == pytest.approx(5e-5)
        assert np.array_equal(model.jumps[1][1], kron_transition(model.layout, 0, 1, 0))
        assert np.array_equal(model.jumps[2][1], kron_transition(model.layout, 1, 1, 0))

    @pytest.mark.parametrize("n, order", [(1100, 331), (14400, 4335)])
    def test_dimension_cap_message_gives_a_large_dimension_by_its_order(self, n, order):
        # 2**n has more digits than `str` prints at n = 14400; the message stays one short line
        with pytest.raises(DimensionCapExceeded, match=rf"^Hilbert dimension about 10\^{order} exceeds cap 256$"):
            sr.SystemSpec((sr.EmitterSpec.qubit(),) * n)

    def test_rotating_frame_detuning(self):
        model = sr.build_model(two_qubit_spec(delta=0.1))
        assert np.allclose(model.hamiltonian, np.diag([0.0, 0.1, 0.0, 0.1]))

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded):
            sr.build_model(sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(),) * 9,
                collective_channels=(
                    sr.CollectiveChannelSpec(1.0, (1,) * 9, ((1, 0),) * 9),
                ),
            ))

    def test_invalid_transition(self):
        with pytest.raises(InvalidTransition):
            sr.build_model(sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(), sr.EmitterSpec.qubit()),
                collective_channels=(
                    sr.CollectiveChannelSpec(1.0, (1, 1), ((2, 0), (1, 0))),
                ),
            ))

    def test_collective_channel_needs_two_participants(self):
        with pytest.raises(ValidationError):
            sr.build_model(sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(), sr.EmitterSpec.qubit()),
                collective_channels=(
                    sr.CollectiveChannelSpec(1.0, (1, 0), ((1, 0), (1, 0))),
                ),
            ))

    def test_drives_require_rotating_frame(self):
        with pytest.raises(ValidationError):
            sr.build_model(sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(), sr.EmitterSpec.qubit()),
                collective_channels=(
                    sr.CollectiveChannelSpec(1.0, (1, 1), ((1, 0), (1, 0))),
                ),
                drives=(sr.DriveSpec(1.0, 0, (1, 0)),),
                frame="lab",
            ))

    def test_random_specs_give_hermitian_hamiltonians(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            levels = [int(rng.integers(2, 4)) for _ in range(n)]
            emitters = tuple(
                sr.EmitterSpec(l, tuple(np.cumsum([0.0] + list(rng.uniform(0.5, 1.5, l - 1)))))
                for l in levels
            )
            drives = tuple(
                sr.DriveSpec(rng.uniform(-2, 2), j, (1, 0), rng.uniform(-0.5, 0.5))
                for j in range(n)
                if rng.random() < 0.5
            )
            spec = sr.SystemSpec(
                emitters=emitters,
                collective_channels=(
                    sr.CollectiveChannelSpec(
                        rng.uniform(0, 1), (1,) * n, ((1, 0),) * n
                    ),
                ),
                drives=drives,
            )
            model = sr.build_model(spec)
            assert np.max(np.abs(model.hamiltonian - model.hamiltonian.conj().T)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(levels=LEVELS, frame=st.sampled_from(["lab", "rotating"]), driven=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_diagonal_energies_equal_lifted_projector_sums(self, levels, frame, driven, seed):
        # The reference is the dense formula: one kron-lifted level projector per emitter level and drive detuning.
        spec = random_system(np.random.default_rng(seed), levels, 1, 0, driven and frame == "rotating")
        spec = replace(spec, frame=frame, frame_frequency=0.97)
        model = sr.build_model(spec)

        def projector(j, level):
            return kron_transition(model.layout, j, level, level)

        free = np.zeros((model.dim, model.dim), dtype=complex)
        frame_h = np.zeros_like(free)
        for j, emitter in enumerate(spec.emitters):
            for level in range(1, emitter.levels):
                freq = emitter.level_frequencies[level]
                free += freq * projector(j, level)
                frame_h += (freq - level * spec.frame_frequency if frame == "rotating" else freq) * projector(j, level)
        for dr in spec.drives:
            low = kron_transition(model.layout, dr.emitter_index, *dr.transition)
            frame_h += dr.amplitude * (low + low.conj().T)
            if dr.drive_detuning != 0.0:
                frame_h += dr.drive_detuning * projector(dr.emitter_index, dr.transition[0])
        assert not free[~np.eye(model.dim, dtype=bool)].any()
        assert model.free_energies.tobytes() == np.diagonal(free).real.tobytes()
        assert model.hamiltonian.tobytes() == frame_h.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(levels=LEVELS, n_collective=st.integers(0, 2), n_local=st.integers(0, 2), driven=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_property_operators_equal_kron_formula(self, levels, n_collective, n_local, driven, seed):
        # qubits and qutrits, complex weights on mixed transitions, local channels and a drive
        spec = random_system(np.random.default_rng(seed), levels, n_collective, n_local, driven)
        model = sr.build_model(spec)
        drives, jumps = kron_operators(spec)
        off_diagonal = ~np.eye(model.dim, dtype=bool)
        assert model.hamiltonian[off_diagonal].tobytes() == drives[off_diagonal].tobytes()
        assert model.levels.tobytes() == kron_levels(model.layout).tobytes()
        free = sum(
            freq * np.diagonal(kron_transition(model.layout, j, level, level)).real
            for j, emitter in enumerate(spec.emitters)
            for level, freq in enumerate(emitter.level_frequencies)
        )
        assert model.free_energies.tobytes() == free.tobytes()
        assert not model.levels.flags.writeable and not model.free_energies.flags.writeable
        assert [rate for rate, _ in model.jumps] == [rate for rate, _ in jumps]
        for (_, op), (_, expected) in zip(model.jumps, jumps):
            assert op.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(levels=LEVELS, n_local=st.integers(0, 2), driven=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_hamiltonian_is_exactly_hermitian(self, levels, n_local, driven, seed):
        # Real diagonal projectors plus real multiples of low + low†: no roundoff can break the symmetry.
        model = sr.build_model(random_system(np.random.default_rng(seed), levels, 1, n_local, driven))
        assert max_abs(model.hamiltonian - model.hamiltonian.conj().T) == 0.0


class TestInitialStates:
    layout = DimsLayout((2, 2))
    layout3 = DimsLayout((2, 2, 2))

    def test_named_singlet_density_matrix(self):
        rho = sr.build_initial_state(sr.StateSpec.named("psi_minus"), self.layout)
        vec = (np.eye(4)[2] - np.eye(4)[1]) / np.sqrt(2)  # (|10> - |01>) / sqrt(2)
        assert np.allclose(rho, np.outer(vec, vec.conj()), atol=1e-15)

    def test_named_psi2(self):
        vec = sr.named_state_vector("psi2", self.layout3)
        expected = (2 * np.eye(8)[4] - np.eye(8)[2] - np.eye(8)[1]) / np.sqrt(6)  # (2|100> - |010> - |001>) / sqrt(6)
        assert np.allclose(vec, expected)

    def test_mixture_matches_asymptotic_mixed_state(self):
        spec = sr.StateSpec(mixture=((0.5, sr.StateSpec.named("psi_minus")), (0.5, sr.StateSpec.named("00"))))
        rho = sr.build_initial_state(spec, self.layout)
        singlet = sr.named_state_vector("psi_minus", self.layout)
        expected = 0.5 * np.outer(singlet, singlet.conj())
        expected[0, 0] += 0.5
        assert np.allclose(rho, expected, atol=1e-15)

    def test_amplitudes_are_normalized(self):
        spec = sr.StateSpec(amplitudes=(("10", 2.0), ("01", 2.0)))
        vec = sr.state_vector(spec, self.layout)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        plus = sr.named_state_vector("psi_plus", self.layout)
        assert abs(abs(np.vdot(plus, vec)) - 1.0) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            sr.named_state_vector("nope", self.layout)
        with pytest.raises(UnknownLabel):
            sr.named_state_vector("102", self.layout)  # wrong length
        with pytest.raises(UnknownLabel):
            sr.named_state_vector("psi2", self.layout)  # needs 3 emitters

    def test_zero_vector_rejected(self):
        spec = sr.StateSpec(amplitudes=(("10", 1.0), ("01", 0.0)))
        sr.state_vector(spec, self.layout)  # fine
        with pytest.raises(NonNormalizable):
            sr.state_vector(sr.StateSpec(amplitudes=(("10", 0.0),)), self.layout)

    @pytest.mark.parametrize(
        "label, dims, expected",
        [
            ("vacuum", (2, 3), np.eye(6)[0]),
            ("12", (2, 3), np.eye(6)[5]),
            ("psi_plus", (2, 2), (np.eye(4)[2] + np.eye(4)[1]) / np.sqrt(2)),
            ("W", (2, 2, 2), (np.eye(8)[4] + np.eye(8)[2] + np.eye(8)[1]) / np.sqrt(3)),
            ("psi1", (2, 2, 2), (np.eye(8)[4] + np.eye(8)[2] + np.eye(8)[1]) / np.sqrt(3)),
            ("psi3", (2, 2, 3), (np.eye(12)[3] - np.eye(12)[1]) / np.sqrt(2)),
        ],
    )
    def test_named_states(self, label, dims, expected):
        assert np.allclose(sr.named_state_vector(label, DimsLayout(dims)), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("label", ["1\u00b2", "\u0661\u0660", "\uff11\uff10"], ids=["superscript", "arabic-indic", "fullwidth"])
    def test_basis_labels_are_ascii_digits(self, label):
        # each is `str.isdigit`; the last two would read as "10"
        with pytest.raises(UnknownLabel):
            sr.named_state_vector(label, self.layout)
        with pytest.raises(UnknownLabel):
            sr.state_vector(sr.StateSpec(amplitudes=((label, 1.0),)), self.layout)

    def test_basis_string_on_qudit(self):
        layout = DimsLayout((2, 4))
        vec = sr.named_state_vector("13", layout)
        assert vec[sr.model.basis_index(layout, (1, 3))] == 1.0


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: sr.SystemSpec(emitters=()), "at least one emitter", id="no-emitters"),
        pytest.param(
            lambda: sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, (sr.CollectiveChannelSpec(1.0, (1, 1, 1)),)),
            "one weight per emitter", id="collective-weight-count",
        ),
        pytest.param(
            lambda: sr.SystemSpec(
                (sr.EmitterSpec.qubit(),) * 9, (sr.CollectiveChannelSpec(1.0, (1,)),), dimension_cap=4,
            ),
            "one weight per emitter", id="weight-count-before-dimension-cap",
        ),
        pytest.param(lambda: sr.StateSpec(amplitudes=()), "at least one entry", id="empty-amplitudes"),
        pytest.param(lambda: sr.StateSpec(mixture=()), "at least one entry", id="empty-mixture"),
        pytest.param(lambda: sr.StateSpec(amplitudes=[]), "at least one entry", id="from-no-amplitudes"),
        pytest.param(lambda: sr.StateSpec(mixture=[]), "at least one entry", id="mix-of-nothing"),
    ],
)
def test_specs_are_checked_when_built(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


class TestExcitationBookkeeping:
    def test_basis_excitations_qubitqudit(self):
        model = sr.build_model(sr.SystemSpec(emitters=(sr.EmitterSpec.qubit(), sr.EmitterSpec(4, (0.0, 1.0, 2.0, 3.0)))))
        # index = q*4 + l
        assert model.levels.sum(axis=0).tolist() == [0, 1, 2, 3, 1, 2, 3, 4]

    def test_basis_levels_qubitqudit(self):
        layout = DimsLayout((2, 4))
        levels = basis_levels(layout)
        assert levels.tolist() == [[0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 2, 3, 0, 1, 2, 3]]
        for i in range(layout.total_dim):
            assert sr.model.basis_index(layout, levels[:, i]) == i

    def test_sector_indices(self):
        model = sr.build_model(sr.SystemSpec(emitters=(sr.EmitterSpec.qubit(),) * 3))
        excitations = model.levels.sum(axis=0)
        assert np.flatnonzero(excitations == 1).tolist() == [1, 2, 4]
        assert np.flatnonzero(excitations == 2).tolist() == [3, 5, 6]


def test_product_state_dark_component_present_when_unbalanced():
    """Any two-qubit product state with unequal excitation carries dark weight."""
    rng = np.random.default_rng(12)
    layout = DimsLayout((2, 2))
    singlet = sr.named_state_vector("psi_minus", layout)
    for _ in range(50):
        def random_qubit_density():
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = x @ x.conj().T
            return rho / np.trace(rho)

        rho_a = random_qubit_density()
        rho_b = random_qubit_density()
        if abs(rho_a[1, 1].real - rho_b[1, 1].real) < 1e-3:
            continue
        rho = np.kron(rho_a, rho_b)
        overlap = float(np.real(np.vdot(singlet, rho @ singlet)))
        assert overlap > 0.0
