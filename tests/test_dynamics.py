"""Evolution, spectra, superoperator, the reachable block and the asymptotic state.

Oracles: closed-form exponentials from the non-Hermitian generator, the
2x2 single-excitation eigenvalue formula, the matrix exponential of
the vectorized generator (scipy, scaling-and-squaring) for full-propagator
comparisons, and the kernel projector of the full-space generator (scipy
`null_space`) for the asymptotic state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm, null_space

import subrad as sr
from subrad.errors import DimensionCapExceeded, InvariantBreach, InvariantViolation

from random_systems import LEVELS, random_density, random_model, random_sector_state

KAPPA = 0.001


def two_qubit_model(rate=KAPPA, frame="rotating", delta=0.0, alpha=0.0):
    locals_ = ()
    if alpha:
        locals_ = (sr.LocalChannelSpec(alpha, 0), sr.LocalChannelSpec(alpha, 1))
    return sr.build_model(
        sr.SystemSpec(
            emitters=(sr.EmitterSpec.qubit(1.0), sr.EmitterSpec(2, (0.0, 1.0 + delta))),
            collective_channels=(sr.CollectiveChannelSpec(rate, (1, 1), ((1, 0), (1, 0))),),
            local_channels=locals_,
            frame=frame,
        )
    )


def qubit_model(n, deltas=None, dimension_cap=256):
    """``n`` detunable qubits under one collective channel."""
    deltas = (0.0,) * n if deltas is None else deltas
    return sr.build_model(
        sr.SystemSpec(
            emitters=tuple(sr.EmitterSpec(2, (0.0, 1.0 + d)) for d in deltas),
            collective_channels=(sr.CollectiveChannelSpec(KAPPA, (1,) * n, ((1, 0),) * n),),
            dimension_cap=dimension_cap,
        )
    )


def five_qubit_model(deltas=(0.0,) * 5, dimension_cap=256):
    """Five detunable qubits under one collective channel; '11100' reaches 26 of 32 states."""
    return qubit_model(5, deltas, dimension_cap)


def pure(vec):
    return np.outer(vec, vec.conj())


def effective_spectrum(model):
    """Eigenvalues of H_nh from `_generator`; none may grow (positive imaginary part)."""
    eigenvalues = np.linalg.eigvals(sr.dynamics._generator(model.hamiltonian, model.jumps)[0])
    assert np.all(eigenvalues.imag <= 1e-10), eigenvalues
    return eigenvalues


class TestLindbladRhs:
    def test_ground_state_stationary(self):
        model = two_qubit_model()
        vac = pure(sr.named_state_vector("00", model.layout))
        assert np.max(np.abs(sr.lindblad_rhs(model, vac))) < 1e-15

    def test_dark_state_stationary(self):
        model = two_qubit_model()
        dark = pure(sr.named_state_vector("psi_minus", model.layout))
        assert np.max(np.abs(sr.lindblad_rhs(model, dark))) < 1e-15

    def test_bright_population_rate(self):
        model = two_qubit_model()
        bright = sr.named_state_vector("psi_plus", model.layout)
        rhs = sr.lindblad_rhs(model, pure(bright))
        rate = float(np.real(np.vdot(bright, rhs @ bright)))
        assert rate == pytest.approx(-4 * KAPPA, rel=1e-12)

    def test_hermitian_traceless_output(self):
        rng = np.random.default_rng(21)
        model = two_qubit_model(delta=0.07, alpha=2e-4)
        for _ in range(10):
            rho = random_density(rng, 4)
            out = sr.lindblad_rhs(model, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out)) < 1e-12


class TestEvolve:
    def test_bright_state_exponential(self):
        model = two_qubit_model()
        bright = sr.named_state_vector("psi_plus", model.layout)
        traj = sr.evolve(model, pure(bright), np.array([0.0, 500.0]))
        pop = sr.dark_overlap(traj.final_state, bright)
        assert pop == pytest.approx(np.exp(-2.0), abs=1e-7)

    def test_full_excitation_loses_all_energy(self):
        model = two_qubit_model()
        rho0 = pure(sr.named_state_vector("11", model.layout))
        traj = sr.evolve(model, rho0, np.array([0.0, 1e4]))
        assert sr.energy(traj.final_state, model) < 1e-9

    def test_dark_state_fidelity_constant_one(self):
        model = two_qubit_model()
        dark = sr.named_state_vector("psi_minus", model.layout)
        grid = np.linspace(0.0, 2000.0, 21)
        traj = sr.evolve(
            model, pure(dark), grid, observer=lambda t, r: {"f": sr.dark_overlap(r, dark)}
        )
        assert np.max(np.abs(traj.records["f"] - 1.0)) < 1e-9

    def test_records_and_invariants(self):
        rng = np.random.default_rng(22)
        model = two_qubit_model(delta=0.05, alpha=1e-4)
        traj = sr.evolve(model, random_density(rng, 4), np.linspace(0.0, 3000.0, 31))
        assert np.all(traj.records["trace_error"] < 1e-9)
        assert np.all(traj.records["herm_error"] < 1e-9)
        assert np.all(traj.records["min_eigenvalue"] > -1e-8)

    def test_monotone_energy_without_drives(self):
        rng = np.random.default_rng(23)
        model = two_qubit_model(delta=0.1, alpha=3e-4)
        traj = sr.evolve(
            model,
            random_density(rng, 4),
            np.linspace(0.0, 2000.0, 41),
            observer=lambda t, r: {"energy": sr.energy(r, model)},
        )
        diffs = np.diff(traj.records["energy"])
        assert np.all(diffs < 1e-9)

    def test_dark_population_invariant_under_ideal_decay(self):
        rng = np.random.default_rng(24)
        model = two_qubit_model()
        dark = sr.named_state_vector("psi_minus", model.layout)
        rho0 = random_density(rng, 4)
        traj = sr.evolve(
            model,
            rho0,
            np.linspace(0.0, 5000.0, 26),
            observer=lambda t, r: {"p": sr.dark_overlap(r, dark)},
        )
        assert np.max(np.abs(traj.records["p"] - traj.records["p"][0])) < 1e-8

    def test_superradiant_rate_fit(self):
        model = two_qubit_model()
        bright = sr.named_state_vector("psi_plus", model.layout)
        grid = np.linspace(0.0, 200.0, 21)
        traj = sr.evolve(
            model, pure(bright), grid, observer=lambda t, r: {"p": sr.dark_overlap(r, bright)}
        )
        rate = -np.polyfit(grid, np.log(traj.records["p"]), 1)[0]
        assert rate == pytest.approx(4 * KAPPA, rel=0.01)

    def test_frame_agreement_on_frame_invariant_observables(self):
        rho0 = pure(sr.named_state_vector("10", two_qubit_model().layout))
        grid = np.linspace(0.0, 30.0, 4)
        results = {}
        for frame in ("rotating", "lab"):
            model = two_qubit_model(frame=frame, delta=0.2, alpha=5e-3)
            dark = sr.named_state_vector("psi_minus", model.layout)

            def obs(t, rho, model=model, dark=dark):
                return {
                    "energy": sr.energy(rho, model),
                    "dark": sr.dark_overlap(rho, dark),
                    "en": sr.log_negativity(rho, model.layout),
                }

            traj = sr.evolve(model, rho0, grid, observer=obs)
            results[frame] = traj.records
        for key in ("energy", "dark", "en"):
            assert np.max(np.abs(results["lab"][key] - results["rotating"][key])) < 1e-6

    def test_fixed_step_is_deterministic(self):
        model = two_qubit_model(delta=0.05)
        rho0 = pure(sr.named_state_vector("10", model.layout))
        cfg = sr.IntegratorConfig(fixed_step=0.5)
        grid = np.linspace(0.0, 50.0, 6)
        a = sr.evolve(model, rho0, grid, cfg)
        b = sr.evolve(model, rho0, grid, cfg)
        assert np.array_equal(a.final_state, b.final_state)

    def test_observer_key_set_is_fixed_at_the_first_grid_point(self):
        # unchecked, alternating key sets would leave records["a"] 3 entries and records["b"] 2 on a 5-point grid
        model = sr.build_model(sr.scenario_from_dict(sr.load_preset("fig2")).system)
        rho0 = pure(sr.named_state_vector("10", model.layout))
        seen = []

        def alternating(t, rho):
            seen.append(t)
            return {"a": 1.0} if len(seen) % 2 else {"b": 2.0}

        with pytest.raises(ValueError, match=r"observer keys at t=25 \['b'\] differ .* \['a'\]"):
            sr.evolve(model, rho0, np.linspace(0.0, 100.0, 5), observer=alternating)
        assert seen == [0.0, 25.0]
        traj = sr.evolve(model, rho0, np.linspace(0.0, 100.0, 5), observer=lambda t, r: {"a": t, "b": 2.0 * t})
        assert [len(values) for values in traj.records.values()] == [5] * 5

    @pytest.mark.parametrize("key", ["trace_error", "herm_error", "min_eigenvalue"])
    def test_reserved_observer_keys_are_refused(self, key):
        model = two_qubit_model()
        rho0 = pure(sr.named_state_vector("10", model.layout))
        with pytest.raises(ValueError, match=f"observer key '{key}' is reserved"):
            sr.evolve(model, rho0, np.array([0.0, 1.0]), observer=lambda t, r: {"a": 1.0, key: 0.0})

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "initial_step", "fixed_step"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_integrator_settings_must_be_finite_and_positive(self, name, value):
        # a NaN tolerance would make every error norm NaN, so Dormand-Prince would never accept a step
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            sr.IntegratorConfig(**{name: value})

    def test_rejects_invalid_initial_state(self):
        model = two_qubit_model()
        with pytest.raises(InvariantViolation):
            sr.evolve(model, 0.9 * np.eye(4) / 4, np.array([0.0, 1.0]))

    def test_oracle_equivalence_against_matrix_exponential(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            model = two_qubit_model(
                rate=rng.uniform(0.01, 0.1),
                delta=rng.uniform(-0.2, 0.2),
                alpha=rng.uniform(0.0, 0.1),
            )
            rho0 = random_density(rng, 4)
            t_end = 1.0 / model.jumps[0][0]
            liou = sr.liouvillian_matrix(model)
            oracle = sr.unvec(expm(liou * t_end) @ sr.vec(rho0), 4)
            cfg = sr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
            traj = sr.evolve(model, rho0, np.array([0.0, t_end]), cfg)
            assert np.max(np.abs(traj.final_state - oracle)) < 1e-7

    def test_non_finite_state_is_an_invariant_violation(self):
        # One grid interval of 200 fixed steps at h*rate = 50 overflows to NaN.
        # Only the Dormand-Prince solver can diverge, so the block is above the bound.
        model = five_qubit_model()
        rho0 = pure(sr.named_state_vector("11100", model.layout))
        assert sr.evolve(model, rho0, np.array([0.0, 1.0])).meta["solver"] == "dp45"
        seen = []
        cfg = sr.IntegratorConfig(fixed_step=5e4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvariantViolation, match=r"non-finite.*t=1e\+07"
        ):
            sr.evolve(model, rho0, np.array([0.0, 1e7]), cfg, lambda t, r: seen.append(t) or {})
        assert seen == [0.0]

    def test_dp45_oracle_on_block_above_bound(self):
        model = five_qubit_model(deltas=(0.0, 0.002, -0.001, 0.003, 0.0), dimension_cap=1024)
        rho0 = pure(sr.named_state_vector("11100", model.layout))
        t_end = 1.0 / KAPPA
        oracle = sr.unvec(expm(sr.liouvillian_matrix(model) * t_end) @ sr.vec(rho0), model.dim)
        cfg = sr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = sr.evolve(model, rho0, np.array([0.0, t_end]), cfg)
        assert (traj.meta["solver"], traj.meta["evolved_dim"]) == ("dp45", 26)
        assert np.max(np.abs(traj.final_state - oracle)) < 1e-7


class TestReachableBlock:
    @pytest.mark.parametrize(
        "preset, label, evolved_dim",
        [("nqubit:7", "1000000", 8), ("fig2", "10", 3), ("fig3e-clockwork", "00", 6), ("fig2", "11", 4)],
    )
    def test_evolved_dim_of_presets(self, preset, label, evolved_dim):
        scenario = sr.scenario_from_dict(sr.load_preset(preset))
        model = sr.build_model(scenario.system)
        rho0 = sr.build_initial_state(dict(scenario.initials)[label], model.layout)
        seen = []
        traj = sr.evolve(model, rho0, np.array([0.0, 1.0]), observer=lambda t, r: seen.append(r.shape) or {})
        assert traj.meta["evolved_dim"] == evolved_dim
        assert seen == [(model.dim, model.dim)] * 2
        assert traj.final_state.shape == (model.dim, model.dim)

    def test_step_sequence_of_full_space_run(self, monkeypatch):
        # The error norm divides by the full dim**2, so the block takes the
        # steps a full-space run takes, up to roundoff in the controller.
        data = sr.load_preset("nqubit:6")
        data["initial"] = ["110000"]
        scenario = sr.scenario_from_dict(data)
        model = sr.build_model(scenario.system)
        rho0 = sr.build_initial_state(dict(scenario.initials)["110000"], model.layout)
        grid = scenario.time.grid()
        reduced = sr.evolve(model, rho0, grid, scenario.integrator)
        monkeypatch.setattr(sr.dynamics, "_reachable", lambda rho, hamiltonian, jumps: np.arange(rho.shape[0]))
        full = sr.evolve(model, rho0, grid, scenario.integrator)
        assert (reduced.meta["evolved_dim"], full.meta["evolved_dim"]) == (22, model.dim)
        assert reduced.meta["solver"] == full.meta["solver"] == "dp45"
        assert abs(reduced.meta["steps"] - full.meta["steps"]) <= 0.02 * full.meta["steps"]
        assert np.max(np.abs(reduced.final_state - full.final_state)) < 1e-9

    @pytest.mark.parametrize(
        "preset, label, evolved_dim, solver",
        [
            ("fig2", "10", 3, "propagator"),
            ("fig2", "11", 4, "propagator"),
            ("nqubit:5", "11000", 16, "propagator"),
            ("nqubit:5", "11100", 26, "dp45"),
            ("fig3e-clockwork", "00", 6, "propagator"),
            ("nqubit:8", "11000000", 37, "dp45"),
        ],
    )
    def test_solver_follows_block_size(self, preset, label, evolved_dim, solver):
        model = sr.build_model(sr.scenario_from_dict(sr.load_preset(preset)).system)
        rho0 = pure(sr.named_state_vector(label, model.layout))
        traj = sr.evolve(model, rho0, np.linspace(0.0, 10.0, 3))
        assert (traj.meta["evolved_dim"], traj.meta["solver"]) == (evolved_dim, solver)
        if solver == "propagator":
            assert (traj.meta["steps"], traj.meta["rejected"]) == (2, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_block_matches_sliced_full_generator(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho0, _ = random_sector_state(rng, model)
        # the dense reference: the full-space generator, then the closure over its nonzero pattern
        h_nh, jump_ops = sr.dynamics._generator(model.hamiltonian, model.jumps)
        pattern = np.logical_or.reduce([op != 0 for op in (h_nh, *jump_ops)])
        reached = (rho0 != 0).any(axis=0) | (rho0 != 0).any(axis=1)
        while not np.array_equal(grown := reached | pattern[:, reached].any(axis=1), reached):
            reached = grown
        keep = np.flatnonzero(reached)
        block, rho, h_block, jumps_block = sr.dynamics._block(model, rho0)
        assert np.array_equal(block[0].ravel(), keep) and np.array_equal(block[1].ravel(), keep)
        assert np.array_equal(rho, rho0[block])
        # only the sum order of L†L over the block's rows may differ
        assert np.allclose(h_block, h_nh[block], rtol=0.0, atol=4e-16 * np.max(np.abs(h_nh)))
        assert len(jumps_block) == len(jump_ops)
        for op, full in zip(jumps_block, jump_ops):
            assert op.tobytes() == full[block].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_full_space_oracle(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho0, support = random_sector_state(rng, model)

        t_end = 2.0
        oracle = sr.unvec(expm(sr.liouvillian_matrix(model) * t_end) @ sr.vec(rho0), model.dim)
        cfg = sr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = sr.evolve(model, rho0, np.array([0.0, t_end]), cfg)
        assert np.max(np.abs(traj.final_state - oracle)) < 1e-7
        assert support.size <= traj.meta["evolved_dim"] <= model.dim
        # the spectrum of the embedded state, zeros outside the block included
        assert traj.records["min_eigenvalue"][0] == pytest.approx(np.linalg.eigvalsh(rho0)[0], abs=1e-12)


class TestPropagator:
    @settings(max_examples=30, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        uniform=st.booleans(),
        n_intervals=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_matrix_exponential_on_grids(
        self, levels, n_collective, n_local, driven, uniform, n_intervals, seed
    ):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho0, _ = random_sector_state(rng, model)
        if uniform:
            grid = np.linspace(0.0, rng.uniform(0.5, 5.0), n_intervals + 1)
        else:
            grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, n_intervals))))
        grid = grid + rng.uniform(0.0, 3.0)  # the grid need not start at 0
        states = []
        traj = sr.evolve(model, rho0, grid, observer=lambda t, r: states.append(r.copy()) or {})
        assert traj.meta["solver"] == "propagator"
        assert (traj.meta["steps"], traj.meta["rejected"]) == (n_intervals, 0)
        liou = sr.liouvillian_matrix(model)
        for t, state in zip(grid, states):
            oracle = sr.unvec(expm(liou * (t - grid[0])) @ sr.vec(rho0), model.dim)
            assert np.max(np.abs(state - oracle)) < 1e-7
        assert np.array_equal(states[-1], traj.final_state)

    def test_expm_matches_scipy_across_norms(self):
        rng = np.random.default_rng(27)
        for n in (1, 3, 8):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for scale in (0.0, 1e-3, 0.7, 1.0, 40.0):
                ref = expm(scale * a)
                assert np.max(np.abs(sr.dynamics._expm(scale * a) - ref)) <= 1e-11 * np.max(np.abs(ref))


class TestEffectiveHamiltonian:
    def test_resonant_two_qubit_spectrum(self):
        eigenvalues = effective_spectrum(two_qubit_model(frame="lab"))
        expected = np.array(
            [0.0, 1.0 - 2j * KAPPA, 1.0, 2.0 - 2j * KAPPA], dtype=complex
        )
        got = sorted(eigenvalues, key=lambda z: (round(z.real, 9), z.imag))
        want = sorted(expected, key=lambda z: (round(z.real, 9), z.imag))
        assert np.allclose(got, want, atol=1e-12)

    def test_detuned_single_excitation_pair(self):
        delta = 0.1
        eigenvalues = effective_spectrum(two_qubit_model(frame="lab", delta=delta))
        root = np.sqrt(complex(delta**2 / 4 - KAPPA**2))
        expected = {
            1.0 + delta / 2 - 1j * KAPPA + root,
            1.0 + delta / 2 - 1j * KAPPA - root,
        }
        # pick the two eigenvalues in the single-excitation band
        got = [z for z in eigenvalues if 0.5 < z.real < 1.5]
        assert len(got) == 2
        for z in got:
            assert min(abs(z - w) for w in expected) < 1e-12

    def test_closed_system_spectrum_is_real(self):
        model = sr.build_model(
            sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(1.0), sr.EmitterSpec(2, (0.0, 1.3))),
                collective_channels=(
                    sr.CollectiveChannelSpec(0.0, (1, 1), ((1, 0), (1, 0))),
                ),
                frame="lab",
            )
        )
        eigenvalues = effective_spectrum(model)
        assert np.max(np.abs(eigenvalues.imag)) < 1e-14
        assert np.allclose(sorted(eigenvalues.real), [0.0, 1.0, 1.3, 2.3])


class TestLiouvillian:
    def test_matches_rhs_on_random_states(self):
        rng = np.random.default_rng(26)
        model = two_qubit_model(delta=0.03, alpha=2e-4)
        liou = sr.liouvillian_matrix(model)
        for _ in range(10):
            rho = random_density(rng, 4)
            lhs = liou @ sr.vec(rho)
            rhs = sr.vec(sr.lindblad_rhs(model, rho))
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rotating_resonant_kernel_dimension(self):
        liou = sr.liouvillian_matrix(two_qubit_model())
        assert sr.kernel_basis(liou).shape[1] == 4

    def test_asymptotic_mixed_state_is_stationary(self):
        model = two_qubit_model()
        singlet = sr.named_state_vector("psi_minus", model.layout)
        rho_inf = 0.5 * pure(singlet)
        rho_inf[0, 0] += 0.5
        liou = sr.liouvillian_matrix(model)
        assert np.max(np.abs(liou @ sr.vec(rho_inf))) < 1e-15

    def test_closed_nondegenerate_kernel_is_diagonal(self):
        model = sr.build_model(
            sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(1.0), sr.EmitterSpec(2, (0.0, 1.3))),
                collective_channels=(
                    sr.CollectiveChannelSpec(0.0, (1, 1), ((1, 0), (1, 0))),
                ),
                frame="lab",
            )
        )
        basis = sr.kernel_basis(sr.liouvillian_matrix(model))
        assert basis.shape[1] == 4
        for col in range(4):
            mat = sr.unvec(basis[:, col], 4)
            off = mat - np.diag(np.diag(mat))
            assert np.max(np.abs(off)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bit_identical_to_numpy_kron_formula(self, levels, n_collective, n_local, driven, seed):
        model = random_model(np.random.default_rng(seed), levels, n_collective, n_local, driven)
        h_nh, jump_ops = sr.dynamics._generator(model.hamiltonian, model.jumps)
        eye = np.eye(model.dim, dtype=complex)
        expected = -1j * (np.kron(eye, h_nh) - np.kron(h_nh.conj(), eye))
        for op in jump_ops:
            expected += np.kron(op.conj(), op)
        assert np.array_equal(sr.liouvillian_matrix(model).view(float), expected.view(float))

    def test_dimension_cap(self):
        # the superoperator bound is 32 states, whatever the Hilbert-space cap
        for cap in (64, 256, 4096):
            assert sr.liouvillian_matrix(qubit_model(5, dimension_cap=cap)).shape == (1024, 1024)
            with pytest.raises(DimensionCapExceeded):
                sr.liouvillian_matrix(qubit_model(6, dimension_cap=cap))


class TestPredictFinalState:
    """Final states predicted in closed form for ideal single-excitation decay, from `asymptotic_state`."""

    def test_single_excitation_basis_state(self):
        model = two_qubit_model()
        rho = sr.asymptotic_state(model, pure(sr.named_state_vector("10", model.layout)))
        singlet = sr.named_state_vector("psi_minus", model.layout)
        expected = 0.5 * pure(singlet)
        expected[0, 0] += 0.5
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_dark_state_is_fixed_point(self):
        model = two_qubit_model()
        singlet = sr.named_state_vector("psi_minus", model.layout)
        rho = sr.asymptotic_state(model, pure(singlet))
        assert np.max(np.abs(rho - pure(singlet))) < 1e-12

    def test_three_qubit_w_like_state(self):
        model = sr.build_model(
            sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(),) * 3,
                collective_channels=(
                    sr.CollectiveChannelSpec(KAPPA, (1, 1, 1), ((1, 0),) * 3),
                ),
            )
        )
        rho = sr.asymptotic_state(model, pure(sr.named_state_vector("100", model.layout)))
        psi2 = sr.named_state_vector("psi2", model.layout)
        expected = (2.0 / 3.0) * pure(psi2)
        expected[0, 0] += 1.0 / 3.0
        assert np.max(np.abs(rho - expected)) < 1e-12


class TestSteadyState:
    def test_ideal_decay_reaches_stationary_state(self):
        model = two_qubit_model(rate=0.05)
        rho0 = pure(sr.named_state_vector("10", model.layout))
        steady = sr.asymptotic_state(model, rho0)
        assert np.max(np.abs(sr.lindblad_rhs(model, steady))) < 1e-9
        evolved = sr.evolve(model, rho0, np.array([0.0, 2000.0])).final_state
        assert np.max(np.abs(steady - evolved)) < 1e-7


def detuned_frame_model():
    """Two resonant qubits in a frame at 1.1: the singlet and the vacuum differ in energy by 0.1."""
    return sr.build_model(
        sr.SystemSpec(
            emitters=(sr.EmitterSpec.qubit(1.0),) * 2,
            collective_channels=(sr.CollectiveChannelSpec(0.05, (1, 1), ((1, 0), (1, 0))),),
            frame_frequency=1.1,
        )
    )


def full_space_projection(liou, rho0):
    """The kernel projection of vec(rho0) by scipy `null_space` on the full-space Liouvillian."""
    right = null_space(liou, rcond=1e-9)
    left = null_space(liou.conj().T, rcond=1e-9)
    weights = np.linalg.solve(left.conj().T @ right, left.conj().T @ sr.vec(rho0))
    return sr.unvec(right @ weights, rho0.shape[0])


# A kernel is only determined to about eps * sigma_max / sigma_gap, with sigma_gap
# the smallest singular value above the kernel threshold; the oracle distance
# and the trace error are held to CONDITIONING_FACTOR times that.
CONDITIONING_FACTOR = 1.0


class TestAsymptoticState:
    @settings(max_examples=40, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # slow modes with |eigenvalue| 1e-7 to 1e-6 against sigma_max 7 to 13
    @example(levels=[2, 2, 2], n_collective=1, n_local=0, driven=False, seed=18187946)
    @example(levels=[2, 2, 2], n_collective=1, n_local=1, driven=False, seed=18187946)
    @example(levels=[2, 3], n_collective=1, n_local=0, driven=False, seed=220)
    # a trace error of 1.2e-11 before vec(1) became the first conserved quantity
    @example(levels=[2, 2, 3], n_collective=1, n_local=0, driven=True, seed=2692155770)
    def test_property_matches_full_space_projector(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho0, _ = random_sector_state(rng, model)

        liou = sr.liouvillian_matrix(model)
        sigma = np.linalg.svd(liou, compute_uv=False)
        sigma_gap = sigma[sigma > 1e-9 * sigma[0]][-1]
        bound = max(1e-10, CONDITIONING_FACTOR * np.finfo(float).eps * sigma[0] / sigma_gap)
        steady = sr.asymptotic_state(model, rho0)
        assert np.max(np.abs(steady - full_space_projection(liou, rho0))) < bound
        assert np.max(np.abs(sr.lindblad_rhs(model, steady))) < 1e-10
        assert abs(np.trace(steady) - 1.0) < bound
        assert np.linalg.eigvalsh(steady)[0] > -1e-10

    @pytest.mark.parametrize(
        "levels, n_collective, n_local, driven, seed",
        [
            ([2, 2, 2], 1, 0, False, 18187946),
            ([2, 2, 2], 1, 1, False, 18187946),
            ([2, 3], 1, 0, False, 220),
            ([2, 2, 3], 1, 0, True, 2692155770),
        ],
    )
    def test_pinned_draws_keep_the_trace_exactly(self, levels, n_collective, n_local, driven, seed):
        # the draws pinned above, where the conditioning bound on the trace error is weakest
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho0, _ = random_sector_state(rng, model)
        assert abs(np.trace(sr.asymptotic_state(model, rho0)) - 1.0) <= 1e-15

    def test_unexcited_imaginary_eigenvalues_leave_a_limit(self):
        model = detuned_frame_model()
        eigenvalues = np.linalg.eigvals(sr.liouvillian_matrix(model))
        imaginary = eigenvalues[(np.abs(eigenvalues.real) < 1e-12) & (np.abs(eigenvalues.imag) > 1e-9)]
        assert np.allclose(sorted(imaginary.imag), [-0.1, 0.1])
        rho0 = pure(sr.named_state_vector("10", model.layout))
        evolved = sr.evolve(model, rho0, np.array([0.0, 2000.0])).final_state
        assert np.max(np.abs(sr.asymptotic_state(model, rho0) - evolved)) < 1e-12

    def test_oscillating_state_gives_the_time_average(self):
        model = detuned_frame_model()
        vector = (sr.named_state_vector("10", model.layout) + sr.named_state_vector("00", model.layout)) / np.sqrt(2)
        rho0 = pure(vector)
        # 40 periods of the 0.1 oscillation, 50 points each, after the decay is over
        period = 2 * np.pi / 0.1
        grid = np.concatenate([[0.0], 2000.0 + period * np.arange(40 * 50) / 50])
        states = []
        sr.evolve(model, rho0, grid, observer=lambda t, rho: states.append(rho.copy()) or {})
        steady = sr.asymptotic_state(model, rho0)
        assert np.max(np.abs(states[-1] - steady)) > 0.1
        assert np.max(np.abs(np.mean(states[1:], axis=0) - steady)) < 1e-12

    def test_two_excitations_keep_five_sixths_dark(self):
        data = sr.load_preset("nqubit:4")
        data["initial"] = ["1100"]
        scenario = sr.scenario_from_dict(data)
        model = sr.build_model(scenario.system)
        vector = sr.named_state_vector("1100", model.layout)
        steady = sr.asymptotic_state(model, pure(vector))
        assert np.real(np.trace(sr.dark_projector(model) @ steady)) == pytest.approx(5 / 6, abs=1e-12)
        evolved = sr.evolve(model, pure(vector), np.array([0.0, 4e4])).final_state
        assert np.max(np.abs(steady - evolved)) < 1e-10

    def test_three_excitations_of_five_keep_nine_tenths_dark(self):
        # |S| = 26 at the default dimension_cap: dark weight 1 - 1/C(5, 2)
        data = sr.load_preset("nqubit:5")
        data["initial"] = ["11100"]
        model = sr.build_model(sr.scenario_from_dict(data).system)
        rho0 = pure(sr.named_state_vector("11100", model.layout))
        steady = sr.asymptotic_state(model, rho0)
        assert np.real(np.trace(sr.dark_projector(model) @ steady)) == pytest.approx(9 / 10, abs=1e-12)
        assert np.max(np.abs(steady - full_space_projection(sr.liouvillian_matrix(model), rho0))) < 1e-12
        evolved = sr.evolve(model, rho0, np.array([0.0, 4e4]))
        assert evolved.meta["solver"] == "dp45"
        assert np.max(np.abs(steady - evolved.final_state)) < 1e-8

    def test_clockwork_steady_entanglement(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig3e-clockwork"))
        model = sr.build_model(scenario.system)
        rho0 = sr.build_initial_state(scenario.initials[0][1], model.layout)
        halves = ((0,), (1,))
        steady = sr.log_negativity(sr.asymptotic_state(model, rho0), model.layout, halves)
        assert steady == pytest.approx(0.147512094796, abs=1e-9)
        # the preset's time unit is 1/kappa with kappa = 1
        evolved = sr.evolve(model, rho0, np.array([0.0, 50.0])).final_state
        assert abs(sr.log_negativity(evolved, model.layout, halves) - steady) < 1e-9

    def test_block_superoperator_obeys_its_bound(self):
        # '111000' reaches 42 states, above the bound of 32, whatever the Hilbert-space cap
        model = qubit_model(6, dimension_cap=4096)
        with pytest.raises(DimensionCapExceeded):
            sr.asymptotic_state(model, pure(sr.named_state_vector("111000", model.layout)))
        ground = sr.named_state_vector("000000", model.layout)
        assert np.max(np.abs(sr.asymptotic_state(model, pure(ground)) - pure(ground))) < 1e-15


# (record column, threshold, direction in which a value leaves tolerance)
THRESHOLDS = [
    ("trace_error", sr.dynamics.TRACE_TOL, np.inf),
    ("herm_error", sr.dynamics.HERMITICITY_TOL, np.inf),
    ("min_eigenvalue", sr.dynamics.MIN_EIGENVALUE_TOL, -np.inf),
]
CHECKED = [column for column, _, _ in THRESHOLDS]


class TestValidityPolicy:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        lowest=st.sampled_from([None, 0.0, -1e-9, -1e-8, -1e-6]),
        skew=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_checks_match_oracle(self, n, lowest, skew, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, n)
        if lowest is not None:
            w, v = np.linalg.eigh(rho)
            w[0] = lowest
            rho = (v * w) @ v.conj().T
        rho = rho + skew * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        trace_error, herm_error, min_eigenvalue = sr.dynamics.density_checks(rho, "rho")
        assert trace_error == pytest.approx(abs(np.trace(rho) - 1.0), rel=1e-15, abs=0.0)
        assert herm_error == np.max(np.abs(rho - rho.conj().T))
        assert min_eigenvalue == pytest.approx(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0], abs=1e-15)

    @pytest.mark.parametrize("column, at, outward", THRESHOLDS)
    def test_value_at_threshold_passes_and_next_float_fails(self, column, at, outward):
        for value, ok in ((at, True), (np.nextafter(at, outward), False), (np.nan, False)):
            values = dict.fromkeys(CHECKED, 0.0) | {column: value}
            assert bool(sr.dynamics.within_tolerance(*values.values())) is ok
            records = {key: np.array([0.0, v, 0.0]) for key, v in values.items()}
            traj = sr.Trajectory(times=np.arange(3.0), records=records, final_state=np.eye(2) / 2)
            assert traj.breached is not ok

    @pytest.mark.parametrize("column, at, outward", THRESHOLDS)
    def test_initial_state_refused_beyond_threshold(self, monkeypatch, column, at, outward):
        model = two_qubit_model()
        rho0 = pure(sr.named_state_vector("10", model.layout))
        for value, ok in ((at, True), (np.nextafter(at, outward), False)):
            checks = tuple((dict.fromkeys(CHECKED, 0.0) | {column: value}).values())
            monkeypatch.setattr(sr.dynamics, "density_checks", lambda rho, name: checks)
            for run in (lambda: sr.evolve(model, rho0, np.array([0.0])), lambda: sr.asymptotic_state(model, rho0)):
                if ok:
                    run()
                else:
                    with pytest.raises(InvariantViolation, match="initial state"):
                        run()

    @pytest.mark.parametrize("beyond", [False, True])
    def test_grid_point_below_floor_aborts(self, monkeypatch, beyond):
        floor = sr.dynamics.MIN_EIGENVALUE_FLOOR
        lowest = np.nextafter(floor, -np.inf) if beyond else floor
        real = sr.dynamics.density_checks

        def checks(rho, name):  # the initial state passes; grid points read `lowest`
            trace_error, herm_error, _ = real(rho, name)
            return trace_error, herm_error, 0.0 if name == "the initial state" else lowest

        monkeypatch.setattr(sr.dynamics, "density_checks", checks)
        model = two_qubit_model()
        rho0 = pure(sr.named_state_vector("10", model.layout))
        if beyond:
            with pytest.raises(InvariantViolation, match="below"):
                sr.evolve(model, rho0, np.array([0.0, 1.0]))
        else:
            traj = sr.evolve(model, rho0, np.array([0.0, 1.0]))
            assert traj.breached and traj.records["min_eigenvalue"].tolist() == [floor, floor]

    def test_initial_state_is_checked_on_its_block(self, monkeypatch):
        real = sr.dynamics.density_checks
        shapes = []

        def spy(rho, name):
            if name == "the initial state":
                shapes.append(rho.shape)
            return real(rho, name)

        monkeypatch.setattr(sr.dynamics, "density_checks", spy)
        model = sr.build_model(sr.scenario_from_dict(sr.load_preset("nqubit:8")).system)
        rho0 = pure(sr.named_state_vector("10000000", model.layout))
        traj = sr.evolve(model, rho0, np.array([0.0, 1.0]))
        assert shapes == [(9, 9)] and traj.meta["evolved_dim"] == 9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_initial_state_is_an_invariant_violation(self, bad):
        model = two_qubit_model()
        rho0 = pure(sr.named_state_vector("10", model.layout))
        rho0[0, 0] = bad
        with pytest.raises(InvariantViolation, match="non-finite entries in the initial state"):
            sr.evolve(model, rho0, np.array([0.0, 1.0]))
        with pytest.raises(InvariantViolation, match="non-finite entries in the initial state"):
            sr.asymptotic_state(model, rho0)

    def test_injected_grid_point_drift_is_caught(self, monkeypatch):
        # each propagator product adds 1e-6 rho_00 to rho_10 and nothing to rho_01
        real = sr.dynamics._expm

        def drifting(a):
            p = real(a).copy()
            p[1, 0] += 1e-6
            return p

        monkeypatch.setattr(sr.dynamics, "_expm", drifting)
        scenario = sr.scenario_from_dict(sr.load_preset("fig2"))
        result = sr.run_scenario(scenario)
        traj = result.trajectories["10"]
        assert traj.meta["solver"] == "propagator"
        assert result.breached and traj.breached
        assert traj.records["herm_error"].max() > 100 * sr.dynamics.HERMITICITY_TOL
        with pytest.raises(InvariantBreach):
            sr.run_scenario(scenario, check_strict=True)

    @pytest.mark.parametrize("preset, label, solver", [("fig2", "10", "propagator"), ("nqubit:5", "11100", "dp45")])
    def test_max_herm_drift_is_the_largest_record(self, preset, label, solver):
        model = sr.build_model(sr.scenario_from_dict(sr.load_preset(preset)).system)
        rho0 = pure(sr.named_state_vector(label, model.layout))
        traj = sr.evolve(model, rho0, np.linspace(0.0, 200.0, 11))
        assert traj.meta["solver"] == solver
        assert traj.meta["max_herm_drift"] == traj.records["herm_error"].max()
        assert traj.records["herm_error"].max() <= 1e-15
