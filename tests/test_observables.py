"""Observables: energy, overlaps, log-negativity, dark structure, checks."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subrad as sr
import subrad.observables as observables
from subrad.errors import DimensionMismatch, NonNormalizable
from subrad.linalg import DimsLayout
from subrad.scenario import ObservableSpec, _observable_columns

from random_systems import LEVELS, random_density, random_model, random_sector_state


def pure(vec):
    return np.outer(vec, vec.conj())


def qubit_chain_model(n, rate=0.001, weights=None, cap=1024):
    weights = weights if weights is not None else (1,) * n
    return sr.build_model(
        sr.SystemSpec(
            emitters=(sr.EmitterSpec.qubit(),) * n,
            collective_channels=(
                sr.CollectiveChannelSpec(rate, weights, ((1, 0),) * n),
            ),
            dimension_cap=cap,
        )
    )


@pytest.fixture(scope="module")
def two_qubit():
    return qubit_chain_model(2)


@pytest.fixture(scope="module")
def three_qubit():
    return qubit_chain_model(3)


def asymptotic_two_qubit(model):
    singlet = sr.named_state_vector("psi_minus", model.layout)
    rho = 0.5 * pure(singlet)
    rho[0, 0] += 0.5
    return rho


class TestEnergy:
    def test_half_quantum_remains(self, two_qubit):
        assert sr.energy(asymptotic_two_qubit(two_qubit), two_qubit) == pytest.approx(0.5)

    def test_two_excitations(self, two_qubit):
        rho = pure(sr.named_state_vector("11", two_qubit.layout))
        assert sr.energy(rho, two_qubit) == pytest.approx(2.0)

    def test_w_like_mixture(self, three_qubit):
        psi2 = sr.named_state_vector("psi2", three_qubit.layout)
        rho = (2.0 / 3.0) * pure(psi2)
        rho[0, 0] += 1.0 / 3.0
        assert sr.energy(rho, three_qubit) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize(
        "state",
        [np.full((4, 4), np.nan), np.eye(3) / 3, np.full((4, 3), 0.25), np.full(16, 1 / 16)],
        ids=["nan", "wrong-dim", "not-square", "flat"],
    )
    def test_refuses_a_state_it_cannot_read(self, two_qubit, state):
        with pytest.raises(DimensionMismatch):
            sr.energy(state, two_qubit)


class TestDarkOverlap:
    def test_dark_state_unit_overlap(self, two_qubit):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        assert sr.dark_overlap(pure(singlet), singlet) == pytest.approx(1.0)

    def test_orthogonal_state(self, three_qubit):
        psi2 = sr.named_state_vector("psi2", three_qubit.layout)
        rho = pure(sr.named_state_vector("011", three_qubit.layout))
        assert sr.dark_overlap(rho, psi2) == pytest.approx(0.0, abs=1e-15)

    def test_sqrt_variant(self, two_qubit):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        rho = asymptotic_two_qubit(two_qubit)
        p = sr.dark_overlap(rho, singlet)
        assert p == pytest.approx(0.5)
        assert sr.dark_overlap_sqrt(rho, singlet) == pytest.approx(np.sqrt(0.5))

    @pytest.mark.parametrize("overlap", [sr.dark_overlap, sr.dark_overlap_sqrt])
    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 0.0])
    def test_refuses_a_target_that_is_not_unit(self, two_qubit, overlap, scale):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        with pytest.raises(NonNormalizable):
            overlap(pure(singlet), scale * singlet)

    @pytest.mark.parametrize("overlap", [sr.dark_overlap, sr.dark_overlap_sqrt])
    def test_refuses_a_state_of_another_dimension(self, two_qubit, overlap):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        with pytest.raises(DimensionMismatch):
            overlap(np.eye(8) / 8, singlet)
        with pytest.raises(DimensionMismatch):
            overlap(np.full((4, 2), 0.25), singlet)


class TestRunColumns:
    """`run_scenario`'s energy and fidelity columns skip the public checks but keep their formulas."""

    @settings(max_examples=40, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_columns_equal_public_functions(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho, _ = random_sector_state(rng, model)
        rho = (rho + rho.conj().T) / 2.0  # as `evolve` hands it over
        # a random target resolved the way `Scenario` resolves one: through `state_vector`
        labels = ["".join(map(str, column)) for column in model.levels.T]
        amplitudes = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        spec = sr.StateSpec.from_amplitudes(dict(zip(labels, amplitudes)))
        target = sr.state_vector(spec, model.layout)
        values = {}
        for ob in (ObservableSpec("energy"), ObservableSpec("fidelity", spec), ObservableSpec("fidelity", spec, True)):
            [(names, column)] = _observable_columns(ob, target, model)
            [values[names[0]]] = column(0.0, rho)
        assert values == {
            "energy": sr.energy(rho, model),
            "fidelity": sr.dark_overlap(rho, target),
            "fidelity_sqrt": sr.dark_overlap_sqrt(rho, target),
        }
        assert values["fidelity_sqrt"] == np.sqrt(max(values["fidelity"], 0.0))


class TestLogNegativity:
    layout = DimsLayout((2, 2))

    def test_singlet_is_one_ebit(self):
        singlet = sr.named_state_vector("psi_minus", self.layout)
        assert sr.log_negativity(pure(singlet), self.layout) == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_mixture_value(self, two_qubit):
        # partial transpose spectrum {1/4, 1/4, (1 +- sqrt(2))/4}
        rho = asymptotic_two_qubit(two_qubit)
        expected = np.log2((1 + np.sqrt(2)) / 2)
        assert sr.log_negativity(rho, self.layout) == pytest.approx(expected, abs=1e-12)

    def test_basis_state_not_entangled(self):
        rho = pure(sr.named_state_vector("10", self.layout))
        assert abs(sr.log_negativity(rho, self.layout)) < 1e-10

    def test_product_state_fuzzing(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = sr.kron(random_density(rng, 2), random_density(rng, 2))
            assert abs(sr.log_negativity(rho, self.layout)) < 1e-10

    def test_local_phase_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            rho = random_density(rng, 4)
            base = sr.log_negativity(rho, self.layout)
            theta = rng.uniform(0, 2 * np.pi)
            phase = np.diag(np.exp(1j * theta * np.array([0, 0, 1, 1])))
            rotated = phase @ rho @ phase.conj().T
            assert abs(sr.log_negativity(rotated, self.layout) - base) < 1e-10

    def test_pair_reduction_on_three_qubits(self, three_qubit):
        # tracing one qubit out of W leaves (2/3)|psi+><psi+| + (1/3)|00><00|;
        # its partial transpose has trace norm p + sqrt((1-p)^2 + p^2), p = 2/3
        w = sr.named_state_vector("W", three_qubit.layout)
        value = sr.log_negativity(pure(w), three_qubit.layout, ((0,), (1,)))
        assert value == pytest.approx(np.log2((2 + np.sqrt(5)) / 3), abs=1e-12)

    def test_bad_bipartition(self):
        with pytest.raises(DimensionMismatch):
            sr.log_negativity(np.eye(4) / 4, self.layout, ((0,), (0,)))


class TestDarkSubspace:
    def test_two_qubit_singlet(self, two_qubit):
        sub = sr.dark_subspace(two_qubit, 1)
        assert sub.dimension == 1
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        assert abs(abs(np.vdot(singlet, sub.basis[:, 0])) - 1.0) < 1e-10

    def test_three_qubit_single_excitation_plane(self, three_qubit):
        sub = sr.dark_subspace(three_qubit, 1)
        assert sub.dimension == 2
        proj = sub.basis @ sub.basis.conj().T
        for label in ("psi2", "psi3"):
            vec = sr.named_state_vector(label, three_qubit.layout)
            assert np.linalg.norm(proj @ vec - vec) < 1e-9

    def test_three_qubit_double_excitation_empty(self, three_qubit):
        assert sr.dark_subspace(three_qubit, 2).dimension == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dimension_combinatorics(self, n):
        model = qubit_chain_model(n)
        for k in range(n + 1):
            expected = comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)
            assert sr.dark_subspace(model, k).dimension == max(expected, 0)

    def test_basis_vectors_are_annihilated(self):
        model = qubit_chain_model(4, weights=(1, 1j, -1, -1j))
        op = model.collective_ops[0]
        for k in range(1, 5):
            sub = sr.dark_subspace(model, k)
            for col in range(sub.dimension):
                assert np.linalg.norm(op @ sub.basis[:, col]) < 1e-9


    def test_memoised_per_model(self):
        model = qubit_chain_model(3)
        sub = sr.dark_subspace(model, 1)
        assert sr.dark_subspace(model, 1) is sub
        assert not sub.basis.flags.writeable
        with pytest.raises(ValueError):
            sub.basis[0, 0] = 1.0
        other = qubit_chain_model(3)
        assert sr.dark_subspace(other, 1) is not sub


class TestNesReport:
    def test_unbalanced_single_excitation(self, two_qubit):
        rho = pure(sr.named_state_vector("10", two_qubit.layout))
        report = sr.nes_report(rho, two_qubit)
        assert report.per_emitter_excitation == pytest.approx((1.0, 0.0))
        assert report.dark_weight == pytest.approx(0.5)
        assert report.is_nonequilibrium

    def test_balanced_double_excitation(self, two_qubit):
        rho = pure(sr.named_state_vector("11", two_qubit.layout))
        report = sr.nes_report(rho, two_qubit)
        assert report.per_emitter_excitation == pytest.approx((1.0, 1.0))
        assert report.dark_weight == pytest.approx(0.0, abs=1e-12)
        assert not report.is_nonequilibrium

    def test_vacuum(self, three_qubit):
        rho = pure(sr.named_state_vector("000", three_qubit.layout))
        report = sr.nes_report(rho, three_qubit)
        assert report.per_emitter_excitation == pytest.approx((0.0, 0.0, 0.0))
        assert report.dark_weight == pytest.approx(0.0, abs=1e-12)
        assert not report.is_nonequilibrium

    @settings(max_examples=40, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_partial_trace_oracle(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        rho = random_density(rng, model.dim)
        # oracle: one partial trace per emitter, one overlap per dark basis vector
        excitations = [
            1.0 - sr.partial_trace(rho, model.layout, (j,))[0, 0].real
            for j in range(model.layout.n_subsystems)
        ]
        weight = 0.0
        for k in range(1, int(model.levels.sum(axis=0).max()) + 1):
            basis = sr.dark_subspace(model, k).basis
            weight += sum(sr.dark_overlap(rho, basis[:, col]) for col in range(basis.shape[1]))
        report = sr.nes_report(rho, model)
        assert np.max(np.abs(np.array(report.per_emitter_excitation) - excitations)) < 1e-12
        assert abs(report.dark_weight - weight) < 1e-12
        assert report.is_nonequilibrium == (max(excitations) - min(excitations) > 1e-9)

    def test_constants_built_once_per_model_and_read_only(self, monkeypatch):
        calls = {"dark_subspace": 0, "basis_levels": 0}
        for module, name in ((observables, "dark_subspace"), (sr.model, "basis_levels")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        model = qubit_chain_model(4)
        rng = np.random.default_rng(7)
        for _ in range(3):
            sr.nes_report(random_density(rng, model.dim), model)
        # one dark subspace per excited sector k = 1..4; the readout reads the one basis table `build_model` keeps
        assert calls == {"dark_subspace": 4, "basis_levels": 1}

        proj = sr.dark_projector(model)
        ground = observables._ground_indicator(model)
        assert sr.dark_projector(model) is proj
        assert observables._ground_indicator(model) is ground
        for constant in (proj, ground):
            assert not constant.flags.writeable
            with pytest.raises(ValueError):
                constant[0, 0] = 1.0
        assert np.allclose(ground.sum(axis=0), 4 - model.levels.sum(axis=0))
        other = qubit_chain_model(4)
        assert sr.dark_projector(other) is not proj
        assert np.array_equal(sr.dark_projector(other), proj)


def purity_and_checks_row(initial):
    """The t = 0 row of a two-qubit run with the ``purity`` and ``checks`` observables, by column name."""
    scenario = sr.scenario_from_dict({
        "system": {"emitters": ["qubit", "qubit"], "collective": [{"rate": 0.001}]},
        "initial": [{"name": "rho0", **initial} if isinstance(initial, dict) else initial],
        "time": {"horizon": 1.0, "points": 2},
        "observables": ["purity", "checks"],
    })
    result = sr.run_scenario(scenario)
    return dict(zip(result.header, result.rows[0]))


def even_mixture(*labels):
    return {"mixture": [{"weight": 1.0, "state": label} for label in labels]}


class TestPurityAndChecks:
    def test_pure_state(self):
        checks = purity_and_checks_row("psi_plus")
        assert checks["purity"] == pytest.approx(1.0)
        assert checks["trace_error"] < 1e-12
        assert checks["herm_error"] < 1e-15
        assert checks["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)

    def test_rank_two_mixture(self):
        # the asymptotic state from 10: half singlet, half ground
        assert purity_and_checks_row(even_mixture("psi_minus", "00"))["purity"] == pytest.approx(0.5)

    def test_maximally_mixed(self):
        assert purity_and_checks_row(even_mixture("00", "01", "10", "11"))["purity"] == pytest.approx(0.25)


class TestTraceDistance:
    def test_identical_states(self):
        assert sr.trace_distance(np.eye(2) / 2, np.eye(2) / 2) == 0.0

    def test_orthogonal_pure_states(self, two_qubit):
        a = pure(sr.named_state_vector("10", two_qubit.layout))
        b = pure(sr.named_state_vector("01", two_qubit.layout))
        assert sr.trace_distance(a, b) == pytest.approx(1.0)


def test_dark_overlap_constant_links_to_dynamics(two_qubit):
    """Dark-sector populations recorded by nes_report stay constant in time."""
    rho0 = pure(sr.named_state_vector("10", two_qubit.layout))
    traj = sr.evolve(
        two_qubit,
        rho0,
        np.linspace(0.0, 4000.0, 9),
        observer=lambda t, r: {"dark": sr.nes_report(r, two_qubit).dark_weight},
    )
    assert np.max(np.abs(traj.records["dark"] - 0.5)) < 1e-8
