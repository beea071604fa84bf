"""Observables: energy, overlaps, log-negativity, dark structure, checks."""

from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import subrad as sr
import subrad.observables as observables
from subrad.errors import DimensionMismatch, NonNormalizable, ValidationError
from subrad.linalg import DimsLayout
from subrad.scenario import ObservableSpec, _observable_columns

from random_systems import LEVELS, partial_transpose, random_density, random_model, random_sector_state, trace_distance


# Three qubits on one collective channel from 100, the pair (0, 1) traced down to: the last emitter is left out.
PAIR_SCENARIO = {
    "system": {"emitters": ["qubit"] * 3, "collective": [{"rate": 1.0}]},
    "initial": "100",
    "time": {"unit": "kappa", "horizon": 30.0, "points": 61},
    "observables": [{"log_negativity": {"bipartition": [[0], [1]]}}, "checks"],
}


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


def per_emitter_log_negativity(rho, layout, bipartition):
    """log-negativity by one in-test `partial_transpose` per emitter of the second group, after `partial_trace` if needed."""
    group_b = sorted(bipartition[1])
    kept = sorted([*bipartition[0], *group_b])
    dims = tuple(layout.subsystem_dims[i] for i in kept)  # the layout left after the trace
    if len(kept) < layout.n_subsystems:
        rho = sr.partial_trace(rho, layout, kept)
    for j in group_b:
        rho = partial_transpose(rho, dims, kept.index(j))
    return float(np.log2(sr.trace_norm_hermitian(rho)))


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
    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 0.0, np.nan, np.inf])
    def test_refuses_a_target_that_is_not_unit(self, two_qubit, overlap, scale):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN: the target's norm is NaN
            target = scale * singlet
        with pytest.raises(NonNormalizable):
            overlap(pure(singlet), target)

    @pytest.mark.parametrize("overlap", [sr.dark_overlap, sr.dark_overlap_sqrt])
    def test_refuses_a_state_of_another_dimension(self, two_qubit, overlap):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        with pytest.raises(DimensionMismatch):
            overlap(np.eye(8) / 8, singlet)
        with pytest.raises(DimensionMismatch):
            overlap(np.full((4, 2), 0.25), singlet)

    @pytest.mark.parametrize("overlap", [sr.dark_overlap, sr.dark_overlap_sqrt])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imag-nan"])
    def test_refuses_a_non_finite_state_like_energy(self, two_qubit, overlap, bad):
        singlet = sr.named_state_vector("psi_minus", two_qubit.layout)
        for state in (np.full((4, 4), bad), pure(singlet).astype(complex) + np.diag([bad, 0, 0, 0])):
            with pytest.raises(DimensionMismatch):
                overlap(state, singlet)


class TestRunColumns:
    """`run_scenario`'s columns skip the public checks but keep their values, bit for bit."""

    @settings(max_examples=40, deadline=None)
    # a pair traced down
    @example(levels=[2, 3, 2], n_collective=1, n_local=1, driven=True, n_kept=2, n_states=1, seed=5)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        n_kept=st.integers(2, 4),
        n_states=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_columns_equal_public_functions(self, levels, n_collective, n_local, driven, n_kept, n_states,
                                                     seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, levels, n_collective, n_local, driven)
        states = []
        for _ in range(n_states):
            rho, _ = random_sector_state(rng, model)
            states.append((rho + rho.conj().T) / 2.0)  # as `evolve` hands it over
        # a random target resolved the way `Scenario` resolves one: through `state_vector`
        labels = ["".join(map(str, column)) for column in model.levels.T]
        amplitudes = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        spec = sr.StateSpec(amplitudes=tuple(zip(labels, amplitudes)))
        target = sr.state_vector(spec, model.layout)
        # unsorted groups of n_kept emitters; fewer than all are traced down to
        kept = rng.permutation(len(levels))[: min(n_kept, len(levels))].tolist()
        cut = int(rng.integers(1, len(kept)))
        bipartition = (tuple(kept[:cut]), tuple(kept[cut:]))
        columns = []
        for ob in (
            ObservableSpec("energy"),
            ObservableSpec("fidelity", spec),
            ObservableSpec("fidelity", spec, True),
            ObservableSpec("nes"),
            ObservableSpec("log_negativity", bipartition=bipartition),
        ):
            columns.extend(_observable_columns(ob, target, model))

        def read(stack):  # each column's k values, by name
            values = {}
            for names, column in columns:
                values.update(zip(names, column(stack)))
            assert all(np.shape(value) == (len(stack),) for value in values.values())
            return values

        stacked = read(np.stack(states))
        negativity_name = "log_negativity[" + "|".join(" ".join(map(str, group)) for group in bipartition) + "]"
        for j, rho in enumerate(states):
            values = {name: value[0] for name, value in read(rho[None]).items()}
            # a state of the stack reads what its stack of one reads, bit for bit
            own = np.array(list(values.values()))
            assert np.array([value[j] for value in stacked.values()]).tobytes() == own.tobytes()
            report = sr.nes_report(rho, model)
            expected = {
                "energy": sr.energy(rho, model),
                "fidelity": sr.dark_overlap(rho, target),
                "fidelity_sqrt": sr.dark_overlap_sqrt(rho, target),
                **{f"nes_excitation_{i}": x for i, x in enumerate(report.per_emitter_excitation)},
                "nes_dark_weight": report.dark_weight,
                "nes_is_nonequilibrium": float(report.is_nonequilibrium),
                negativity_name: sr.log_negativity(rho, model.layout, bipartition),
            }
            assert list(values) == list(expected)
            assert own.tobytes() == np.array(list(expected.values())).tobytes()
            assert values["fidelity_sqrt"] == np.sqrt(max(values["fidelity"], 0.0))
            # the one-permutation partial transpose reads what one transpose per emitter reads
            assert values[negativity_name] == per_emitter_log_negativity(rho, model.layout, bipartition)

    def test_public_functions_of_one_state_return_floats(self):
        model = qubit_chain_model(3)
        rho = random_density(np.random.default_rng(3), model.dim)
        target = sr.named_state_vector("W", model.layout)
        values = (
            sr.energy(rho, model),
            sr.dark_overlap(rho, target),
            sr.dark_overlap_sqrt(rho, target),
            sr.log_negativity(rho, model.layout, ((0,), (1, 2))),
            sr.trace_norm_hermitian(rho),
        )
        assert [type(value) for value in values] == [float] * 5
        report = sr.nes_report(rho, model)
        assert [type(value) for value in (*report.per_emitter_excitation, report.dark_weight)] == [float] * 4
        assert type(report.is_nonequilibrium) is bool

    @pytest.mark.parametrize(
        "data",
        [sr.load_preset("nqubit:4"), sr.load_preset("fig3e-clockwork"), PAIR_SCENARIO],
        ids=["nqubit:4", "fig3e-clockwork", "three-qubit-pair"],
    )
    def test_no_column_checks_the_state_again(self, monkeypatch, data):
        """`evolve` has checked each grid-point state; the nes and log-negativity columns read it as it is,
        also when the bipartition leaves an emitter to be traced out."""
        scenario = sr.scenario_from_dict(data)
        calls = []
        original = DimsLayout.check_matrix

        def counting(layout, *args, **kwargs):
            calls.append(layout)
            return original(layout, *args, **kwargs)

        monkeypatch.setattr(DimsLayout, "check_matrix", counting)
        result = sr.run_scenario(scenario)
        assert any(name.startswith(("nes_", "log_negativity")) for name in result.header)
        assert calls == []


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

    def test_traced_down_pair_reaches_its_closed_form(self):
        # 100 keeps 2/3 in the dark psi2 and the rest decays to 000; the pair (0, 1) of that state has the partial
        # transpose spectrum {1/9, 4/9, (2 +- 2 sqrt(2))/9}.  The same bound holds in a CI step on the CLI's CSV.
        result = sr.run_scenario(sr.scenario_from_dict(PAIR_SCENARIO), check_strict=True)
        final = result.rows[-1, result.header.index("log_negativity[0|1]")]
        assert abs(final - np.log2((5 + 4 * np.sqrt(2)) / 9)) < 1e-9

    def test_basis_state_not_entangled(self):
        rho = pure(sr.named_state_vector("10", self.layout))
        assert abs(sr.log_negativity(rho, self.layout)) < 1e-10

    def test_product_state_fuzzing(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
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

    @pytest.mark.parametrize(
        "bipartition, error",
        [
            pytest.param(((0,), (0,)), DimensionMismatch, id="shared"),
            pytest.param(((0, 0), (1,)), DimensionMismatch, id="repeated-in-a-group"),
            pytest.param(((0.5,), (1,)), ValidationError, id="non-integral"),
        ],
    )
    def test_bad_bipartition(self, bipartition, error):
        with pytest.raises(error):
            sr.log_negativity(np.eye(4) / 4, self.layout, bipartition)

    @pytest.mark.parametrize(
        "bipartition, reason",
        [
            pytest.param(((0,), (2,)), "out of range for 2 emitters", id="range"),
            pytest.param(((0, 1), (1,)), "must be two disjoint non-empty groups of distinct emitters", id="overlap"),
        ],
    )
    def test_scenario_and_function_share_the_rule(self, bipartition, reason):
        """The public function raises `DimensionMismatch`; a file fails with `ValidationError` naming the observable."""
        with pytest.raises(DimensionMismatch, match=reason):
            sr.log_negativity(np.eye(4) / 4, self.layout, bipartition)
        data = {
            "system": {"emitters": ["qubit", "qubit"], "collective": [{"rate": 0.001}]},
            "initial": "10",
            "time": {"horizon": 1.0, "points": 2},
            "observables": ["energy", {"log_negativity": {"bipartition": [list(group) for group in bipartition]}}],
        }
        with pytest.raises(ValidationError, match=rf"^observables\[1\]: bipartition .* {reason}"):
            sr.scenario_from_dict(data)


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

    def test_flag_off_at_its_threshold_and_on_at_the_next_float(self, monkeypatch, two_qubit):
        """A spread of exactly ``NES_EQUAL_TOL`` is equilibrium; one float more is not (the tolerance set to the
        spread a mixed state gives, as the validity thresholds are tested)."""
        rho = 0.3 * pure(sr.named_state_vector("10", two_qubit.layout)) + 0.7 * np.diag([1.0, 0.0, 0.0, 0.0])
        excitations = sr.nes_report(rho, two_qubit).per_emitter_excitation
        spread = max(excitations) - min(excitations)
        assert spread > 0.0
        for tol, flagged in ((spread, False), (float(np.nextafter(spread, 0.0)), True)):
            monkeypatch.setattr(observables, "NES_EQUAL_TOL", tol)
            assert sr.nes_report(rho, two_qubit).is_nonequilibrium is flagged
            *_, (flag,) = observables.nes_values(two_qubit)(rho[None])
            assert flag is flagged

    def test_constants_built_once_per_model_and_read_only(self, monkeypatch):
        """The dark projector is kept on the model; `nes_values` binds it and the ground-level indicator once."""
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
        values = observables.nes_values(model)
        # one dark subspace per excited sector k = 1..4; the readout reads the one basis table `build_model` keeps
        assert calls == {"dark_subspace": 4, "basis_levels": 1}

        proj = sr.dark_projector(model)
        assert sr.dark_projector(model) is proj
        assert not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
        # on each basis state of four qubits, the excitations sum to its excited-emitter count
        excitations = np.array(values(np.stack([np.diag(e) for e in np.eye(model.dim)]))[:4]).T
        assert np.array_equal(excitations.sum(axis=1), model.levels.sum(axis=0))
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
    """The in-test formula the acceptance criteria measure final states with."""

    def test_identical_states(self):
        assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == 0.0

    def test_orthogonal_pure_states(self, two_qubit):
        a = pure(sr.named_state_vector("10", two_qubit.layout))
        b = pure(sr.named_state_vector("01", two_qubit.layout))
        assert trace_distance(a, b) == pytest.approx(1.0)


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
