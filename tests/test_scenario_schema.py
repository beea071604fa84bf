"""The scenario schema: dump/parse round trips on random scenarios, and one test per rejected-input family."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subrad as sr
from subrad.errors import ValidationError
from subrad.model import basis_index
from subrad.scenario import (
    ObservableSpec, OutputSpec, ReductionSpec, SweepSpec, TimeSpec, parse_sweep, scenario_to_dict,
)

from random_systems import LEVELS, random_system
from test_scenario import TINY_SCENARIO


def random_label(rng, layout):
    return "".join(str(rng.integers(d)) for d in layout.subsystem_dims)


def random_weight(rng):
    if rng.random() < 0.5:
        return complex(rng.normal())
    return complex(rng.normal(), rng.normal())


def random_pure_state(rng, layout):
    """A named label or a non-empty amplitude table over distinct basis labels."""
    n = layout.n_subsystems
    named = ["vacuum", random_label(rng, layout)]
    if n == 2 and layout.subsystem_dims == (2, 2):
        named += ["psi_plus", "psi_minus"]
    if n == 3 and layout.subsystem_dims == (2, 2, 2):
        named += ["W", "psi1", "psi2", "psi3"]
    if rng.random() < 0.5:
        return sr.StateSpec.named(named[rng.integers(len(named))])
    labels = {random_label(rng, layout) for _ in range(rng.integers(1, 4))}
    return sr.StateSpec(amplitudes=tuple((label, random_weight(rng)) for label in sorted(labels)))


def random_state(rng, layout, depth=0):
    """A pure state, or a mixture (possibly nested once) with positive weights."""
    if depth < 2 and rng.random() < 0.3:
        parts = [(float(rng.uniform(0.1, 1.0)), random_state(rng, layout, depth + 1)) for _ in range(rng.integers(1, 4))]
        return sr.StateSpec(mixture=tuple(parts))
    return random_pure_state(rng, layout)


def random_initials(rng, layout):
    """Plain labels, renamed labels, amplitude tables and mixtures, each under a distinct name."""
    initials = []
    for k in range(rng.integers(1, 4)):
        spec = random_state(rng, layout)
        if spec.label is not None and rng.random() < 0.5:
            name = spec.label
        else:
            name = f"state{k}"
        if name in [label for label, _ in initials]:
            name = f"{name}_{k}"
        initials.append((name, spec))
    return tuple(initials)


def random_observables(rng, layout):
    n = layout.n_subsystems
    perm = [int(j) for j in rng.permutation(n)]
    cut = int(rng.integers(1, n))
    observables = [
        ObservableSpec("energy"),
        ObservableSpec("purity"),
        ObservableSpec("nes"),
        ObservableSpec("checks"),
        ObservableSpec("fidelity", target=random_pure_state(rng, layout), sqrt=bool(rng.random() < 0.5)),
        ObservableSpec("log_negativity", bipartition=(tuple(perm[:cut]), tuple(perm[cut:]))),
    ]
    keep = [ob for ob in observables if rng.random() < 0.7] or observables[:1]
    return tuple(keep[i] for i in rng.permutation(len(keep)))


def optional_step(rng):
    return None if rng.random() < 0.5 else float(rng.uniform(1e-3, 1.0))


def random_scenario(rng, levels, n_collective, n_local, driven):
    system = random_system(rng, levels, n_collective, n_local, driven)
    frames = [("rotating", float(rng.uniform(0.5, 1.5))), ("rotating", 1.0)] + ([] if driven else [("lab", 1.0)])
    frame, frame_frequency = frames[rng.integers(len(frames))]
    dim = int(np.prod(levels))
    system = replace(system, frame=frame, frame_frequency=frame_frequency, dimension_cap=int(rng.integers(dim, 300)))
    layout = system.layout()
    units = ["omega", "kappa"] if system.collective_channels else ["omega"]
    integrator = sr.IntegratorConfig(
        rel_tol=float(rng.uniform(1e-10, 1e-6)),
        abs_tol=float(rng.uniform(1e-12, 1e-8)),
        initial_step=optional_step(rng),
        fixed_step=optional_step(rng),
    )
    return sr.Scenario(
        name=f"random-{rng.integers(1000)}",
        system=system,
        initials=random_initials(rng, layout),
        time=TimeSpec(unit=units[rng.integers(len(units))], horizon=float(rng.uniform(0.1, 1e4)),
                      points=int(rng.integers(2, 500))),
        observables=random_observables(rng, layout),
        integrator=integrator,
        output=OutputSpec(path=None if rng.random() < 0.5 else f"out-{rng.integers(100)}.csv"),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_scenarios_round_trip(self, levels, n_collective, n_local, driven, seed):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, levels, n_collective, n_local, driven)
        text = sr.dump_scenario(scenario)
        parsed = sr.parse_scenario(text)
        assert sr.dump_scenario(parsed) == text
        for name in ("name", "system", "initials", "time", "observables", "integrator", "output"):
            assert getattr(parsed, name) == getattr(scenario, name), name

    def test_amplitude_states_keep_their_basis_positions(self):
        scenario = sr.scenario_from_dict(TINY_SCENARIO)
        layout = scenario.system.layout()
        spec = sr.StateSpec(amplitudes=(("01", 0.5), ("10", -1j)))
        data = json.loads(sr.dump_scenario(replace(scenario, initials=(("mixed", spec),))))
        assert data["initial"] == [{"name": "mixed", "amplitudes": {"01": 0.5, "10": [0.0, -1.0]}}]
        vec = sr.state_vector(sr.scenario_from_dict(data).initials[0][1], layout)
        assert vec[basis_index(layout, (1, 0))] == pytest.approx(-2j / np.sqrt(5))


def edited(edit):
    data = json.loads(json.dumps(TINY_SCENARIO))
    edit(data)
    return data


def system(**kw):
    return lambda d: d["system"].update(kw)


def collective(**kw):
    return lambda d: d["system"]["collective"][0].update(kw)


def time(**kw):
    return lambda d: d["time"].update(kw)


def initial(*states):
    return lambda d: d.update(initial=list(states))


def observable(entry):
    return lambda d: d["observables"].append(entry)


# One entry per family of invalid scenario input; each must raise `ValidationError`.
SCENARIO_FAMILIES = [
    pytest.param(lambda d: d.pop("time"), id="missing-required-key"),
    pytest.param(time(horizon="100"), id="not-a-number"),
    pytest.param(time(points=2.5), id="not-an-integer"),
    pytest.param(lambda d: d["observables"][1]["fidelity"].update(sqrt=1), id="not-a-boolean"),
    pytest.param(system(local=5), id="not-a-list"),
    pytest.param(system(local=[{"rate": 0.01, "emitter": 0, "transition": [1]}]), id="not-a-transition"),
    pytest.param(collective(weights=[1.0, "x"]), id="not-a-weight"),
    pytest.param(collective(weights=[1.0]), id="weight-count"),
    pytest.param(collective(transitions=[[1, 0]]), id="transition-count"),
    pytest.param(collective(rate=-1.0), id="negative-rate"),
    pytest.param(system(local=[{"rate": -0.5, "emitter": 0}]), id="negative-local-rate"),
    pytest.param(collective(weights=[1.0, 0.0]), id="one-active-emitter"),
    pytest.param(system(emitters=[]), id="no-emitters"),
    pytest.param(system(emitters=["qutrit", "qubit"]), id="emitter-kind"),
    pytest.param(system(emitters=[{"levels": 1, "frequencies": [0.0]}, "qubit"]), id="emitter-levels"),
    pytest.param(system(emitters=[{"levels": 2}, "qubit"]), id="emitter-frequencies-missing"),
    pytest.param(system(emitters=[{"levels": 2, "frequencies": [0.0, 1.0, 2.0]}, "qubit"]), id="frequency-count"),
    pytest.param(system(emitters=[{"levels": 2, "frequencies": [0.5, 1.0]}, "qubit"]), id="frequency-origin"),
    pytest.param(system(frame="moving"), id="frame"),
    pytest.param(system(frame={"rotating": 1.0, "lab": True}), id="frame-object"),
    pytest.param(system(dimension_cap="big"), id="dimension-cap"),
    pytest.param(initial(), id="no-initial-state"),
    pytest.param(initial(5), id="initial-kind"),
    pytest.param(initial({"amplitudes": {"10": 1.0}}), id="initial-without-name"),
    pytest.param(initial("10", "10"), id="duplicate-initial"),
    pytest.param(initial({"name": "x"}), id="state-kind"),
    pytest.param(initial({"name": "x", "amplitudes": {}}), id="empty-amplitudes"),
    pytest.param(initial({"name": "x", "amplitudes": {"10": "one"}}), id="amplitude-value"),
    pytest.param(initial({"name": "x", "mixture": []}), id="empty-mixture"),
    pytest.param(initial({"name": "x", "mixture": [{"weight": 1.0}]}), id="mixture-part"),
    pytest.param(initial({"name": "x", "mixture": [{"weight": "1", "state": "10"}]}), id="mixture-weight"),
    pytest.param(lambda d: d.update(time=5), id="time-not-object"),
    pytest.param(time(unit="seconds"), id="time-unit"),
    pytest.param(lambda d: d["system"].update(collective=[]) or d["time"].update(unit="kappa"), id="kappa-unit"),
    pytest.param(time(horizon=0.0), id="horizon"),
    pytest.param(time(points=1), id="points"),
    pytest.param(lambda d: d.update(observables=[]), id="no-observables"),
    pytest.param(observable("entropy"), id="observable-kind"),
    pytest.param(observable({"fidelity": {"sqrt": True}}), id="fidelity-target-missing"),
    pytest.param(observable({"fidelity": "psi_minus"}), id="fidelity-not-object"),
    pytest.param(observable({"log_negativity": 5}), id="log-negativity-not-object"),
    pytest.param(observable({"log_negativity": {"bipartition": [[0]]}}), id="bipartition-shape"),
    pytest.param(observable({"log_negativity": {"bipartition": [[0], []]}}), id="bipartition-empty-group"),
    pytest.param(observable({"log_negativity": {"bipartition": [[0], [2]]}}), id="bipartition-range"),
    pytest.param(observable({"log_negativity": {"bipartition": [[0, 1], [1]]}}), id="bipartition-overlap"),
    pytest.param(lambda d: d.update(integrator=5), id="integrator-not-object"),
    pytest.param(lambda d: d.update(integrator={"rel_tol": -1.0}), id="integrator-tolerance"),
    pytest.param(lambda d: d.update(integrator={"fixed_step": 0.0}), id="integrator-step"),
    pytest.param(lambda d: d.update(output=5), id="output-not-object"),
    pytest.param(lambda d: d.update(output={"format": "tsv"}), id="output-format"),
    pytest.param(lambda d: d["time"].update(extra=1), id="unknown-key"),
]


@pytest.mark.parametrize("edit", SCENARIO_FAMILIES)
def test_scenario_validation_families(edit):
    with pytest.raises(ValidationError):
        sr.scenario_from_dict(edited(edit))


@pytest.mark.parametrize("data", [[], "fig2", None])
def test_scenario_top_level_must_be_an_object(data):
    with pytest.raises(ValidationError):
        sr.scenario_from_dict(data)


def sweep_text(**kw):
    doc = {"base": TINY_SCENARIO, "axes": {"system.collective[0].rate": [0.05]}}
    doc.update(kw)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


# One entry per family of invalid sweep input; each must raise `ValidationError`.
SWEEP_FAMILIES = [
    pytest.param("[]", id="top-level-not-object"),
    pytest.param(sweep_text(extra=1), id="unknown-key"),
    pytest.param(sweep_text(base=None), id="missing-base"),
    pytest.param(sweep_text(axes=None), id="missing-axes"),
    pytest.param(sweep_text(base=5), id="base-kind"),
    pytest.param(sweep_text(base={"name": "no-system"}), id="base-invalid"),
    pytest.param(sweep_text(axes={}), id="no-axes"),
    pytest.param(sweep_text(axes=[["system.collective[0].rate", [0.05]]]), id="axes-not-object"),
    pytest.param(sweep_text(axes={"system.collective[0].rate": 0.05}), id="axis-values"),
    pytest.param(sweep_text(axes={"system..collective[x]": [0.05]}), id="axis-path"),
    pytest.param(sweep_text(axes={"system.collective[\u0660].rate": [0.05]}), id="axis-path-non-ascii-index"),
    pytest.param(sweep_text(axes={"system.local[0].rate|": [0.05]}), id="joint-axis-path"),
    pytest.param(sweep_text(reductions=[5]), id="reduction-not-object"),
    pytest.param(sweep_text(reductions=[{"column": "energy", "kind": "mean"}]), id="reduction-kind"),
    pytest.param(sweep_text(reductions=[{"kind": "final"}]), id="reduction-column"),
    pytest.param(sweep_text(reductions=[{"column": "energy", "t_min": "5"}]), id="reduction-t-min"),
    pytest.param(sweep_text(reductions=[{"column": "energy", "t_max": "5"}]), id="reduction-t-max"),
    pytest.param(sweep_text(reductions=[{"column": "energy", "kind": "fit_exp_rate", "t_min": 80, "t_max": 20}]),
                 id="reduction-window-reversed"),
    pytest.param(sweep_text(reductions=[{"column": "energy", "t_min": 5.0}]), id="final-reduction-window"),
]


@pytest.mark.parametrize("text", SWEEP_FAMILIES)
def test_sweep_validation_families(text):
    with pytest.raises(ValidationError):
        parse_sweep(text)


def test_sweep_defaults():
    sweep = parse_sweep(sweep_text(reductions=[{"column": "energy"}]))
    assert sweep.reductions == (ReductionSpec("energy", "final", "final_energy", 0.0, None),)
    for reductions in (None, []):
        sweep = parse_sweep(sweep_text(reductions=reductions))
        assert sweep.reductions == (ReductionSpec("trace_error", "final", "final_trace_error", 0.0, None),)
    joint = parse_sweep(sweep_text(axes={"system.collective[0].rate|time.horizon": [0.05, 0.1]}))
    assert joint.axes == (("system.collective[0].rate|time.horizon", (0.05, 0.1)),)
    assert scenario_to_dict(joint.base) == scenario_to_dict(sr.scenario_from_dict(TINY_SCENARIO))


NAN, INF = float("nan"), float("inf")

# `json.loads` reads NaN, Infinity and 10**400; each must fail as a `ValidationError` naming its path.
NON_FINITE = [
    pytest.param(collective(rate=NAN), "system.collective[0].rate", id="rate"),
    pytest.param(
        system(emitters=[{"levels": 2, "frequencies": [0.0, NAN]}, "qubit"]),
        "system.emitters[0].frequencies[1]",
        id="frequency",
    ),
    pytest.param(time(horizon=INF), "time.horizon", id="horizon"),
    pytest.param(collective(weights=[[1.0, INF], 1.0]), "system.collective[0].weights[0]", id="re-im-weight"),
    pytest.param(collective(weights=[-INF, 1.0]), "system.collective[0].weights[0]", id="real-weight"),
    pytest.param(time(horizon=10**400), "time.horizon", id="integer-beyond-float"),
]


@pytest.mark.parametrize("edit, path", NON_FINITE)
def test_non_finite_numbers_are_refused(edit, path):
    text = json.dumps(edited(edit))
    with pytest.raises(ValidationError, match=rf"^{re.escape(path)}: expected a finite number"):
        sr.parse_scenario(text)


def test_non_finite_sweep_axis_value_fails_its_point():
    sweep = parse_sweep(sweep_text(axes={"system.collective[0].rate": [0.05, NAN]}))
    result = sr.run_sweep(sweep)
    assert [row[-1] for row in result.rows] == ["ok", "error:ValidationError"]
    assert result.failed == 1


def spec_classes():
    """`Scenario` and every spec class that the kinds of its fields name, at any depth."""
    found, kinds = set(), [sr.Scenario]
    while kinds:
        kind = kinds.pop()
        if isinstance(kind, tuple):  # an entry, `Seq` or `Opt`
            kinds.extend(kind)
        elif isinstance(kind, type) and kind not in found:
            found.add(kind)
            kinds.extend(f.metadata["kind"] for f in fields(kind) if "kind" in f.metadata)
    return found


def test_schema_names_every_key_the_reader_accepts():
    """The schema in the module docstring is written by hand; every key of a derived reader table must be in it."""
    schema = sr.scenario.__doc__.split("Sweep files:")[0]
    tables = [sr.scenario._spec_table(cls) for cls in spec_classes()]
    tables += [sr.scenario._INITIAL, sr.scenario._POLAR, sr.scenario._PART]
    assert len(tables) == 11 + 3  # from `Scenario` down to `LocalChannelSpec` and `IntegratorConfig`
    missing = {key for table in tables for key in table if f'"{key}"' not in schema}
    assert not missing


def test_sweep_schema_names_every_key_the_sweep_reader_accepts():
    """Every key of the sweep reader's tables, derived from `SweepSpec` and `ReductionSpec`, is in "Sweep files:"."""
    schema = sr.scenario.__doc__.split("Sweep files:")[1]
    tables = [sr.scenario._spec_table(cls) for cls in (SweepSpec, ReductionSpec)]
    assert sorted(tables[0]) == ["axes", "base", "reductions"]
    missing = {key for table in tables for key in table if f'"{key}"' not in schema}
    assert not missing
