"""Scenario schema, presets, CSV output, sweeps and the CLI."""

import copy
import csv
import io
import json
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subrad as sr
from subrad.cli import main
from subrad.errors import (
    InvariantBreach, NonNormalizable, ParseError, SubradError, UnknownLabel, ValidationError,
)
from subrad.scenario import (
    ObservableSpec, OutputSpec, ReductionSpec, TimeSpec, format_csv, format_sweep_csv, parse_sweep, run_sweep,
    scenario_to_dict,
)

from random_systems import LEVELS, random_sector_state, random_system

TINY_SCENARIO = {
    "name": "tiny",
    "system": {
        "emitters": ["qubit", "qubit"],
        "collective": [{"rate": 0.05, "weights": [1.0, 1.0]}],
        "frame": {"rotating": 1.0},
    },
    "initial": ["10"],
    "time": {"unit": "omega", "horizon": 100.0, "points": 11},
    "observables": ["energy", {"fidelity": {"target": "psi_minus"}}],
}


class TestParsing:
    def test_fig2_preset(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig2"))
        assert len(scenario.system.emitters) == 2
        assert all(e.levels == 2 for e in scenario.system.emitters)
        assert all(
            e.level_frequencies == (0.0, 1.0) for e in scenario.system.emitters
        )
        assert scenario.system.collective_channels[0].rate == pytest.approx(0.001)
        assert [label for label, _ in scenario.initials] == [
            "11", "10", "psi_minus", "psi_plus",
        ]
        assert scenario.time.horizon == pytest.approx(1e4)

    def test_negative_rate_rejected(self):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["system"]["collective"][0]["rate"] = -1.0
        with pytest.raises(ValidationError):
            sr.scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "emitters, weights, message",
        [
            pytest.param([], [1.0, 1.0], "at least one emitter is required", id="no-emitters"),
            pytest.param(["qubit", "qubit"], [1.0], "needs one weight per emitter", id="one-weight"),
        ],
    )
    def test_collective_shape_is_checked_by_the_system(self, emitters, weights, message):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["system"].update(emitters=emitters, collective=[{"rate": 0.05, "weights": weights}])
        with pytest.raises(ValidationError, match=message):
            sr.scenario_from_dict(bad)

    def test_collective_weights_default_to_one_per_emitter_in_the_system(self):
        """A hand-built channel without weights gets them from its system, as a file's channel does."""
        system = sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, (sr.CollectiveChannelSpec(0.1),))
        data = {**TINY_SCENARIO, "system": {"emitters": ["qubit"] * 2, "collective": [{"rate": 0.1}]}}
        assert system == sr.scenario_from_dict(data).system
        assert system.collective_channels[0].weights == (1.0, 1.0)
        assert system.collective_channels[0].transitions == ((1, 0), (1, 0))

    def test_empty_text_is_parse_error(self):
        with pytest.raises(ParseError):
            sr.parse_scenario("")

    def test_unknown_initial_label(self):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["initial"] = ["psi_wrong"]
        with pytest.raises(UnknownLabel):
            sr.scenario_from_dict(bad)

    def test_unknown_keys_rejected(self):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["extra"] = 1
        with pytest.raises(ValidationError):
            sr.scenario_from_dict(bad)

    def test_round_trip_is_identity(self):
        for preset in ("fig2", "fig3a", "fig3c", "fig3e-clockwork", "fig4", "nqubit:3"):
            first = sr.scenario_from_dict(sr.load_preset(preset))
            text = sr.dump_scenario(first)
            second = sr.parse_scenario(text)
            assert sr.dump_scenario(second) == text

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda d: d["system"]["emitters"].__setitem__(1, {"levels": 2, "frequencies": [0, 1], "level": 3}),
                id="emitter",
            ),
            pytest.param(lambda d: d["system"]["collective"][0].update(rates=0.1), id="collective"),
            pytest.param(lambda d: d["system"].update(local=[{"rate": 0.01, "emiter": 1}]), id="local"),
            pytest.param(
                lambda d: d["system"].update(drives=[{"amplitude": 0.1, "transition": [1, 0], "detunning": 0.1}]),
                id="drives",
            ),
            pytest.param(lambda d: d["time"].update(point=3), id="time"),
            pytest.param(lambda d: d.update(output={"path": None, "fromat": "csv"}), id="output"),
            pytest.param(lambda d: d["observables"][1]["fidelity"].update(sqrtt=True), id="fidelity"),
            pytest.param(
                lambda d: d["observables"].append({"log_negativity": {"bipartition": [[0], [1]], "groups": []}}),
                id="log_negativity",
            ),
        ],
    )
    def test_unknown_nested_keys_rejected(self, edit):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        edit(bad)
        with pytest.raises(ValidationError, match="unknown keys"):
            sr.scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: d["system"].update(local=5), id="local"),
            pytest.param(lambda d: d["system"].update(drives={"amplitude": 0.1}), id="drives"),
            pytest.param(lambda d: d["system"].update(collective="rate"), id="collective"),
            pytest.param(lambda d: d["system"].update(local=[{"rate": 0.01, "transition": 5}]), id="transition"),
            pytest.param(lambda d: d["system"]["collective"][0].update(transitions=[[1, 0], 1]), id="transitions"),
            pytest.param(
                lambda d: d["observables"].append({"log_negativity": {"bipartition": [0, [1]]}}),
                id="bipartition-group",
            ),
        ],
    )
    def test_wrong_shapes_are_validation_errors(self, edit):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        edit(bad)
        with pytest.raises(ValidationError):
            sr.scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "edit, read",
        [
            pytest.param(
                lambda d, v: d["observables"][1]["fidelity"].update(sqrt=v),
                lambda s: s.observables[1].sqrt,
                id="sqrt",
            ),
        ],
    )
    def test_booleans_are_json_booleans(self, edit, read):
        for value in (True, False):
            data = json.loads(json.dumps(TINY_SCENARIO))
            edit(data, value)
            assert read(sr.scenario_from_dict(data)) is value
        for value in ("false", 0, None):
            data = json.loads(json.dumps(TINY_SCENARIO))
            edit(data, value)
            with pytest.raises(ValidationError):
                sr.scenario_from_dict(data)

    def test_every_preset_parses(self):
        for name, _ in sr.list_presets():
            assert sr.scenario_from_dict(sr.load_preset(name)).name

    def test_weight_phases(self):
        data = json.loads(json.dumps(TINY_SCENARIO))
        data["system"]["collective"][0]["weights"] = [
            1.0,
            {"magnitude": 1.0, "phase": np.pi},
        ]
        scenario = sr.scenario_from_dict(data)
        assert scenario.system.collective_channels[0].weights[1] == pytest.approx(-1.0)


def with_system(scenario, **fields):
    return replace(scenario, system=replace(scenario.system, **fields))


# Each spec field that a file reads through a value checker: ``(field, make, good, bad)``,
# where ``make(scenario, value)`` puts ``value`` in that field of a scenario built from TINY_SCENARIO.
NUMBERS = (float("nan"), float("inf"), True, "0.1")
CHECKED_FIELDS = [
    ("level_frequencies", lambda s, v: with_system(s, emitters=(sr.EmitterSpec(2, (0, v)), sr.EmitterSpec.qubit())),
     np.float64(1.02), NUMBERS),
    ("level_frequencies", lambda s, v: with_system(s, emitters=(sr.EmitterSpec.qubit(v),) * 2), 1, NUMBERS),
    ("rate", lambda s, v: with_system(s, collective_channels=(sr.CollectiveChannelSpec(v, (1, 1)),)),
     np.float32(0.05), NUMBERS),
    ("weights", lambda s, v: with_system(s, collective_channels=(sr.CollectiveChannelSpec(0.05, (1, v)),)),
     np.complex128(1j), NUMBERS + (complex(1.0, float("nan")),)),
    ("rate", lambda s, v: with_system(s, local_channels=(sr.LocalChannelSpec(v, 0),)), np.int64(1), NUMBERS),
    ("transition", lambda s, v: with_system(s, local_channels=(sr.LocalChannelSpec(0.1, 0, v),)), [1, 0], ((1, 0, 7),)),
    ("amplitude", lambda s, v: with_system(s, drives=(sr.DriveSpec(v, 0, (1, 0)),)), 0.1, NUMBERS),
    ("drive_detuning", lambda s, v: with_system(s, drives=(sr.DriveSpec(0.1, 0, (1, 0), v),)), np.int64(1), NUMBERS),
    ("frame_frequency", lambda s, v: with_system(s, frame_frequency=v), np.float64(1.01), NUMBERS),
    ("horizon", lambda s, v: replace(s, time=TimeSpec("omega", v, 3)), 2, NUMBERS + (Fraction(10**400),)),
    ("sqrt", lambda s, v: replace(s, observables=(ObservableSpec("fidelity", sr.StateSpec.named("psi_minus"), v),)),
     np.True_, ("no",)),
    ("name", lambda s, v: replace(s, name=v), "renamed", (5,)),
    ("path", lambda s, v: replace(s, output=OutputSpec(path=v)), "out.csv", (5,)),
    ("initial", lambda s, v: replace(s, initials=((v, sr.StateSpec.named("10")),)), "ten", (5,)),
    ("label", lambda s, v: replace(s, initials=(("x", sr.StateSpec(label=v)),)), "01", (10,)),
    ("amplitudes", lambda s, v: replace(s, initials=(("x", sr.StateSpec(amplitudes=((v, 1.0),))),)), "01", (10,)),
    ("amplitudes", lambda s, v: replace(s, initials=(("x", sr.StateSpec(amplitudes=(("10", 1.0), ("01", v)))),)),
     np.complex128(0.5j), NUMBERS),
    ("mixture", lambda s, v: replace(s, initials=(("x", sr.StateSpec(mixture=((v, sr.StateSpec.named("10")),))),)),
     np.float64(0.5), NUMBERS),
]

# Each spec field that holds specs or a tuple: ``(field, make, good, bad)`` as above, with one bad value of another type.
NESTED_FIELDS = [
    ("initial", lambda s, v: replace(s, initials=(("x", v),)), sr.StateSpec.named("10"), "10"),
    ("mixture", lambda s, v: replace(s, initials=(("x", sr.StateSpec(mixture=((1.0, v),))),)), sr.StateSpec.named("10"),
     "10"),
    ("target", lambda s, v: replace(s, observables=(ObservableSpec("fidelity", v),)), sr.StateSpec.named("01"),
     "psi_minus"),
    ("kind", lambda s, v: replace(s, observables=(ObservableSpec(v),)), "energy", ["energy"]),
    ("level_frequencies", lambda s, v: with_system(s, emitters=(sr.EmitterSpec(2, v),) * 2), [0, 1.5], 5),
    ("emitters", lambda s, v: with_system(s, emitters=(v, v)), sr.EmitterSpec.qubit(), "qubit"),
    ("local_channels", lambda s, v: with_system(s, local_channels=(v,)), sr.LocalChannelSpec(0.1, 1), 1.0),
    ("system", lambda s, v: replace(s, system=v),
     sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, (sr.CollectiveChannelSpec(0.5, (1, -1)),)), "x"),
    ("time", lambda s, v: replace(s, time=v), TimeSpec("omega", 5.0, 3), None),
    ("integrator", lambda s, v: replace(s, integrator=v), sr.IntegratorConfig(fixed_step=0.5), None),
]

# Each observable parameter that a kind does not take: ``(field, kind, value)``, a value off the field's default.
UNTAKEN_PARAMETERS = [
    ("target", "energy", sr.StateSpec.named("10")),
    ("sqrt", "energy", True),
    ("bipartition", "fidelity", ((0,), (1,))),
    ("target", "log_negativity", sr.StateSpec.named("10")),
]


class TestRunScenario:
    def test_header_and_shape(self):
        scenario = sr.scenario_from_dict(TINY_SCENARIO)
        result = sr.run_scenario(scenario)
        assert result.header[0] == "t"
        assert result.header[-1] == "trace_error"
        assert "energy" in result.header
        assert "fidelity" in result.header
        assert result.rows.shape == (11, len(result.header))
        assert not result.breached

    def test_initial_restriction_and_suffixes(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig2"))
        full = sr.run_scenario(scenario)
        assert "energy:psi_minus" in full.header
        only = sr.run_scenario(scenario, initial="10")
        assert "energy" in only.header
        assert set(only.trajectories) == {"10"}

    def test_kappa_time_unit_rescales_grid(self):
        data = json.loads(json.dumps(TINY_SCENARIO))
        data["time"] = {"unit": "kappa", "horizon": 1.0, "points": 2}
        scenario = sr.scenario_from_dict(data)
        result = sr.run_scenario(scenario)
        # t column is in units of 1/rate; the evolution ran to t = 1/0.05
        assert result.rows[-1, 0] == pytest.approx(1.0)
        traj = result.trajectories["10"]
        assert traj.times[-1] == pytest.approx(1.0 / 0.05)

    def test_fixed_step_csv_is_byte_identical(self):
        scenario = sr.scenario_from_dict(TINY_SCENARIO)
        texts = []
        for _ in range(2):
            result = sr.run_scenario(scenario, fixed_step=1.0)
            texts.append(format_csv(result.header, result.rows))
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[0] == "t,energy,fidelity,trace_error"

    def test_file_and_override_steps_are_in_scenario_time(self):
        # a step of 0.01/kappa with kappa = 0.5 is 0.02 in model time, from the file or the override
        data = {
            "system": {"emitters": ["qubit"] * 5, "collective": [{"rate": 0.5}]},
            "initial": "11100",
            "time": {"unit": "kappa", "horizon": 1.0, "points": 3},
            "observables": ["energy", "nes", "checks"],
        }
        from_file = sr.run_scenario(sr.scenario_from_dict({**data, "integrator": {"fixed_step": 0.01}}))
        overridden = sr.run_scenario(sr.scenario_from_dict(data), fixed_step=0.01)
        steps = [result.trajectories["11100"].meta["steps"] for result in (from_file, overridden)]
        assert steps == [100, 100]
        assert np.array_equal(from_file.rows, overridden.rows)

    def test_hand_built_scenario_gets_the_parse_time_checks(self):
        local_only = sr.Scenario(
            name="local-only",
            system=sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, local_channels=(sr.LocalChannelSpec(0.1, 0),)),
            initials=(("10", sr.StateSpec.named("10")),),
            time=TimeSpec("omega", 1.0, 3),
            observables=(ObservableSpec("energy"),),
            integrator=sr.IntegratorConfig(),
            output=OutputSpec(),
        )
        with pytest.raises(ValidationError, match="kappa"):
            sr.run_scenario(replace(local_only, time=TimeSpec("kappa", 1.0, 3)))
        result = sr.run_scenario(replace(local_only, observables=(ObservableSpec("log_negativity"),)))
        assert result.header == ("t", "log_negativity[0|1]", "trace_error")

    def test_run_resolves_each_initial_state_once(self, monkeypatch):
        calls = []
        real = sr.scenario.build_initial_state
        monkeypatch.setattr(sr.scenario, "build_initial_state", lambda *args: calls.append(1) or real(*args))
        scenario = sr.scenario_from_dict(sr.load_preset("fig2"))
        assert len(calls) == 4
        sr.run_scenario(scenario)
        assert len(calls) == 4  # the run evolves the states resolved at parse

    def test_construction_runs_the_checks(self):
        fields = dict(
            name="local-only",
            system=sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, local_channels=(sr.LocalChannelSpec(0.1, 0),)),
            initials=(("99", sr.StateSpec.named("99")),),
            time=TimeSpec("omega", 1.0, 3),
            observables=(ObservableSpec("energy"),),
            integrator=sr.IntegratorConfig(),
            output=OutputSpec(),
        )
        with pytest.raises(UnknownLabel):
            sr.Scenario(**fields)
        local_only = sr.Scenario(**{**fields, "initials": (("10", sr.StateSpec.named("10")),)})
        with pytest.raises(ValidationError, match="kappa"):
            replace(local_only, time=TimeSpec("kappa", 1.0, 3))

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda s: replace(s, initials=()), id="no-initial-state"),
            pytest.param(lambda s: replace(s, initials=(s.initials[0], s.initials[0])), id="duplicate-initial-label"),
            pytest.param(lambda s: replace(s, observables=()), id="no-observables"),
            pytest.param(lambda s: replace(s, observables=(*s.observables, s.observables[0])), id="repeated-observable"),
            pytest.param(lambda s: ObservableSpec("bogus"), id="unknown-observable"),
            pytest.param(lambda s: ObservableSpec("fidelity"), id="fidelity-without-target"),
            pytest.param(lambda s: ObservableSpec("log_negativity", bipartition=((0,),)), id="one-group"),
            pytest.param(lambda s: ObservableSpec("log_negativity", bipartition=((0,), ())), id="empty-group"),
        ],
    )
    def test_specs_are_checked_when_built(self, make):
        """Rules a file is held to hold for a hand-built or `replace`d spec, at construction."""
        fig2 = sr.scenario_from_dict(sr.load_preset("fig2"))
        with pytest.raises(ValidationError):
            make(fig2)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: sr.EmitterSpec(2.7, (0.0, 1.0)), id="levels"),
            pytest.param(lambda: sr.LocalChannelSpec(0.1, True), id="emitter-bool"),
            pytest.param(lambda: sr.LocalChannelSpec(0.1, 0.9), id="local-emitter"),
            pytest.param(lambda: sr.DriveSpec(1.0, 0.7, (1, 0)), id="drive-emitter"),
            pytest.param(lambda: sr.CollectiveChannelSpec(0.1, (1, 1), ((1.9, 0), (1, 0.2))), id="transitions"),
            pytest.param(lambda: sr.SystemSpec((sr.EmitterSpec.qubit(),) * 2, dimension_cap=4.9), id="dimension-cap"),
            pytest.param(lambda: TimeSpec("omega", 1.0, 2.5), id="points"),
            pytest.param(lambda: ObservableSpec("log_negativity", bipartition=((0.5,), (1,))), id="bipartition"),
        ],
    )
    def test_integer_fields_refuse_non_integral_values(self, make):
        """A file refuses 2.7 where an integer goes; a hand-built spec does not truncate it."""
        with pytest.raises(ValidationError, match="must be an integer"):
            make()

    def test_integer_fields_keep_integral_values_as_int(self):
        emitter = sr.EmitterSpec(np.int64(3), (0.0, 1.0, 2.0))
        channel = sr.LocalChannelSpec(0.1, np.int64(1), (np.int64(2), 0))
        assert (type(emitter.levels), type(channel.emitter_index)) == (int, int)
        assert channel.transition == (2, 0) and type(channel.transition[0]) is int
        collective = sr.CollectiveChannelSpec(np.float64(0.1), (np.complex128(1j), np.float64(1.0)))
        assert [type(x) for x in (collective.rate, *collective.weights)] == [float, complex, complex]
        state = sr.StateSpec(amplitudes=(("10", np.complex128(1j)),))
        mixture = sr.StateSpec(mixture=((np.float64(1), state),))
        assert (type(state.amplitudes[0][1]), type(mixture.mixture[0][0])) == (complex, float)

    @pytest.mark.parametrize(
        "name, make, value",
        [
            pytest.param(name, make, value, id=f"{name}-{value!r:.12}")
            for name, make, _, bad in CHECKED_FIELDS
            for value in bad
        ],
    )
    def test_fields_refuse_what_a_file_refuses(self, name, make, value):
        """A hand-built spec is held to a file's value rules, and the error names the field."""
        with pytest.raises(ValidationError, match=f"^{name}: expected "):
            make(sr.scenario_from_dict(TINY_SCENARIO), value)

    @pytest.mark.parametrize("make, value", [pytest.param(make, good, id=name) for name, make, good, _ in CHECKED_FIELDS])
    def test_hand_built_specs_dump_to_text_that_parses_back(self, make, value):
        text = sr.dump_scenario(make(sr.scenario_from_dict(TINY_SCENARIO), value))
        assert sr.dump_scenario(sr.parse_scenario(text)) == text

    @pytest.mark.parametrize(
        "name, make, value", [pytest.param(name, make, bad, id=name) for name, make, _, bad in NESTED_FIELDS]
    )
    def test_nested_fields_refuse_what_is_not_a_spec(self, name, make, value):
        """A spec, tuple or entry field holding a value of another type fails when built, naming the field."""
        with pytest.raises(ValidationError, match=f"^{name}: expected "):
            make(sr.scenario_from_dict(TINY_SCENARIO), value)

    @pytest.mark.parametrize("make, value", [pytest.param(make, good, id=name) for name, make, good, _ in NESTED_FIELDS])
    def test_hand_built_nested_specs_dump_to_text_that_parses_back(self, make, value):
        text = sr.dump_scenario(make(sr.scenario_from_dict(TINY_SCENARIO), value))
        assert sr.dump_scenario(sr.parse_scenario(text)) == text

    @pytest.mark.parametrize(
        "name, kind, value", [pytest.param(*row, id=f"{row[1]}-{row[0]}") for row in UNTAKEN_PARAMETERS]
    )
    def test_observables_refuse_parameters_their_kind_does_not_take(self, name, kind, value):
        """A file gives each kind only its own keys, so a dump would drop the value: it fails when built, naming it."""
        params = {"target": sr.StateSpec.named("01")} if kind == "fidelity" else {}
        with pytest.raises(ValidationError, match=f"^{name}: expected "):
            ObservableSpec(kind, **params, **{name: value})

    @pytest.mark.parametrize(
        "observables, index, column",
        [
            pytest.param([{"fidelity": {"target": "psi_minus"}}, {"fidelity": {"target": "psi_plus"}}], 1, "fidelity",
                         id="two-fidelities"),
            pytest.param(["energy", "checks", "energy"], 2, "energy", id="energy"),
            pytest.param(["nes", "energy", "nes"], 2, "nes_excitation_0", id="nes"),
            pytest.param(["checks", "checks"], 1, "herm_error", id="checks"),
            pytest.param([{"log_negativity": {}}, {"log_negativity": {"bipartition": [[0], [1]]}}], 1,
                         "log_negativity[0|1]", id="default-and-given-bipartition"),
        ],
    )
    def test_two_observables_that_write_one_column_are_refused(self, observables, index, column):
        data = {**TINY_SCENARIO, "observables": observables}
        with pytest.raises(ValidationError, match=re.escape(f"observables[{index}]: writes the column {column!r}")):
            sr.scenario_from_dict(data)

    def test_observables_that_write_distinct_columns_load(self):
        observables = [{"fidelity": {"target": "psi_minus"}}, {"fidelity": {"target": "psi_plus", "sqrt": True}},
                       {"log_negativity": {"bipartition": [[0], [1]]}}, {"log_negativity": {"bipartition": [[1], [0]]}},
                       "checks"]
        result = sr.run_scenario(sr.scenario_from_dict({**TINY_SCENARIO, "observables": observables}))
        assert result.header == ("t", "fidelity", "fidelity_sqrt", "log_negativity[0|1]", "log_negativity[1|0]",
                                 "herm_error", "min_eigenvalue", "trace_error")

    def test_checks_columns(self):
        data = json.loads(json.dumps(TINY_SCENARIO))
        data["observables"] = ["energy", "checks"]
        result = sr.run_scenario(sr.scenario_from_dict(data))
        assert "herm_error" in result.header
        assert "min_eigenvalue" in result.header

    @pytest.mark.parametrize("column", ["trace_error", "herm_error"])
    def test_nan_invariant_record_is_a_breach(self, monkeypatch, column):
        import subrad.scenario as scenario_module

        def nan_last_record(*args, **kwargs):
            traj = sr.evolve(*args, **kwargs)
            traj.records[column][-1] = np.nan
            return traj

        monkeypatch.setattr(scenario_module, "evolve", nan_last_record)
        scenario = sr.scenario_from_dict(TINY_SCENARIO)
        assert sr.run_scenario(scenario).breached
        with pytest.raises(InvariantBreach):
            sr.run_scenario(scenario, check_strict=True)

    def test_diverging_fixed_step_raises_invariant_violation(self):
        # Only the Dormand-Prince solver can diverge: '11100' reaches a block of 26 states.
        data = sr.load_preset("nqubit:5")
        data["initial"] = ["11100"]
        data["time"] = {"unit": "omega", "horizon": 1.0, "points": 2}
        short = sr.run_scenario(sr.scenario_from_dict(data))
        assert short.trajectories["11100"].meta["solver"] == "dp45"
        data["time"] = {"unit": "omega", "horizon": 1e7, "points": 2}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            sr.errors.InvariantViolation, match="non-finite"
        ):
            sr.run_scenario(sr.scenario_from_dict(data), fixed_step=5e4)


def reference_format_csv(header, rows):
    """One list entry per line, joined once: the formula `format_csv` replaced."""
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(f"{v:.16e}" for v in row))
    return "\n".join(lines) + "\n"


def _columns_of(result, label):
    """Each per-state column of ``result`` for ``label`` by its unsuffixed name (all of them for a one-state run)."""
    names = result.header[1:-1]
    if any(":" in name for name in names):
        return {name.split(":")[0]: result.rows[:, i] for i, name in enumerate(names, 1) if name.endswith(":" + label)}
    return {name: result.rows[:, i] for i, name in enumerate(names, 1)}


class TestStackedInitials:
    """`run_scenario` steps the initial states that reach one block as one stack, with the bits of each one's run."""

    @pytest.mark.parametrize("preset", ["fig2", "fig3a", "fig3c", "fig4"])
    def test_each_initial_writes_the_columns_of_its_own_run(self, preset):
        scenario = sr.scenario_from_dict(sr.load_preset(preset))
        result = sr.run_scenario(scenario)
        for label, _ in scenario.initials:
            alone = sr.run_scenario(scenario, initial=label)
            grouped, own = _columns_of(result, label), _columns_of(alone, label)
            assert grouped.keys() == own.keys() and grouped
            for name, column in own.items():
                assert grouped[name].tobytes() == column.tobytes(), (label, name)
            assert result.trajectories[label].final_state.tobytes() == alone.trajectories[label].final_state.tobytes()
            assert result.trajectories[label].records["trace_error"].tobytes() == alone.rows[:, -1].tobytes()

    def test_one_evolve_and_one_observer_call_per_block_and_grid_point(self, monkeypatch):
        real, calls, stacked = sr.scenario.evolve, [], []

        def counting(model, rho0, time_grid, config=None, observer=None):
            traj = real(model, rho0, time_grid, config, lambda t, rho: calls.append(t) or observer(t, rho))
            stacked.append(traj.meta["stacked"])
            return traj

        monkeypatch.setattr(sr.scenario, "evolve", counting)
        result = sr.run_scenario(sr.scenario_from_dict(sr.load_preset("fig2")))
        assert stacked == [1, 3] and len(calls) == 2 * 201
        assert {label: traj.meta["stacked"] for label, traj in result.trajectories.items()} == {
            "11": 1, "10": 3, "psi_minus": 3, "psi_plus": 3}
        assert list(result.trajectories) == ["11", "10", "psi_minus", "psi_plus"]

    def test_states_of_a_dormand_prince_block_step_alone(self):
        # a Dormand-Prince stack shares one step sequence; only the propagator's blocks are stacked
        data = sr.load_preset("nqubit:5")
        data["initial"] = ["11100", "10000", "11010", "01000"]
        data["time"] = {"unit": "omega", "horizon": 2000.0, "points": 5}
        scenario = sr.scenario_from_dict(data)
        result = sr.run_scenario(scenario)
        assert {label: (traj.meta["solver"], traj.meta["stacked"]) for label, traj in result.trajectories.items()} == {
            "11100": ("dp45", 1), "10000": ("propagator", 2), "11010": ("dp45", 1), "01000": ("propagator", 2)}
        for label, _ in scenario.initials:
            own = _columns_of(sr.run_scenario(scenario, initial=label), label)
            for name, column in own.items():
                assert _columns_of(result, label)[name].tobytes() == column.tobytes(), (label, name)

    @settings(max_examples=25, deadline=None)
    @given(
        levels=LEVELS,
        n_collective=st.integers(0, 2),
        n_local=st.integers(0, 2),
        driven=st.booleans(),
        n_states=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_grouped_run_equals_runs_one_by_one(self, levels, n_collective, n_local, driven, n_states, seed):
        rng = np.random.default_rng(seed)
        system = random_system(rng, levels, n_collective, n_local, driven)
        model = sr.build_model(system)
        labels = ["".join(map(str, model.levels[:, i])) for i in range(model.dim)]

        def table(support):  # a random pure state on the support, as an amplitude table
            return tuple((labels[i], complex(*rng.normal(size=2))) for i in support)

        supports = [random_sector_state(rng, model)[1] for _ in range(n_states - 1)]
        supports.insert(int(rng.integers(n_states)), supports[0])  # two states on one support share a block
        initials = [(f"s{j}", sr.StateSpec(amplitudes=table(support))) for j, support in enumerate(supports)]
        initials[-1] = ("mixed", sr.StateSpec(mixture=((0.3, initials[-1][1]), (0.7, sr.StateSpec(
            amplitudes=table(supports[-1]))))))
        target = sr.StateSpec(amplitudes=table(range(model.dim)))
        observables = (
            ObservableSpec("energy"), ObservableSpec("fidelity", target=target),
            ObservableSpec("fidelity", target=target, sqrt=True), ObservableSpec("purity"),
            ObservableSpec("log_negativity", bipartition=((0,), (1,))), ObservableSpec("nes"),
            ObservableSpec("checks"),
        )
        scenario = sr.Scenario(
            name="random", system=system, initials=tuple(initials), time=TimeSpec("omega", rng.uniform(0.5, 5.0), 6),
            observables=observables, integrator=sr.IntegratorConfig(), output=OutputSpec(),
        )
        result = sr.run_scenario(scenario)
        assert max(traj.meta["stacked"] for traj in result.trajectories.values()) >= 2
        for label, _ in initials:
            traj, own = result.trajectories[label], sr.run_scenario(scenario, initial=label).trajectories[label]
            assert traj.records.keys() == own.records.keys()
            for key, column in own.records.items():
                assert traj.records[key].tobytes() == column.tobytes(), (label, key)
            assert traj.final_state.tobytes() == own.final_state.tobytes()
            assert traj.meta["max_herm_drift"] == own.meta["max_herm_drift"]


THREE_QUBITS = {
    "system": {"emitters": ["qubit"] * 3, "collective": [{"rate": 1.0}]},
    "initial": ["100"],
    "time": {"unit": "kappa", "horizon": 2.0, "points": 5},
}


def nes_row(report):
    return [*report.per_emitter_excitation, report.dark_weight, float(report.is_nonequilibrium)]


# Every observable kind: its file form with every parameter it takes, the columns it writes on three emitters and
# their values on a final state, by the public functions.  A kind added to `_OBSERVABLES` needs a line here.
KINDS = {
    "energy": ("energy", ["energy"], lambda traj, model: [sr.energy(traj.final_state, model)]),
    "purity": ("purity", ["purity"], lambda traj, model: [np.trace(traj.final_state @ traj.final_state).real]),
    "fidelity": (
        {"fidelity": {"target": "psi2", "sqrt": True}}, ["fidelity_sqrt"],
        lambda traj, model: [sr.dark_overlap_sqrt(traj.final_state, sr.named_state_vector("psi2", model.layout))],
    ),
    "log_negativity": (
        {"log_negativity": {"bipartition": [[0], [1, 2]]}}, ["log_negativity[0|1 2]"],
        lambda traj, model: [sr.log_negativity(traj.final_state, model.layout, ((0,), (1, 2)))],
    ),
    "nes": (
        "nes", ["nes_excitation_0", "nes_excitation_1", "nes_excitation_2", "nes_dark_weight", "nes_is_nonequilibrium"],
        lambda traj, model: nes_row(sr.nes_report(traj.final_state, model)),
    ),
    "checks": (  # the records `evolve` keeps: a stepped state's drift from Hermitian is roundoff
        "checks", ["herm_error", "min_eigenvalue"],
        lambda traj, model: [0.0, min(np.linalg.eigvalsh(traj.final_state)[0], 0.0)],
    ),
}
# A value off each observable parameter's default.
OFF_DEFAULT = {"target": sr.StateSpec.named("100"), "sqrt": True, "bipartition": ((0,), (1,))}


class TestObservableKinds:
    def test_the_test_knows_every_kind_and_parameter(self):
        assert sorted(KINDS) == sorted(sr.scenario._OBSERVABLES)
        assert sorted(OFF_DEFAULT) == sorted(attr for attr, *_ in sr.scenario._OBSERVABLE.values())

    @pytest.mark.parametrize("kind", sorted(sr.scenario._OBSERVABLES))
    def test_each_kind_parses_dumps_runs_and_refuses_what_it_does_not_take(self, kind):
        form, columns, formula = KINDS[kind]
        entry = sr.scenario._OBSERVABLES[kind]
        # the checks observable first: its columns are written last
        observables = [form] if kind == "checks" else ["checks", form]
        scenario = sr.scenario_from_dict({**THREE_QUBITS, "observables": observables})
        ob = scenario.observables[-1]
        assert ob.kind == kind
        text = sr.dump_scenario(scenario)
        assert json.loads(text)["observables"][-1] == form
        assert sr.dump_scenario(sr.parse_scenario(text)) == text
        assert list(entry.columns(ob, 3)) == columns
        result = sr.run_scenario(scenario, check_strict=True)
        assert result.header == ("t", *(columns if kind != "checks" else ()), *KINDS["checks"][1], "trace_error")
        traj = result.trajectories["100"]
        last = dict(zip(result.header, result.rows[-1]))
        assert [last[name] for name in columns] == pytest.approx(formula(traj, sr.build_model(scenario.system)),
                                                                  rel=0.0, abs=1e-12)
        for param in OFF_DEFAULT.keys() - (entry.params or {}).keys():
            with pytest.raises(ValidationError, match=f"^{param}: expected .* takes no {param}$"):
                replace(ob, **{param: OFF_DEFAULT[param]})

    @pytest.mark.parametrize("where", ["initial[1]", "observables[1]"])
    @pytest.mark.parametrize(
        "state, error, message",
        [
            pytest.param("psi_minus", UnknownLabel, "'psi_minus' requires exactly 2 emitters, layout has 3",
                         id="psi_minus"),
            pytest.param({"amplitudes": {"100": 0.0}}, NonNormalizable, "amplitude table sums to the zero vector",
                         id="zero-amplitudes"),
            pytest.param("1000", UnknownLabel, "label '1000' is not a basis string", id="label-1000"),
        ],
    )
    def test_a_state_that_does_not_resolve_names_its_path(self, where, state, error, message):
        """An initial state or fidelity target that does not resolve on the layout is refused with its own error type,
        its message prefixed with the path."""
        data = {**THREE_QUBITS, "observables": ["energy"]}
        if where == "initial[1]":
            data["initial"] = ["100", {"name": "bad", **state} if isinstance(state, dict) else state]
        else:
            data["observables"] = ["energy", {"fidelity": {"target": state}}]
        with pytest.raises(error, match="^" + re.escape(f"{where}: {message}")):
            sr.scenario_from_dict(data)


class TestFormatCsv:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1.0 / 3.0, -1e300]

    @pytest.mark.parametrize("n_rows", [1, 127, 128, 129, 300])
    def test_byte_identical_to_reference(self, n_rows):
        rng = np.random.default_rng(n_rows)
        values = rng.normal(size=(n_rows, 4)) * 10.0 ** rng.integers(-320, 300, size=(n_rows, 4))
        specials = np.resize(self.SPECIAL, values.size)
        mask = rng.random(values.shape) < 0.3
        values[mask] = specials.reshape(values.shape)[mask]
        values[0, : len(self.SPECIAL[:4])] = self.SPECIAL[:4]
        header = ("t", "a", "b", "c")
        assert format_csv(header, values) == reference_format_csv(header, values)

    @pytest.mark.parametrize("rows", [np.array([1.0, np.nan, -0.0]), np.zeros((0, 3)), np.zeros((2, 0))])
    def test_edge_shapes_match_reference(self, rows):
        header = ("t", "x", "y")
        assert format_csv(header, rows) == reference_format_csv(header, rows)


class TestNesColumns:
    def test_dark_kernels_built_once_per_sector(self, monkeypatch):
        import subrad.observables as observables

        columns = []
        original = observables.kernel_basis

        def counting(m, *args, **kwargs):
            columns.append(m.shape[1])
            return original(m, *args, **kwargs)

        monkeypatch.setattr(observables, "kernel_basis", counting)
        sr.run_scenario(sr.scenario_from_dict(sr.load_preset("nqubit:4")))
        # one call per excited sector k = 1..4, on its C(4, k) basis states
        assert columns == [4, 6, 4, 1]

    def test_last_row_matches_final_state_report(self):
        scenario = sr.scenario_from_dict(sr.load_preset("nqubit:4"))
        result = sr.run_scenario(scenario)
        (traj,) = result.trajectories.values()
        report = sr.nes_report(traj.final_state, sr.build_model(scenario.system))
        expected = {f"nes_excitation_{j}": x for j, x in enumerate(report.per_emitter_excitation)}
        expected["nes_dark_weight"] = report.dark_weight
        expected["nes_is_nonequilibrium"] = float(report.is_nonequilibrium)
        last = dict(zip(result.header, result.rows[-1]))
        for name, value in expected.items():
            assert last[name] == pytest.approx(value, rel=0, abs=1e-12)


class TestPresets:
    def test_listing_contains_required_entries(self):
        names = dict(sr.list_presets())
        for required in ("fig2", "fig3a", "fig3c", "fig3e-clockwork", "fig4", "nqubit"):
            assert required in names

    def test_fig3a_parameters(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig3a"))
        rates = [ch.rate for ch in scenario.system.local_channels]
        assert rates == [pytest.approx(5e-5)] * 2
        kappa = scenario.system.collective_channels[0].rate
        assert rates[0] / kappa == pytest.approx(0.05)

    def test_fig3c_parameters(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig3c"))
        assert not scenario.system.local_channels
        freqs = scenario.system.emitters[1].level_frequencies
        assert freqs[1] - 1.0 == pytest.approx(0.1)

    def test_fig4_parameters(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig4"))
        assert len(scenario.system.emitters) == 3
        assert scenario.system.collective_channels[0].rate == pytest.approx(0.001)

    def test_clockwork_parameters(self):
        scenario = sr.scenario_from_dict(sr.load_preset("fig3e-clockwork"))
        kappa = scenario.system.collective_channels[0].rate
        assert kappa == pytest.approx(1.0)
        local = {ch.emitter_index: ch.rate for ch in scenario.system.local_channels}
        assert local[1] / kappa == pytest.approx(3.0)   # qudit repump
        assert local[0] / kappa == pytest.approx(0.1)   # qubit loss
        assert scenario.system.drives[0].amplitude / kappa == pytest.approx(2.0)
        assert scenario.time.unit == "kappa"

    def test_nqubit_parameterization(self):
        five = sr.scenario_from_dict(sr.load_preset("nqubit:5"))
        assert len(five.system.emitters) == 5
        assert len(sr.load_preset("nqubit")["system"]["emitters"]) == 4
        phased = sr.scenario_from_dict(sr.load_preset("nqubit:2:0,3.14159"))
        w = phased.system.collective_channels[0].weights
        assert w[1].real == pytest.approx(-1.0, abs=1e-4)
        w = sr.scenario_from_dict(sr.load_preset("nqubit:3:0,-1.5,3.14159")).system.collective_channels[0].weights
        assert np.allclose(w, np.exp(1j * np.array([0.0, -1.5, 3.14159])), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["nqubit:2:inf,0", "nqubit:2:nan,0", "nqubit:2:" + "9" * 400 + ",0"],
                             ids=["inf", "nan", "overflowing-decimal"])
    def test_non_finite_phase_is_refused_without_a_warning(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnknownLabel, match="bad nqubit phase list"):
                sr.load_preset(name)

    def test_nqubit_8_keeps_the_dark_energy(self):
        data = sr.load_preset("nqubit:8")
        data["observables"] = ["energy"]
        result = sr.run_scenario(sr.scenario_from_dict(data))
        # the single excitation is 7/8 dark: that much energy never decays
        assert result.rows[-1, result.header.index("energy")] == pytest.approx(7 / 8, abs=1e-3)
        (traj,) = result.trajectories.values()
        assert traj.meta["evolved_dim"] == 9

    def test_nqubit_8_nes_columns_closed_forms(self):
        result = sr.run_scenario(sr.scenario_from_dict(sr.load_preset("nqubit:8")))
        column = {name: result.rows[:, i] for i, name in enumerate(result.header)}
        # the dark part of the single excitation never decays
        assert np.max(np.abs(column["nes_dark_weight"] - 7 / 8)) < 1e-9
        # every emitter sits at frequency 1, so the energy is the summed excitation
        excitation = sum(column[f"nes_excitation_{j}"] for j in range(8))
        assert np.max(np.abs(column["energy"] - excitation)) < 1e-12

    @pytest.mark.parametrize(
        "preset, initial, dark_weight, tolerance",
        [
            pytest.param("nqubit:5", "11100", 9 / 10, 1e-8, id="five-from-11100"),
            pytest.param("nqubit:8", "11000000", 27 / 28, 1e-12, id="eight-from-11000000"),
        ],
    )
    def test_dormand_prince_keeps_the_closed_form_dark_weight(self, preset, initial, dark_weight, tolerance):
        # 1 - 1/C(N, 2) of each state stays dark; both blocks (26 and 37 states) are above the propagator's 16
        data = sr.load_preset(preset)
        data["initial"] = [initial]
        result = sr.run_scenario(sr.scenario_from_dict(data), check_strict=True)
        assert result.trajectories[initial].meta["solver"] == "dp45"
        final = result.rows[-1, result.header.index("nes_dark_weight")]
        assert abs(final - dark_weight) < tolerance

    def test_unknown_preset(self):
        with pytest.raises(UnknownLabel):
            sr.load_preset("fig9")


class TestSweeps:
    @pytest.mark.parametrize(
        "name, make",
        [
            pytest.param("reductions", lambda sweep: replace(sweep, reductions=(
                {"column": "trace_error", "kind": "mean", "name": "x", "t_min": 0.0, "t_max": None},)), id="dict-kind"),
            pytest.param("reductions", lambda sweep: replace(sweep, reductions=({"column": "trace_error"},)),
                         id="dict-without-name"),
            pytest.param("axes", lambda sweep: replace(sweep, axes=(("system.collective[0].rate", 0.001),)),
                         id="axis-value-not-a-list"),
            pytest.param("axes", lambda sweep: replace(sweep, axes=()), id="no-axes"),
            pytest.param("base", lambda sweep: replace(sweep, base="fig2"), id="base-name"),
            pytest.param("kind", lambda sweep: ReductionSpec("energy", "mean"), id="reduction-kind"),
            pytest.param("t_max", lambda sweep: ReductionSpec("energy", t_max="5"), id="reduction-t-max"),
            pytest.param("t_max", lambda sweep: ReductionSpec("energy", "fit_exp_rate", t_min=50.0, t_max=10.0),
                         id="reduction-window-reversed"),
            pytest.param("t_min", lambda sweep: ReductionSpec("energy", "final", t_min=50.0, t_max=10.0),
                         id="final-reduction-window"),
            pytest.param("t_max", lambda sweep: ReductionSpec("energy", t_max=10.0), id="final-reduction-t-max"),
        ],
    )
    def test_hand_built_sweeps_refuse_what_a_file_refuses(self, name, make):
        """A `replace`d sweep or hand-built reduction is held to a file's rules when built, naming the field."""
        sweep = parse_sweep(json.dumps({"base": TINY_SCENARIO, "axes": {"system.collective[0].rate": [0.05]}}))
        with pytest.raises(ValidationError, match=f"^{name}"):
            make(sweep)

    def test_a_null_reduction_name_reads_as_the_default(self):
        reduction = {"column": "energy", "kind": "fit_exp_rate", "name": None}
        sweep = parse_sweep(json.dumps({"base": TINY_SCENARIO, "axes": {"time.points": [3]},
                                        "reductions": [reduction]}))
        assert sweep.reductions == (ReductionSpec("energy", "fit_exp_rate"),)
        assert sweep.reductions[0].name == "fit_exp_rate_energy"

    def make_base(self, horizon, alpha=0.0):
        base = {
            "name": "sweep-base",
            "system": {
                "emitters": ["qubit", "qubit"],
                "collective": [{"rate": 0.001, "weights": [1.0, 1.0]}],
                "local": [
                    {"rate": alpha, "emitter": 0},
                    {"rate": alpha, "emitter": 1},
                ],
                "frame": {"rotating": 1.0},
            },
            "initial": ["10"],
            "time": {"unit": "omega", "horizon": horizon, "points": 51},
            "observables": ["energy", {"fidelity": {"target": "psi_minus"}}],
        }
        return base

    def test_detuning_sweep_final_energy(self):
        sweep = parse_sweep(
            json.dumps(
                {
                    "base": self.make_base(2e4),
                    "axes": {"system.emitters[1].frequencies[1]": [1.0, 1.1]},
                    "reductions": [
                        {"name": "final_energy", "kind": "final", "column": "energy"}
                    ],
                }
            )
        )
        result = run_sweep(sweep)
        assert result.header == (
            "system.emitters[1].frequencies[1]",
            "final_energy",
            "status",
        )
        assert len(result.rows) == 2
        resonant, detuned = result.rows
        assert resonant[1] == pytest.approx(0.5, abs=1e-3)
        assert abs(detuned[1]) < 1e-6
        assert all(row[-1] == "ok" for row in result.rows)
        assert result.failed == 0

    def test_local_rate_sweep_fitted_slow_rate(self):
        sweep = parse_sweep(
            json.dumps(
                {
                    "base": self.make_base(3e4),
                    "axes": {
                        "system.local[0].rate|system.local[1].rate": [0.0, 5e-5]
                    },
                    "reductions": [
                        {
                            "name": "slow_rate",
                            "kind": "fit_exp_rate",
                            "column": "fidelity",
                            "t_min": 5000.0,
                        }
                    ],
                }
            )
        )
        result = run_sweep(sweep)
        off, on = result.rows
        assert abs(off[1]) < 1e-8
        assert on[1] == pytest.approx(2 * 5e-5, rel=0.05)

    @pytest.mark.parametrize("t_min, t_max", [(75.0, 85.0), (81.0, 89.0), (120.0, None)])
    def test_fit_window_of_fewer_than_two_grid_points_fails_the_point(self, t_min, t_max):
        """On the grid 0, 10, ..., 100 these windows hold one grid point or none: no rate can be fitted."""
        reduction = {"column": "energy", "kind": "fit_exp_rate", "t_min": t_min, "t_max": t_max}
        sweep = parse_sweep(json.dumps({"base": TINY_SCENARIO, "axes": {"system.collective[0].rate": [0.05]},
                                        "reductions": [{"column": "energy"}, reduction]}))
        result = run_sweep(sweep)
        assert result.failed == 1
        assert len(result.rows[0]) == len(result.header) == 4
        assert result.rows[0][0] == 0.05 and np.isnan(result.rows[0][1:3]).all()
        assert result.rows[0][-1] == "error:ValidationError"

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError):
            parse_sweep(
                json.dumps({"base": self.make_base(100.0), "axes": {"system.local[0].rate": []}})
            )

    def test_per_point_failure_keeps_sweep_complete(self):
        sweep = parse_sweep(
            json.dumps(
                {
                    "base": self.make_base(100.0),
                    "axes": {"system.collective[0].rate": [0.001, -1.0, 0.002]},
                    "reductions": [
                        {"name": "final_energy", "kind": "final", "column": "energy"}
                    ],
                }
            )
        )
        result = run_sweep(sweep)
        assert len(result.rows) == 3
        statuses = [row[-1] for row in result.rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error:")
        assert statuses[2] == "ok"
        assert result.failed == 1

    def test_malformed_point_is_a_failed_point(self):
        sweep = parse_sweep(
            json.dumps({"base": self.make_base(100.0), "axes": {"system.local[0].transition": [5]}})
        )
        result = run_sweep(sweep)
        assert result.failed == 1
        assert result.rows[0][-1] == "error:ValidationError"

    def test_breached_point_is_a_failed_point(self):
        # Dormand-Prince at rel_tol 3e-4 dips to a min eigenvalue of about -3e-7: a breach, above the abort floor.
        base = sr.load_preset("nqubit:5")
        base.update(initial=["11100"], observables=["energy", "checks"])
        base["time"] = {"unit": "omega", "horizon": 3000.0, "points": 31}
        result = run_sweep(parse_sweep(json.dumps({"base": base, "axes": {"integrator.rel_tol": [3e-4, 1e-8]}})))
        assert [row[-1] for row in result.rows] == ["error:InvariantBreach", "ok"]
        assert np.isnan(result.rows[0][1]) and result.rows[1][1] < 1e-9
        assert result.failed == 1

    def test_sweep_csv_format(self):
        sweep = parse_sweep(
            json.dumps(
                {
                    "base": self.make_base(100.0),
                    "axes": {"system.collective[0].rate": [0.001]},
                }
            )
        )
        text = format_sweep_csv(run_sweep(sweep))
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",ok")


def apply_path(data, path, value):
    """Set ``value`` at ``path`` in a scenario dict, every token of which must resolve."""
    tokens = sr.scenario._path_tokens(path)
    node = data
    for tok in tokens[:-1]:
        try:
            node = node[tok]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValidationError(f"parameter path {path!r}: cannot resolve {tok!r}") from exc
    last = tokens[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"parameter path {path!r}: cannot resolve {last!r}") from exc
    node[last] = value


def reference_sweep_rows(sweep):
    """The rows of `run_sweep` from the dict form: each point deep-copies the base's dump, sets its values there and parses it.

    The values are copied too: one axis's list or object value must not
    change when a later path sets something inside it.
    """
    rows = []
    for index in np.ndindex(*[len(values) for _, values in sweep.axes]):
        values = [sweep.axes[k][1][i] for k, i in enumerate(index)]
        point = copy.deepcopy(scenario_to_dict(sweep.base))
        row = list(values)
        try:
            for (path, _), value in zip(sweep.axes, values):
                for sub in path.split("|"):
                    apply_path(point, sub, copy.deepcopy(value))
            result = sr.run_scenario(sr.scenario_from_dict(point), check_strict=True)
            row.extend([sr.scenario._reduce(result, red) for red in sweep.reductions])  # all or none
            row.append("ok")
        except SubradError as exc:
            row.extend([float("nan")] * len(sweep.reductions))
            row.append(f"error:{type(exc).__name__}")
        rows.append(tuple(row))
    return rows


ORACLE_BASES = [
    {
        "system": {
            "emitters": ["qubit", {"levels": 2, "frequencies": [0.0, 1.02]}],
            "collective": [{"rate": 0.05, "weights": [1.0, [0.0, 1.0]]}],
            "local": [{"rate": 0.01, "emitter": 0}, {"rate": 0.0, "emitter": 1}],
            "frame": {"rotating": 1.0},
        },
        "initial": [{"name": "mixed", "mixture": [{"weight": 0.5, "state": "11"}, {"weight": 0.5, "state": "01"}]}],
        "time": {"unit": "omega", "horizon": 20.0, "points": 5},
        "observables": ["purity", "energy", {"fidelity": {"target": "psi_minus"}}, {"log_negativity": {}}, "checks"],
    },
    {
        "system": {
            "emitters": ["qubit", "qubit"],
            "collective": [{"rate": 0.1}],
            "local": [{"rate": 0.02, "emitter": 1}, {"rate": 0.0, "emitter": 0}],
            "drives": [{"amplitude": 0.05, "emitter": 0, "transition": [1, 0]}],
        },
        "initial": "10",
        "time": {"unit": "kappa", "horizon": 2.0, "points": 4},
        "observables": ["purity", "energy", "nes"],
    },
]

# Axis paths over the bases above, each with good and bad values.
ORACLE_AXES = {
    "system.collective[0].rate": [0.05, 0.0, -1.0, float("nan")],
    "system.emitters[1].frequencies[1]": [1.0, 1.1, -1.0, "x"],
    "system.emitters[1]": ["qubit", {"levels": 2, "frequencies": [0.0, 1.05]},
                           {"levels": 3, "frequencies": [0.0, 1.0, 2.0]}, "qutrit"],
    "system.collective[0].weights[1]": [[0.0, 1.0], [0.5, -0.5], 1.0, 0.0, [1.0]],
    "system.collective[0]": [{"rate": 0.02}, {"rate": 0.02, "weights": [1.0]}],
    "system.local[0].rate|system.local[1].rate": [0.0, 0.03, -0.5],
    "system.local[0].transition": [[1, 0], [2, 1]],
    "system.local[5].rate": [0.1],
    "system.emitters[1].frequencies[7]": [1.0],
    "system.frame": ["lab", {"rotating": 1.05}, "moving"],
    "system.dimension_cap": [256, 2],
    "initial[0]": ["01", "psi_plus", {"name": "x", "label": "11"}, "22", 10],
    "time.points": [3, 1, 2.5],
    "time.unit": ["omega", "kappa"],
    "integrator.rel_tol": [1e-6, -1.0],
    "observables[0]": ["nes", {"log_negativity": {}}, {"log_negativity": {"bipartition": [[0], [0]]}}],
    "tiem.points": [3],
}

ORACLE_REDUCTIONS = [
    {"column": "energy"},
    {"column": "energy", "kind": "fit_exp_rate", "name": "energy_rate"},
    {"column": "trace_error"},
]


def assert_sweep_matches_dict_path(base, axes):
    """`run_sweep` gives the statuses and bit-equal rows of `reference_sweep_rows`."""
    text = json.dumps({"base": base, "axes": axes, "reductions": ORACLE_REDUCTIONS})
    result = run_sweep(parse_sweep(text))
    expected = reference_sweep_rows(parse_sweep(text))
    n = len(axes)
    assert len(result.rows) == len(expected)
    for got, want in zip(result.rows, expected):
        assert json.dumps(got[:n]) == json.dumps(want[:n])
        assert got[-1] == want[-1]
        assert np.array(got[n:-1], dtype=float).tobytes() == np.array(want[n:-1], dtype=float).tobytes()
    assert result.failed == sum(row[-1] != "ok" for row in expected)


class TestSweepOracle:
    @pytest.mark.parametrize("base", ORACLE_BASES, ids=["two-qubit", "driven-kappa"])
    @pytest.mark.parametrize("path", sorted(ORACLE_AXES))
    def test_each_axis_matches_dict_path(self, base, path):
        assert_sweep_matches_dict_path(base, {path: ORACLE_AXES[path]})

    @settings(max_examples=100, deadline=None)
    @given(base=st.sampled_from(ORACLE_BASES), data=st.data())
    def test_property_axis_combinations_match_dict_path(self, base, data):
        paths = data.draw(st.lists(st.sampled_from(sorted(ORACLE_AXES)), min_size=2, max_size=3, unique=True))
        axes = {path: data.draw(st.lists(st.sampled_from(ORACLE_AXES[path]), min_size=1, max_size=2)) for path in paths}
        assert_sweep_matches_dict_path(base, axes)

    @pytest.mark.parametrize("base", ORACLE_BASES, ids=["two-qubit", "driven-kappa"])
    @pytest.mark.parametrize(
        "axes, status",
        [
            ({"initial[0]": ["22"], "time.points": [1]}, "error:ValidationError"),
            ({"system.dimension_cap": [2], "initial[0]": ["22"]}, "error:DimensionCapExceeded"),
            ({"system.emitters[1]": [{"levels": 2, "frequencies": [0.0, 1.05]}],
              "system.emitters[1].frequencies[1]": [1.1]}, "ok"),
            ({"time.unit": ["kappa"], "system.collective[0].rate": [0]}, "error:ValidationError"),
        ],
        ids=["fields-read-before-states", "system-before-states", "path-inside-object", "kappa-without-rate"],
    )
    def test_pairs_pin_the_read_and_check_order(self, base, axes, status):
        """Every touched field is read before the checks that span fields run, and those run in their own order."""
        assert_sweep_matches_dict_path(base, axes)
        result = run_sweep(parse_sweep(json.dumps({"base": base, "axes": axes})))
        assert [row[-1] for row in result.rows] == [status]

    def test_axis_values_are_not_changed_by_a_path_inside_them(self):
        emitter = {"levels": 2, "frequencies": [0.0, 1.05]}
        axes = {"system.emitters[1]": [emitter], "system.emitters[1].frequencies[1]": [1.1, 1.2]}
        sweep = parse_sweep(json.dumps({"base": ORACLE_BASES[0], "axes": axes}))
        result = run_sweep(sweep)
        assert [row[-1] for row in result.rows] == ["ok", "ok"]
        assert [row[0] for row in result.rows] == [emitter, emitter]
        assert sweep.axes[0][1] == (emitter,)

    def test_each_point_parses_once_and_the_base_once(self, monkeypatch):
        calls = []
        real = sr.scenario.scenario_from_dict
        monkeypatch.setattr(sr.scenario, "scenario_from_dict", lambda data: calls.append(1) or real(data))
        axes = {"system.collective[0].rate": [0.05, 0.1], "time.points": [3, 4]}
        result = run_sweep(parse_sweep(json.dumps({"base": ORACLE_BASES[0], "axes": axes})))
        assert result.failed == 0 and len(result.rows) == 4
        assert len(calls) == 1  # the base, in `parse_sweep`

    def test_each_point_resolves_its_states_once(self, monkeypatch):
        calls = []
        real = sr.scenario.build_initial_state
        monkeypatch.setattr(sr.scenario, "build_initial_state", lambda *args: calls.append(1) or real(*args))
        axes = {"system.collective[0].rate": [0.05, 0.1], "time.points": [3, 4]}
        result = run_sweep(parse_sweep(json.dumps({"base": ORACLE_BASES[0], "axes": axes})))
        assert result.failed == 0 and len(result.rows) == 4
        assert len(calls) == 4 + 1  # one per point, and the base in `parse_sweep`


class TestSweepCsvCells:
    BASE = {**TINY_SCENARIO, "system": {**TINY_SCENARIO["system"], "local": [{"rate": 0.01, "emitter": 0}]}}

    @pytest.mark.parametrize(
        "axes",
        [
            {"system.emitters[1]": ["qubit", {"levels": 2, "frequencies": [0.0, 1.05]}]},
            {"system.local[0].transition": [[1, 0]]},
        ],
        ids=["emitter-object", "transition-list"],
    )
    def test_list_and_object_axis_values_are_json_cells(self, tmp_path, axes):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({"base": self.BASE, "axes": axes}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(sweep_path), "--check-strict", "--out", str(out)]) == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        (values,) = axes.values()
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            assert len(row) == len(header) and row[-1] == "ok"
            assert row[0] == value or json.loads(row[0]) == value

    def test_numbers_and_strings_unchanged(self):
        result = sr.SweepResult(header=("a", "b", "c", "d", "status"), rows=((0.5, 2, True, None, "ok"),), failed=0)
        assert format_sweep_csv(result) == (
            "a,b,c,d,status\n5.0000000000000000e-01,2.0000000000000000e+00,\"true\",\"null\",ok\n"
        )


def read_csv(text):
    """The rows of a CSV text, each checked to have as many fields as the header."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert all(len(row) == len(header) for row in rows), (header, rows)
    return header, rows


class TestCsvQuoting:
    def test_multi_emitter_group_column_has_no_comma(self):
        data = {
            **TINY_SCENARIO,
            "system": {"emitters": ["qubit"] * 3, "collective": [{"rate": 0.05}]},
            "initial": "100",
            "observables": [{"log_negativity": {"bipartition": [[0, 1], [2]]}}],
        }
        result = sr.run_scenario(sr.scenario_from_dict(data))
        text = format_csv(result.header, result.rows)
        assert read_csv(text)[0] == ["t", "log_negativity[0 1|2]", "trace_error"]
        table = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
        assert table.shape == (11,) and len(table.dtype.names) == 3

    def test_initial_name_with_a_comma_is_one_header_cell(self):
        data = {**TINY_SCENARIO, "initial": [{"name": "a,b", "label": "10"}, "01"]}
        result = sr.run_scenario(sr.scenario_from_dict(data))
        header, rows = read_csv(format_csv(result.header, result.rows))
        assert header[1] == "energy:a,b" and len(rows) == 11

    @pytest.mark.parametrize(
        "axes, reductions, header, cells",
        [
            ({"name": ["a,b", "c"]}, [], ["name", "final_trace_error", "status"], ["a,b", "c"]),
            ({"time.points": [3]}, [{"column": "energy", "name": "final,energy"}],
             ["time.points", "final,energy", "status"], ["3.0000000000000000e+00"]),
            ({"observables[1].fidelity.sqrt": [True, False]}, [],
             ["observables[1].fidelity.sqrt", "final_trace_error", "status"], ["true", "false"]),
        ],
        ids=["string-axis-value", "reduction-name", "boolean-axis-value"],
    )
    def test_sweep_cells_keep_their_columns(self, axes, reductions, header, cells):
        sweep = {"base": TINY_SCENARIO, "axes": axes, "reductions": reductions}
        result = run_sweep(parse_sweep(json.dumps(sweep)))
        written_header, rows = read_csv(format_sweep_csv(result))
        assert written_header == header
        assert [row[0] for row in rows] == cells and all(row[-1] == "ok" for row in rows)

    def test_quotes_and_line_breaks_are_quoted(self):
        values = ('say "hi"', "two\nlines", "cr\rhere", "plain")
        result = sr.SweepResult(header=("a,b", "c", "d", "e", "status"), rows=((*values, "ok"),), failed=0)
        text = format_sweep_csv(result)
        assert text == '"a,b",c,d,e,status\n"say ""hi""","two\nlines","cr\rhere",plain,ok\n'
        assert read_csv(text) == (["a,b", "c", "d", "e", "status"], [[*values, "ok"]])


class TestCli:
    def test_presets_and_dump(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "nqubit" in out
        assert main(["dump", "fig2"]) == 0
        dumped = capsys.readouterr().out
        assert sr.dump_scenario(sr.parse_scenario(dumped)) == dumped

    def test_run_writes_csv(self, tmp_path):
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(json.dumps(TINY_SCENARIO))
        out_path = tmp_path / "out.csv"
        assert main(["run", str(scenario_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,energy,fidelity,trace_error"
        assert len(lines) == 12

    def test_run_preset_with_initial_flag(self, tmp_path):
        out_path = tmp_path / "fig2.csv"
        assert main(["run", "fig2", "--out", str(out_path), "--initial", "10"]) == 0
        assert out_path.read_text().splitlines()[0] == (
            "t,energy,fidelity,fidelity_sqrt,herm_error,min_eigenvalue,trace_error"
        )

    def test_plot_meta(self, tmp_path):
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(json.dumps(TINY_SCENARIO))
        meta_path = tmp_path / "meta.json"
        out_path = tmp_path / "out.csv"
        assert main([
            "run", str(scenario_path), "--out", str(out_path), "--plot-meta", str(meta_path)
        ]) == 0
        meta = json.loads(meta_path.read_text())
        assert meta["x"]["column"] == "t"
        assert "energy" in meta["series"]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        assert main(["run", "no-such-preset"]) == 2

    @pytest.mark.parametrize(
        "target, reason",
        [
            ("nqubit:3:a,b", "bad nqubit phase list in 'nqubit:3:a,b'"),
            *((name, f"bad nqubit phase list in {name!r}") for name in (
                "nqubit:3:", "nqubit:2:1_0,0", "nqubit:2: 1,+0", "nqubit:2:+1,0", "nqubit:2:1e3,0", "nqubit:2:.5,0",
                "nqubit:2:1.,0", "nqubit:2:1,,0", "nqubit:2:0x1,0", "nqubit:2:inf,0")),  # one or more plain decimals
            ("nqubit:x", "bad nqubit size in 'nqubit:x'"),
            *((name, f"bad nqubit size in {name!r}") for name in ("nqubit:", "nqubit::", "nqubit:3_0", "nqubit:+3",
                                                                   "nqubit: 3", "nqubit:3 ")),  # a plain decimal only
            ("nqubit:3:0,0,0:junk", "at most a size and a phase list, got 'nqubit:3:0,0,0:junk'"),
            ("no-such-preset", "unknown preset 'no-such-preset'"),
        ],
    )
    def test_preset_loader_reason_is_kept(self, capsys, target, reason):
        assert main(["run", target]) == 2
        assert reason in capsys.readouterr().err

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(TINY_SCENARIO).replace('"rate": 0.05', '"rate": NaN'))
        assert main(["run", str(path)]) == 2
        assert "system.collective[0].rate: expected a finite number" in capsys.readouterr().err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    def test_integer_beyond_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an integer literal over the limit
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        text = json.dumps(TINY_SCENARIO).replace('"frame"', f'"dimension_cap": {digits}, "frame"')
        with pytest.raises(ParseError, match="Exceeds the limit"):
            sr.parse_scenario(text)
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "Exceeds the limit" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["system"]["collective"][0]["rate"] = -2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["system"].update(local=[{"rate": 0.01, "transition": [2, 1]}]), "InvalidTransition"),
            (
                lambda d: d.update(observables=[{"fidelity": {"target": {"mixture": [
                    {"weight": 0.5, "state": "10"}, {"weight": 0.5, "state": "01"}]}}}]),
                "NonNormalizable",
            ),
            (lambda d: d["system"].update(dimension_cap=2), "DimensionCapExceeded"),
            # 2**14400 has more digits than `str` prints: the refusal must not fail on its own message
            pytest.param(lambda d: d["system"].update(emitters=["qubit"] * 14400, collective=[{"rate": 0.05}]),
                         "DimensionCapExceeded", id="dimension-of-14400-qubits"),
        ],
    )
    def test_scenario_that_fails_to_load_exits_2(self, tmp_path, capsys, edit, error):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        edit(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({"base": bad, "axes": {"system.collective[0].rate": [0.05]}}))
        for argv in (["run", str(path)], ["sweep", str(sweep_path)]):
            assert main(argv) == 2
            assert f"subrad: {error}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "initial",
        ["1\u00b2", "\u0661\u0660", {"name": "x", "amplitudes": {"\u0661\u0660": 1.0}}],
        ids=["superscript-label", "arabic-indic-label", "arabic-indic-amplitude-label"],
    )
    def test_basis_labels_are_ascii_digits(self, tmp_path, capsys, initial):
        # `str.isdigit` holds for each; "1\u00b2" failed in `int` and the Arabic-Indic digits read as "10"
        path = tmp_path / "label.json"
        path.write_text(json.dumps({**TINY_SCENARIO, "initial": [initial]}))
        assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("subrad: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize(
        "make, reason",
        [
            pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
            pytest.param(lambda path: path.write_bytes(b'{"name": "\xff"}'), "can't decode", id="not-utf-8"),
        ],
    )
    def test_file_that_cannot_be_read_exits_2(self, tmp_path, capsys, verb, make, reason):
        path = tmp_path / "input.json"
        make(path)
        assert main([verb, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("subrad: ") and reason in err and len(err.splitlines()) == 1

    def test_output_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        assert main(["run", str(path), "--out", str(tmp_path / "no-such-dir" / "out.csv")]) == 1
        assert "No such file or directory" in capsys.readouterr().err

    def test_failure_while_running_exits_1(self, tmp_path, capsys):
        # Fixed-step Dormand-Prince on a block of 26 states overflows to NaN.
        data = sr.load_preset("nqubit:5")
        data["initial"] = ["11100"]
        data["time"] = {"unit": "omega", "horizon": 1e7, "points": 2}
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(data))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(path), "--fixed-step", "5e4", "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert "subrad: InvariantViolation: " in err and "non-finite" in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_fixed_step_flag_is_checked_like_the_file(self, tmp_path, capsys, value):
        # a file's integrator.fixed_step must be finite and positive; so must the flag, before anything runs
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": TINY_SCENARIO, "axes": {"system.collective[0].rate": [0.05]}}))
        for verb, target in (("run", "fig2"), ("run", path), ("sweep", sweep)):
            out = tmp_path / "out.csv"
            assert main([verb, str(target), "--fixed-step", value, "--out", str(out)]) == 2
            assert "fixed_step" in capsys.readouterr().err and not out.exists()

    def test_sweep_cli(self, tmp_path):
        sweep = {
            "base": TINY_SCENARIO,
            "axes": {"system.collective[0].rate": [0.05, 0.1]},
            "reductions": [{"name": "E", "kind": "final", "column": "energy"}],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(sweep_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "system.collective[0].rate,E,status"
        assert len(lines) == 3

    def test_sweep_check_strict_reads_failed_points(self, tmp_path):
        sweep = {
            "base": TINY_SCENARIO,
            "axes": {"system.collective[0].rate": [0.05, -1.0]},
            "reductions": [{"name": "E", "kind": "final", "column": "energy"}],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        outs = []
        for flags, code in (([], 0), (["--check-strict"], 1)):
            out = tmp_path / f"sweep{len(flags)}.csv"
            assert main(["sweep", str(sweep_path), "--out", str(out), *flags]) == code
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        statuses = [line.rsplit(",", 1)[1] for line in outs[0].decode().splitlines()[1:]]
        assert statuses[0] == "ok" and statuses[1].startswith("error:")

    def test_clockwork_passes_strict_checks(self, tmp_path):
        # the 6-state block takes the exact propagator, which stays within the min-eigenvalue tolerance
        out = tmp_path / "clockwork.csv"
        assert main(["run", "fig3e-clockwork", "--check-strict", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("min_eigenvalue")
        assert min(float(line.split(",")[column]) for line in lines[1:]) >= sr.dynamics.MIN_EIGENVALUE_TOL

    def test_fixed_step_determinism_via_cli(self, tmp_path):
        # the block reachable from 11100 has 26 states, above PROPAGATOR_MAX_DIM, so Dormand-Prince takes the fixed step
        data = {
            **TINY_SCENARIO,
            "system": {"emitters": ["qubit"] * 5, "collective": [{"rate": 0.05}]},
            "initial": ["11100"],
            "time": {"horizon": 100.0, "points": 3},
            "observables": ["energy", "nes", "checks"],
        }
        meta = sr.run_scenario(sr.scenario_from_dict(data), fixed_step=0.5).trajectories["11100"].meta
        assert (meta["solver"], meta["steps"], meta["rejected"]) == ("dp45", 200, 0)
        scenario_path = tmp_path / "five.json"
        scenario_path.write_text(json.dumps(data))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["run", str(scenario_path), "--out", str(out), "--fixed-step", "0.5"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestStrictFields:
    """Misspelt keys and wrongly typed values are errors, never silent defaults or coercions."""

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda d: d.update(initial=[{"amplitudes": {"10": 1.0}, "name": "x", "nmae": "y"}]), id="initial"
            ),
            pytest.param(
                lambda d: d["observables"][1]["fidelity"].update(target={"label": "psi_minus", "nmae": "y"}),
                id="fidelity-target",
            ),
            pytest.param(
                lambda d: d.update(initial=[{"name": "x", "mixture": [{"weight": 1.0, "wieght": 0.5, "state": "10"}]}]),
                id="mixture-part",
            ),
            pytest.param(
                lambda d: d["system"]["collective"][0].update(weights=[1.0, {"magnitude": 1, "phse": 3.14}]),
                id="weight-object",
            ),
        ],
    )
    def test_unknown_state_and_weight_keys_rejected(self, edit):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        edit(bad)
        with pytest.raises(ValidationError, match="unknown keys"):
            sr.scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: d.update(name=5), id="name"),
            pytest.param(lambda d: d.update(initial=[{"name": 5, "label": "10"}]), id="initial-name"),
            pytest.param(lambda d: d.update(initial=[{"name": "x", "label": 10}]), id="label"),
            pytest.param(lambda d: d.update(output={"path": 5}), id="output-path"),
        ],
    )
    def test_strings_are_json_strings(self, edit):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        edit(bad)
        with pytest.raises(ValidationError, match="expected a string"):
            sr.scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "reductions",
        [
            pytest.param(5, id="not-a-list"),
            pytest.param([{"column": "energy", "kind": "fit_exp_rate", "tmin": 5.0}], id="unknown-key"),
            pytest.param([{"column": "energy", "name": 5}], id="name"),
            pytest.param([{"column": 5}], id="column"),
        ],
    )
    def test_bad_reductions_rejected(self, reductions):
        sweep = {"base": TINY_SCENARIO, "axes": {"system.collective[0].rate": [0.05]}, "reductions": reductions}
        with pytest.raises(ValidationError):
            parse_sweep(json.dumps(sweep))

    def test_non_string_output_path_exits_2(self, tmp_path):
        bad = json.loads(json.dumps(TINY_SCENARIO))
        bad["output"] = {"path": 5}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["run", str(path)]) == 2
