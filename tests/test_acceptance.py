"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each criterion states its tolerance inline; trajectories from
every criterion are pooled so the final universal-invariant check covers
all of them.
"""

from math import comb

import numpy as np
import pytest
from scipy.linalg import expm

import subrad as sr

from random_systems import lindblad_rhs, trace_distance

KAPPA = 0.001

# trajectories registered by earlier criteria, checked wholesale by criterion 10
_RUNS: list[tuple[str, sr.Trajectory]] = []


def _register(name: str, traj: sr.Trajectory) -> sr.Trajectory:
    _RUNS.append((name, traj))
    return traj


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def pure(vec):
    return np.outer(vec, vec.conj())


def two_qubit_system(delta=0.0, alpha=0.0):
    locals_ = ()
    if alpha:
        locals_ = (sr.LocalChannelSpec(alpha, 0), sr.LocalChannelSpec(alpha, 1))
    return sr.SystemSpec(
        emitters=(sr.EmitterSpec.qubit(1.0), sr.EmitterSpec(2, (0.0, 1.0 + delta))),
        collective_channels=(sr.CollectiveChannelSpec(KAPPA, (1, 1), ((1, 0), (1, 0))),),
        local_channels=locals_,
    )


@pytest.fixture(scope="module")
def ideal_two_qubit():
    return sr.build_model(two_qubit_system())


@pytest.fixture(scope="module")
def fig2_runs(ideal_two_qubit):
    """Ideal two-qubit evolutions to omega*t = 1e4 from the four initials."""
    model = ideal_two_qubit
    dark = sr.named_state_vector("psi_minus", model.layout)
    grid = np.linspace(0.0, 1e4, 201)
    runs = {}
    for label in ("11", "10", "psi_minus", "psi_plus"):
        rho0 = sr.build_initial_state(sr.StateSpec.named(label), model.layout)

        def obs(t, rho, model=model, dark=dark):
            return {"energy": sr.energy(rho, model), "fidelity": sr.dark_overlap(rho, dark)}

        runs[label] = _register(f"fig2:{label}", sr.evolve(model, rho0, grid, observer=obs))
    return runs


@pytest.fixture(scope="module")
def fig4_runs():
    """Ideal three-qubit evolutions to omega*t = 1e4 from 100 and 011."""
    model = sr.build_model(
        sr.SystemSpec(
            emitters=(sr.EmitterSpec.qubit(),) * 3,
            collective_channels=(sr.CollectiveChannelSpec(KAPPA, (1, 1, 1), ((1, 0),) * 3),),
        )
    )
    grid = np.linspace(0.0, 1e4, 201)
    runs = {}
    for label in ("100", "011"):
        rho0 = sr.build_initial_state(sr.StateSpec.named(label), model.layout)
        runs[label] = _register(
            f"fig4:{label}",
            sr.evolve(model, rho0, grid, observer=lambda t, r: {"energy": sr.energy(r, model)}),
        )
    return model, runs


def test_criterion_01_ideal_energy_plateaus(fig2_runs, ideal_two_qubit):
    model = ideal_two_qubit
    finals = {
        label: sr.energy(traj.final_state, model) for label, traj in fig2_runs.items()
    }
    ok = (
        abs(finals["10"] - 0.5) <= 1e-3
        and finals["11"] < 1e-3
        and finals["psi_plus"] < 1e-3
        and abs(finals["psi_minus"] - 1.0) <= 1e-6
    )
    _report(
        1,
        ok,
        "energy at t=1e4: "
        + ", ".join(f"{k}={v:.3e}" for k, v in finals.items())
        + " (10: 0.5+-1e-3; 11, psi_plus < 1e-3; psi_minus: 1+-1e-6)",
    )


def test_criterion_02_dark_overlap_fidelities(fig2_runs):
    f10 = fig2_runs["10"].records["fidelity"]
    fm = fig2_runs["psi_minus"].records["fidelity"]
    f11 = fig2_runs["11"].records["fidelity"]
    fp = fig2_runs["psi_plus"].records["fidelity"]
    dev10 = float(np.max(np.abs(f10 - 0.5)))
    devm = float(np.max(np.abs(fm - 1.0)))
    top = float(max(np.max(np.abs(f11)), np.max(np.abs(fp))))
    ok = dev10 < 1e-3 and devm <= 1e-6 and top < 1e-6
    _report(
        2,
        ok,
        f"overlap vs dark state: |F(10)-0.5|max={dev10:.2e} (<1e-3), "
        f"|F(psi_minus)-1|max={devm:.2e} (<=1e-6), F(11/psi_plus)max={top:.2e} (<1e-6)",
    )


def test_criterion_03_final_state_identity(fig2_runs, ideal_two_qubit):
    model = ideal_two_qubit
    singlet = sr.named_state_vector("psi_minus", model.layout)
    closed = 0.5 * pure(singlet)
    closed[0, 0] += 0.5
    dist = trace_distance(fig2_runs["10"].final_state, closed)
    predicted = sr.asymptotic_state(model, pure(sr.named_state_vector("10", model.layout)))
    pred_err = float(np.max(np.abs(predicted - closed)))
    ok = dist < 1e-3 and pred_err < 1e-12
    _report(
        3,
        ok,
        f"evolved vs closed-form trace distance {dist:.2e} (<1e-3); "
        f"asymptotic state error {pred_err:.2e} (<1e-12)",
    )


def test_criterion_04_two_timescale_decay():
    # Local rate alpha = 0.05 kappa on both qubits.  The dark component
    # decays at exactly 2*alpha, so the energy has already left the 0.5
    # plateau by t = 5e3 (closed form: 0.5 exp(-0.5) = 0.303); the check is
    # that the fast collective stage has brought the energy through the
    # 0.5 +- 0.02 band by then, and that the slow tail fits exp(-2*alpha*t).
    alpha = 0.05 * KAPPA
    model = sr.build_model(two_qubit_system(alpha=alpha))
    dark = sr.named_state_vector("psi_minus", model.layout)
    grid = np.linspace(0.0, 3e4, 601)
    rho0 = sr.build_initial_state(sr.StateSpec.named("10"), model.layout)
    traj = _register(
        "fig3a:10",
        sr.evolve(
            model,
            rho0,
            grid,
            observer=lambda t, r: {
                "energy": sr.energy(r, model),
                "fidelity": sr.dark_overlap(r, dark),
            },
        ),
    )
    energy = traj.records["energy"]
    early = grid <= 5e3
    band_hit = float(np.min(np.abs(energy[early] - 0.5)))
    e_at_5k = float(energy[np.argmin(np.abs(grid - 5e3))])
    tail = grid >= 5e3
    rate = -np.polyfit(grid[tail], np.log(traj.records["fidelity"][tail]), 1)[0]
    rate_dev = abs(rate - 2 * alpha) / (2 * alpha)
    ok = band_hit <= 0.02 and e_at_5k <= 0.52 and rate_dev <= 0.10
    _report(
        4,
        ok,
        f"energy reaches 0.5+-0.02 by t=5e3 (closest approach {band_hit:.3f}, "
        f"E(5e3)={e_at_5k:.3f}); fidelity tail rate {rate:.3e} vs 2*alpha={2*alpha:.3e} "
        f"(dev {rate_dev:.1%} <= 10%)",
    )


def test_criterion_05_detuned_oscillation_and_decay():
    delta = 0.1
    model = sr.build_model(two_qubit_system(delta=delta))
    dark = sr.named_state_vector("psi_minus", model.layout)
    rho0 = sr.build_initial_state(sr.StateSpec.named("10"), model.layout)

    fine = np.linspace(0.0, 1500.0, 3001)
    traj = _register(
        "fig3c:fine",
        sr.evolve(model, rho0, fine, observer=lambda t, r: {"fidelity": sr.dark_overlap(r, dark)}),
    )
    fid = traj.records["fidelity"]

    # envelope: least squares on log F, expected 2*kappa
    env_rate = -np.polyfit(fine, np.log(fid), 1)[0]
    env_dev = abs(env_rate - 2 * KAPPA) / (2 * KAPPA)

    # oscillation: peak spacing of the envelope-detrended signal.
    # The raw overlap is monotone (the ripple slope never exceeds the
    # envelope slope), so peaks only exist after removing the envelope.
    detrended = fid * np.exp(env_rate * fine)
    dt = fine[1] - fine[0]
    peaks = []
    for i in range(1, len(fine) - 1):
        if detrended[i] >= detrended[i - 1] and detrended[i] > detrended[i + 1]:
            y0, y1, y2 = detrended[i - 1 : i + 2]
            denom = y0 - 2 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom else 0.0
            peaks.append(fine[i] + shift * dt)
    spacing = np.diff(peaks)
    omega_meas = 2 * np.pi / float(np.mean(spacing))
    osc_dev = abs(omega_meas - delta) / delta

    coarse = np.linspace(0.0, 1e5, 101)
    long_run = _register(
        "fig3c:long",
        sr.evolve(model, rho0, coarse, observer=lambda t, r: {"energy": sr.energy(r, model)}),
    )
    e_final = float(long_run.records["energy"][-1])

    ok = osc_dev <= 0.05 and env_dev <= 0.10 and abs(e_final) < 1e-2
    _report(
        5,
        ok,
        f"oscillation {omega_meas:.5f} vs delta={delta} (dev {osc_dev:.2%} <= 5%, "
        f"{len(peaks)} peaks); envelope {env_rate:.4e} vs 2*kappa (dev {env_dev:.2%} <= 10%); "
        f"energy(1e5)={e_final:.1e} (<1e-2)",
    )


def test_criterion_06_three_qubit_convergence(fig4_runs):
    model, runs = fig4_runs
    psi2 = sr.named_state_vector("psi2", model.layout)
    closed = (2.0 / 3.0) * pure(psi2)
    closed[0, 0] += 1.0 / 3.0

    e100 = sr.energy(runs["100"].final_state, model)
    e011 = sr.energy(runs["011"].final_state, model)
    cross = trace_distance(runs["100"].final_state, runs["011"].final_state)
    d100 = trace_distance(runs["100"].final_state, closed)
    d011 = trace_distance(runs["011"].final_state, closed)
    ok = (
        abs(e100 - 0.667) <= 1e-3
        and abs(e011 - 0.667) <= 1e-3
        and cross < 1e-3
        and d100 < 1e-3
        and d011 < 1e-3
    )
    _report(
        6,
        ok,
        f"final energies {e100:.6f}/{e011:.6f} (0.667+-1e-3); "
        f"mutual distance {cross:.1e}, vs closed form {d100:.1e}/{d011:.1e} (<1e-3)",
    )


def test_criterion_07_dark_dimension_combinatorics():
    details = []
    ok = True
    for n in range(2, 6):
        model = sr.build_model(
            sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(),) * n,
                collective_channels=(
                    sr.CollectiveChannelSpec(KAPPA, (1,) * n, ((1, 0),) * n),
                ),
                dimension_cap=1024,
            )
        )
        op = model.collective_ops[0]
        for k in range(n + 1):
            got = sr.dark_subspace(model, k).dimension
            expected = max(comb(n, k) - (comb(n, k - 1) if k else 0), 0)
            # independent oracle: SVD null space of the sector restriction
            idx = np.flatnonzero(model.levels.sum(axis=0) == k)
            svals = np.linalg.svd(op[:, idx], compute_uv=False)
            brute = int(np.sum(svals <= 1e-9 * max(svals.max(), 1e-300)))
            if not (got == expected == brute):
                ok = False
                details.append(f"N={n},k={k}: got {got}, formula {expected}, svd {brute}")
    n3k2 = sr.dark_subspace(
        sr.build_model(
            sr.SystemSpec(
                emitters=(sr.EmitterSpec.qubit(),) * 3,
                collective_channels=(
                    sr.CollectiveChannelSpec(KAPPA, (1, 1, 1), ((1, 0),) * 3),
                ),
            )
        ),
        2,
    ).dimension
    ok = ok and n3k2 == 0
    _report(
        7,
        ok,
        "dark dimensions match C(N,k)-C(N,k-1) and SVD null spaces for N<=5; "
        f"N=3,k=2 -> {n3k2} (expected 0)"
        + ("; mismatches: " + "; ".join(details) if details else ""),
    )


def test_criterion_08_clockwork_steady_entanglement():
    scenario = sr.scenario_from_dict(sr.load_preset("fig3e-clockwork"))
    model = sr.build_model(scenario.system)
    kappa = scenario.system.collective_channels[0].rate
    rho0 = sr.build_initial_state(scenario.initials[0][1], model.layout)

    def tracked(rho):
        return sr.log_negativity(rho, model.layout, ((0,), (1,)))

    steady = sr.asymptotic_state(model, rho0)
    rhs_norm = float(np.max(np.abs(lindblad_rhs(model, steady))))
    converged = rhs_norm < 1e-9
    en_steady = tracked(steady)
    # explicit drift over one further 1/kappa interval at the plateau
    after = sr.evolve(model, steady, np.array([0.0, 1.0 / kappa]))
    _register("clockwork:plateau", after)
    drift = abs(tracked(after.final_state) - en_steady)
    ok = converged and en_steady > 0.02 and drift < 1e-6
    _report(
        8,
        ok,
        f"asymptotic state max|rhs|={rhs_norm:.1e} (<1e-9), E_N={en_steady:.4f} (>0.02), "
        f"drift/unit={drift:.1e} (<1e-6)",
    )


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(20):
        kappa = rng.uniform(0.01, 0.1)
        spec = sr.SystemSpec(
            emitters=(
                sr.EmitterSpec.qubit(1.0),
                sr.EmitterSpec(2, (0.0, 1.0 + rng.uniform(-0.2, 0.2))),
            ),
            collective_channels=(sr.CollectiveChannelSpec(kappa, (1, 1), ((1, 0), (1, 0))),),
            local_channels=(
                sr.LocalChannelSpec(rng.uniform(0.0, 0.1), 0),
                sr.LocalChannelSpec(rng.uniform(0.0, 0.1), 1),
            ),
        )
        model = sr.build_model(spec)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = x @ x.conj().T
        rho0 /= np.trace(rho0)
        t_end = 1.0 / kappa
        oracle = sr.unvec(expm(sr.liouvillian_matrix(model) * t_end) @ sr.vec(rho0), 4)
        cfg = sr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = _register(
            "oracle:random", sr.evolve(model, rho0, np.array([0.0, t_end]), cfg)
        )
        worst = max(worst, float(np.max(np.abs(traj.final_state - oracle))))
    ok = worst < 1e-7
    _report(9, ok, f"20 random models vs matrix-exponential oracle: worst {worst:.2e} (<1e-7)")


def test_criterion_10_universal_invariants(fig2_runs, fig4_runs):
    assert _RUNS, "earlier criteria must register their runs"
    worst_trace = worst_herm = 0.0
    worst_eig = 0.0
    for _, traj in _RUNS:
        worst_trace = max(worst_trace, float(np.max(traj.records["trace_error"])))
        worst_herm = max(worst_herm, float(np.max(traj.records["herm_error"])))
        worst_eig = min(worst_eig, float(np.min(traj.records["min_eigenvalue"])))

    rng = np.random.default_rng(42)
    layout = sr.DimsLayout((2, 2))
    worst_phase = 0.0
    for _ in range(10):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        base = sr.log_negativity(rho, layout)
        theta = rng.uniform(0.0, 2 * np.pi)
        which = rng.integers(0, 2)
        numbers = np.array([0, 0, 1, 1]) if which == 0 else np.array([0, 1, 0, 1])
        phase = np.diag(np.exp(1j * theta * numbers))
        rotated = phase @ rho @ phase.conj().T
        worst_phase = max(worst_phase, abs(sr.log_negativity(rotated, layout) - base))

    ok = (
        worst_trace < 1e-9
        and worst_herm < 1e-9
        and worst_eig > -1e-8
        and worst_phase < 1e-10
    )
    _report(
        10,
        ok,
        f"over {len(_RUNS)} runs: trace_error max {worst_trace:.1e} (<1e-9), "
        f"herm max {worst_herm:.1e} (<1e-9), min eigenvalue {worst_eig:.1e} (>-1e-8); "
        f"E_N local-phase deviation max {worst_phase:.1e} (<1e-10)",
    )
