"""subrad: cooperative-dissipation dynamics for small emitter networks.

Declarative system specs compile to dense Hamiltonian/jump operators; an
exact propagator (small reachable blocks) or an adaptive integrator evolves
density matrices under the Lindblad generator;
observables cover energy, dark-state overlaps, log-negativity and the
dark-subspace structure; a scenario-file CLI drives figure-style runs and
parameter sweeps.
"""

from . import errors
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    asymptotic_state,
    evolve,
    liouvillian_matrix,
    unvec,
    vec,
)
from .linalg import (
    DimsLayout,
    hermitian_eigen,
    kernel_basis,
    partial_trace,
    trace_norm_hermitian,
)
from .model import (
    CollectiveChannelSpec,
    DriveSpec,
    EmitterSpec,
    LocalChannelSpec,
    ModelOperators,
    StateSpec,
    SystemSpec,
    basis_levels,
    build_initial_state,
    build_model,
    named_state_vector,
    state_vector,
)
from .observables import (
    DarkSubspace,
    NesReport,
    dark_overlap,
    dark_overlap_sqrt,
    dark_projector,
    dark_subspace,
    energy,
    log_negativity,
    nes_report,
)
from .scenario import (
    ReductionSpec,
    Scenario,
    ScenarioResult,
    SweepResult,
    SweepSpec,
    dump_scenario,
    format_csv,
    list_presets,
    load_preset,
    parse_scenario,
    parse_sweep,
    run_scenario,
    run_sweep,
    scenario_from_dict,
)

__version__ = "0.1.0"
