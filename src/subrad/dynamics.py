"""Time evolution under the Lindblad generator and its spectral views.

The master equation convention is
``drho/dt = -i[H, rho] + sum_k rate_k (2 L_k rho L_k† - L_k†L_k rho - rho L_k†L_k)``.
`_generator` compiles it once into H_nh = H - i sum_k rate_k L_k†L_k and the
scaled jumps sqrt(2 rate_k) L_k; the rhs and the superoperator are both
built from those.

State validity is one policy.  `density_checks` measures the trace error
|tr rho - 1|, the Hermiticity error max|rho - rho†| and the lowest
eigenvalue of (rho + rho†)/2, and refuses a non-finite state
(`InvariantViolation`); `within_tolerance` holds them to ``TRACE_TOL``,
``HERMITICITY_TOL`` (both 1e-9) and ``MIN_EIGENVALUE_TOL`` (-1e-8), passing
a value at its threshold and failing NaN.  An initial state outside them is
refused.  The solvers only advance; `evolve` records the three values at
every grid point, the first included, on the state as stepped, so
``herm_error`` is the step's drift, and flags a record outside them
(`Trajectory.breached`).  A run aborts only on a non-finite state or a lowest
eigenvalue below ``MIN_EIGENVALUE_FLOOR`` (-1e-6).  Hermiticity is then
restored at the grid point (``rho <- (rho + rho†)/2``) before the observer
and the next step see the state; trace (the generator preserves it, so its
drift is roundoff) and positivity are never corrected.

`evolve` steps only the block of the density matrix that the initial state
can reach.  A basis index is reachable when a chain of nonzero entries
leads to it from the support of ``rho0``, each link an entry of H, of some
jump operator L of nonzero rate, or of the pattern of L†L (k reaches i when
L maps k and i to a common index).  These are the patterns of every term
of the generator, so it maps a state supported on a closed index set S
(rows and columns in S) to one supported on S: the S x S block evolves
exactly on its own and everything outside it stays zero.  Decay only lowers
excitation, so an initial excitation in a few sectors never leaves them;
drives or channels mixing transitions of different size simply make S
larger, up to the whole space.  H and the jumps are sliced to S before
`_generator` forms H_nh, so a run costs no full-space product.  The checks
run on the block; observers see the full state, embedded at each grid
point.

The block is stepped by one of two solvers, chosen by |S| alone:

* ``|S| <= PROPAGATOR_MAX_DIM`` (16): the generator is time-independent
  (drives are static in the rotating frame), so the exact step over a grid
  interval of length dt is P = expm(L dt) with L the |S|² x |S|² block
  superoperator.  One P is computed per distinct interval length (memoised
  within the call) and each interval is one matrix-vector product.  `_expm`
  uses matrix products only: scaling and squaring of a degree-18 Taylor
  polynomial (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), which
  agreed with `scipy.linalg.expm` to 1e-12 relative on random block
  generators.  One expm took 1.9 ms at |S| = 9, 8.6 ms at 12, 50 ms at 16
  and 169 ms at 20 (scipy: 2.4, 11, 53 and 149 ms; 2-core host, one BLAS
  thread), which is why 16 is the bound.
* larger blocks: an embedded Dormand-Prince 5(4) pair with PI step-size
  control, stepping the density matrix directly as a complex array.
  Between grid points the step size adapts freely; every grid point is hit
  exactly (steps are clipped, never interpolated).  A fixed-step mode
  exists for byte-reproducible output.  The state is Hermitised only at
  grid points, not after every step.  At |S| = 256 the superoperator
  would have 65 536² entries, so this is the only solver for large blocks.

`asymptotic_state` takes no steps.  On the same reachable block it projects
vec(rho0) onto the right kernel of the block superoperator along its left
kernel, the conserved quantities; that is the t -> infinity limit of
`evolve`, or its time average where purely imaginary eigenvalues keep the
state oscillating.

A dense superoperator is built only for blocks of at most
``SUPEROPERATOR_MAX_DIM`` (32) states, whatever the model's ``dimension_cap``
(a Hilbert-space bound); larger ones raise `DimensionCapExceeded`.  32 covers
every 5-qubit model: `asymptotic_state` from ``11100`` (|S| = 26) took 0.5 s
and one SVD of side 1024 took 1.5 s; 64 states would cost about 64 times that
(2-core host, one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionCapExceeded, DimensionMismatch, InvariantViolation, StepSizeUnderflow
from .linalg import HERMITICITY_TOL, KERNEL_TOL, dagger, hermitian_eigen, kron, max_abs, svd
from .model import ModelOperators

Observer = Callable[[float, np.ndarray], Mapping[str, float]]

# Record columns of the `density_checks` values, in its order.
_RESERVED_RECORDS = ("trace_error", "herm_error", "min_eigenvalue")

# Validity thresholds of a density matrix (see the module docstring): the
# first three decide `within_tolerance`, the floor aborts `evolve`.
TRACE_TOL = 1e-9
MIN_EIGENVALUE_TOL = -1e-8
MIN_EIGENVALUE_FLOOR = -1e-6

# Largest reachable block that `evolve` steps with the exact propagator; its
# superoperator has at most 256 x 256 entries.
PROPAGATOR_MAX_DIM = 16

# Largest block whose dense superoperator `_superoperator` builds (side 1024).
SUPEROPERATOR_MAX_DIM = 32


@dataclass(frozen=True)
class IntegratorConfig:
    """Accuracy and step lengths of the Dormand-Prince solver of `evolve`.

    All four apply only to reachable blocks larger than
    `PROPAGATOR_MAX_DIM`; the propagator is exact and takes one step per
    grid interval.  Step lengths are in the model's time unit.
    ``fixed_step`` replaces adaptive control with a constant step (clipped
    at grid points) for deterministic output.  Everything else, the
    Hermitisation at grid points and the validity thresholds of the states
    included, is fixed (see the module docstring).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    initial_step: float | None = None
    fixed_step: float | None = None

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "initial_step", "fixed_step"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, per-time observable records and the final density matrix.

    ``records`` maps column name to an array aligned with ``times``; the
    built-in columns ``trace_error``, ``herm_error`` and ``min_eigenvalue``
    are always present and never NaN (`evolve` raises on a non-finite state).
    """

    times: np.ndarray
    records: dict[str, np.ndarray]
    final_state: np.ndarray
    meta: dict[str, float | str] = field(default_factory=dict)

    @property
    def breached(self) -> bool:
        """Whether some grid point's checks lie outside `within_tolerance` (NaN does)."""
        return not np.all(within_tolerance(*(self.records[key] for key in _RESERVED_RECORDS)))


def lindblad_rhs(model: ModelOperators, rho) -> np.ndarray:
    """Right-hand side of the master equation at ``rho``."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatch(f"state shape {rho.shape} vs model dim {model.dim}")
    return _compiled_rhs(*_generator(model.hamiltonian, model.jumps))(rho)


def _generator(hamiltonian: np.ndarray, jumps: Sequence[tuple[float, np.ndarray]]) -> tuple[np.ndarray, list]:
    """H_nh = H - i sum rate L†L and the scaled jumps sqrt(2 rate) L, from ``(rate, L)`` pairs.

    With these, ``rhs = -i (H_nh rho - rho H_nh†) + sum (sqrt(2 rate) L) rho (...)†``,
    algebraically identical to the master equation of the module docstring.
    Jumps of rate 0 are dropped.
    """
    k_op = np.zeros(hamiltonian.shape, dtype=np.complex128)
    jump_ops: list[np.ndarray] = []
    for rate, op in jumps:
        if rate == 0.0:
            continue
        k_op += rate * (dagger(op) @ op)
        jump_ops.append(np.sqrt(2.0 * rate) * op)
    return hamiltonian - 1j * k_op, jump_ops


def _compiled_rhs(h_nh: np.ndarray, jump_ops: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The master-equation rhs from the operators `_generator` returns."""
    h_nh_dag = dagger(h_nh)
    jump_pairs = [(op, dagger(op)) for op in jump_ops]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h_nh @ rho - rho @ h_nh_dag)
        for l_scaled, l_dag_scaled in jump_pairs:
            out += l_scaled @ rho @ l_dag_scaled
        return out

    return rhs


def _superoperator(h_nh: np.ndarray, jump_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Dense matrix of the rhs `_compiled_rhs` builds from the same operators.

    Column-stacking convention: vec(A rho B) = (B^T kron A) vec(rho).
    Raises `DimensionCapExceeded` above `SUPEROPERATOR_MAX_DIM` states.
    """
    if h_nh.shape[0] > SUPEROPERATOR_MAX_DIM:
        raise DimensionCapExceeded(f"superoperator of {h_nh.shape[0]} states exceeds {SUPEROPERATOR_MAX_DIM}")
    eye = np.eye(h_nh.shape[0], dtype=np.complex128)
    liou = -1j * (kron(eye, h_nh) - kron(h_nh.conj(), eye))
    for op in jump_ops:
        liou += kron(op.conj(), op)
    return liou


# `_expm` evaluates the Taylor polynomial of this degree on a matrix scaled to
# 1-norm <= 1, where the neglected tail is below 1e-17, under unit roundoff.
# Paterson-Stockmeyer evaluation in blocks of 4 powers takes 3 + 4 products.
_TAYLOR_DEGREE = 18
_TAYLOR_BLOCK = 4
_TAYLOR_COEFFS = 1.0 / np.cumprod([1.0, *range(1, _TAYLOR_DEGREE + 1)])


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor polynomial, matrix products only."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    a = a * 0.5**squarings
    powers = [np.eye(a.shape[0], dtype=a.dtype), a]
    for _ in range(_TAYLOR_BLOCK - 1):
        powers.append(powers[-1] @ a)
    stride = powers.pop()
    result = None
    for start in range(_TAYLOR_DEGREE - _TAYLOR_DEGREE % _TAYLOR_BLOCK, -1, -_TAYLOR_BLOCK):
        block = sum(c * p for c, p in zip(_TAYLOR_COEFFS[start : start + _TAYLOR_BLOCK], powers))
        result = block if result is None else result @ stride + block
    for _ in range(squarings):
        result = result @ result
    return result


def _reachable(rho: np.ndarray, hamiltonian: np.ndarray, jumps: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted basis indices reachable from the support of ``rho``.

    Index i is reached from k when H[i, k] != 0, when some jump L has
    L[i, k] != 0, or when (L†L)[i, k] != 0 by pattern: L maps k to some m
    with L[m, i] != 0.  The result is the smallest superset of the support
    closed under that; no product of operators is formed.
    """
    # astype(bool) is the nonzero pattern (NaN counts as nonzero) at a third of the cost of != 0 on complex
    h_pattern = hamiltonian.astype(bool)
    patterns = [op.astype(bool) for op in jumps]
    nonzero = rho.astype(bool)
    reached = nonzero.any(axis=0) | nonzero.any(axis=1)
    while True:
        grown = reached | h_pattern[:, reached].any(axis=1)
        for pattern in patterns:
            image = pattern[:, reached].any(axis=1)
            grown |= image | pattern[image].any(axis=0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


# Dormand-Prince 5(4) tableau (the generator is autonomous, so no nodes).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dp_step(rhs, y, h):
    """One Dormand-Prince step: returns (y5, error_estimate)."""
    k = [rhs(y)]
    for stage in range(1, 7):
        acc = np.zeros_like(y)
        for coeff, ki in zip(_DP_A[stage], k):
            if coeff != 0.0:
                acc += coeff * ki
        k.append(rhs(y + h * acc))
    y5 = y.copy()
    for coeff, ki in zip(_DP_B5, k):
        if coeff != 0.0:
            y5 += (h * coeff) * ki
    err = np.zeros_like(y)
    for coeff, ki in zip(_DP_ERR, k):
        if coeff != 0.0:
            err += (h * coeff) * ki
    return y5, err


def density_checks(rho: np.ndarray, name: str) -> tuple[float, float, float]:
    """Trace error, max|rho - rho†| and the lowest eigenvalue of (rho + rho†)/2.

    ``rho`` is a square complex array; ``name`` describes it in the
    `InvariantViolation` raised when an entry is not finite.
    """
    if not np.isfinite(rho).all():
        raise InvariantViolation(f"non-finite entries in {name}")
    herm_error = max_abs(rho - dagger(rho))
    # `hermitian_eigen` refuses a state above its tolerance, so such a state
    # goes in symmetrised; either way the solve sees the same (rho + rho†)/2.
    hermitian = rho if herm_error <= HERMITICITY_TOL else (rho + dagger(rho)) / 2.0
    w, _ = hermitian_eigen(hermitian, vectors=False)
    return abs(complex(np.trace(rho)) - 1.0), herm_error, float(w[0])


def within_tolerance(trace_error, herm_error, min_eigenvalue):
    """Whether `density_checks` values meet the thresholds, elementwise; NaN does not."""
    return (trace_error <= TRACE_TOL) & (herm_error <= HERMITICITY_TOL) & (min_eigenvalue >= MIN_EIGENVALUE_TOL)


def _block(model: ModelOperators, rho0):
    """``np.ix_(S, S)`` of the block S reachable from ``rho0``, ``rho0`` on it and `_generator` formed on it.

    S is found from the patterns of H and of the jumps of nonzero rate
    (`_reachable`); H and the jumps are sliced to S before `_generator`
    forms H_nh, so no full-space sum of L†L is built.  S is closed under
    every jump, so L_S†L_S is (L†L) restricted to S.
    Refuses a ``rho0`` of the wrong shape or outside `within_tolerance`.
    The checks run on the block: outside it ``rho0`` is exactly zero (a NaN
    or infinite entry counts as nonzero, so it lies in the block), which
    leaves the trace and Hermiticity errors as they are and makes the
    lowest eigenvalue of the full state min(lambda_block, 0).
    """
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatch(f"state shape {rho.shape} vs model dim {model.dim}")
    keep = _reachable(rho, model.hamiltonian, [op for rate, op in model.jumps if rate != 0.0])
    block = np.ix_(keep, keep)
    rho = rho[block]
    trace_error, herm_error, lowest = density_checks(rho, "the initial state")
    checks = trace_error, herm_error, min(lowest, 0.0) if keep.size < model.dim else lowest
    if not within_tolerance(*checks):
        raise InvariantViolation("initial state trace error %.2e, Hermiticity error %.2e, min eigenvalue %.2e" % checks)
    h_nh, jump_ops = _generator(model.hamiltonian[block], [(rate, op[block]) for rate, op in model.jumps])
    return block, rho, h_nh, jump_ops


def _dp45(rhs, rho, span: float, cfg: IntegratorConfig, norm_count: int, meta):
    """Dormand-Prince stepper ``advance(rho, t, target)`` -> the state at ``target``.

    The first step is probed at ``rho`` over ``span``; the step size and
    the controller's error memory carry over from one call to the next.  The
    step-error norm averages over ``norm_count`` entries.  Counts accepted
    and rejected steps into ``meta``.
    """
    if cfg.initial_step is not None:
        h = float(cfg.initial_step)
    elif cfg.fixed_step is not None:
        h = float(cfg.fixed_step)
    elif span > 0:
        f0 = rhs(rho)
        h = 0.01 * (max_abs(rho) + cfg.abs_tol) / (max_abs(f0) + 1e-30)
        h = float(np.clip(h, 1e-8 * span, span / 10.0 + 1e-30))
    else:
        h = 1.0

    safety = 0.9
    err_prev = 1e-2

    def advance(rho: np.ndarray, t: float, target: float) -> np.ndarray:
        nonlocal h, err_prev
        while t < target * (1.0 - 1e-15) or target - t > 1e-14 * max(1.0, abs(target)):
            h_try = min(h, target - t)
            if cfg.fixed_step is not None:
                h_try = min(cfg.fixed_step, target - t)
            if h_try < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size underflow at t={t:g}")
            y_new, err = _dp_step(rhs, rho, h_try)

            if cfg.fixed_step is None:
                if np.isfinite(y_new).all():
                    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(rho), np.abs(y_new))
                    err_norm = float(np.sqrt(np.sum(np.abs(err / scale) ** 2) / norm_count))
                else:
                    err_norm = np.inf
                if err_norm > 1.0:
                    meta["rejected"] += 1
                    shrink = safety * err_norm ** (-0.2) if np.isfinite(err_norm) else 0.5
                    h = h_try * float(np.clip(shrink, 0.1, 1.0))
                    continue
                err_clipped = max(err_norm, 1e-10)
                grow = safety * err_clipped ** (-0.14) * err_prev ** 0.08
                h = h_try * float(np.clip(grow, 0.2, 10.0))
                err_prev = err_clipped

            t += h_try
            rho = y_new
            meta["steps"] += 1
        return rho

    return advance


def _propagator(liou: np.ndarray, meta):
    """Exact stepper ``advance(rho, t, target)``: one expm(liou (target - t)) product.

    One propagator is computed per distinct interval length.  Counts the
    products as ``meta["steps"]``.
    """
    propagators: dict[float, np.ndarray] = {}

    def advance(rho: np.ndarray, t: float, target: float) -> np.ndarray:
        dt = target - t
        if dt not in propagators:
            propagators[dt] = _expm(liou * dt)
        meta["steps"] += 1
        return unvec(propagators[dt] @ vec(rho), rho.shape[0])

    return advance


def evolve(
    model: ModelOperators,
    rho0,
    time_grid,
    config: IntegratorConfig | None = None,
    observer: Observer | None = None,
) -> Trajectory:
    """Integrate the master equation, recording observables on a grid.

    ``time_grid`` must be strictly increasing; ``rho0`` is the state at
    ``time_grid[0]``.  The observer (if given) is called at every grid
    point with the full ``(dim, dim)`` state, Hermitised, and its returned
    mapping merged into the records.  The keys it returns at the first grid
    point fix the record columns, so every column is aligned with
    ``time_grid``: the keys ``trace_error``, ``herm_error`` and
    ``min_eigenvalue`` are reserved, and a later point returning another
    key set raises `ValueError` naming its ``t``.  A grid-point state that
    aborts the run (see the module docstring) raises `InvariantViolation`
    before the observer sees it.

    Only the block on the indices reachable from the support of ``rho0``
    (see the module docstring) is stepped; ``meta["evolved_dim"]`` is its
    size.  Outside the block the state is exactly zero, so the embedded
    state has the block's spectrum plus zeros, and ``min_eigenvalue`` is
    ``min(lambda_min(block), 0)``.

    ``meta["solver"]`` names the solver the block size chose:
    ``"propagator"`` when it is at most `PROPAGATOR_MAX_DIM`, else
    ``"dp45"``.  ``meta["steps"]`` counts propagator products (one per grid
    interval) or accepted Dormand-Prince steps, ``meta["rejected"]`` the
    rejected ones (always 0 for the propagator) and ``meta["max_herm_drift"]``
    is the largest ``herm_error``.  The Dormand-Prince step-error norm still
    averages over all ``dim**2`` entries: the entries outside the block
    would add exactly 0 to the sum, so dividing by the full count gives the
    norm, and thus the step sequence, of a full-space run (up to the order
    of roundoff).
    """
    cfg = config or IntegratorConfig()
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise DimensionMismatch("time grid must be a 1-D array with >= 1 points")
    if np.any(np.diff(times) <= 0):
        raise DimensionMismatch("time grid must be strictly increasing")

    dim = model.dim
    block, rho, h_nh, jump_ops = _block(model, rho0)
    size = rho.shape[0]
    solver = "propagator" if size <= PROPAGATOR_MAX_DIM else "dp45"
    meta = {"solver": solver, "steps": 0.0, "rejected": 0.0, "max_herm_drift": 0.0, "evolved_dim": float(size)}
    if solver == "propagator":
        advance = _propagator(_superoperator(h_nh, jump_ops), meta)
    else:
        advance = _dp45(_compiled_rhs(h_nh, jump_ops), rho, float(times[-1] - times[0]), cfg, dim**2, meta)

    def embed(state: np.ndarray) -> np.ndarray:
        if size == dim:
            return state
        full = np.zeros((dim, dim), dtype=np.complex128)
        full[block] = state
        return full

    records: dict[str, list[float]] = {key: [] for key in _RESERVED_RECORDS}
    observed = None  # the observer's key set, fixed at the first grid point
    grid = times.tolist()
    for i, t in enumerate(grid):
        if i:
            rho = advance(rho, grid[i - 1], t)
        trace_error, herm_error, lowest = density_checks(rho, f"the state at t={t:g}")
        lowest = min(lowest, 0.0) if size < dim else lowest
        if lowest < MIN_EIGENVALUE_FLOOR:
            raise InvariantViolation(f"min eigenvalue {lowest:.3e} below {MIN_EIGENVALUE_FLOOR:.0e} at t={t:g}")
        rho = (rho + dagger(rho)) / 2.0
        for key, value in zip(_RESERVED_RECORDS, (trace_error, herm_error, lowest)):
            records[key].append(value)
        if observer is not None:
            extra = observer(t, embed(rho))
            if observed is None:
                observed = set(extra)
                reserved = sorted(observed.intersection(_RESERVED_RECORDS))
                if reserved:
                    raise ValueError(f"observer key {reserved[0]!r} is reserved")
                records.update({str(key): [] for key in extra})
            elif extra.keys() != observed:
                raise ValueError(f"observer keys at t={t:g} {sorted(map(str, extra))} differ from "
                                 f"those at the first grid point {sorted(map(str, observed))}")
            for key, value in extra.items():
                records[str(key)].append(float(value))

    columns = {key: np.array(values) for key, values in records.items()}
    meta["max_herm_drift"] = float(columns["herm_error"].max())
    return Trajectory(times=times.copy(), records=columns, final_state=embed(rho).copy(), meta=meta)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(rho, dtype=np.complex128).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vec`."""
    return np.asarray(v, dtype=np.complex128).reshape((dim, dim), order="F")


def liouvillian_matrix(model: ModelOperators) -> np.ndarray:
    """Dense superoperator L with L @ vec(rho) = vec(lindblad_rhs(rho)).

    Column-stacking convention: vec(A rho B) = (B^T kron A) vec(rho).
    Raises `DimensionCapExceeded` above `SUPEROPERATOR_MAX_DIM` states.
    """
    return _superoperator(*_generator(model.hamiltonian, model.jumps))


def asymptotic_state(model: ModelOperators, rho0) -> np.ndarray:
    """The state `evolve` tends to from ``rho0``: its projection on the kernel of L.

    On the block reachable from ``rho0`` (see the module docstring), one SVD
    of the block superoperator L gives its right and left kernels R and J
    (singular values at most ``KERNEL_TOL`` sigma_max), and the
    zero-eigenvalue spectral projector P = R (J†R)^-1 J† gives
    rho_inf = P vec(rho0) (Albert & Jiang, PRA 89, 022118 (2014)).  No time
    horizon enters: the conserved quantities J fix it.  The first column of
    J is the trace functional vec(1)/sqrt(|S|) itself, so tr rho_inf =
    tr rho0 up to roundoff, whatever the conditioning.  A slow mode of
    singular value s tilts R by about eps sigma_max / s; one step of
    iterative refinement, rho_inf -= (1 - P) L^+ L rho_inf with L^+ from the
    same SVD, removes the part of that the residual shows.  The result is
    embedded in the full space and Hermitised.

    When L has purely imaginary eigenvalues that ``rho0`` excites (dark
    states split by a frame detuning, say), the trajectory oscillates
    forever and the result is its time average, not a limit; no error is
    raised.  Raises `DimensionCapExceeded` when |S| exceeds
    `SUPEROPERATOR_MAX_DIM`, like `liouvillian_matrix`.
    """
    block, rho, h_nh, jump_ops = _block(model, rho0)
    size = rho.shape[0]
    liou = _superoperator(h_nh, jump_ops)
    u, sigma, vh = svd(liou)
    null = sigma <= KERNEL_TOL * sigma[0]
    right, left = dagger(vh[null]), u[:, null]
    # The trace is conserved exactly: vec(1)/sqrt(|S|) becomes the first
    # column of J, and the others are rotated orthogonal to it.
    trace = vec(np.eye(size)) / np.sqrt(size)
    rotation, _ = np.linalg.qr(np.column_stack([dagger(left) @ trace, np.eye(left.shape[1])]))
    left = left @ rotation
    left[:, 0] = trace
    dual = np.linalg.solve(dagger(left) @ right, dagger(left))  # P = right @ dual
    state = right @ (dual @ vec(rho))
    correction = dagger(vh[~null]) @ ((dagger(u[:, ~null]) @ (liou @ state)) / sigma[~null])
    state = unvec(state - correction + right @ (dual @ correction), size)
    full = np.zeros((model.dim, model.dim), dtype=np.complex128)
    full[block] = (state + dagger(state)) / 2.0
    return full

