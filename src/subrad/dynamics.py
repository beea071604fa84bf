"""Time evolution under the Lindblad generator and its spectral views.

The master equation convention is
``drho/dt = -i[H, rho] + sum_k rate_k (2 L_k rho L_k† - L_k†L_k rho - rho L_k†L_k)``.
`_generator` compiles it once into H_nh = H - i sum_k rate_k L_k†L_k and the
scaled jumps sqrt(2 rate_k) L_k; the rhs and the superoperator are both
built from those.

State validity is one policy.  `density_checks` measures the trace error
|tr rho - 1|, the Hermiticity error max|rho - rho†| and the lowest
eigenvalue of the Hermitian part (rho + rho†)/2, which it also returns, and
refuses a non-finite state (`InvariantViolation`); `within_tolerance` holds
them to ``TRACE_TOL``, ``HERMITICITY_TOL`` (both 1e-9) and
``MIN_EIGENVALUE_TOL`` (-1e-8), passing a value at its threshold and
failing NaN.  An initial state outside them is refused; its checks are the
first grid point's record.  The solvers only advance; `evolve` checks each
later grid point once, on the state as stepped, so ``herm_error`` is the
step's drift, and flags a record outside them (`Trajectory.breached`).  A
run aborts only on a non-finite state or a lowest eigenvalue below
``MIN_EIGENVALUE_FLOOR`` (-1e-6).  Hermiticity is restored at every grid
point: the Hermitian part whose eigenvalues the check solved is the state
the observer and the next step see.  Trace (the generator preserves it, so
its drift is roundoff) and positivity are never corrected.

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
`_generator` forms H_nh, so a run costs no full-space product.  `evolve`
steps a ``(k, dim, dim)`` stack of initial states (a 2-D state is a stack of
one at its boundary) on the union S of their blocks: one product, one check
on the block and one observer call, with the full states, per grid point.
With the propagator each state's values are bit for bit those of its own
run; a Dormand-Prince stack shares one step sequence.

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
from .linalg import HERMITICITY_TOL, dagger, hermitian_eigen, max_abs, svd
from .model import ModelOperators, Opt, as_positive, check_fields, spec_class, spec_field

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


@spec_class
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

    rel_tol: float = spec_field(as_positive, 1e-8)
    abs_tol: float = spec_field(as_positive, 1e-10)
    initial_step: float | None = spec_field(Opt(as_positive), None)
    fixed_step: float | None = spec_field(Opt(as_positive), None)

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, per-time observable records and the final density matrix.

    ``records`` maps column name to an array aligned with ``times`` (a column per state of a stacked run); the
    built-in columns ``trace_error``, ``herm_error`` and ``min_eigenvalue`` are always present and never NaN
    (`evolve` raises on a non-finite state).
    """

    times: np.ndarray
    records: dict[str, np.ndarray]
    final_state: np.ndarray
    meta: dict[str, float | str] = field(default_factory=dict)

    @property
    def breached(self) -> bool:
        """Whether some grid point's checks lie outside `within_tolerance` (NaN does)."""
        return not np.all(within_tolerance(*(self.records[key] for key in _RESERVED_RECORDS)))


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square ``a`` and ``b`` as `numpy.kron` forms it, ``a`` the slower-varying factor."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _superoperator(h_nh: np.ndarray, jump_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Dense matrix of the rhs `_compiled_rhs` builds from the same operators.

    Column-stacking convention: vec(A rho B) = (B^T ⊗ A) vec(rho).
    Raises `DimensionCapExceeded` above `SUPEROPERATOR_MAX_DIM` states.
    """
    if h_nh.shape[0] > SUPEROPERATOR_MAX_DIM:
        raise DimensionCapExceeded(f"superoperator of {h_nh.shape[0]} states exceeds {SUPEROPERATOR_MAX_DIM}")
    eye = np.eye(h_nh.shape[0], dtype=np.complex128)
    liou = -1j * (_kron(eye, h_nh) - _kron(h_nh.conj(), eye))
    for op in jump_ops:
        liou += _kron(op.conj(), op)
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


def _reachable(rho: np.ndarray, model: ModelOperators) -> np.ndarray:
    """Sorted basis indices reachable from the support of any state of the stack ``rho`` under ``model``.

    Index i is reached from k when H[i, k] != 0, when some jump L of nonzero
    rate has L[i, k] != 0, or when (L†L)[i, k] != 0 by pattern: L maps k to some m
    with L[m, i] != 0.  The result is the smallest superset of the support
    closed under that; no product of operators is formed.
    """
    # astype(bool) is the nonzero pattern (NaN counts as nonzero) at a third of the cost of != 0 on complex
    h_pattern = model.hamiltonian.astype(bool)
    patterns = [op.astype(bool) for rate, op in model.jumps if rate != 0.0]
    nonzero = rho.astype(bool).any(axis=0)  # the union of the states' patterns
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


def density_checks(rho: np.ndarray, name: str, dim: int) -> tuple[list, list, list, np.ndarray]:
    """Trace errors, max|rho - rho†|, the lowest eigenvalues of H = (rho + rho†)/2, and H, of a ``(k, n, n)`` stack.

    Each state is a block of a ``dim``-state space, zero outside it: below ``dim`` states the lowest eigenvalue is
    min(lambda_H, 0).  ``name`` names ``rho`` when a non-finite entry raises `InvariantViolation`.  The values are
    lists of k floats (cheaper than arrays for a few states), each state's own, from one `hermitian_eigen` call.
    """
    if not np.isfinite(rho).all():
        raise InvariantViolation(f"non-finite entries in {name}")
    rho_dagger = dagger(rho)
    hermitian = (rho + rho_dagger) / 2.0
    lowest = [min(w, 0.0) if rho.shape[-1] < dim else w for w in hermitian_eigen(hermitian)[:, 0].tolist()]
    trace_error = [abs(z - 1.0) for z in rho.trace(axis1=1, axis2=2).tolist()]
    return trace_error, np.abs(rho - rho_dagger).max(axis=(1, 2)).tolist(), lowest, hermitian


def within_tolerance(trace_error, herm_error, min_eigenvalue):
    """Whether `density_checks` values meet the thresholds, elementwise; NaN does not."""
    return (trace_error <= TRACE_TOL) & (herm_error <= HERMITICITY_TOL) & (min_eigenvalue >= MIN_EIGENVALUE_TOL)


def block_key(model: ModelOperators, rho0) -> bytes | None:
    """The indices of the block `evolve` steps ``rho0`` on, as bytes, where `run_scenario` stacks the states of one
    key; None where Dormand-Prince steps it, since its stack shares one step sequence (each such state steps alone)."""
    keep = _reachable(np.asarray(rho0)[None], model)
    return keep.tobytes() if len(keep) <= PROPAGATOR_MAX_DIM else None


def _block(model: ModelOperators, rho0):
    """``np.ix_(S, S)`` of the block S reachable from a ``(k, dim, dim)`` stack, its checks and `_generator` on it.

    S, the union of the states' blocks, is found from the patterns of H and of the jumps of nonzero rate
    (`_reachable`); H and the jumps are sliced to S before `_generator` forms H_nh, so no full-space sum of L†L is
    built.  S is closed under every jump, so L_S†L_S is (L†L) restricted to S.  The checks, Hermitian parts last,
    are `density_checks` of ``rho0`` on the block: outside it ``rho0`` is exactly zero (a NaN or infinite entry counts
    as nonzero, so it lies in the block).  Refuses a ``rho0`` of the wrong shape, an empty stack, or a state outside
    them: a zero state, whose block is empty, is checked on index 0, where it is zero as well (trace error 1).
    """
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape[-2:] != (model.dim, model.dim) or rho.ndim != 3 or not len(rho):
        raise DimensionMismatch(f"state shape {rho.shape} vs model dim {model.dim}: need a stack of one or more states")
    keep = _reachable(rho, model)
    if not keep.size:
        keep = np.arange(1)
    block = np.ix_(keep, keep)
    # C order: a product's bits follow the layout of its operands, and a stack's slice is not C-ordered
    checks = density_checks(np.ascontiguousarray(rho[(..., *block)]), "the initial state", model.dim)
    worst = max(checks[0]), max(checks[1]), min(checks[2])
    if not within_tolerance(*worst):
        raise InvariantViolation("initial state trace error %.2e, Hermiticity error %.2e, min eigenvalue %.2e" % worst)
    h_nh, jump_ops = _generator(model.hamiltonian[block], [(rate, op[block]) for rate, op in model.jumps])
    return block, checks, h_nh, jump_ops


def _dp45(rhs, rho, span: float, cfg: IntegratorConfig, norm_count: int, meta):
    """Dormand-Prince stepper ``advance(rho, t, target)`` -> the state at ``target``.

    The first step is probed at ``rho`` over ``span``; the step size and
    the controller's error memory carry over from one call to the next.  The
    step-error norm averages over ``norm_count`` entries, each state's its
    own in a stack.  Counts accepted and rejected steps into ``meta``.
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
                    err_norm = float(np.sqrt(np.sum(np.abs(err / scale) ** 2, axis=(-2, -1)) / norm_count).max())
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
    """Exact stepper ``advance(rho, t, target)`` of a stack: one expm(liou (target - t)) product.

    One propagator is computed per distinct interval length.  Counts the products as ``meta["steps"]``.  A stack is
    one product ``P @ V``, V holding each state as a `vec` column, bit for bit ``P @ v`` of each; it is returned in
    C order, where the stack's checks run faster.
    """
    propagators: dict[float, np.ndarray] = {}

    def advance(rho: np.ndarray, t: float, target: float) -> np.ndarray:
        dt = target - t
        if dt not in propagators:
            propagators[dt] = _expm(liou * dt)
        meta["steps"] += 1
        return (propagators[dt] @ rho.swapaxes(1, 2).reshape(len(rho), -1, 1)).reshape(rho.shape).swapaxes(1, 2).copy()

    return advance


def evolve(
    model: ModelOperators,
    rho0,
    time_grid,
    config: IntegratorConfig | None = None,
    observer: Observer | None = None,
) -> Trajectory:
    """Integrate the master equation, recording observables on a grid.

    ``time_grid`` must be strictly increasing; ``rho0`` is a ``(k, dim, dim)`` stack of the states at
    ``time_grid[0]`` (``meta["stacked"]`` is k).  The observer (if given) is called at every grid point with the
    full stack, the Hermitian parts that point's check returned; the mapping it returns, k real numbers per key, is
    merged into the records of shape ``(points, k)`` (another shape raises `ValueError` naming the key).  Its keys
    at the first grid point fix the record columns: ``trace_error``, ``herm_error`` and ``min_eigenvalue`` are
    reserved, and a later point returning another key set raises `ValueError` naming its ``t``.  A grid-point state
    that aborts the run (see the module docstring) raises `InvariantViolation` before the observer sees it.  A 2-D
    ``rho0`` is a stack of one inside: its observer sees and returns one state's, its records are ``(points,)``.

    Only the block on the indices reachable from the support of ``rho0`` is stepped; ``meta["evolved_dim"]`` is its
    size.  Outside the block the state is exactly zero, so ``min_eigenvalue`` is ``min(lambda_min(block), 0)``.

    ``meta["solver"]`` names the solver the block size chose: ``"propagator"`` when it is at most
    `PROPAGATOR_MAX_DIM`, else ``"dp45"``.  ``meta["steps"]`` counts propagator products (one per grid interval) or
    accepted Dormand-Prince steps, ``meta["rejected"]`` the rejected ones (always 0 for the propagator) and
    ``meta["max_herm_drift"]`` is the largest ``herm_error``.  The Dormand-Prince step-error norm still averages
    over all ``dim**2`` entries: the entries outside the block would add exactly 0 to the sum, so dividing by the
    full count gives the norm, and thus the step sequence, of a full-space run (up to the order of roundoff).  A
    stack takes a step only when each state's own norm is at most 1, and the largest sets the next step size.
    """
    cfg = config or IntegratorConfig()
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise DimensionMismatch("time grid must be a 1-D array with >= 1 points")
    if np.any(np.diff(times) <= 0):
        raise DimensionMismatch("time grid must be strictly increasing")

    dim, pick = model.dim, slice(None)  # `pick` takes the records and final state of the states passed in
    if np.ndim(rho0) == 2:  # a stack of one from here to the return
        rho0, observe, pick = np.asarray(rho0)[None], observer, 0
        if observe is not None:
            observer = lambda t, rho: {key: [value] for key, value in observe(t, rho[0]).items()}  # noqa: E731
    block, checks, h_nh, jump_ops = _block(model, rho0)
    rho = checks[3]
    size = rho.shape[-1]
    solver = "propagator" if size <= PROPAGATOR_MAX_DIM else "dp45"
    meta = {"solver": solver, "steps": 0.0, "rejected": 0.0, "max_herm_drift": 0.0, "evolved_dim": float(size),
            "stacked": float(len(rho))}
    if solver == "propagator":
        advance = _propagator(_superoperator(h_nh, jump_ops), meta)
    else:
        advance = _dp45(_compiled_rhs(h_nh, jump_ops), rho, float(times[-1] - times[0]), cfg, dim**2, meta)

    shape, index = (len(rho), dim, dim), (..., *block)

    def embed(state: np.ndarray) -> np.ndarray:
        if size == dim:
            return state
        full = np.zeros(shape, dtype=np.complex128)
        full[index] = state
        return full

    # one flat list of floats per record: a list kept per point would make the garbage collector run every few points
    records: dict[str, list] = {key: [] for key in _RESERVED_RECORDS}
    observed = None  # the observer's key set, fixed at the first grid point
    grid, k = times.tolist(), len(rho)
    for i, t in enumerate(grid):
        if i:
            checks = density_checks(advance(rho, grid[i - 1], t), f"the state at t={t:g}", dim)
        trace_error, herm_error, lowest, rho = checks
        if (worst := min(lowest)) < MIN_EIGENVALUE_FLOOR:
            raise InvariantViolation(f"min eigenvalue {worst:.3e} below {MIN_EIGENVALUE_FLOOR:.0e} at t={t:g}")
        for key, value in zip(_RESERVED_RECORDS, (trace_error, herm_error, lowest)):
            records[key].extend(value)
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
                column = records[str(key)]
                try:
                    column.extend(value)
                except TypeError:  # a value that is no sequence; the length check below refuses it
                    pass
                if len(column) != (i + 1) * k:
                    raise ValueError(f"observer key {key!r} did not give one value per state at every grid point")

    columns = {}
    for key, values in records.items():
        column = np.array(values)  # values that are sequences of different lengths raise ValueError here
        if column.shape != (len(grid) * k,):  # a value that is a sequence; astype below refuses None and complex
            raise ValueError(f"observer key {key!r} did not give one value per state at every grid point")
        columns[key] = column.astype(float, casting="same_kind", copy=False).reshape(len(grid), k)[:, pick]
    meta["max_herm_drift"] = float(columns["herm_error"].max())
    return Trajectory(times=times.copy(), records=columns, final_state=embed(rho)[pick].copy(), meta=meta)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(rho, dtype=np.complex128).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vec`."""
    return np.asarray(v, dtype=np.complex128).reshape((dim, dim), order="F")


def liouvillian_matrix(model: ModelOperators) -> np.ndarray:
    """Dense superoperator L with L @ vec(rho) = vec(drho/dt), the master equation of the module docstring.

    Column-stacking convention: vec(A rho B) = (B^T ⊗ A) vec(rho).
    Raises `DimensionCapExceeded` above `SUPEROPERATOR_MAX_DIM` states.
    """
    return _superoperator(*_generator(model.hamiltonian, model.jumps))


def asymptotic_state(model: ModelOperators, rho0) -> np.ndarray:
    """The state `evolve` tends to from ``rho0``: its projection on the kernel of L.

    On the block reachable from ``rho0`` (see the module docstring), one SVD
    of the block superoperator L gives its right and left kernels R and J
    (singular values at most eps |S|^2 sigma_max, the numerical rank's
    roundoff scale on a side of |S|^2), and the
    zero-eigenvalue spectral projector P = R (J†R)^-1 J† gives
    rho_inf = P vec(rho0) (Albert & Jiang, PRA 89, 022118 (2014)), rho0 as the
    Hermitian part its initial check returns, as in `evolve`.  No time
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
    block, (*_, (rho,)), h_nh, jump_ops = _block(model, np.asarray(rho0)[None])
    size = rho.shape[0]
    liou = _superoperator(h_nh, jump_ops)
    u, sigma, vh = svd(liou)
    null = sigma <= np.finfo(float).eps * sigma.size * sigma[0]
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

