"""Dense complex linear algebra kernels for small Hilbert spaces.

All values are plain ``numpy.ndarray`` with ``complex128`` entries, stored
row-major.  Functions never mutate their inputs; outputs should be treated
as immutable.  Dimensions in scope are small (a few hundred at most), so
everything is dense and eigensolves go to LAPACK through numpy.

Ordering convention, used everywhere in the package: subsystem 0 is the
leftmost (slowest-varying) tensor factor, i.e. ``numpy.kron(a, b)`` acts
with ``a`` on subsystem 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, ValidationError

HERMITICITY_TOL = 1e-9  # see `hermitian_eigen`
KERNEL_TOL = 1e-9  # see `kernel_basis`


def as_integer(value, name: str) -> int:
    """``value`` as an int: an integer or NumPy integer, never a boolean or a non-integral number."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def as_complex_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array.

    Rejects empty, non-2-D and non-finite input.  Returns a view when the
    input already has the right dtype, so callers must not mutate it.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack on the last two axes."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    """Max-norm (largest entry magnitude); 0.0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class DimsLayout:
    """Tensor factorization bookkeeping: ordered local dimensions.

    ``subsystem_dims[0]`` is the leftmost (slowest-varying) factor.
    """

    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(as_integer(d, "subsystem_dims") for d in self.subsystem_dims)
        object.__setattr__(self, "subsystem_dims", dims)
        if len(dims) < 1 or any(d < 2 for d in dims):
            raise DimensionMismatch(f"subsystem dims must all be >= 2, got {dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.subsystem_dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystem_dims)

    def check_matrix(self, rho: np.ndarray, name: str = "rho") -> np.ndarray:
        rho = as_complex_matrix(rho, square=True, name=name)
        if rho.shape[0] != self.total_dim:
            raise DimensionMismatch(
                f"{name} has dim {rho.shape[0]}, layout expects {self.total_dim}"
            )
        return rho


def hermitian_eigen(m) -> np.ndarray:
    """Real eigenvalues, ascending, of a Hermitian matrix by LAPACK (`numpy.linalg.eigvalsh`).

    A stack on the last two axes gives one row per matrix, bit for bit its own.  The input is symmetrised before
    the solve; a non-finite, empty or non-square one raises `DimensionMismatch`.

    Raises
    ------
    NotHermitian
        if ``max|m - m†| > HERMITICITY_TOL`` (for some matrix of a stack).
    ConvergenceFailure
        if LAPACK reports that the solve did not converge.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 3:
        a = as_complex_matrix(a, square=True, name="matrix")
    elif not (a.size and a.shape[-1] == a.shape[-2] and np.isfinite(a).all()):
        raise DimensionMismatch(f"matrix stack must be non-empty, square and finite, got shape {a.shape}")
    a_dagger = dagger(a)
    herm_err = max_abs(a - a_dagger)
    if herm_err > HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {herm_err:.3e} > {HERMITICITY_TOL:.3e}")
    try:
        return np.linalg.eigvalsh((a + a_dagger) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Hermitian eigensolve did not converge: {exc}") from exc


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, sigma, vh)`` of `numpy.linalg.svd`; a LAPACK failure raises `ConvergenceFailure`."""
    try:
        return np.linalg.svd(as_complex_matrix(m, name="matrix"))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


def kernel_basis(m) -> np.ndarray:
    """Orthonormal columns spanning the (numerical) null space of ``m``.

    ``m`` may be rectangular.  One SVD (LAPACK through numpy) gives the
    right singular vectors; those with singular value at most
    ``KERNEL_TOL * sigma_max``, and those beyond the row count, are kept,
    so every column ``v`` has ``||m v|| <= KERNEL_TOL ||m||_2`` and the zero
    matrix keeps them all.  Returns an ``(n, k)`` array; ``k`` may be zero.

    Raises `ConvergenceFailure` if LAPACK reports that the SVD did not
    converge.
    """
    _, sigma, vh = svd(m)
    null = np.ones(vh.shape[0], dtype=bool)
    null[: sigma.size] = sigma <= KERNEL_TOL * sigma[0]
    return dagger(vh[null])


def _reduction(layout: DimsLayout, keep: tuple, transpose: tuple = ()) -> Callable[[np.ndarray], np.ndarray]:
    """``reduce(rho)``: a checked state of ``layout`` traced down to the ascending subsystems ``keep``, with each
    subsystem in ``transpose`` transposed, as a matrix.  The `numpy.einsum` labels are fixed here, once:
    subsystem ``i`` has ket label ``i`` and bra label ``n + i``; a traced one's bra takes its ket label (the
    trace), and a transposed one's ket and bra change places in the output (the partial transpose)."""
    dims, n = layout.subsystem_dims, layout.n_subsystems
    labels = list(range(n)) + [n + i if i in keep else i for i in range(n)]
    out = [n + i if i in transpose else i for i in keep] + [i if i in transpose else n + i for i in keep]
    d = math.prod(dims[i] for i in keep)
    return lambda rho: np.einsum(rho.reshape(dims + dims), labels, out).reshape(d, d)


def partial_trace(rho, layout: DimsLayout, keep_indices: Iterable[int] | int) -> np.ndarray:
    """Trace out every subsystem not in ``keep_indices``: the checked call of `_reduction`.

    The result is ordered by ascending original subsystem index and has
    dimension equal to the product of the kept local dimensions.  The trace
    is preserved exactly up to roundoff.
    """
    rho = layout.check_matrix(rho)
    keep_indices = keep_indices if np.iterable(keep_indices) else (keep_indices,)
    keep = tuple(sorted({as_integer(i, "keep_indices") for i in keep_indices}))
    n = layout.n_subsystems
    if not keep or any(i < 0 or i >= n for i in keep):
        raise DimensionMismatch(f"keep indices {keep} invalid for {n} subsystems")
    return _reduction(layout, keep)(rho)


def trace_norm_hermitian(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, checked and solved by `hermitian_eigen`."""
    return float(np.sum(np.abs(hermitian_eigen(m))))
