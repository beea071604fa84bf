"""Kernels: Hermitian eigensolve, null spaces, partial trace and trace norm.

Expected values are either direct definitions or hand-derived:
the 2x2 eigenpair comes from the characteristic polynomial, the partial
transpose table (of the in-test formula the log-negativity tests use) from an
element-by-element index swap, and the trace norm from the resulting 2x2
block spectrum.  Randomized checks compare against numpy's independent
LAPACK/SVD routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subrad as sr
from subrad.errors import ConvergenceFailure, DimensionMismatch, NotHermitian, ValidationError
from subrad.linalg import DimsLayout, as_complex_matrix, kernel_basis, partial_trace
from subrad.model import basis_index

from random_systems import partial_transpose

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


class TestHermitianEigen:
    def test_pauli_x_spectrum(self):
        w = sr.hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w = sr.hermitian_eigen(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_two_by_two_quadratic(self):
        # char. polynomial of [[1/2,-1/4],[-1/4,0]]: roots (1 +- sqrt(2))/4
        m = np.array([[0.5, -0.25], [-0.25, 0.0]], dtype=complex)
        w = sr.hermitian_eigen(m)
        assert np.allclose(w, [(1 - np.sqrt(2)) / 4, (1 + np.sqrt(2)) / 4], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            sr.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16])
    def test_reconstruction_orthonormality_order(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            m = random_hermitian(rng, n)
            w = sr.hermitian_eigen(m)
            assert np.all(np.diff(w) >= 0)
            # independent route: LAPACK eigenvalues
            assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-11)

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure):
            sr.hermitian_eigen(np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(
        spectrum=st.lists(
            st.one_of(
                st.sampled_from([-1.0, 0.0, 0.5, 2.0]),  # a small pool forces repeats
                st.floats(-10.0, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=32,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_random_hermitian(self, spectrum, seed):
        n = len(spectrum)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        m = q @ np.diag(spectrum) @ q.conj().T
        m = (m + m.conj().T) / 2
        scale = max(1.0, float(np.max(np.abs(spectrum))))
        w = sr.hermitian_eigen(m)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(w, np.sort(spectrum), rtol=0, atol=1e-12 * n * scale)


class TestHermitianEigenStacks:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_the_matrices_one_by_one(self, n, k, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(rng, n) for _ in range(k)])
        w = sr.hermitian_eigen(stack)
        assert w.shape == (k, n)
        assert np.array_equal(w, np.array([sr.hermitian_eigen(m) for m in stack]))

    def test_one_non_hermitian_member_is_refused(self):
        stack = np.stack([np.eye(2, dtype=complex), SIGMA_MINUS, np.eye(2, dtype=complex)])
        with pytest.raises(NotHermitian):
            sr.hermitian_eigen(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_is_refused(self, bad):
        stack = np.stack([np.eye(3, dtype=complex)] * 2)
        stack[1, 0, 2] = stack[1, 2, 0] = bad
        with pytest.raises(DimensionMismatch):
            sr.hermitian_eigen(stack)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3, 3), (2, 0, 0), (3,)])
    def test_non_square_or_empty_input_is_refused(self, shape):
        with pytest.raises(DimensionMismatch):
            sr.hermitian_eigen(np.zeros(shape, dtype=complex))


class TestKernelBasis:
    def test_row_vector_singlet(self):
        # [[1, 1]] annihilates exactly (1,-1)/sqrt(2)
        basis = kernel_basis(np.array([[1.0, 1.0]]))
        assert basis.shape[1] == 1
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(target, basis[:, 0])) - 1.0) < 1e-12

    def test_two_qubit_collective_kernel(self):
        op = np.kron(SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)
        basis = kernel_basis(op)
        assert basis.shape[1] == 2
        # span must be {|00>, (|10>-|01>)/sqrt(2)}
        proj = basis @ basis.conj().T
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        singlet = np.zeros(4, dtype=complex)
        singlet[2] = 1 / np.sqrt(2)
        singlet[1] = -1 / np.sqrt(2)
        for vec in (vac, singlet):
            assert np.allclose(proj @ vec, vec, atol=1e-10)

    def test_invertible_matrix_has_empty_kernel(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert kernel_basis(a).shape[1] == 0

    def test_zero_matrix(self):
        assert kernel_basis(np.zeros((3, 3))).shape[1] == 3

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6), (8, 8)])
    def test_soundness_and_dimension_vs_svd(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(5):
            rank = rng.integers(0, min(shape) + 1)
            a = (
                rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
                + 1j * rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
            )
            basis = kernel_basis(a)
            norm = np.linalg.norm(a, 2)
            for col in range(basis.shape[1]):
                assert np.linalg.norm(a @ basis[:, col]) <= 1e-9 * max(norm, 1e-300)
            # independent route: SVD rank count
            expected_dim = shape[1] - np.linalg.matrix_rank(a, tol=1e-9 * max(norm, 1e-300))
            assert basis.shape[1] == expected_dim
            if basis.shape[1]:
                gram = basis.conj().T @ basis
                assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10


class TestPartialTranspose:
    dims = (2, 2)

    def build_mixture(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 0.5
        rho[1, 1] = 0.25
        rho[2, 2] = 0.25
        rho[1, 2] = rho[2, 1] = -0.25
        return rho

    def test_singlet_vacuum_mixture(self):
        # index swap moves the -1/4 coherence onto |00><11|
        pt = partial_transpose(self.build_mixture(), self.dims, 1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5
        expected[1, 1] = 0.25
        expected[2, 2] = 0.25
        expected[0, 3] = expected[3, 0] = -0.25
        assert np.allclose(pt, expected, atol=1e-15)

    def test_product_state_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        rho = np.kron(rho_a, rho_b)
        pt = partial_transpose(rho, self.dims, 1)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(pt)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-12
        )


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        layout = DimsLayout((2, 2))
        singlet = np.zeros(4, dtype=complex)
        singlet[2] = 1 / np.sqrt(2)
        singlet[1] = -1 / np.sqrt(2)
        rho = np.outer(singlet, singlet.conj())
        assert np.allclose(sr.partial_trace(rho, layout, (0,)), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(5)
        layout = DimsLayout((2, 3))
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(sr.partial_trace(rho, layout, (0,)), rho_a, atol=1e-12)
        assert np.allclose(sr.partial_trace(rho, layout, (1,)), rho_b, atol=1e-12)

    def test_basis_state_marginal(self):
        layout = DimsLayout((2, 2, 2))
        vec = np.zeros(8, dtype=complex)
        vec[4] = 1.0  # |100>
        rho = np.outer(vec, vec.conj())
        assert np.allclose(sr.partial_trace(rho, layout, (0,)), np.diag([0.0, 1.0]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        layout = DimsLayout((2, 2, 3))
        rho = random_density(rng, 12)
        for keep in [(0,), (1, 2), (0, 2)]:
            reduced = sr.partial_trace(rho, layout, keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 6):
            assert abs(sr.trace_norm_hermitian(random_density(rng, n)) - 1.0) < 1e-10

    def test_partial_transpose_of_singlet_mixture(self):
        # 2x2 block eigenvalues (1 +- sqrt(2))/4 plus diagonal {1/4, 1/4}
        rho = TestPartialTranspose().build_mixture()
        pt = partial_transpose(rho, (2, 2), 1)
        assert abs(sr.trace_norm_hermitian(pt) - (1 + np.sqrt(2)) / 2) < 1e-12

    def test_zero(self):
        assert sr.trace_norm_hermitian(np.zeros((3, 3))) == 0.0


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.eye(3)[:2], square=True)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda rho, layout: partial_trace(rho, layout, [0.5]), id="partial-trace-fraction"),
        pytest.param(lambda rho, layout: partial_trace(rho, layout, True), id="partial-trace-boolean"),
        pytest.param(lambda rho, layout: partial_trace(rho, layout, 0.9), id="partial-trace-float"),
        pytest.param(lambda rho, layout: DimsLayout((2.7, 2)), id="dims-layout"),
        pytest.param(lambda rho, layout: basis_index(layout, (1.6, 0)), id="basis-index"),
    ],
)
def test_index_arguments_refuse_what_is_not_an_integer(call):
    """One integer rule for every index argument: a boolean or non-integral value is refused, never truncated."""
    with pytest.raises(ValidationError, match="must be an integer"):
        call(np.eye(4) / 4, DimsLayout((2, 2)))


def test_index_arguments_take_numpy_integers():
    layout = DimsLayout((np.int64(2), np.int32(2)))
    assert layout.subsystem_dims == (2, 2) and all(type(d) is int for d in layout.subsystem_dims)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.array_equal(partial_trace(rho, layout, np.int64(0)), partial_trace(rho, layout, [0]))
    assert basis_index(layout, (np.int64(1), 0)) == 2
