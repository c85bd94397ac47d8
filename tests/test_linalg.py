import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurstates.errors import DimensionError, DomainError
from schurstates.linalg import PsdReport, hermitian_function, psd_report, require_hermitian
from schurstates.sampling import complex_gaussian, rng_from_seed

from conftest import gram_psd_matrix
from oracles import matrix_exp, matrix_log, random_unitary


class TestPsd:
    def test_identity(self):
        rep = psd_report(np.eye(3), tol=1e-12)
        assert rep.is_psd
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_2x2(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        rep = psd_report(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=1e-12)
        assert not rep.is_psd
        assert rep.min_eigenvalue == pytest.approx(-1.0)

    def test_gram_matrices_are_psd(self):
        rng = rng_from_seed(5)
        for _ in range(25):
            g = gram_psd_matrix(rng, int(rng.integers(2, 7)))
            rep = psd_report(g)
            assert rep.is_psd, rep
            # independent eigendecomposition oracle
            assert np.linalg.eigvalsh(g)[0] >= -1e-10 * np.linalg.norm(g)

    def test_non_hermitian_rejected(self):
        rep = psd_report(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not rep.hermitian
        assert not rep.is_psd

    def test_unitary_conjugation_invariance(self, rng):
        g = gram_psd_matrix(rng, 4)
        u = random_unitary(rng, 4)
        assert psd_report(g).is_psd == psd_report(u @ g @ u.conj().T).is_psd
        bad = g - 2.0 * np.linalg.eigvalsh(g)[-1] * np.eye(4)
        assert not psd_report(bad).is_psd
        assert not psd_report(u @ bad @ u.conj().T).is_psd

    def test_non_square(self):
        with pytest.raises(DimensionError):
            psd_report(np.ones((2, 3)))

    def test_empty_matrix_is_psd(self):
        assert psd_report(np.zeros((0, 0))) == PsdReport(True, True, 0.0, 0.0, 0.0)

    def test_verdict_figures_are_the_whole_array_reductions(self):
        # defect and the largest eigenvalue magnitude, read off the ends of
        # the ascending spectrum, equal the reductions over every entry
        rng = rng_from_seed(19)
        cases = [np.zeros((3, 3)), -np.eye(2), np.diag([-3.0, 1.0, 2.0])]
        for n in (1, 2, 4, 6):
            m = complex_gaussian(rng, (n, n))
            cases += [m, m @ m.conj().T, -(m @ m.conj().T), m + m.conj().T]
        for m in cases:
            rep = psd_report(m)
            eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            want = float(np.max(np.abs(eigs)))
            assert np.float64(rep.max_abs_eigenvalue).view(np.uint64) == np.float64(want).view(np.uint64)
            assert rep.hermitian_defect == float(np.max(np.abs(m - m.conj().T)))
            assert rep.min_eigenvalue == float(eigs[0])


class TestRequireHermitian:
    def test_returns_the_symmetrized_matrix(self, rng):
        m = gram_psd_matrix(rng, 3)
        m[0, 1] += 1e-13
        np.testing.assert_array_equal(require_hermitian(m), 0.5 * (m + m.conj().T))

    def test_defect_is_relative_to_the_largest_entry(self):
        m = np.array([[1e6, 1e-5], [0.0, 1.0]])
        require_hermitian(m)  # defect 1e-5 <= 1e-10 * 1e6
        with pytest.raises(DomainError, match=r"^m: not Hermitian \(defect 1\.000e-03\)$"):
            require_hermitian(np.array([[1e6, 1e-3], [0.0, 1.0]]), name="m")

    def test_empty_matrix_passes(self):
        assert require_hermitian(np.zeros((0, 0))).shape == (0, 0)

    def test_non_square(self):
        with pytest.raises(DimensionError, match=r"^m: must be square, got \(2, 3\)$"):
            require_hermitian(np.ones((2, 3)), name="m")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_hadamard_of_psd_is_psd(seed, n):
    rng = rng_from_seed(seed)
    a = gram_psd_matrix(rng, n)
    b = gram_psd_matrix(rng, n)
    rep = psd_report(a * b)
    assert rep.min_eigenvalue >= -1e-10 * max(1.0, rep.max_abs_eigenvalue)


class TestHermitianFunction:
    def test_exp_of_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_exp_diagonal(self):
        out = matrix_exp(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]))

    def test_log_exp_roundtrip(self):
        rng = rng_from_seed(17)
        for _ in range(10):
            t = gram_psd_matrix(rng, 4) + 0.3 * np.eye(4)
            back = matrix_exp(matrix_log(t))
            assert np.max(np.abs(back - t)) <= 1e-10 * np.linalg.norm(t)

    def test_identity_function_reproduces_input(self, rng):
        t = gram_psd_matrix(rng, 5)
        out = hermitian_function(t, lambda w: w)
        assert np.max(np.abs(out - t)) <= 1e-12 * np.linalg.norm(t)

    def test_log_rejects_singular(self):
        with pytest.raises(DomainError):
            matrix_log(np.diag([1.0, 0.0]))

    def test_rejects_non_hermitian(self, rng):
        m = complex_gaussian(rng, (3, 3))
        m = m + 10 * np.eye(3)
        with pytest.raises(DomainError):
            hermitian_function(m, np.exp)

    def test_non_finite_function_values_refused(self):
        with pytest.raises(
            DomainError, match="^hermitian_function: f produced non-finite values$"
        ):
            hermitian_function(np.eye(2), lambda w: np.full_like(w, np.inf))

    def test_result_is_hermitian(self, rng):
        t = gram_psd_matrix(rng, 4) + 0.2 * np.eye(4)
        out = matrix_log(t)
        np.testing.assert_allclose(out, out.conj().T)
