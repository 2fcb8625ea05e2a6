import numpy as np
import pytest

from delayphase.linalg import fix_phase, jacobi_eigh


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2


def principal_angle_cosines(u, v):
    """Singular values of U^H V; all 1 when the two bases span the same space."""
    return np.linalg.svd(u.conj().T @ v, compute_uv=False)


class TestJacobi:
    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 6, 8):
            for _ in range(10):
                a = random_hermitian(rng, n)
                w, v = jacobi_eigh(a)
                assert np.allclose(w, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-10)
                assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-10)
                assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        w, _ = jacobi_eigh(random_hermitian(rng, 6))
        assert np.all(np.diff(w) <= 0)

    def test_identity_degenerate_spectrum(self):
        w, v = jacobi_eigh(np.eye(4, dtype=complex))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-14)

    def test_near_degenerate_subspace(self):
        # eigenvalues {2, 2, 1}: compare the dominant 2-planes, not the vectors
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = q @ np.diag([2.0, 2.0 + 1e-13, 1.0]) @ q.conj().T
        a = (a + a.conj().T) / 2
        _, v = jacobi_eigh(a)
        cos = principal_angle_cosines(v[:, :2], q[:, :2])
        assert np.allclose(cos, 1.0, atol=1e-7)

    def test_phase_convention(self):
        rng = np.random.default_rng(4)
        _, v = jacobi_eigh(random_hermitian(rng, 5))
        for j in range(5):
            pivot = v[np.argmax(np.abs(v[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((3, 3)))
        assert np.allclose(w, 0.0)
        assert np.allclose(v, np.eye(3))

    def test_one_by_one(self):
        w, v = jacobi_eigh(np.array([[2.5]]))
        assert w[0] == 2.5 and v[0, 0] == 1.0

    def test_real_symmetric_input(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, _ = jacobi_eigh(a)
        assert np.allclose(w, [3.0, 1.0], atol=1e-12)

    def test_sweep_limit_raises(self):
        rng = np.random.default_rng(8)
        with pytest.raises(np.linalg.LinAlgError):
            jacobi_eigh(random_hermitian(rng, 4), max_sweeps=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))


class TestFixPhase:
    def test_idempotent_and_unit_preserving(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        fixed = fix_phase(v)
        assert np.allclose(np.abs(fixed), np.abs(v), atol=1e-14)
        assert np.allclose(fix_phase(fixed), fixed, atol=1e-14)

