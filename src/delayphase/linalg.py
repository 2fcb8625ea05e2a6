"""Small dense linear-algebra kernels: the conjugate transpose of a stack, a checked
product, eigenvector phase fixing and a cyclic-Jacobi Hermitian eigensolver.

``fix_phase`` makes the digital precoder deterministic. ``jacobi_eigh`` has no
library caller: the batched rate path runs on LAPACK, and the tests use it as
a reference. It stays because the benchmark's tracer (bench/spans.py) wraps
it by name. Its core runs on Python scalars, which at RF-chain sizes
(typically 4x4) is several times faster than sliced numpy updates.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues ``w`` sorted in descending order and the
    matching eigenvector columns in ``v``. Each column is phase-fixed so its
    largest-magnitude entry is real and positive, which makes results
    deterministic for tests.

    Convergence: off-diagonal Frobenius mass below ``tol`` relative to the
    Frobenius norm of the input, within ``max_sweeps`` full sweeps; otherwise
    raises ``numpy.linalg.LinAlgError`` with the residual.
    """
    a_in = np.asarray(a)
    n = a_in.shape[0]
    if a_in.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return np.array([float(a_in[0, 0].real)]), np.eye(1, dtype=complex)

    m = [[complex(a_in[i, j]) for j in range(n)] for i in range(n)]
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    scale = math.sqrt(sum(abs(m[i][j]) ** 2 for i in range(n) for j in range(n)))
    if scale == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex)
    threshold = tol * scale

    def offdiag() -> float:
        return math.sqrt(sum(abs(m[i][j]) ** 2
                             for i in range(n) for j in range(n) if i != j))

    converged = False
    for _ in range(max_sweeps):
        if offdiag() <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p][q]
                r = abs(apq)
                if r == 0.0:
                    continue
                beta = apq / r
                tau = (m[q][q].real - m[p][p].real) / (2.0 * r)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sb = s * beta
                sbc = s * beta.conjugate()
                # m <- J^H m J with J[p,p]=J[q,q]=c, J[p,q]=s*beta, J[q,p]=-s*conj(beta)
                for i in range(n):
                    mip, miq = m[i][p], m[i][q]
                    m[i][p] = c * mip - sbc * miq
                    m[i][q] = sb * mip + c * miq
                for i in range(n):
                    mpi, mqi = m[p][i], m[q][i]
                    m[p][i] = c * mpi - sb * mqi
                    m[q][i] = sbc * mpi + c * mqi
                m[p][q] = 0j
                m[q][p] = 0j
                for i in range(n):
                    vip, viq = v[i][p], v[i][q]
                    v[i][p] = c * vip - sbc * viq
                    v[i][q] = sb * vip + c * viq
    else:
        converged = offdiag() <= threshold
    if not converged:
        raise np.linalg.LinAlgError(
            f"Jacobi sweep limit {max_sweeps} reached; off-diagonal mass "
            f"{offdiag():.3e} above {threshold:.3e}"
        )

    w = np.array([m[i][i].real for i in range(n)])
    vecs = np.array(v, dtype=complex)
    order = np.argsort(w)[::-1]
    return w[order], fix_phase(vecs[:, order])


def _hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _finite_product(product, *factors) -> np.ndarray:
    """product @ factors[0] @ factors[1] @ ..., left to right; ValueError unless it is finite.

    The small product is checked, not the (n_rx, n_tx) inputs: a non-finite
    channel or precoder entry makes it non-finite (numpy's warning for its
    inf * 0 is silenced), and LAPACK would otherwise turn it into a NaN rate,
    or a NaN eigenvalue into a zero bound.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for factor in factors:
            product = product @ factor
    if not np.isfinite(product).all():
        raise ValueError("channel and precoders must be finite")
    return product


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    ``v`` is one matrix or a stack of them, shape (..., n, m); all-zero
    columns are left as they are.
    """
    v = np.array(v, dtype=complex)
    is_pivot = np.arange(v.shape[-2])[:, None] == np.abs(v).argmax(axis=-2)[..., None, :]
    pivot = np.where(is_pivot, v, 0).sum(axis=-2, keepdims=True)
    size = np.abs(pivot)
    nonzero = size > 0
    return v * np.where(nonzero, pivot.conj() / np.where(nonzero, size, 1.0), 1.0)

