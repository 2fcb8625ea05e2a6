"""Reference computations the benchmark checks the program against.

Nothing here imports ``delayphase``: the formulas are written out from the
system model (uniform linear arrays at half-wavelength spacing, geometric
multipath channel, TTD/PS analog precoder) with numpy alone. Configurations
are plain dicts with the keys of the scenario files.
"""

from __future__ import annotations

import numpy as np


def rho_linear(cfg: dict) -> float:
    return 10.0 ** (cfg["rho_db"] / 10.0)


def frequencies(cfg: dict) -> np.ndarray:
    """Subcarrier frequencies f_k, k = 1..K, symmetric about f_c.

    A 20 ms path delay at 300 GHz turns into a phase of about 4e10 rad whose
    last bit is worth 1e-5 rad, so the channel is only reproducible to 1e-10
    when f_k and the delay phase are rounded the same way the model rounds
    them. This grid and ``channel``'s delay phase therefore keep the model's
    order of operations; all other formulas here are independent.
    """
    n_sc = cfg["n_subcarriers"]
    return cfg["f_c"] + (cfg["bandwidth"] / n_sc) * (np.arange(n_sc) - (n_sc - 1) / 2)


def steering(n: int, ratio: np.ndarray, psi) -> np.ndarray:
    """Unit-norm ULA responses exp(-j pi i ratio psi)/sqrt(n), shape ratio.shape + (n,)."""
    i = np.arange(n)
    phase = np.multiply.outer(np.asarray(ratio, float) * psi, i)
    return np.exp(-1j * np.pi * phase) / np.sqrt(n)


def channel(cfg: dict, gains, delays, aod, aoa, ks) -> np.ndarray:
    """H_k = sqrt(n_rx n_tx / L) sum_l g_l exp(-j 2 pi tau_l f_k) u_kl v_kl^H, shape (len(ks), n_rx, n_tx).

    ``ks`` are 1-based subcarrier indices.
    """
    f_k = frequencies(cfg)[np.asarray(ks) - 1]
    ratio = f_k / cfg["f_c"]
    n_rx, n_tx = cfg["n_rx"], cfg["n_tx"]
    h = np.zeros((len(f_k), n_rx, n_tx), dtype=complex)
    for g, tau, t_angle, r_angle in zip(gains, delays, aod, aoa):
        coef = g * np.exp((-2j * np.pi * tau) * f_k)
        u = steering(n_rx, ratio, np.sin(r_angle))
        v = steering(n_tx, ratio, np.sin(t_angle))
        h += coef[:, None, None] * u[:, :, None] * v.conj()[:, None, :]
    return h * np.sqrt(n_rx * n_tx / len(gains))


def analog(cfg: dict, phases, delays, ks) -> np.ndarray:
    """TTD/PS analog precoder, shape (len(ks), n_tx, n_rf).

    Antenna m*N + n of chain l carries exp(j pi phases[l, m, n]) exp(-j 2 pi f_k delays[l, m]) / sqrt(n_tx).
    """
    phases = np.asarray(phases, float)
    delays = np.asarray(delays, float)
    n_rf, n_ttd, n_ps = phases.shape
    f_k = frequencies(cfg)[np.asarray(ks) - 1]
    ps = np.exp(1j * np.pi * phases)                                   # (L, M, N)
    ttd = np.exp(-2j * np.pi * f_k[:, None, None] * delays[None])     # (K, L, M)
    f = ps[None] * ttd[..., None] / np.sqrt(n_ttd * n_ps)             # (K, L, M, N)
    return f.reshape(len(f_k), n_rf, n_ttd * n_ps).transpose(0, 2, 1)


def ideal(cfg: dict, psi, ks) -> np.ndarray:
    """Per-subcarrier matched steering columns, shape (len(ks), n_tx, len(psi))."""
    ratio = frequencies(cfg)[np.asarray(ks) - 1] / cfg["f_c"]
    cols = [steering(cfg["n_tx"], ratio, p) for p in np.atleast_1d(psi)]
    return np.stack(cols, axis=2)


def rates(cfg: dict, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """log2 det(I + rho/||F_k||_F^2 H_k F_k F_k^H H_k^H) per subcarrier via slogdet.

    With n_streams = n_rf the eigenbeam digital precoder is a unitary matrix
    times one power scale, so the rate does not depend on it.
    """
    hf = h @ f
    scale = rho_linear(cfg) / np.sum(np.abs(f) ** 2, axis=(1, 2))
    m = np.eye(h.shape[1]) + scale[:, None, None] * (hf @ hf.conj().transpose(0, 2, 1))
    sign, logdet = np.linalg.slogdet(m)
    if np.any(np.abs(sign - 1) > 1e-9):
        raise ArithmeticError("I + rho H F F^H H^H must have a positive determinant")
    return logdet / np.log(2.0)


def rank_deficient(h: np.ndarray, n_streams: int, rel_tol: float = 1e-12) -> int:
    """Subcarriers whose H_k H_k^H has fewer than n_streams eigenvalues above rel_tol * largest."""
    eig = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
    keep = eig > rel_tol * np.max(eig, axis=1, keepdims=True)
    return int(np.count_nonzero(keep.sum(axis=1) < n_streams))


def gains(cfg: dict, columns: np.ndarray, psi: float, ks) -> np.ndarray:
    """Array gains |v_k(psi)^H f_k| of one column per subcarrier, columns shape (len(ks), n_tx)."""
    ratio = frequencies(cfg)[np.asarray(ks) - 1] / cfg["f_c"]
    v = steering(cfg["n_tx"], ratio, psi)
    return np.abs(np.sum(v.conj() * columns, axis=1))


def dirichlet(n: int, delta: np.ndarray) -> np.ndarray:
    """|sin(n delta) / (n sin delta)|, equal to 1 where delta is 0."""
    delta = np.asarray(delta, float)
    s = np.sin(delta)
    out = np.ones_like(delta)
    nz = s != 0
    out[nz] = np.abs(np.sin(n * delta[nz]) / (n * s[nz]))
    return out


def subarray_gains(cfg: dict, n_ttd: int, psi: float) -> np.ndarray:
    """Gain of an (n_tx / n_ttd)-element subarray on every subcarrier at direction psi.

    The squint offset of subcarrier k is (pi/2) (f_k/f_c - 1) psi.
    """
    delta = 0.5 * np.pi * (frequencies(cfg) / cfg["f_c"] - 1.0) * psi
    return dirichlet(cfg["n_tx"] // n_ttd, delta)


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]
