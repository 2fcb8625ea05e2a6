"""Paper formulas that the library does not call, kept as test references.

The sizing rule of the paper goes through a squint offset, a second-order
(Taylor) surrogate of the subarray gain, and a large-K relaxation of the
minimum delay-element count. The library sizes by ``sizing.gain_margin`` and
the Dirichlet trace of ``size_ttds``; these three closed forms stay here as
independent references for acceptance criterion 2 and the sizing tests, as
the QP solvers do in ``qp_oracle``.
"""

from __future__ import annotations

import math

import numpy as np

import delayphase as dp
from delayphase.metrics import _float_or_array
from delayphase.model import SystemConfig, _check_int, _check_real


def squint_offset(cfg: SystemConfig, k: int, psi: float) -> float:
    """Phase-slope mismatch (pi/2) * (f_k/f_c - 1) * psi of subcarrier k at direction psi."""
    _check_real("psi", psi, -1, 1)
    return float(0.5 * np.pi * (dp.freq_ratios(cfg)[k - 1] - 1.0) * psi)


def taylor_gain(n_tx: int, m: int, delta) -> np.ndarray | float:
    """Second-order gain surrogate q(delta) = 1 + (1/6) (1 - (n_tx/m)^2) delta^2.

    Equals 1 identically when every antenna has its own delay element (m = n_tx).
    Raises ValueError for a NaN or infinite delta.
    """
    _check_int("n_tx", n_tx, 1)
    _check_int("m", m, 1)
    delta = np.asarray(delta, float)
    if not np.isfinite(delta).all():
        raise ValueError("squint offset delta must be finite")
    q = 1.0 + (1.0 - (n_tx / m) ** 2) / 6.0 * delta * delta
    return _float_or_array(q)


def min_ttds_linear(cfg: SystemConfig, g0: float, psi_max: float) -> float:
    """Large-K relaxation: (pi n_tx / (4 f_c)) sqrt(psi_max^2 / (6 (1-g0))) * B.

    Not rounded; linear in the bandwidth. Diverges as g0 -> 1 (returns inf at g0 = 1).
    """
    _check_real("g0", g0, 0, 1, ends="(]")
    _check_real("psi_max", psi_max, 0, 1)
    if g0 == 1.0:
        return math.inf
    return (np.pi * cfg.n_tx / (4.0 * cfg.f_c)) * math.sqrt(
        psi_max**2 / (6.0 * (1.0 - g0))) * cfg.bandwidth
