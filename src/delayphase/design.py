"""Closed-form joint delay/phase designs and system-sizing criteria.

``design_joint`` is the global optimum of the per-branch phase-matching QP
(see ``qp``): whenever the required delay fits the per-device budget the
element delays grow affinely across the array and the phase shifters apply a
symmetric ramp; once the budget is hit, the delay saturates at t_max and the
phase shifters absorb the remainder. ``design_benchmark`` reproduces the
fixed-phase prior scheme whose delays are merely clipped to the budget, which
is the behaviour the joint design improves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, _readonly
from .precoders import AnalogDesign


@dataclass(frozen=True)
class DesignReport:
    """Joint design plus per-element saturation flags and sizing criteria.

    clamped[l, m] is True exactly when |psi_l| exceeded the budget threshold
    4 f_c t_max / ((2m-1)N - 1) and the element delay was pinned at t_max.
    """

    design: AnalogDesign
    clamped: np.ndarray
    nt_bound: float
    tmax_bound: float

    def __post_init__(self):
        object.__setattr__(self, "clamped", _readonly(np.asarray(self.clamped, bool)))

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "clamped": self.clamped.tolist(),
            "nt_bound": None if math.isinf(self.nt_bound) else self.nt_bound,
            "tmax_bound": self.tmax_bound,
        }


def _joint_branch(n_ps: int, element: int, psi_abs: float, f_c: float, t_max: float):
    """Optimal (phases, delay, clamped) for one element at non-negative direction."""
    n = np.arange(1, n_ps + 1)
    denom = (2 * element - 1) * n_ps - 1
    if denom == 0:  # single phase shifter on the first element: nothing to align
        return np.zeros(n_ps), 0.0, False
    threshold = 4.0 * f_c * t_max / denom
    if psi_abs <= threshold:
        phases = (n_ps - 2 * n + 1) / 2.0 * psi_abs
        # at psi_abs == threshold the product rounds up to one ulp past t_max
        delay = min(denom / (4.0 * f_c) * psi_abs, t_max)
        return phases, delay, False
    theta_max = 2.0 * f_c * t_max
    gamma = ((element - 1) * n_ps + n - 1) * psi_abs
    return theta_max - gamma, t_max, True


def design_joint(cfg: SystemConfig, psi) -> DesignReport:
    """Jointly optimal phase-shifter and delay settings for each chain's direction.

    psi holds one spatial direction per RF chain (|psi| <= 1). Negative
    directions reuse the non-negative solution through the sign-invariance of
    the array gain: phases negate and delays reflect to t_max - t.
    """
    psi = np.atleast_1d(np.asarray(psi, float))
    if psi.shape != (cfg.n_rf,):
        raise ValueError("psi must provide one direction per RF chain")
    if np.any(np.abs(psi) > 1):
        raise ValueError("spatial directions must satisfy |psi| <= 1")
    m_ttd, n_ps = cfg.ttds_per_rf, cfg.ps_per_ttd
    phases = np.zeros((cfg.n_rf, m_ttd, n_ps))
    delays = np.zeros((cfg.n_rf, m_ttd))
    clamped = np.zeros((cfg.n_rf, m_ttd), dtype=bool)
    for l, p in enumerate(psi):
        mirror = p < 0
        for m in range(1, m_ttd + 1):
            x, t, hit = _joint_branch(n_ps, m, abs(p), cfg.f_c, cfg.t_max)
            if mirror:
                x = -x
                t = cfg.t_max - t
            phases[l, m - 1] = x
            delays[l, m - 1] = t
            clamped[l, m - 1] = hit
    psi_max = float(np.max(np.abs(psi)))
    return DesignReport(
        design=AnalogDesign(phases=phases, delays=delays),
        clamped=clamped,
        nt_bound=nt_upper_bound(cfg, psi_max),
        tmax_bound=tmax_lower_bound(cfg, psi_max),
    )


def design_benchmark(cfg: SystemConfig, psi) -> AnalogDesign:
    """Prior fixed-phase scheme: ramp phases, delays m*N*psi/(2 f_c) clipped to t_max.

    The phase shifters are not re-optimized after clipping; the resulting gain
    loss at tight delay budgets is exactly what the joint design removes. When
    no delay clips, its array gain matches design_joint on every subcarrier
    (the parameterizations differ only by a common per-subarray phase).
    """
    psi = np.atleast_1d(np.asarray(psi, float))
    if psi.shape != (cfg.n_rf,):
        raise ValueError("psi must provide one direction per RF chain")
    if np.any(np.abs(psi) > 1):
        raise ValueError("spatial directions must satisfy |psi| <= 1")
    m_ttd, n_ps = cfg.ttds_per_rf, cfg.ps_per_ttd
    n = np.arange(1, n_ps + 1)
    m = np.arange(1, m_ttd + 1)
    phases = np.zeros((cfg.n_rf, m_ttd, n_ps))
    delays = np.zeros((cfg.n_rf, m_ttd))
    for l, p in enumerate(psi):
        s = abs(p)
        x = -(n - 1) * s
        t = np.clip(m * n_ps * s / (2.0 * cfg.f_c), 0.0, cfg.t_max)
        if p < 0:
            x = -x
            t = cfg.t_max - t
        phases[l] = np.tile(x, (m_ttd, 1))
        delays[l] = t
    return AnalogDesign(phases=phases, delays=delays)


def nt_upper_bound(cfg: SystemConfig, psi_max: float):
    """Largest antenna count that keeps every element unclamped, floored to an int.

    Affine in f_c * t_max:  M/(2M-1) + (4M/(2M-1)) * f_c * t_max / psi_max.
    psi_max = 0 places no restriction; returns math.inf as the sentinel.
    """
    if psi_max < 0:
        raise ValueError("psi_max must be non-negative")
    if psi_max == 0:
        return math.inf
    m = cfg.ttds_per_rf
    bound = m / (2 * m - 1) + (4 * m / (2 * m - 1)) * cfg.f_c * cfg.t_max / psi_max
    return int(math.floor(bound))


def tmax_lower_bound(cfg: SystemConfig, psi_max: float) -> float:
    """Smallest per-device delay budget keeping every element unclamped [s]."""
    if psi_max < 0:
        raise ValueError("psi_max must be non-negative")
    m = cfg.ttds_per_rf
    return psi_max * ((2 * m - 1) * cfg.n_tx - m) / (4.0 * m) / cfg.f_c
