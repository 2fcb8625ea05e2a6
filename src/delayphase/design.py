"""Closed-form joint delay/phase designs and system-sizing criteria.

``design_joint`` is the global optimum of the per-branch phase-matching QP
(see ``qp``): whenever the required delay fits the per-device budget the
element delays grow affinely across the array and the phase shifters apply a
symmetric ramp; once the budget is hit, the delay saturates at t_max and the
phase shifters absorb the remainder. ``design_benchmark`` reproduces the
fixed-phase prior scheme whose delays are merely clipped to the budget, which
is the behaviour the joint design improves on.

Each design is one broadcast over (chain, element, phase shifter) at |psi|,
followed by one shared mirror step for chains with psi < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import SystemConfig, _readonly
from .precoders import AnalogDesign


@dataclass(frozen=True)
class DesignReport:
    """Joint design plus its per-element saturation flags.

    clamped[l, m] is True exactly when |psi_l| exceeded the budget threshold
    4 f_c t_max / ((2m-1)N - 1) and the element delay was pinned at t_max.
    The selection criteria are separate calls: nt_upper_bound and
    tmax_lower_bound.
    """

    design: AnalogDesign
    clamped: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "clamped", _readonly(np.asarray(self.clamped, bool)))


def _directions(cfg: SystemConfig, psi) -> np.ndarray:
    """psi as one direction per RF chain, each with |psi| <= 1 (model's check)."""
    psi = model._directions(psi)
    if psi.shape != (cfg.n_rf,):
        raise ValueError("psi must provide one direction per RF chain")
    return psi


def _mirrored(cfg: SystemConfig, psi: np.ndarray, phases: np.ndarray,
              delays: np.ndarray) -> AnalogDesign:
    """The design for psi from the one for |psi|: where psi < 0, phases negate and
    delays reflect to t_max - t."""
    neg = psi < 0
    return AnalogDesign(phases=np.where(neg[:, None, None], -phases, phases),
                        delays=np.where(neg[:, None], cfg.t_max - delays, delays))


def design_joint(cfg: SystemConfig, psi) -> DesignReport:
    """Jointly optimal phase-shifter and delay settings for each chain's direction.

    psi holds one spatial direction per RF chain (|psi| <= 1). One broadcast
    over (n_rf, M, N) solves every element at |psi|: element m is clamped when
    |psi| exceeds 4 f_c t_max / ((2m-1)N - 1). Unclamped, it gets the delay
    ((2m-1)N - 1) |psi| / (4 f_c) and the ramp (N - 2n + 1)/2 |psi|; clamped,
    it gets t_max and the phases 2 f_c t_max - ((m-1)N + n - 1)|psi|. Negative
    directions are then mirrored: phases negate and delays reflect to t_max - t.
    """
    psi = _directions(cfg, psi)
    n_ps, a = cfg.ps_per_ttd, np.abs(psi)[:, None]
    m, n = np.arange(1, cfg.ttds_per_rf + 1), np.arange(1, n_ps + 1)
    denom = (2 * m - 1) * n_ps - 1
    # denom == 0 (one phase shifter on the first element) has nothing to align:
    # its threshold is inf or NaN, so it never clamps, and its ramp and delay are 0
    with np.errstate(divide="ignore", invalid="ignore"):
        clamped = a > 4.0 * cfg.f_c * cfg.t_max / denom
    # at |psi| == threshold the product rounds up to one ulp past t_max
    delays = np.where(clamped, cfg.t_max, np.minimum(denom / (4.0 * cfg.f_c) * a, cfg.t_max))
    gamma = ((m[:, None] - 1) * n_ps + n - 1) * a[..., None]
    phases = np.where(clamped[..., None], cfg.theta_max - gamma,
                      (n_ps - 2 * n + 1) / 2.0 * a[..., None])
    return DesignReport(design=_mirrored(cfg, psi, phases, delays), clamped=clamped)


def design_benchmark(cfg: SystemConfig, psi) -> AnalogDesign:
    """Prior fixed-phase scheme: ramp phases, delays m*N*psi/(2 f_c) clipped to t_max.

    The phase shifters are not re-optimized after clipping; the resulting gain
    loss at tight delay budgets is exactly what the joint design removes. When
    no delay clips, its array gain matches design_joint on every subcarrier
    (the parameterizations differ only by a common per-subarray phase).
    One broadcast builds every chain at |psi|, with the same ramp -(n-1)|psi|
    on every element; negative directions are mirrored as in design_joint.
    """
    psi = _directions(cfg, psi)
    a = np.abs(psi)[:, None]
    m, n = np.arange(1, cfg.ttds_per_rf + 1), np.arange(1, cfg.ps_per_ttd + 1)
    ramp = np.repeat((-(n - 1) * a)[:, None, :], cfg.ttds_per_rf, axis=1)
    delays = np.clip(m * cfg.ps_per_ttd * a / (2.0 * cfg.f_c), 0.0, cfg.t_max)
    return _mirrored(cfg, psi, ramp, delays)


def nt_upper_bound(cfg: SystemConfig, psi_max: float):
    """Largest antenna count that keeps every element unclamped, floored to an int.

    Affine in f_c * t_max:  M/(2M-1) + (4M/(2M-1)) * f_c * t_max / psi_max.
    psi_max = 0 places no restriction; returns math.inf as the sentinel, as it
    does when a tiny psi_max makes the bound overflow.
    """
    if not psi_max >= 0:
        raise ValueError("psi_max must be non-negative")
    if psi_max == 0:
        return math.inf
    m = cfg.ttds_per_rf
    bound = m / (2 * m - 1) + (4 * m / (2 * m - 1)) * cfg.f_c * cfg.t_max / psi_max
    return int(math.floor(bound)) if math.isfinite(bound) else math.inf


def tmax_lower_bound(cfg: SystemConfig, psi_max: float) -> float:
    """Smallest per-device delay budget keeping every element unclamped [s]."""
    if not psi_max >= 0:
        raise ValueError("psi_max must be non-negative")
    m = cfg.ttds_per_rf
    return psi_max * ((2 * m - 1) * cfg.n_tx - m) / (4.0 * m) / cfg.f_c
