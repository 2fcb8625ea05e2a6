"""Minimum delay-element count for a guaranteed array gain.

Two routes to the same question: a closed form built on a second-order
approximation of the subarray gain (conservative for small squint offsets),
and an exact greedy search over the divisors of the antenna count, on a gain
trace that ``size_ttds`` builds for all divisors in one broadcast. Both round
up to a divisor of n_tx so the array splits into equal subarrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .metrics import _float_or_array, dirichlet_gain
from .model import SystemConfig, freq_ratios


def divisors(n: int) -> list:
    """All positive divisors of n, ascending (trial division up to sqrt(n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_ceiling(x: float, n: int) -> int:
    """Smallest divisor of n that is >= x. Requires x <= n (NaN fails)."""
    if not x <= n:
        raise ValueError(f"no divisor of {n} is >= {x}")
    return next(d for d in divisors(n) if d >= x)


def taylor_gain(n_tx: int, m: int, delta) -> np.ndarray | float:
    """Second-order gain surrogate q(delta) = 1 + (1/6) (1 - (n_tx/m)^2) delta^2.

    Equals 1 identically when every antenna has its own delay element (m = n_tx).
    Raises ValueError for a NaN or infinite delta.
    """
    delta = np.asarray(delta, float)
    if not np.isfinite(delta).all():
        raise ValueError("squint offset delta must be finite")
    q = 1.0 + (1.0 - (n_tx / m) ** 2) / 6.0 * delta * delta
    return _float_or_array(q)


def gain_margin(g0: float, bandwidth: float, f_c: float, n_subcarriers: int,
                psi_max: float) -> float:
    """Gain headroom constant: 6 (1 - g0) / ((pi/2) (B/f_c) (K-1)/(2K))^2 / psi_max^2.

    Infinite without squint (a single subcarrier or zero bandwidth), and where
    the squint term underflows to zero (a subnormal psi_max): there one delay
    element per RF chain already meets any g0.
    """
    if not 0 < g0 < 1:
        raise ValueError("g0 must lie strictly between 0 and 1")
    if not 0 < psi_max < math.inf:
        raise ValueError("psi_max must be positive and finite")
    edge = (np.pi / 2.0) * (bandwidth / f_c) * (n_subcarriers - 1) / (2.0 * n_subcarriers)
    squint = edge * edge * psi_max * psi_max
    if squint == 0:
        return math.inf
    return 6.0 * (1.0 - g0) / squint


def min_ttds(cfg: SystemConfig, g0: float, psi_max: float) -> int:
    """Closed-form minimum per-chain delay-element count for worst-subcarrier gain >= g0.

    Divisor-ceiling of sqrt(n_tx^2 / (1 + margin)).
    """
    omega = gain_margin(g0, cfg.bandwidth, cfg.f_c, cfg.n_subcarriers, psi_max)
    return divisor_ceiling(math.sqrt(cfg.n_tx**2 / (1.0 + omega)), cfg.n_tx)


def min_ttds_linear(cfg: SystemConfig, g0: float, psi_max: float) -> float:
    """Large-K relaxation: (pi n_tx / (4 f_c)) sqrt(psi_max^2 / (6 (1-g0))) * B.

    Not rounded; linear in the bandwidth. Diverges as g0 -> 1 (returns inf).
    """
    if not psi_max >= 0:
        raise ValueError("psi_max must be non-negative")
    if math.isnan(g0):
        raise ValueError("g0 must be a number")
    if g0 >= 1.0:
        return math.inf
    return (np.pi * cfg.n_tx / (4.0 * cfg.f_c)) * math.sqrt(
        psi_max**2 / (6.0 * (1.0 - g0))) * cfg.bandwidth


P_TTD_MW = 100.0  # power of one delay element
P_PS_MW = 20.0  # power of one phase shifter


def power_consumption_mw(n_rf: int, m: int, n_tx: int) -> float:
    """Analog front-end power: n_rf*m delay elements plus n_rf*n_tx phase shifters."""
    return n_rf * m * P_TTD_MW + n_rf * n_tx * P_PS_MW


@dataclass(frozen=True)
class SizingResult:
    """Sizing outcome with an audit trace of worst-case gain per candidate divisor."""

    m_star: int
    omega: float
    m_exact: int
    g0: float
    psi_max: float
    worst_gain_by_divisor: dict = field(default_factory=dict)
    power_mw: float = 0.0

    def to_dict(self) -> dict:
        # string keys, so that a key-sorted writer orders them as text, not as numbers
        return asdict(self) | {"worst_gain_by_divisor": {
            str(k): v for k, v in self.worst_gain_by_divisor.items()}}


def size_ttds(cfg: SystemConfig, g0: float, psi_max: float) -> SizingResult:
    """Run both sizing routes and collect the per-divisor gain trace for audit.

    The trace maps each divisor m of n_tx to the worst-subcarrier gain of an
    (n_tx/m)-element subarray toward psi_max, capped at 1. ``m_exact`` is the
    greedy oracle: the smallest divisor whose trace entry is >= g0.
    """
    omega = gain_margin(g0, cfg.bandwidth, cfg.f_c, cfg.n_subcarriers, psi_max)
    m_star = min_ttds(cfg, g0, psi_max)
    m = np.array(divisors(cfg.n_tx))
    deltas = 0.5 * np.pi * (freq_ratios(cfg) - 1.0)
    gains = dirichlet_gain(cfg.n_tx // m[:, None], deltas * psi_max)
    trace = dict(zip(m.tolist(), np.minimum(1.0, gains.min(axis=1)).tolist()))
    m_exact = min(d for d, worst in trace.items() if worst >= g0)
    return SizingResult(
        m_star=m_star,
        omega=omega,
        m_exact=m_exact,
        g0=g0,
        psi_max=psi_max,
        worst_gain_by_divisor=trace,
        power_mw=power_consumption_mw(cfg.n_rf, m_star, cfg.n_tx),
    )
