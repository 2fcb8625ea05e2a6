"""System configuration, OFDM subcarrier grid, steering vectors, and multipath channels.

All quantities are in SI units (Hz, seconds); subcarrier indices are 1-based.
Spatial directions ``psi`` are dimensionless (sine of the azimuth angle of
departure/arrival) and are the primary representation throughout; angles in
radians are kept alongside them for provenance only.

Steering vectors come from one kernel, ``steering_stack``; their Gram matrices
have a closed form, ``steering_gram``. A sampled channel keeps H_k and its
small receive factor A_k (the paths' gains, delay phases and receive
responses), with H_k = A_k V_k^H; the transmit steering table V_k is used once
to form H and then released.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np


def make_rng(seed: int, stream=None) -> np.random.Generator:
    """Counter-based RNG (Philox). Distinct (seed, stream) pairs give independent,
    reproducible streams, so parallel trials stay deterministic per seed."""
    key = None if stream is None else (tuple(stream) if isinstance(stream, (tuple, list)) else (stream,))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key or ())
    return np.random.Generator(np.random.Philox(ss))


_FLOAT_FIELDS = ("f_c", "bandwidth", "t_max", "rho", "path_delay_max")
_COUNT_FIELDS = ("n_subcarriers", "n_tx", "n_rx", "n_rf", "n_streams", "ttds_per_rf",
                 "ps_per_ttd", "seed")


@dataclass(frozen=True)
class SystemConfig:
    """Scalar parameters of the downlink wideband MIMO OFDM system.

    Attributes:
        f_c: carrier frequency [Hz].
        bandwidth: OFDM bandwidth [Hz]; must be < f_c.
        n_subcarriers: odd number of OFDM subcarriers.
        n_tx: transmit antennas (ULA, half-wavelength spacing).
        n_rx: receive antennas.
        n_rf: RF chains; the model assumes n_streams = n_rf = n_rx.
        n_streams: data streams.
        ttds_per_rf: delay elements per RF chain; n_tx = ttds_per_rf * ps_per_ttd.
        ps_per_ttd: phase shifters attached to each delay element.
        t_max: largest delay a single TTD device can produce [s].
        rho: linear SNR.
        seed: base RNG seed.
        path_delay_max: upper bound of the uniform path-delay draw [s].
    """

    f_c: float
    bandwidth: float
    n_subcarriers: int
    n_tx: int
    n_rx: int
    n_rf: int
    n_streams: int
    ttds_per_rf: int
    ps_per_ttd: int
    t_max: float
    rho: float = 1.0
    seed: int = 0
    path_delay_max: float = 20e-3

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.f_c <= 0:
            raise ValueError("carrier frequency must be positive")
        if not 0 <= self.bandwidth < self.f_c:
            raise ValueError("bandwidth must satisfy 0 <= bandwidth < f_c")
        k = self.n_subcarriers
        if k < 1 or k % 2 == 0:
            raise ValueError("n_subcarriers must be a positive odd integer")
        for name in ("n_tx", "n_rx", "n_rf", "n_streams", "ttds_per_rf", "ps_per_ttd"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_tx != self.ttds_per_rf * self.ps_per_ttd:
            raise ValueError("n_tx must equal ttds_per_rf * ps_per_ttd")
        if not (self.n_streams == self.n_rf == self.n_rx):
            raise ValueError("model assumes n_streams = n_rf = n_rx")
        if self.n_rf > self.n_tx:
            raise ValueError("n_rf must not exceed n_tx")
        if self.n_rf >= self.n_tx / 4:
            warnings.warn(
                "n_rf is not small relative to n_tx; the large-array regime "
                "this model targets assumes n_rf << n_tx",
                stacklevel=2,
            )
        if self.t_max < 0:
            raise ValueError("t_max must be non-negative")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.path_delay_max < 0:
            raise ValueError("path_delay_max must be non-negative")

    @property
    def theta_max(self) -> float:
        """Dimensionless per-TTD delay budget 2 * f_c * t_max."""
        return 2.0 * self.f_c * self.t_max

    @property
    def center_subcarrier(self) -> int:
        """1-based index of the subcarrier sitting exactly at f_c."""
        return (self.n_subcarriers + 1) // 2

    def replace(self, **changes) -> "SystemConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        data = dict(data)
        if "rho_db" in data:
            if "rho" in data:
                raise ValueError("specify either rho or rho_db, not both")
            data["rho"] = 10.0 ** (float(data.pop("rho_db")) / 10.0)
        return cls(**data)


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """All K subcarrier frequencies; subcarrier k (1-based) is f_c + (B/K)(k - 1 - (K-1)/2)."""
    K = cfg.n_subcarriers
    k = np.arange(1, K + 1)
    return cfg.f_c + (cfg.bandwidth / K) * (k - 1 - (K - 1) / 2)


def freq_ratio(cfg: SystemConfig, k: int) -> float:
    """Ratio f_k / f_c; scales spatial directions from the carrier to subcarrier k."""
    if not 1 <= k <= cfg.n_subcarriers:
        raise IndexError(f"subcarrier index {k} outside 1..{cfg.n_subcarriers}")
    return float(freq_ratios(cfg)[int(k) - 1])


def freq_ratios(cfg: SystemConfig) -> np.ndarray:
    """All K subcarrier-to-carrier frequency ratios."""
    K = cfg.n_subcarriers
    k = np.arange(1, K + 1)
    return 1.0 + (cfg.bandwidth / cfg.f_c) * ((k - 1 - (K - 1) / 2) / K)


def _directions(psi) -> np.ndarray:
    """Spatial directions as a 1-D float array, each checked to satisfy |psi| <= 1 (NaN fails)."""
    psi = np.atleast_1d(np.asarray(psi, float))
    if not (np.abs(psi) <= 1).all():
        raise ValueError("spatial direction must satisfy |psi| <= 1")
    return psi


def _dirichlet(n: int, x: np.ndarray) -> tuple:
    """(x reduced to [-pi/2, pi/2], sin(nx) / (n sin x)), with 1 where sin x == 0.

    Its magnitude, and e^{j(n-1)x} times it, have period pi in x, so x is
    reduced first: near the grating lobe x = +-pi, sin(nx) / sin(x) would divide
    two rounding errors (an error of order 1 for n = 45 at |x - pi| ~ 1e-16).
    """
    x = x - np.pi * np.rint(x / np.pi)
    s = np.sin(x)
    zero = s == 0
    return x, np.where(zero, 1.0, np.sin(n * x) / (n * np.where(zero, 1.0, s)))


def steering_stack(n_elements: int, ratios, psi) -> np.ndarray:
    """Unit-norm ULA responses for every frequency ratio and direction.

    Shape (len(ratios), n_elements, len(psi)). Element i (0-based) carries the
    phase ((-pi * i) * ratio) * psi, evaluated in that order, where ratio is the
    subcarrier-to-carrier frequency ratio and psi the spatial direction
    (|psi| <= 1) of a half-wavelength array.
    """
    ratios = np.atleast_1d(np.asarray(ratios, float))
    psi = _directions(psi)
    i = np.arange(n_elements)
    phase = (-1j * np.pi * i)[None, :, None] * ratios[:, None, None] * psi
    return np.exp(phase) / np.sqrt(n_elements)


def steering_gram(n_elements: int, ratios, psi) -> np.ndarray:
    """Gram matrices S^H S of steering_stack(n_elements, ratios, psi) in closed form.

    Shape (len(ratios), len(psi), len(psi)). Entry (l, m) at ratio r is the
    complex Dirichlet kernel e^{j(n-1)x} sin(nx) / (n sin x) with
    x = (pi/2) r (psi_l - psi_m) reduced to [-pi/2, pi/2], and 1 where
    sin x == 0 (see _dirichlet).
    """
    ratios = np.atleast_1d(np.asarray(ratios, float))
    psi = _directions(psi)
    x, kernel = _dirichlet(
        n_elements, (0.5 * np.pi) * ratios[:, None, None] * (psi[:, None] - psi[None, :]))
    return np.exp((1j * (n_elements - 1)) * x) * kernel


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters: complex gains, delays [s], and azimuth AoD/AoA [rad]."""

    gains: np.ndarray
    delays: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gains", _readonly(np.asarray(self.gains, complex)))
        for name in ("delays", "aod", "aoa"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), float)))
        n = len(self.gains)
        if not (len(self.delays) == len(self.aod) == len(self.aoa) == n):
            raise ValueError("all path arrays must have the same length")
        finite = all(np.isfinite(getattr(self, name)).all()
                     for name in ("gains", "delays", "aod", "aoa"))
        if not (finite and (self.delays >= 0).all()):
            raise ValueError("path gains, delays and angles must be finite, delays >= 0")

    @property
    def n_paths(self) -> int:
        return len(self.gains)

    @property
    def psi_tx(self) -> np.ndarray:
        """Transmit spatial directions sin(aod); always within [-1, 1]."""
        return np.sin(self.aod)

    @property
    def psi_rx(self) -> np.ndarray:
        return np.sin(self.aoa)


def sample_paths(cfg: SystemConfig, rng: np.random.Generator) -> PathSet:
    """Draw one multipath realization: i.i.d. unit-variance complex-Gaussian gains,
    uniform delays on [0, path_delay_max], and uniform angles on [-pi/2, pi/2]."""
    L = cfg.n_rf
    re_im = rng.standard_normal((2, L))
    gains = (re_im[0] + 1j * re_im[1]) / np.sqrt(2.0)
    delays = rng.uniform(0.0, cfg.path_delay_max, L)
    aod = rng.uniform(-np.pi / 2, np.pi / 2, L)
    aoa = rng.uniform(-np.pi / 2, np.pi / 2, L)
    return PathSet(gains=gains, delays=delays, aod=aod, aoa=aoa)


def _channel_factors(cfg: SystemConfig, paths: PathSet) -> tuple:
    """Receive factor A, shape (K, n_rx, L), and per-subcarrier channel H, shape (K, n_rx, n_tx).

    H_k = sqrt(n_rx*n_tx/L) * sum_l gain_l * exp(-j*2*pi*delay_l*f_k) * u_{k,l} v_{k,l}^H,
    formed as H_k = A_k V_k^H: the receive factor A_k has columns
    sqrt(n_rx*n_tx/L) * gain_l * exp(-j*2*pi*delay_l*f_k) * u_{k,l}, shape (n_rx, L),
    and V_k has the transmit responses v_{k,l} as columns, shape (n_tx, L).

    Deterministic in (cfg, paths): the same inputs reconstruct H bit-exactly.
    """
    if paths.n_paths != cfg.n_rf:
        raise ValueError("number of paths must equal n_rf")
    L = paths.n_paths
    freqs = subcarrier_frequencies(cfg)
    ratios = freq_ratios(cfg)
    psi_t = paths.psi_tx
    psi_r = paths.psi_rx
    it = np.arange(cfg.n_tx)
    ir = np.arange(cfg.n_rx)
    # (K, L, n) steering tables
    v = np.exp(-1j * np.pi * ratios[:, None, None] * psi_t[None, :, None] * it[None, None, :])
    v /= np.sqrt(cfg.n_tx)
    u = np.exp(-1j * np.pi * ratios[:, None, None] * psi_r[None, :, None] * ir[None, None, :])
    u /= np.sqrt(cfg.n_rx)
    coef = paths.gains[None, :] * np.exp(-2j * np.pi * paths.delays[None, :] * freqs[:, None])
    coef = coef * np.sqrt(cfg.n_rx * cfg.n_tx / L)
    a = (coef[:, :, None] * u).transpose(0, 2, 1)
    # A_k V_k^H as conj(conj(A_k) V_k^T), so the (K, L, n_tx) table v is never conjugated
    h = np.conj(a) @ v
    return a, np.conjugate(h, out=h)


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled channel: path parameters, materialized per-subcarrier matrices,
    and their receive factor (H_k = A_k V_k^H, see _channel_factors)."""

    paths: PathSet
    h: np.ndarray  # (K, n_rx, n_tx)
    a: np.ndarray  # (K, n_rx, L)

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(np.asarray(self.h, complex)))
        object.__setattr__(self, "a", _readonly(np.asarray(self.a, complex)))


def sample_channel(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Sample paths and materialize the channel matrices and their receive factor."""
    paths = sample_paths(cfg, rng)
    a, h = _channel_factors(cfg, paths)
    return ChannelRealization(paths=paths, h=h, a=a)
