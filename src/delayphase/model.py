"""System configuration, OFDM subcarrier grid, steering vectors, and multipath channels.

All quantities are in SI units (Hz, seconds); subcarrier indices are 1-based.
Spatial directions ``psi`` are dimensionless (sine of the azimuth angle of
departure/arrival) and are the primary representation throughout; angles in
radians are kept alongside them for provenance only.
"""

from __future__ import annotations

import json
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
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
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

    @classmethod
    def from_file(cls, path) -> "SystemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _check_index(cfg: SystemConfig, k: int) -> int:
    if not 1 <= k <= cfg.n_subcarriers:
        raise IndexError(f"subcarrier index {k} outside 1..{cfg.n_subcarriers}")
    return int(k)


def subcarrier_frequency(cfg: SystemConfig, k: int) -> float:
    """Frequency of the k-th subcarrier (1-based): f_c + (B/K)(k - 1 - (K-1)/2)."""
    k = _check_index(cfg, k)
    K = cfg.n_subcarriers
    return cfg.f_c + (cfg.bandwidth / K) * (k - 1 - (K - 1) / 2)


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """All K subcarrier frequencies as an array."""
    K = cfg.n_subcarriers
    k = np.arange(1, K + 1)
    return cfg.f_c + (cfg.bandwidth / K) * (k - 1 - (K - 1) / 2)


def freq_ratio(cfg: SystemConfig, k: int) -> float:
    """Ratio f_k / f_c; scales spatial directions from the carrier to subcarrier k."""
    k = _check_index(cfg, k)
    K = cfg.n_subcarriers
    return 1.0 + (cfg.bandwidth / cfg.f_c) * ((k - 1 - (K - 1) / 2) / K)


def freq_ratios(cfg: SystemConfig) -> np.ndarray:
    """All K subcarrier-to-carrier frequency ratios."""
    K = cfg.n_subcarriers
    k = np.arange(1, K + 1)
    return 1.0 + (cfg.bandwidth / cfg.f_c) * ((k - 1 - (K - 1) / 2) / K)


def ula_steering(n_elements: int, ratio: float, psi: float) -> np.ndarray:
    """Unit-norm ULA response for a half-wavelength array.

    Element i (0-based) carries the phase -pi * i * ratio * psi, where ratio is
    the subcarrier-to-carrier frequency ratio and psi the spatial direction.
    """
    i = np.arange(n_elements)
    return np.exp(-1j * np.pi * i * ratio * psi) / np.sqrt(n_elements)


def ula_response(cfg: SystemConfig, k: int, psi: float) -> np.ndarray:
    """Transmit-array response vector at subcarrier k toward direction psi (|psi| <= 1)."""
    if abs(psi) > 1:
        raise ValueError("spatial direction must satisfy |psi| <= 1")
    return ula_steering(cfg.n_tx, freq_ratio(cfg, k), psi)


def ura_response(cfg: SystemConfig, k: int, azimuth: float, elevation: float,
                 n_y: int, n_z: int) -> np.ndarray:
    """Rectangular-array response: Kronecker product of the y- and z-axis factors.

    The y factor steers by sin(azimuth)*sin(elevation), the z factor by
    cos(elevation), both scaled by the subcarrier frequency ratio. Requires
    n_y * n_z == cfg.n_tx.
    """
    if n_y * n_z != cfg.n_tx:
        raise ValueError("n_y * n_z must equal cfg.n_tx")
    ratio = freq_ratio(cfg, k)
    vy = ula_steering(n_y, ratio, np.sin(azimuth) * np.sin(elevation))
    vz = ula_steering(n_z, ratio, np.cos(elevation))
    return np.kron(vy, vz)


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
        if np.any(self.delays < 0):
            raise ValueError("path delays must be non-negative")

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


def channel_matrices(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Per-subcarrier channel matrices, shape (K, n_rx, n_tx).

    H_k = sqrt(n_rx*n_tx/L) * sum_l gain_l * exp(-j*2*pi*delay_l*f_k) * u_{k,l} v_{k,l}^H

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
    return np.einsum("kl,klr,klt->krt", coef, u, v.conj())


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled channel: path parameters plus materialized per-subcarrier matrices."""

    cfg: SystemConfig
    paths: PathSet
    h: np.ndarray  # (K, n_rx, n_tx)

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(np.asarray(self.h, complex)))


def sample_channel(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Sample paths and materialize the channel matrices for all subcarriers."""
    paths = sample_paths(cfg, rng)
    return ChannelRealization(cfg=cfg, paths=paths, h=channel_matrices(cfg, paths))
