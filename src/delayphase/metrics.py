"""Array-gain and achievable-rate evaluation plus empirical CDFs.

Array gain is always computed as a direct inner product with the subcarrier's
steering vector, so it applies to arbitrary unit-norm precoder columns; the
closed-form Dirichlet-kernel ratio is provided separately, from the same kernel
as ``model.steering_gram``, and agrees with the inner product on unclamped
joint designs.

``achievable_rate`` and ``rate_lower_bound`` take any digital precoder W.
``eigenbeam_rate`` gives the rate of the eigenbeam precoder that
``precoders.digital_precoder`` builds, from H F alone: with
n_streams = n_rf = n_rx that rate needs no eigenvectors. Both rates are
log2 det(I + c G G^H) for some G and c, and share one batched slogdet kernel.
``rate_lower_bound`` is |det(U_Ns^H H F W)|^2 in closed form, with U_Ns the
strongest receive modes from one eigendecomposition of H H^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# jacobi_eigh is unused here but stays importable under this name: the
# benchmark's tracer (bench/spans.py) wraps it at every attribute it is bound to.
from .linalg import _hermitian, jacobi_eigh  # noqa: F401
from .model import (SystemConfig, _directions, _dirichlet, _readonly, freq_ratio,
                    freq_ratios, steering_stack)

NORM_TOL = 1e-9  # allowed deviation of a precoder column's 2-norm from 1
# eigenvalues of H H^H (squared singular values) at or below SV_TOL times the
# largest count as zero, so a singular-value ratio at or below 1e-6 is rank loss
SV_TOL = 1e-12


def squint_offset(cfg: SystemConfig, k: int, psi: float) -> float:
    """Phase-slope mismatch (pi/2) * (f_k/f_c - 1) * psi of subcarrier k at direction psi."""
    (psi,) = _directions(psi)
    return float(0.5 * np.pi * (freq_ratio(cfg, k) - 1.0) * psi)


def array_gain(f: np.ndarray, cfg: SystemConfig, k: int, psi: float) -> float:
    """|v_k(psi)^H f| for a unit-norm precoder column f (norm enforced to 1e-9)."""
    f = np.asarray(f)
    if not abs(np.linalg.norm(f) - 1.0) <= NORM_TOL:  # NaN fails
        raise ValueError("precoder column must have unit 2-norm")
    return float(abs(np.vdot(steering_stack(cfg.n_tx, freq_ratio(cfg, k), psi)[0, :, 0], f)))


def dirichlet_gain(n, delta) -> np.ndarray | float:
    """|sin(n*delta) / (n*sin(delta))|, the gain envelope of an n-element subarray.

    The magnitude of model.steering_gram's Dirichlet kernel: delta is reduced
    to [-pi/2, pi/2], and only the exact zeros of sin(delta) take the limit 1,
    so a tiny nonzero delta keeps its 1 - (n^2 - 1) delta^2 / 6. n is an
    integer or an integer array that broadcasts against delta.
    """
    if not (np.asarray(n) >= 1).all():
        raise ValueError("subarray size must be >= 1")
    return _float_or_array(np.abs(_dirichlet(n, np.asarray(delta, float))[1]))


def _float_or_array(x: np.ndarray):
    """A single subcarrier's value as a float, a stack's as an array."""
    return float(x) if x.ndim == 0 else x


def _check_rho(rho) -> None:
    if not 0 <= rho < math.inf:  # NaN fails both comparisons
        raise ValueError(f"rho must be a finite non-negative number, got {rho!r}")


def _check_finite(product: np.ndarray) -> None:
    """Reject a channel-precoder product with a NaN or infinite entry.

    The small product is checked, not the (n_rx, n_tx) inputs: a non-finite
    channel or precoder entry makes it non-finite, and LAPACK would otherwise
    turn it into a NaN rate, or a NaN eigenvalue into a zero bound.
    """
    if not np.isfinite(product).all():
        raise ValueError("channel and precoders must be finite")


def _log2det(g: np.ndarray, rho, power):
    """log2 det(I + (rho/power) G G^H) by one batched slogdet; power may vary over G's stack."""
    _check_rho(rho)
    _check_finite(g)
    scale = np.asarray(rho / power, float)[..., None, None]
    _, logdet = np.linalg.slogdet(np.eye(g.shape[-2]) + scale * (g @ _hermitian(g)))
    return _float_or_array(logdet / np.log(2.0))


def achievable_rate(h_k: np.ndarray, f_k: np.ndarray, w_k: np.ndarray,
                    rho: float, n_streams: int):
    """Per-subcarrier rate log2 det(I + (rho/n_streams) * (HFW)(HFW)^H) [bits/s/Hz].

    Takes one subcarrier, h_k (n_rx, n_tx), f_k (n_tx, n_rf) and w_k
    (n_rf, n_streams), and returns a float; stacks with matching leading axes,
    (..., n, m), give an array of rates over those axes. Evaluated by the same
    batched slogdet kernel as eigenbeam_rate. Raises ValueError for a
    non-finite H, F or W.
    """
    return _log2det(h_k @ f_k @ w_k, rho, n_streams)


def eigenbeam_rate(hf: np.ndarray, f_power, rho: float):
    """Rate of the eigenbeam digital precoder, log2 det(I + rho/||F||_F^2 (HF)(HF)^H).

    hf is H_k F_k, shape (n_rx, n_rf) or a stack (..., n_rx, n_rf), and
    f_power is ||F_k||_F^2, a number or an array over the leading axes. With
    n_streams = n_rf the eigenbeam precoder W of digital_precoder is unitary
    times the one scale that makes ||F W||_F^2 = n_streams, so this equals
    achievable_rate(h, f, digital_precoder(h, f, n_streams), rho, n_streams)
    without an eigensolve: one batched slogdet. Returns a float for one
    subcarrier, an array for a stack. Raises ValueError for a non-finite H F
    or a power that is not finite and positive.
    """
    f_power = np.asarray(f_power, float)
    if not ((f_power > 0) & (f_power < np.inf)).all():  # NaN fails
        raise ValueError("analog precoder must have finite positive power")
    return _log2det(np.asarray(hf), rho, f_power)


def rate_lower_bound(h_k: np.ndarray, f_k: np.ndarray, w_k: np.ndarray,
                     rho: float, n_streams: int):
    """Determinant-based lower bound on the per-subcarrier rate.

    log2(1 + rho * det(S^2 V^H F W W^H F^H V)^(1/n_streams)) with H = U S V^H,
    over the n_streams strongest receive modes (all of them when
    n_rx = n_streams, as the model assumes). There S V^H = U_Ns^H H, with U_Ns
    the top eigenvectors of the small matrix H H^H, so the determinant is
    |det(U_Ns^H H F W)|^2. A channel with fewer than n_streams eigenvalues of
    H H^H above SV_TOL times the largest, that is fewer than n_streams singular
    values above sqrt(SV_TOL) = 1e-6 times the largest, is rank-deficient, and
    its bound is zero.
    Never exceeds achievable_rate on the same inputs. Takes one subcarrier and
    returns a float, or stacks with matching leading axes, (..., n, m), and
    returns an array. Raises ValueError for a non-finite H, F or W.
    """
    _check_rho(rho)
    h_k = np.asarray(h_k)
    if h_k.shape[-2] < n_streams:  # fewer receive modes than streams
        _check_finite(h_k @ f_k @ w_k)
        return _float_or_array(np.zeros(h_k.shape[:-2]))
    gram = h_k @ _hermitian(h_k)
    _check_finite(gram)
    eig, u = np.linalg.eigh(gram)  # ascending: strongest modes last
    kept = np.count_nonzero(eig > SV_TOL * np.maximum(eig[..., -1:], 1e-300), axis=-1)
    projected = _hermitian(u[..., -n_streams:]) @ h_k @ f_k @ w_k
    _check_finite(projected)
    det = np.abs(np.linalg.det(projected))
    bound = np.log2(1.0 + rho * det ** (2.0 / n_streams))
    return _float_or_array(np.where(kept >= n_streams, bound, 0.0))


def empirical_cdf(values):
    """Empirical CDF of a sample: fraction of entries <= x.

    Evaluated at the distinct sample points; returns (x, cdf) arrays with cdf
    increasing and ending at 1. Raises ValueError for a NaN or infinite value.
    """
    values = np.asarray(values, float).ravel()
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    xs, counts = np.unique(values, return_counts=True)
    # np.unique sorts -inf first and NaN last, after inf: the two ends decide
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("empirical_cdf needs finite values")
    return xs, np.cumsum(counts) / values.size


@dataclass(frozen=True)
class GainProfile:
    """Per-subcarrier array gains g[k] in [0, 1] at one direction and their CDF, read-only."""

    gains: np.ndarray
    cdf_x: np.ndarray
    cdf_y: np.ndarray

    def __post_init__(self):
        for name in ("gains", "cdf_x", "cdf_y"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), float)))


@dataclass(frozen=True)
class RateProfile:
    """Mean and CDF of a per-subcarrier (or pooled) rate sample."""

    mean_rate: float
    cdf_x: np.ndarray
    cdf_y: np.ndarray

    def __post_init__(self):
        for name in ("cdf_x", "cdf_y"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), float)))


def gain_profile(cfg: SystemConfig, columns, psi: float):
    """Evaluate one precoder column per subcarrier (shape (K, n_tx)) at direction psi.

    Row k - 1 gives array_gain(columns[k - 1], cfg, k, psi), bit for bit: the
    steering vectors come from one stack, but each gain is still its own
    np.vdot, because a batched inner product rounds differently in the last bit.
    The vdot also rounds by the column's stride (see precoders._compose), so
    columns are read in place, never copied.

    columns may also be a sequence (tuple, list) of (K, n_tx) arrays: all of
    them are scored against one steering stack, and a tuple of profiles comes
    back in order. The form is told by the first item: a (K, n_tx) array's
    first item is one row, a sequence's first item is a whole array.
    """
    several = len(columns) > 0 and np.ndim(columns[0]) == 2
    arrays = [np.asarray(a) for a in (columns if several else (columns,))]
    for a in arrays:
        if a.shape != (cfg.n_subcarriers, cfg.n_tx):
            raise ValueError("columns must have shape (K, n_tx)")
        if not (np.abs(np.linalg.norm(a, axis=1) - 1.0) <= NORM_TOL).all():  # NaN fails
            raise ValueError("precoder column must have unit 2-norm")
    steering = steering_stack(cfg.n_tx, freq_ratios(cfg), psi)[:, :, 0]
    profiles = []
    for a in arrays:
        gains = np.array([abs(np.vdot(v, f)) for v, f in zip(steering, a)])
        if not ((gains >= 0.0) & (gains <= 1.0 + 1e-12)).all():
            raise ValueError("array gain outside [0, 1]")
        xs, cdf = empirical_cdf(gains)
        profiles.append(GainProfile(gains=gains, cdf_x=xs, cdf_y=cdf))
    return tuple(profiles) if several else profiles[0]


def rate_profile(rates) -> RateProfile:
    """Wrap a rate sample (any shape) into a profile with mean and CDF."""
    rates = np.asarray(rates, float).ravel()
    if not (rates >= 0).all():
        raise ValueError("rates must be non-negative")
    xs, cdf = empirical_cdf(rates)
    return RateProfile(mean_rate=float(rates.mean()), cdf_x=xs, cdf_y=cdf)
