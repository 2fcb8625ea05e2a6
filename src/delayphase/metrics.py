"""Array-gain and achievable-rate evaluation plus empirical CDFs.

Array gain is always computed as a direct inner product with the subcarrier's
steering vector, so it applies to arbitrary unit-norm precoder columns; the
closed-form Dirichlet-kernel ratio is provided separately, from the same kernel
as ``model.steering_gram``, and agrees with the inner product on unclamped
joint designs. ``gain_profile`` returns the (K,) gains; ``empirical_cdf`` gives
the CDF of any sample, gains or pooled rates. ``array_gain``, a row of
``gain_profile`` bit for bit, is outside ``delayphase.__all__`` and kept only
for the benchmark's tracer. Every gain and unit-norm check is one fixed-order
einsum over (re, im) pairs (_gain_profiles), with no BLAS call, so its bits
depend neither on the CPU nor on the columns' memory layout.

``achievable_rate`` and ``rate_lower_bound`` take any digital precoder W.
``eigenbeam_rate`` gives the rate of the eigenbeam precoder that
``precoders.digital_precoder`` builds, from H F alone: with
n_streams = n_rf = n_rx that rate needs no eigenvectors. Both rates are
log2 det(I + c G G^H) for some G and c, and share one batched slogdet kernel.
``rate_lower_bound`` is |det(U_Ns^H H F W)|^2 in closed form, with U_Ns the
strongest receive modes from one eigendecomposition of H H^H.
"""

from __future__ import annotations

import numpy as np

# jacobi_eigh is unused here but stays importable under this name: the
# benchmark's tracer (bench/spans.py) wraps it at every attribute it is bound to.
from .linalg import _finite_product, _hermitian, jacobi_eigh  # noqa: F401
from .model import (RHO_MAX, SystemConfig, _check_int, _check_real, _dirichlet, freq_ratios,
                    steering_stack)
from .precoders import ideal_precoder

NORM_TOL = 1e-9  # allowed deviation of a precoder column's 2-norm from 1
# eigenvalues of H H^H (squared singular values) at or below SV_TOL times the
# largest count as zero, so a singular-value ratio at or below 1e-6 is rank loss
SV_TOL = 1e-12


def array_gain(f: np.ndarray, cfg: SystemConfig, k: int, psi: float) -> float:
    """|v_k(psi)^H f| for a unit-norm column f (to 1e-9), v_k(psi) the ideal precoder's column."""
    _check_real("psi", psi, -1, 1)
    return float(_gain_profiles((f,), ideal_precoder(cfg, psi, k)[:, 0])[0])


def dirichlet_gain(n, delta) -> np.ndarray | float:
    """|sin(n*delta) / (n*sin(delta))|, the gain envelope of an n-element subarray.

    The magnitude of model.steering_gram's Dirichlet kernel: delta is reduced
    to [-pi/2, pi/2], and only the exact zeros of sin(delta) take the limit 1,
    so a tiny nonzero delta keeps its 1 - (n^2 - 1) delta^2 / 6. n is an
    integer or an integer array that broadcasts against delta; delta must be finite.
    """
    n, delta = np.asarray(n), np.asarray(delta, float)
    if n.dtype.kind not in "iu" or not (n >= 1).all():
        raise ValueError("subarray size n must be an integer >= 1")
    if not np.isfinite(delta).all():
        raise ValueError("squint offset delta must be finite")
    return _float_or_array(np.abs(_dirichlet(n, delta)[1]))


def _float_or_array(x: np.ndarray):
    """A single subcarrier's value as a float, a stack's as an array."""
    return float(x) if x.ndim == 0 else x


def _log2det(g: np.ndarray, rho, power):
    """log2 det(I + (rho/power) G G^H), G finite, by one slogdet; power may vary over G's stack."""
    _check_real("rho", rho, 0, RHO_MAX)
    scale = np.asarray(rho / power, float)[..., None, None]
    _, logdet = np.linalg.slogdet(np.eye(g.shape[-2]) + scale * (g @ _hermitian(g)))
    return _float_or_array(logdet / np.log(2.0))


def _check_streams(n_streams, w_k) -> None:
    """n_streams must be an integer >= 1 and W's column count, which the power split assumes."""
    _check_int("n_streams", n_streams, 1)
    if np.shape(w_k)[-1] != n_streams:
        raise ValueError(f"n_streams must equal the {np.shape(w_k)[-1]} columns of w_k, "
                         f"got {n_streams!r}")


def achievable_rate(h_k: np.ndarray, f_k: np.ndarray, w_k: np.ndarray,
                    rho: float, n_streams: int):
    """Per-subcarrier rate log2 det(I + (rho/n_streams) * (HFW)(HFW)^H) [bits/s/Hz].

    Takes one subcarrier, h_k (n_rx, n_tx), f_k (n_tx, n_rf) and w_k
    (n_rf, n_streams), and returns a float; stacks with matching leading axes,
    (..., n, m), give an array of rates over those axes. Evaluated by the same
    batched slogdet kernel as eigenbeam_rate. Raises ValueError for a
    non-finite H, F or W, or unless W has n_streams columns.
    """
    _check_streams(n_streams, w_k)
    return _log2det(_finite_product(h_k, f_k, w_k), rho, n_streams)


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
    f_power = np.asarray(f_power)
    if f_power.dtype.kind not in "iuf" or not ((f_power > 0) & (f_power < np.inf)).all():
        raise ValueError("f_power must be a finite positive power")
    return _log2det(_finite_product(np.asarray(hf)), rho, f_power)


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
    returns an array. Raises ValueError for a non-finite H, F or W, or unless W
    has n_streams columns.
    """
    _check_real("rho", rho, 0, RHO_MAX)
    _check_streams(n_streams, w_k)
    h_k = np.asarray(h_k)
    if h_k.shape[-2] < n_streams:  # fewer receive modes than streams
        _finite_product(h_k, f_k, w_k)
        return _float_or_array(np.zeros(h_k.shape[:-2]))
    gram = _finite_product(h_k, _hermitian(h_k))
    eig, u = np.linalg.eigh(gram)  # ascending: strongest modes last
    kept = np.count_nonzero(eig > SV_TOL * np.maximum(eig[..., -1:], 1e-300), axis=-1)
    projected = _finite_product(_hermitian(u[..., -n_streams:]), h_k, f_k, w_k)
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


def gain_profile(cfg: SystemConfig, columns: np.ndarray, psi: float) -> np.ndarray:
    """Array gains, shape (K,), of one precoder column per subcarrier (shape (K, n_tx)) at psi.

    Entry k - 1 is array_gain(columns[k - 1], cfg, k, psi), bit for bit. The
    steering stack equals ideal_stack(cfg, [psi])[:, :, 0] bit for bit, so the
    harness builds it once per array grid of a sweep, as the ideal column, and
    scores every column against it through _gain_profiles, this body.
    """
    _check_real("psi", psi, -1, 1)
    steering = steering_stack(cfg.n_tx, freq_ratios(cfg), psi)[:, :, 0]
    return _gain_profiles((columns,), steering)[0]


def _pairs(a) -> np.ndarray:
    """A complex array as contiguous (re, im) float pairs, shape (*a.shape, 2)."""
    return np.ascontiguousarray(a, complex).view(float).reshape(*a.shape, 2)


def _pair_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of x * y over the last two axes of two (..., n, 2) float arrays, in a fixed order."""
    return np.einsum("...ni,...ni->...", x, y)


def _gain_profiles(arrays, steering: np.ndarray) -> tuple:
    """|v^H f| row by row for each array f of unit-norm columns, shaped as the steering v.

    Re and Im of v^H f are einsums of (re, im) pairs with v and with j v: no
    BLAS, so a gain has the same bits on any CPU, for any layout, alone or in a stack.
    """
    v = _pairs(steering)
    jv = np.stack((-v[..., 1], v[..., 0]), axis=-1)
    profiles = []
    for a in map(np.asarray, arrays):
        if a.shape != steering.shape:
            raise ValueError(f"columns must have shape {steering.shape}, got {a.shape}")
        f = _pairs(a)
        # |f|^2 as a sum of squares, so an infinite entry gives inf, not a NaN
        if not (np.abs(np.sqrt(_pair_dot(f, f)) - 1.0) <= NORM_TOL).all():  # NaN fails
            raise ValueError("precoder column must have unit 2-norm")
        re, im = _pair_dot(v, f), _pair_dot(jv, f)
        gains = np.sqrt(re * re + im * im)
        if not ((gains >= 0.0) & (gains <= 1.0 + 1e-12)).all():
            raise ValueError("array gain outside [0, 1]")
        profiles.append(gains)
    return tuple(profiles)
