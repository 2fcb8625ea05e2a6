"""Materialization of the analog precoding chain and the baseband digital precoder.

The analog precoder factors into a frequency-flat phase-shifter matrix and a
subcarrier-dependent delay matrix; their product has constant entry modulus
1/sqrt(n_tx) by construction. Phase-shifter settings are stored in units of pi
radians and converted to complex exponentials only here.

The stacks over all subcarriers (``analog_stack``, ``ideal_stack``) are single
broadcast kernels along the subcarrier axis; subcarrier k is slice k - 1 of a
stack. ``digital_precoder`` accepts stacks as well as single subcarriers.
Legacy shim, outside ``delayphase.__all__`` and kept only for the benchmark's
rate_bound workload and its tracer: ``materialize``, which wraps
``analog_stack`` in a ``PrecoderSet``, and the per-subcarrier twin
``ideal_precoder``, a slice of ``ideal_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# jacobi_eigh is unused here but stays importable under this name: the
# benchmark's tracer (bench/spans.py) wraps it at every attribute it is bound to.
from .linalg import _finite_product, _hermitian, fix_phase, jacobi_eigh  # noqa: F401
from .model import (SystemConfig, _check_int, _readonly, freq_ratios, steering_stack,
                    subcarrier_frequencies)


@dataclass(frozen=True)
class AnalogDesign:
    """Phase-shifter table (units of pi) and TTD delay table (seconds).

    Shapes: phases (n_rf, ttds_per_rf, ps_per_ttd), delays (n_rf, ttds_per_rf).
    """

    phases: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, float)
        delays = np.asarray(self.delays, float)
        if phases.ndim != 3 or delays.ndim != 2 or phases.shape[:2] != delays.shape:
            raise ValueError("phases must be (n_rf, M, N) and delays (n_rf, M)")
        object.__setattr__(self, "phases", _readonly(phases))
        object.__setattr__(self, "delays", _readonly(delays))

    def validate(self, cfg: SystemConfig) -> None:
        """Check shapes against cfg, finite phases and delays within [0, t_max] (not NaN)."""
        expect = (cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd)
        if self.phases.shape != expect:
            raise ValueError(f"phase table shape {self.phases.shape} != {expect}")
        if not np.all(np.isfinite(self.phases)):
            raise ValueError("phases must be finite")
        if np.any(~((self.delays >= 0) & (self.delays <= cfg.t_max))):
            raise ValueError("delays must lie within [0, t_max]")


def _ps_phasors(design: AnalogDesign, cfg: SystemConfig) -> np.ndarray:
    """Phase-shifter outputs exp(j*pi*phases) / sqrt(n_tx), shape (n_rf, M, N)."""
    return (1.0 / np.sqrt(cfg.n_tx)) * np.exp(1j * np.pi * design.phases)


def _ttd_phasors(design: AnalogDesign, freqs: np.ndarray) -> np.ndarray:
    """Delay-element outputs exp(-j*2*pi*f*delays), shape (len(freqs), n_rf, M)."""
    return np.exp(-2j * np.pi * freqs[:, None, None] * design.delays)


def _compose(ps: np.ndarray, ttd: np.ndarray) -> np.ndarray:
    """Analog precoders F1 @ F2_k from the phasors, shape (K, n_tx, n_rf).

    Each entry is the single product ps[l, m, n] * ttd[k, l, m], bit-identical
    to the dense sum of products einsum("ij,jl->il", F1, F2_k) of the
    block-diagonal PS matrix F1 and the delay matrix F2_k.
    """
    n_rf, m_ttd, n_ps = ps.shape
    out = np.einsum("lmn,klm->kmnl", ps, ttd, order="C")
    return out.reshape(ttd.shape[0], m_ttd * n_ps, n_rf)


def analog_stack(cfg: SystemConfig, design: AnalogDesign) -> np.ndarray:
    """Analog precoder F1 @ F2_k at every subcarrier, shape (K, n_tx, n_rf).

    One broadcast product of the phase-shifter and delay phasors, with no
    dense factor and no loop over k. Slice k - 1 is the precoder of subcarrier k.
    """
    return _analog_blocks(cfg, design)(slice(None))


def _analog_blocks(cfg: SystemConfig, design: AnalogDesign):
    """A function of a subcarrier slice ks giving analog_stack(cfg, design)[ks], bit for bit.

    The design is checked and its phase-shifter phasors are built once; each
    call builds only the delay phasors and the precoders of its slice.
    """
    design.validate(cfg)
    ps, freqs = _ps_phasors(design, cfg), subcarrier_frequencies(cfg)
    return lambda ks: _compose(ps, _ttd_phasors(design, freqs[ks]))


def ideal_precoder(cfg: SystemConfig, psi, k: int) -> np.ndarray:
    """Per-subcarrier matched steering matrix, shape (n_tx, len(psi)).

    Column l is the array response toward psi[l] at subcarrier k, so the array
    gain of every column is exactly 1. Physically realizable only with one
    delay element per antenna. Equal to ideal_stack(cfg, psi)[k - 1], bit for
    bit, without building the other subcarriers. Raises ValueError unless k is
    an integer in 1..K.
    """
    _check_int("k", k, 1, cfg.n_subcarriers)
    return steering_stack(cfg.n_tx, freq_ratios(cfg)[k - 1], psi)[0]


def ideal_stack(cfg: SystemConfig, psi) -> np.ndarray:
    """Matched steering precoder at every subcarrier, shape (K, n_tx, len(psi))."""
    return steering_stack(cfg.n_tx, freq_ratios(cfg), psi)


def digital_precoder(h_k: np.ndarray, f_k: np.ndarray, n_streams: int) -> np.ndarray:
    """Baseband precoder: dominant eigenvectors of (H F)^H (H F), power-normalized.

    Takes one subcarrier, h_k (n_rx, n_tx) and f_k (n_tx, n_rf), or stacks of
    them with matching leading axes, (..., n_rx, n_tx) and (..., n_tx, n_rf),
    and returns W of shape (..., n_rf, n_streams) from one batched LAPACK
    eigensolve. Each W satisfies ||F W||_F^2 = n_streams via a single scale
    (only the Frobenius norm is constrained), taken from the small Gram matrix
    F^H F. Eigenvector phases are fixed for determinism; with a degenerate
    spectrum any orthonormal basis of the dominant eigenspace is a valid result.
    Raises ValueError for a non-finite H or F, or for more streams than F has
    columns.
    """
    _check_int("n_streams", n_streams, 1, np.shape(f_k)[-1])
    hf = _finite_product(h_k, f_k)  # LAPACK would only say it did not converge on a NaN
    _, vecs = np.linalg.eigh(_finite_product(_hermitian(hf), hf))
    w = fix_phase(vecs[..., ::-1][..., :n_streams])
    power = np.sum((w.conj() * (_hermitian(f_k) @ f_k @ w)).real, axis=(-2, -1))
    if not (power > 0).all():
        raise np.linalg.LinAlgError("analog precoder annihilates every stream")
    return w * np.sqrt(n_streams / power)[..., None, None]


@dataclass(frozen=True)
class PrecoderSet:
    """The composite analog stack of materialize, read-only, shape (K, n_tx, n_rf).

    ``f1``, ``ttd``, ``ideal`` and ``digital`` are always None: the
    benchmark's tracer (bench/spans.py, _precoder_bytes) reads all five
    attributes to size the result.
    """

    analog: np.ndarray
    f1 = ttd = ideal = digital = None

    def __post_init__(self):
        object.__setattr__(self, "analog", _readonly(self.analog))


def materialize(cfg: SystemConfig, design: AnalogDesign) -> PrecoderSet:
    """analog_stack(cfg, design) in a PrecoderSet, for the benchmark's rate_bound workload."""
    return PrecoderSet(analog=analog_stack(cfg, design))
