"""Materialization of the analog precoding chain and the baseband digital precoder.

The analog precoder factors into a frequency-flat phase-shifter matrix and a
subcarrier-dependent delay matrix; their product has constant entry modulus
1/sqrt(n_tx) by construction. Phase-shifter settings are stored in units of pi
radians and converted to complex exponentials only here.

The stacks over all subcarriers (``analog_stack``, ``ideal_stack``) are single
broadcast kernels along the subcarrier axis; subcarrier k is slice k - 1 of a
stack. ``digital_precoder`` accepts stacks as well as single subcarriers. The
dense factors F1 and F2_k are formed only by ``materialize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# jacobi_eigh is unused here but stays importable under this name: the
# benchmark's tracer (bench/spans.py) wraps it at every attribute it is bound to.
from .linalg import _hermitian, fix_phase, jacobi_eigh  # noqa: F401
from .model import (SystemConfig, _readonly, freq_ratio, freq_ratios, steering_stack,
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


def _ps_blocks(ps: np.ndarray) -> np.ndarray:
    """Dense PS matrix F1 from the (n_rf, M, N) phasors; entry (m*N + n, l*M + m) is ps[l, m, n]."""
    n_rf, m_ttd, n_ps = ps.shape
    f1 = np.zeros((m_ttd * n_ps, m_ttd * n_rf), dtype=complex)
    m = np.arange(m_ttd)
    f1.reshape(m_ttd, n_ps, n_rf, m_ttd)[m, :, :, m] = ps.transpose(1, 2, 0)
    return f1


def _ttd_blocks(ttd: np.ndarray) -> np.ndarray:
    """Delay matrices F2_k from the (K, n_rf, M) phasors; entry (k, l*M + m, l) is ttd[k, l, m]."""
    n_sc, n_rf, m_ttd = ttd.shape
    f2 = np.zeros((n_sc, n_rf * m_ttd, n_rf), dtype=complex)
    l = np.arange(n_rf)
    f2.reshape(n_sc, n_rf, m_ttd, n_rf)[:, l, :, l] = ttd.transpose(1, 0, 2)
    return f2


def _compose(ps: np.ndarray, ttd: np.ndarray) -> np.ndarray:
    """Analog precoders F1 @ F2_k from the phasors, shape (K, n_tx, n_rf).

    Each entry is the single product ps[l, m, n] * ttd[k, l, m], bit-identical
    to the dense sum of products einsum("ij,jl->il", F1, F2_k). The result is
    C-ordered, so the column of chain l at subcarrier k has a stride of n_rf
    elements: unit stride with one RF chain, non-unit with more. That stride
    reaches the last bit of ``metrics.gain_profile`` and ``array_gain``: each
    gain is one ``np.vdot``, and OpenBLAS's zdotc takes its SIMD kernel only
    when both operands have unit stride, and a scalar loop otherwise. The same
    column gives different last bits contiguous and strided (104 of the 129
    headline gains at psi = 0.8), but the same bits at any non-unit stride.
    """
    n_rf, m_ttd, n_ps = ps.shape
    out = np.einsum("lmn,klm->kmnl", ps, ttd, order="C")
    return out.reshape(ttd.shape[0], m_ttd * n_ps, n_rf)


def analog_stack(cfg: SystemConfig, design: AnalogDesign) -> np.ndarray:
    """Analog precoder F1 @ F2_k at every subcarrier, shape (K, n_tx, n_rf).

    One broadcast product of the phase-shifter and delay phasors, with no
    dense factor and no loop over k. Slice k - 1 is the precoder of subcarrier k.
    """
    design.validate(cfg)
    return _compose(_ps_phasors(design, cfg),
                    _ttd_phasors(design, subcarrier_frequencies(cfg)))


def ideal_precoder(cfg: SystemConfig, psi, k: int) -> np.ndarray:
    """Per-subcarrier matched steering matrix, shape (n_tx, len(psi)).

    Column l is the array response toward psi[l] at subcarrier k, so the array
    gain of every column is exactly 1. Physically realizable only with one
    delay element per antenna. Equal to ideal_stack(cfg, psi)[k - 1], bit for
    bit, without building the other subcarriers.
    """
    return steering_stack(cfg.n_tx, freq_ratio(cfg, k), psi)[0]


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
    Raises ValueError for a non-finite H or F.
    """
    hf = h_k @ f_k
    gram = _hermitian(hf) @ hf
    if not np.isfinite(gram).all():  # LAPACK would only say it did not converge
        raise ValueError("channel and analog precoder must be finite")
    _, vecs = np.linalg.eigh(gram)
    w = fix_phase(vecs[..., ::-1][..., :n_streams])
    power = np.sum((w.conj() * (_hermitian(f_k) @ f_k @ w)).real, axis=(-2, -1))
    if not (power > 0).all():
        raise np.linalg.LinAlgError("analog precoder annihilates every stream")
    return w * np.sqrt(n_streams / power)[..., None, None]


@dataclass(frozen=True)
class PrecoderSet:
    """Materialized precoders for all subcarriers.

    ``ttd``, ``analog``, ``ideal`` and ``digital`` are stacked along the
    subcarrier axis; ``ideal`` and ``digital`` are None unless directions or a
    channel were supplied at build time.
    """

    f1: np.ndarray
    ttd: np.ndarray
    analog: np.ndarray
    ideal: np.ndarray | None = None
    digital: np.ndarray | None = None

    def __post_init__(self):
        for name in ("f1", "ttd", "analog", "ideal", "digital"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _readonly(value))


def materialize(cfg: SystemConfig, design: AnalogDesign, psi=None,
                channel=None) -> PrecoderSet:
    """Build the full precoder stack for every subcarrier.

    psi enables the matched ideal precoder; a ChannelRealization enables the
    digital precoders (computed against the composite analog precoder).
    Callers that need only the composite stack should use analog_stack.
    """
    design.validate(cfg)
    ps = _ps_phasors(design, cfg)
    ttd = _ttd_phasors(design, subcarrier_frequencies(cfg))
    analog = _compose(ps, ttd)
    ideal = None if psi is None else ideal_stack(cfg, psi)
    digital = None if channel is None else digital_precoder(channel.h, analog, cfg.n_streams)
    return PrecoderSet(f1=_ps_blocks(ps), ttd=_ttd_blocks(ttd), analog=analog,
                       ideal=ideal, digital=digital)
