"""Property tests: every batched kernel against the per-subcarrier reference it replaces.

The analog and ideal stacks must equal their per-subcarrier builders, and
gain_profile a loop of array_gain over the subcarriers, bit for bit. The
batched rate path must agree to 1e-12 relative with a loop over k of the
eigenvalue formulas it replaced, which run on the cyclic-Jacobi solver.
The numerical comparisons draw a fixed sequence of examples (derandomize), so
the suite's verdict does not change from run to run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import systems
from delayphase import harness
from delayphase.linalg import fix_phase, jacobi_eigh

RTOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


def random_design(cfg, seed):
    rng = np.random.default_rng(seed)
    return dp.AnalogDesign(
        phases=rng.uniform(-2, 2, (cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd)),
        delays=rng.uniform(0, cfg.t_max, (cfg.n_rf, cfg.ttds_per_rf)))


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_rel(got, want, rtol=RTOL, floor=0.0):
    """|got - want| <= rtol * max(|want|, floor), elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), floor)
    assert np.all(np.abs(got - want) <= rtol * scale), np.max(np.abs(got - want) / scale)


def subcarriers(cfg):
    return range(1, cfg.n_subcarriers + 1)


# the per-subcarrier formulas the batched rate path replaced
def reference_digital(h, f, n_streams):
    # Jacobi stops at off-diagonal mass 1e-12 * ||gram||_F by default, which
    # moves eigenvectors by up to that over the gap; run it 100x tighter so the
    # comparison measures the batched path rather than that stopping rule
    h_eff = h @ f
    _, vecs = jacobi_eigh(h_eff.conj().T @ h_eff, tol=1e-14)
    w = fix_phase(vecs[:, :n_streams])
    return w * (np.sqrt(n_streams) / np.linalg.norm(f @ w))


def reference_rate(h, f, w, rho, n_streams):
    g = h @ f @ w
    eig, _ = jacobi_eigh(g @ g.conj().T)
    return float(np.sum(np.log2(1.0 + (rho / n_streams) * np.clip(eig, 0.0, None))))


def reference_bound(h, f, w, rho, n_streams, sv_tol=1e-12):
    eig, u = jacobi_eigh(h @ h.conj().T)
    eig = np.clip(eig, 0.0, None)
    keep = eig > sv_tol * max(float(eig[0]), 1e-300)
    if np.count_nonzero(keep) < n_streams:
        return 0.0
    sv = np.sqrt(eig[keep])
    v = (h.conj().T @ u[:, keep]) / sv
    det = float(np.prod(sv**2) * abs(np.linalg.det(v.conj().T @ f @ w)) ** 2)
    return float(np.log2(1.0 + rho * max(det, 0.0) ** (1.0 / n_streams)))


def stacks(cfg, channel, seed):
    """A random analog design and the matched ideal precoder toward the channel's paths."""
    return {"random": dp.analog_stack(cfg, random_design(cfg, seed)),
            "ideal": dp.ideal_stack(cfg, channel.paths.psi_tx)}


@settings(max_examples=60, deadline=None)
@given(cfg=systems(), seed=seeds)
def test_analog_stack_matches_composite_precoder(cfg, seed):
    design = random_design(cfg, seed)
    stack = dp.analog_stack(cfg, design)
    pset = dp.materialize(cfg, design)
    assert_same_bits(pset.analog, stack)
    for k in subcarriers(cfg):
        # the dense sum of products F1 @ F2_k over F1's columns, zeros
        # included, that materialize evaluated before the stack became one
        # broadcast kernel
        assert_same_bits(stack[k - 1], np.einsum("ij,jl->il", pset.f1, pset.ttd[k - 1]))


@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.lists(st.floats(-1, 1), min_size=1, max_size=4))
def test_ideal_stack_matches_ideal_precoder(cfg, psi):
    stack = dp.ideal_stack(cfg, psi)
    i = np.arange(cfg.n_tx)
    for k in subcarriers(cfg):
        assert_same_bits(stack[k - 1], dp.ideal_precoder(cfg, psi, k))
        # the per-column steering formula the stack replaced
        ratio = dp.freq_ratio(cfg, k)
        columns = [np.exp(-1j * np.pi * i * ratio * p) / np.sqrt(cfg.n_tx) for p in psi]
        assert_same_bits(stack[k - 1], np.stack(columns, axis=1))


@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.floats(-1, 1), seed=seeds)
def test_gain_profile_matches_array_gain_loop(cfg, psi, seed):
    directions = [psi] * cfg.n_rf
    stacks = (dp.analog_stack(cfg, dp.design_joint(cfg, directions).design),
              dp.analog_stack(cfg, dp.design_benchmark(cfg, directions)),
              dp.analog_stack(cfg, random_design(cfg, seed)),
              dp.ideal_stack(cfg, [psi]))
    for stack in stacks:
        columns = stack[:, :, 0]
        want = np.array([dp.array_gain(columns[k - 1], cfg, k, psi) for k in subcarriers(cfg)])
        assert_same_bits(dp.gain_profile(cfg, columns, psi).gains, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds)
def test_rate_path_matches_per_subcarrier_reference(cfg, seed):
    channel = dp.sample_channel(cfg, dp.make_rng(seed))
    n_s = cfg.n_streams
    for analog in stacks(cfg, channel, seed).values():
        w = dp.digital_precoder(channel.h, analog, n_s)
        power = np.sum(np.abs(analog @ w) ** 2, axis=(1, 2))
        assert np.all(np.abs(power - n_s) <= 1e-10)
        rates = dp.achievable_rate(channel.h, analog, w, cfg.rho, n_s)
        bounds = dp.rate_lower_bound(channel.h, analog, w, cfg.rho, n_s)
        for k in subcarriers(cfg):
            h, f = channel.h[k - 1], analog[k - 1]
            w_ref = reference_digital(h, f, n_s)
            # eigenvectors are fixed only up to the spectral gap of (HF)^H (HF)
            eig = np.linalg.eigvalsh((h @ f).conj().T @ (h @ f))[::-1]
            gaps = np.array([np.min(np.abs(np.delete(eig, j) - eig[j]), initial=np.inf)
                             for j in range(n_s)])
            tol = RTOL * (1.0 + eig[0] / gaps) * np.linalg.norm(w_ref, axis=0)
            assert np.all(np.linalg.norm(w[k - 1] - w_ref, axis=0) <= tol)
            assert_rel(rates[k - 1], reference_rate(h, f, w_ref, cfg.rho, n_s))
            # a near-singular channel has a tiny bound known only to ~1e-16 bits
            assert_rel(bounds[k - 1], reference_bound(h, f, w_ref, cfg.rho, n_s), floor=1.0)
            # a single subcarrier still returns a float
            assert isinstance(dp.achievable_rate(h, f, w[k - 1], cfg.rho, n_s), float)
            assert isinstance(dp.rate_lower_bound(h, f, w[k - 1], cfg.rho, n_s), float)


def reference_trial(cfg, seed, point_index, trial):
    channel = dp.sample_channel(cfg, dp.make_rng(seed, stream=(point_index, trial)))
    psi = channel.paths.psi_tx
    analog = {"proposed": dp.analog_stack(cfg, dp.design_joint(cfg, psi).design),
              "benchmark": dp.analog_stack(cfg, dp.design_benchmark(cfg, psi))}
    out = {}
    for name in harness.DESIGN_NAMES:
        rates = []
        for k in subcarriers(cfg):
            f = dp.ideal_precoder(cfg, psi, k) if name == "ideal" else analog[name][k - 1]
            h = channel.h[k - 1]
            w = reference_digital(h, f, cfg.n_streams)
            rates.append(reference_rate(h, f, w, cfg.rho, cfg.n_streams))
        out[name] = np.array(rates)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds, trial=st.integers(0, 1000))
def test_rate_trial_matches_per_subcarrier_loop(cfg, seed, trial):
    got = harness._rate_trial(cfg, seed, 0, trial)
    want = reference_trial(cfg, seed, 0, trial)
    assert list(got) == list(harness.DESIGN_NAMES)
    for name in harness.DESIGN_NAMES:
        assert_rel(got[name], want[name])
