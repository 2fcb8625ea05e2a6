"""Property tests: every batched kernel against the per-subcarrier reference it replaces.

The analog and ideal stacks must equal their per-subcarrier builders, and
gain_profile a loop of array_gain over the subcarriers, bit for bit; so must
the gain tables' one-chain columns equal the full stack's first column, the
tuple form of gain_profile one call per array, the sizing trace's one
Dirichlet-kernel broadcast over (divisor, subcarrier) the loop over divisors
it replaced, and the column-wise table writer the row-wise csv.writer and json
output it replaced. The batched rate path must agree to 1e-12 relative with a
loop over k of the eigenvalue formulas it replaced, which run on the
cyclic-Jacobi solver, with the bound never above the rate, and so must
eigenbeam_rate with the rate of digital_precoder's W. The closed-form steering
Gram matrix must match S^H S of the steering stack to 1e-13, and the factored
channel the three-operand einsum it replaced to 1e-14 of max |H|.
The numerical comparisons draw a fixed sequence of examples (derandomize), so
the suite's verdict does not change from run to run.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import systems
from delayphase import harness
from delayphase.linalg import fix_phase, jacobi_eigh
from delayphase.model import _channel_factors, steering_gram, steering_stack

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


# the one-chain view of a small config repeats the small-array warning its config gave
SMALL_ARRAY = pytest.mark.filterwarnings("ignore:n_rf is not small relative to n_tx")


@SMALL_ARRAY
@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.floats(-1, 1))
def test_one_chain_columns_match_full_stack(cfg, psi):
    directions = [psi] * cfg.n_rf
    full = (dp.analog_stack(cfg, dp.design_joint(cfg, directions).design)[:, :, 0],
            dp.analog_stack(cfg, dp.design_benchmark(cfg, directions))[:, :, 0])
    for got, want in zip(harness._design_columns(cfg, psi), full):
        assert_same_bits(got, want)
        # gain_profile's vdot rounds differently at unit stride, as the full stack's does
        assert (got.strides[1] == got.itemsize) == (cfg.n_rf == 1)
        assert_same_bits(dp.gain_profile(cfg, got, psi).gains,
                         dp.gain_profile(cfg, want, psi).gains)


@SMALL_ARRAY
@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.floats(-1, 1), seed=seeds)
def test_gain_profile_tuple_matches_one_call_per_array(cfg, psi, seed):
    arrays = (*harness._design_columns(cfg, psi),
              dp.analog_stack(cfg, random_design(cfg, seed))[:, :, 0],
              dp.ideal_stack(cfg, [psi])[:, :, 0])
    profiles = dp.gain_profile(cfg, arrays, psi)
    assert isinstance(profiles, tuple) and len(profiles) == len(arrays)
    # a list is a sequence of arrays too, and a nested list is one array
    for got, want in zip(dp.gain_profile(cfg, list(arrays), psi), profiles):
        assert_same_bits(got.gains, want.gains)
    assert_same_bits(dp.gain_profile(cfg, arrays[-1].tolist(), psi).gains, profiles[-1].gains)
    for got, columns in zip(profiles, arrays):
        want = dp.gain_profile(cfg, columns, psi)
        for name in ("gains", "cdf_x", "cdf_y"):
            assert_same_bits(getattr(got, name), getattr(want, name))


@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.floats(0, 1, exclude_min=True),
       g0=st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_sizing_trace_matches_per_divisor_loop(cfg, psi, g0):
    # the per-divisor loop that size_ttds's one broadcast replaced
    deltas = 0.5 * np.pi * (dp.freq_ratios(cfg) - 1.0)
    want = {m: min(1.0, float(np.min(dp.dirichlet_gain(cfg.n_tx // m, deltas * psi))))
            for m in dp.divisors(cfg.n_tx)}
    got = dp.size_ttds(cfg, g0, psi).worst_gain_by_divisor
    assert list(got) == list(want)
    assert all(type(m) is int and type(v) is float for m, v in got.items())
    assert_same_bits(np.array(list(got.values())), np.array(list(want.values())))


def test_dirichlet_gain_rejects_a_size_array_holding_zero():
    with pytest.raises(ValueError, match="subarray size must be >= 1"):
        dp.dirichlet_gain(np.array([[4], [0]]), np.linspace(-0.1, 0.1, 5))


# the row-wise writer that _write_table replaced
def reference_table(path, header, rows, fmt):
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([harness._fmt(v) for v in row])
    else:
        payload = {"header": list(header),
                   "rows": [[(float(v) if isinstance(v, (float, np.floating)) else
                              int(v) if isinstance(v, (int, np.integer)) else v)
                             for v in row] for row in rows]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


ints = st.integers(-2**63, 2**63 - 1)
floats = st.floats() | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1 + 0.2])
cells = st.one_of(ints, ints.map(np.int64), floats, floats.map(np.float64),
                  st.text(), st.just(""))


@st.composite
def tables(draw):
    """Columns of one length: float arrays, int arrays, or lists of mixed cells."""
    n_rows = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n_rows, max_size=n_rows))

    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("float", "int", "mixed")))
        if kind == "float":
            columns.append(np.array(column(floats), float))
        elif kind == "int":
            columns.append(np.array(column(ints), np.int64))
        else:
            columns.append(column(cells))
    return columns


@settings(max_examples=100, deadline=None)
@given(columns=tables(), fmt=st.sampled_from(("csv", "json")))
def test_write_table_matches_row_writer(tmp_path_factory, columns, fmt):
    tmp = tmp_path_factory.mktemp("table")
    header = [f"c{i}" for i in range(len(columns))]
    got = harness._write_table(tmp / "got", header, columns, fmt)
    want = tmp / f"want.{fmt}"
    reference_table(want, header, list(zip(*columns)), fmt)
    assert got.read_bytes() == want.read_bytes()


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
        assert np.all(bounds <= rates + 1e-9)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds)
def test_eigenbeam_rate_matches_digital_precoder_rate(cfg, seed):
    channel = dp.sample_channel(cfg, dp.make_rng(seed))
    psi = channel.paths.psi_tx
    for analog in (dp.analog_stack(cfg, dp.design_joint(cfg, psi).design),
                   *stacks(cfg, channel, seed).values()):
        w = dp.digital_precoder(channel.h, analog, cfg.n_streams)
        want = dp.achievable_rate(channel.h, analog, w, cfg.rho, cfg.n_streams)
        power = np.sum(np.abs(analog) ** 2, axis=(1, 2))
        got = dp.eigenbeam_rate(channel.h @ analog, power, cfg.rho)
        assert_rel(got, want)
        assert isinstance(dp.eigenbeam_rate(channel.h[0] @ analog[0], power[0], cfg.rho), float)


@st.composite
def grating_directions(draw, cfg):
    """Directions with coincident pairs and a pair r_k (psi_a - psi_b) near 2 at some k.

    Such a pair sits on a grating lobe of subcarrier k: x = +-pi, where
    sin(x) is a rounding error but x is not 0. It exists only where r_k >= 1.
    """
    ratios = dp.freq_ratios(cfg)
    r = ratios[draw(st.integers(cfg.center_subcarrier, cfg.n_subcarriers)) - 1]
    psi_a = min((2 / r - 1) + draw(st.floats(0, 1)) * (2 - 2 / r), 1.0)
    offset = draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]))
    psi_b = float(np.clip(psi_a - 2 / r + offset, -1, 1))
    others = draw(st.lists(st.floats(-1, 1), max_size=3))
    return [psi_a, psi_b, psi_a, 1.0, -1.0, *others]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), cfg=systems())
def test_steering_gram_matches_stack_gram(data, cfg):
    psi = data.draw(grating_directions(cfg))
    ratios = dp.freq_ratios(cfg)
    s = steering_stack(cfg.n_tx, ratios, psi)
    want = s.conj().swapaxes(1, 2) @ s
    got = steering_gram(cfg.n_tx, ratios, psi)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


# the three-operand einsum the channel was formed by before the factored form
def reference_channel(cfg, paths):
    L = paths.n_paths
    freqs = dp.subcarrier_frequencies(cfg)
    ratios = dp.freq_ratios(cfg)
    it = np.arange(cfg.n_tx)
    ir = np.arange(cfg.n_rx)
    v = np.exp(-1j * np.pi * ratios[:, None, None] * paths.psi_tx[None, :, None]
               * it[None, None, :])
    v /= np.sqrt(cfg.n_tx)
    u = np.exp(-1j * np.pi * ratios[:, None, None] * paths.psi_rx[None, :, None]
               * ir[None, None, :])
    u /= np.sqrt(cfg.n_rx)
    coef = paths.gains[None, :] * np.exp(-2j * np.pi * paths.delays[None, :] * freqs[:, None])
    coef = coef * np.sqrt(cfg.n_rx * cfg.n_tx / L)
    return np.einsum("kl,klr,klt->krt", coef, u, v.conj())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds)
def test_channel_matrices_match_einsum_reference(cfg, seed):
    channel = dp.sample_channel(cfg, dp.make_rng(seed))
    want = reference_channel(cfg, channel.paths)
    assert np.max(np.abs(channel.h - want)) <= 1e-14 * np.max(np.abs(want))
    assert_same_bits(_channel_factors(cfg, channel.paths)[1], channel.h)
    # the receive factor: H_k = A_k V_k^H with V_k the steering table toward psi_tx
    assert channel.a.shape == (cfg.n_subcarriers, cfg.n_rx, cfg.n_rf)
    v = dp.ideal_stack(cfg, channel.paths.psi_tx)
    assert np.max(np.abs(channel.a @ v.conj().swapaxes(1, 2) - want)) \
        <= 1e-13 * np.max(np.abs(want))


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
