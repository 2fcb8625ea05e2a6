"""Property tests: every batched kernel against the per-subcarrier reference it replaces.

The analog stack must equal the dense product F1 F2_k of its two factors,
built in the test, and the ideal stack its per-subcarrier builder, and
gain_profile a loop of array_gain over the subcarriers, bit for bit; so must
the gain tables' one-chain columns equal the full stack's first column, the
gain tables built on one steering stack per run of sweep points on one array
grid the tables built on two stacks per point, the sizing trace's one
Dirichlet-kernel broadcast over (divisor, subcarrier) the loop over divisors
it replaced, and the column-wise table writer the row-wise csv.writer and json
output it replaced. The batched
rate path must agree to 1e-12 relative with a loop over k of the eigenvalue
formulas it replaced, which run on the cyclic-Jacobi solver, with the bound
never above the rate, and so must eigenbeam_rate with the rate of
digital_precoder's W. The closed-form steering
Gram matrix must match S^H S of the steering stack to 1e-13, and the factored
channel the three-operand einsum it replaced to 1e-14 of max |H|. The channel
and analog stacks built over blocks of subcarriers must concatenate to the
whole-band ones, and the rate trial that runs in such blocks must equal the
whole-band trial it replaced, bit for bit.
The numerical comparisons draw a fixed sequence of examples (derandomize), so
the suite's verdict does not change from run to run.
"""

import contextlib
import csv
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import dense_factors, make_config, systems
from delayphase import design, harness, metrics, model, precoders
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
    assert_same_bits(precoders.materialize(cfg, design).analog, stack)
    f1, f2 = dense_factors(cfg, design)
    for k in subcarriers(cfg):
        # the dense sum of products F1 @ F2_k over F1's columns, zeros
        # included, that the library evaluated before the stack became one
        # broadcast kernel
        assert_same_bits(stack[k - 1], np.einsum("ij,jl->il", f1, f2[k - 1]))


@settings(max_examples=60, deadline=None)
@given(cfg=systems(), psi=st.lists(st.floats(-1, 1), min_size=1, max_size=4))
def test_ideal_stack_matches_ideal_precoder(cfg, psi):
    stack = dp.ideal_stack(cfg, psi)
    i = np.arange(cfg.n_tx)
    for k in subcarriers(cfg):
        assert_same_bits(stack[k - 1], precoders.ideal_precoder(cfg, psi, k))
        # the per-column steering formula the stack replaced
        ratio = dp.freq_ratios(cfg)[k - 1]
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
        want = np.array([metrics.array_gain(columns[k - 1], cfg, k, psi)
                         for k in subcarriers(cfg)])
        assert_same_bits(dp.gain_profile(cfg, columns, psi), want)
        # the columns' layout does not reach the bits: a contiguous copy and a strided view agree
        strided = np.stack((columns, columns), axis=-1)[:, :, 0]
        for layout in (np.ascontiguousarray(columns), strided):
            assert_same_bits(dp.gain_profile(cfg, layout, psi), want)
        # np.vdot, which the kernel replaced: each of the two n_tx-term sums of Re and Im
        # has weights of total at most ||v|| ||f|| = 1, so it is off by at most n_tx eps
        steering = dp.ideal_stack(cfg, [psi])[:, :, 0]
        vdot = [abs(np.vdot(v, f)) for v, f in zip(steering, columns)]
        np.testing.assert_allclose(want, vdot, rtol=0, atol=2 * cfg.n_tx * np.finfo(float).eps)


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
        assert_same_bits(dp.gain_profile(cfg, got, psi), dp.gain_profile(cfg, want, psi))


# the gain tables as built before the stack was shared: two steering stacks per point,
# one as the ideal column and one inside gain_profile
def reference_gain_tables(points, psi):
    for param, value, cfg in points:
        ideal = dp.ideal_stack(cfg, [psi])[:, :, 0]
        profiles = [dp.gain_profile(cfg, columns, psi)
                    for columns in (*harness._design_columns(cfg, psi), ideal)]
        k = np.arange(1, cfg.n_subcarriers + 1)
        freqs = dp.subcarrier_frequencies(cfg)
        for name, gains in zip(harness.DESIGN_NAMES, profiles):
            yield (harness._stem("gain_profile", name, param, value), ("k", "f_k", "value"),
                   (k, freqs, gains))
            yield (harness._stem("gain_cdf", name, param, value), ("x", "G"),
                   dp.empirical_cdf(gains))


@st.composite
def gain_sweeps(draw):
    """Sweep points, each changing t_max, n_tx, bandwidth or n_rf of the point before.

    t_max and n_rf keep the array grid, and n_tx and bandwidth are drawn from
    two values each, so runs of equal grids and changes of grid both occur.
    """
    cfg = draw(systems())
    n_tx_values = [cfg.ttds_per_rf * n for n in (max(cfg.ps_per_ttd, 4), 8)]
    points = []
    for _ in range(draw(st.integers(1, 6))):
        param = draw(st.sampled_from(("t_max", "n_tx", "bandwidth", "n_rf")))
        if param == "t_max":
            value = draw(st.floats(1e-12, 1e-9))
            cfg = cfg.replace(t_max=value)
        elif param == "n_tx":
            value = draw(st.sampled_from(n_tx_values))
            cfg = cfg.replace(n_tx=value, ps_per_ttd=value // cfg.ttds_per_rf)
        elif param == "bandwidth":
            value = draw(st.sampled_from((cfg.bandwidth, 2e10)))
            cfg = cfg.replace(bandwidth=value)
        else:
            value = draw(st.integers(1, min(4, cfg.n_tx)))
            cfg = cfg.replace(n_rf=value, n_rx=value, n_streams=value)
        points.append((param, value, cfg))
    return points


@SMALL_ARRAY
@settings(max_examples=60, deadline=None)
@given(points=gain_sweeps(), psi=st.floats(-1, 1))
def test_gain_tables_on_shared_stack_match_two_stacks_per_point(points, psi):
    # SystemConfig ties n_rf to n_rx and n_streams, so no scenario sweeps n_rf
    # alone; the points go to _gain_tables directly
    scenario = harness.Scenario(config=points[0][2], experiment="gain_cdf", psi_eval=psi)
    with mock.patch.object(harness, "_sweep_points", lambda _: points):
        got = list(harness._gain_tables(scenario, None, 1))
    want = list(reference_gain_tables(points, psi))
    assert [(stem, header) for stem, header, _ in got] == \
        [(stem, header) for stem, header, _ in want]
    for (_, _, got_columns), (_, _, want_columns) in zip(got, want):
        for got_column, want_column in zip(got_columns, want_columns):
            assert_same_bits(got_column, want_column)


def test_headline_gain_scenarios_build_one_steering_stack_per_grid(tmp_path):
    # the t_max sweep keeps one grid and the n_tx sweep has three: 4 stacks of
    # shape (K, n_tx), where two per point made 12
    original = model.steering_stack
    shapes = []

    def counting(*args, **kwargs):
        stack = original(*args, **kwargs)
        shapes.append(stack.shape)
        return stack

    root = Path(__file__).resolve().parents[1]
    with contextlib.ExitStack() as patches:
        for module in (model, precoders, metrics, design, harness):
            if getattr(module, "steering_stack", None) is original:
                patches.enter_context(mock.patch.object(module, "steering_stack", counting))
        for name in ("gain_cdf", "gain_cdf_antennas"):
            dp.run(dp.Scenario.from_file(root / "scenarios" / f"{name}.json"),
                   out_dir=tmp_path / name)
    assert sorted(shapes) == [(129, 128, 1), (129, 256, 1), (129, 256, 1), (129, 512, 1)]


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
    with pytest.raises(ValueError, match="subarray size n must be an integer >= 1"):
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
# text that csv.writer quotes, or writes as it is ("\r" with a "\n" line end)
csv_text = st.text(st.sampled_from(',"\r\n a'), max_size=5)
cells = st.one_of(ints, ints.map(np.int64), floats, floats.map(np.float64),
                  st.text(), st.just(""), csv_text)


@st.composite
def tables(draw):
    """Columns of one length: float, float32, int, bool or complex arrays, or lists of cells."""
    n_rows = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n_rows, max_size=n_rows))

    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("float", "float32", "int", "bool", "complex", "mixed")))
        if kind in ("float", "float32"):
            columns.append(np.array(column(floats), np.float32 if kind == "float32" else float))
        elif kind == "int":
            columns.append(np.array(column(ints), np.int64))
        elif kind == "bool":
            columns.append(np.array(column(st.booleans()), bool))
        elif kind == "complex":
            columns.append(np.array(column(st.complex_numbers()), complex))
        else:
            columns.append(column(cells))
    return columns


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")  # float32 of a big float
@settings(max_examples=100, deadline=None)
@given(columns=tables(), fmt=st.sampled_from(("csv", "json")))
@example(columns=[["", "", ""]], fmt="csv")
@example(columns=[["", "", ""]], fmt="json")
@example(columns=[["a,b", 'a"b', "a\rb", "a\nb", "\r"], np.arange(5)], fmt="csv")
def test_write_table_matches_row_writer(tmp_path_factory, columns, fmt):
    # JSON holds no complex number, and it writes a bool as true where the
    # reference writes 1: those columns are drawn for CSV only
    assume(fmt == "csv" or not any(isinstance(c, np.ndarray) and c.dtype.kind in "bc"
                                   for c in columns))
    tmp = tmp_path_factory.mktemp("table")
    header = [f"c{i}" for i in range(len(columns))]
    got = harness._write_table(tmp / "got", header, columns, fmt)
    want = tmp / f"want.{fmt}"
    # the reference gets each array's cells as Python values, as _write_table's rule says
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    reference_table(want, header, rows, fmt)
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
    a = _channel_factors(cfg, channel.paths)[0]
    assert a.shape == (cfg.n_subcarriers, cfg.n_rx, cfg.n_rf)
    v = dp.ideal_stack(cfg, channel.paths.psi_tx)
    assert np.max(np.abs(a @ v.conj().swapaxes(1, 2) - want)) \
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
            f = precoders.ideal_precoder(cfg, psi, k) if name == "ideal" else analog[name][k - 1]
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds, block=st.integers(1, 41))
def test_blocks_concatenate_to_whole_band(cfg, seed, block):
    paths = model.sample_paths(cfg, dp.make_rng(seed))
    design = random_design(cfg, seed)
    analog = precoders._analog_blocks(cfg, design)
    starts = range(0, cfg.n_subcarriers, block)
    blocks = [(*_channel_factors(cfg, paths, slice(s, s + block)), analog(slice(s, s + block)))
              for s in starts]
    whole = (*_channel_factors(cfg, paths), dp.analog_stack(cfg, design))
    for i, want in enumerate(whole):
        assert_same_bits(np.concatenate([b[i] for b in blocks]), want)


# the whole-band trial that the blocked one replaced: a (K, n_rx, n_tx) channel
# and one (K, n_tx, n_rf) analog stack per design
def whole_band_trial(cfg, seed, point_index, trial):
    rng = dp.make_rng(seed, stream=(point_index, trial))
    channel = dp.sample_channel(cfg, rng)
    psi_t = channel.paths.psi_tx

    def rates(hf):
        return metrics.eigenbeam_rate(hf, cfg.n_rf, cfg.rho)

    return {
        "proposed": rates(channel.h @ dp.analog_stack(
            cfg, dp.design_joint(cfg, psi_t).design)),
        "benchmark": rates(channel.h @ dp.analog_stack(
            cfg, dp.design_benchmark(cfg, psi_t))),
        "ideal": rates(_channel_factors(cfg, channel.paths)[0]
                       @ steering_gram(cfg.n_tx, dp.freq_ratios(cfg), psi_t)),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=systems(), seed=seeds, trial=st.integers(0, 1000))
# 41 subcarriers: two whole blocks of 16 and a ragged one
@example(cfg=make_config(n_subcarriers=41, n_tx=64, ttds_per_rf=8, ps_per_ttd=8), seed=3,
         trial=0)
def test_blocked_rate_trial_matches_whole_band_trial(cfg, seed, trial):
    got = harness._rate_trial(cfg, seed, 1, trial)
    want = whole_band_trial(cfg, seed, 1, trial)
    assert list(got) == list(want)
    for name in want:
        assert_same_bits(got[name], want[name])
