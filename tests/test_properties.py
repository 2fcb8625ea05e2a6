"""Hypothesis properties over the valid configuration space.

Delays of both designs stay within the per-device budget, including at the
clamp threshold where the joint design switches branches; every array gain
lies in [0, 1]; when no delay clips, the joint and benchmark designs give
the same gain on every subcarrier; and when delays clip, the joint design's
gain at the center subcarrier is at least the benchmark's. The broadcast
design kernels equal, bit for bit, the per-element and per-chain loops they
replaced, which are kept here as the reference, and so does dirichlet_gain
on model's Dirichlet kernel against its earlier guarded formula, wherever that
formula did not round to 1. The comparisons with a tolerance draw a fixed
sequence of examples (derandomize), so their verdict does not change from run
to run.

Both public boundaries keep one input rule: every numeric argument of the
functions in delayphase.__all__ rejects NaN, +-inf and True with a ValueError
naming it, and a scenario drawn from each field's domain is either rejected
when built, naming a field, or runs to the end.
"""

import contextlib
import dataclasses
import json
import math
import re
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import make_config, systems
from delayphase import metrics, precoders
from delayphase.cli import main

directions = st.floats(-1, 1)


def with_t_max(cfg, t_max):
    return make_config(**dict(cfg.to_dict(), t_max=t_max))


def first_columns(cfg, psi):
    """First-chain analog column per subcarrier of each design toward psi."""
    towards = [psi] * cfg.n_rf
    return {"proposed": dp.analog_stack(cfg, dp.design_joint(cfg, towards).design)[:, :, 0],
            "benchmark": dp.analog_stack(cfg, dp.design_benchmark(cfg, towards))[:, :, 0],
            "ideal": dp.ideal_stack(cfg, [psi])[:, :, 0]}


@settings(max_examples=100, deadline=None)
@given(cfg=systems(), psi=directions, element=st.integers(1, 8), at_threshold=st.booleans())
def test_delays_lie_in_budget(cfg, psi, element, at_threshold):
    m = min(element, cfg.ttds_per_rf)
    denom = (2 * m - 1) * cfg.ps_per_ttd - 1
    if at_threshold and denom > 0:
        # put |psi| exactly on element m's clamp threshold 4 f_c t_max / denom
        cfg = with_t_max(cfg, abs(psi) * denom / (4.0 * cfg.f_c))
        psi = math.copysign(4.0 * cfg.f_c * cfg.t_max / denom, psi)
        assume(abs(psi) <= 1)
    for p in (psi, -psi):
        towards = [p] * cfg.n_rf
        for design in (dp.design_joint(cfg, towards).design, dp.design_benchmark(cfg, towards)):
            assert np.all(design.delays >= 0) and np.all(design.delays <= cfg.t_max)
            design.validate(cfg)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=systems(), psi=directions)
def test_gains_lie_in_unit_interval(cfg, psi):
    for columns in first_columns(cfg, psi).values():
        gains = dp.gain_profile(cfg, columns, psi)
        # a matched column's gain is 1 up to the rounding of its inner product
        assert np.all(gains >= 0) and np.all(gains <= 1 + 1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=systems(), psi=directions, slack=st.floats(1, 3))
def test_joint_equals_benchmark_when_nothing_clips(cfg, psi, slack):
    # the benchmark's largest delay M N |psi| / (2 f_c) fits the budget, and so
    # does every joint delay; the designs then differ by a phase common to the
    # whole array
    cfg = with_t_max(cfg, cfg.ttds_per_rf * cfg.ps_per_ttd * abs(psi) / (2.0 * cfg.f_c) * slack)
    columns = first_columns(cfg, psi)
    joint = dp.gain_profile(cfg, columns["proposed"], psi)
    bench = dp.gain_profile(cfg, columns["benchmark"], psi)
    assert np.max(np.abs(joint - bench)) <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=systems(), psi=directions, tightness=st.floats(0, 1, exclude_max=True))
def test_joint_at_least_benchmark_at_center_when_delays_clip(cfg, psi, tightness):
    # the budget falls short of the benchmark's largest delay M N |psi| / (2 f_c),
    # so its delays clip. Only the center subcarrier is compared: the joint
    # design can lose to the benchmark on single subcarriers, and on the mean.
    assume(psi != 0)
    cfg = with_t_max(cfg, cfg.ttds_per_rf * cfg.ps_per_ttd * abs(psi) / (2.0 * cfg.f_c)
                     * tightness)
    columns = first_columns(cfg, psi)
    joint, bench = (dp.gain_profile(cfg, columns[name], psi) for name in ("proposed", "benchmark"))
    k = cfg.center_subcarrier - 1
    assert joint[k] >= bench[k] - 1e-12


def reference_joint_branch(n_ps, element, psi_abs, f_c, t_max):
    """Optimal (phases, delay, clamped) for one element at non-negative direction."""
    n = np.arange(1, n_ps + 1)
    denom = (2 * element - 1) * n_ps - 1
    if denom == 0:  # single phase shifter on the first element: nothing to align
        return np.zeros(n_ps), 0.0, False
    threshold = 4.0 * f_c * t_max / denom
    if psi_abs <= threshold:
        phases = (n_ps - 2 * n + 1) / 2.0 * psi_abs
        delay = min(denom / (4.0 * f_c) * psi_abs, t_max)
        return phases, delay, False
    theta_max = 2.0 * f_c * t_max
    gamma = ((element - 1) * n_ps + n - 1) * psi_abs
    return theta_max - gamma, t_max, True


def reference_joint(cfg, psi):
    """design_joint as a loop over chains and elements: (phases, delays, clamped)."""
    m_ttd, n_ps = cfg.ttds_per_rf, cfg.ps_per_ttd
    phases = np.zeros((cfg.n_rf, m_ttd, n_ps))
    delays = np.zeros((cfg.n_rf, m_ttd))
    clamped = np.zeros((cfg.n_rf, m_ttd), dtype=bool)
    for l, p in enumerate(psi):
        for m in range(1, m_ttd + 1):
            x, t, hit = reference_joint_branch(n_ps, m, abs(p), cfg.f_c, cfg.t_max)
            if p < 0:
                x = -x
                t = cfg.t_max - t
            phases[l, m - 1] = x
            delays[l, m - 1] = t
            clamped[l, m - 1] = hit
    return phases, delays, clamped


def reference_benchmark(cfg, psi):
    """design_benchmark as a loop over chains: (phases, delays)."""
    m_ttd, n_ps = cfg.ttds_per_rf, cfg.ps_per_ttd
    n = np.arange(1, n_ps + 1)
    m = np.arange(1, m_ttd + 1)
    phases = np.zeros((cfg.n_rf, m_ttd, n_ps))
    delays = np.zeros((cfg.n_rf, m_ttd))
    for l, p in enumerate(psi):
        s = abs(p)
        x = -(n - 1) * s
        t = np.clip(m * n_ps * s / (2.0 * cfg.f_c), 0.0, cfg.t_max)
        if p < 0:
            x = -x
            t = cfg.t_max - t
        phases[l] = np.tile(x, (m_ttd, 1))
        delays[l] = t
    return phases, delays


def assert_designs_match_reference(cfg, psi):
    joint = dp.design_joint(cfg, psi)
    bench = dp.design_benchmark(cfg, psi)
    got = (joint.design.phases, joint.design.delays, joint.clamped, bench.phases, bench.delays)
    want = (*reference_joint(cfg, psi), *reference_benchmark(cfg, psi))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()  # bit for bit, signed zeros included


def thresholds(cfg):
    """Each element's clamp threshold 4 f_c t_max / ((2m-1)N - 1) that lies in [0, 1]."""
    denoms = [(2 * m - 1) * cfg.ps_per_ttd - 1 for m in range(1, cfg.ttds_per_rf + 1)]
    return [t for t in (4.0 * cfg.f_c * cfg.t_max / d for d in denoms if d > 0) if t <= 1]


@st.composite
def design_inputs(draw):
    """A system and one direction per chain, dense in the points where the kernels branch.

    Directions are drawn from [-1, 1] and from +-0, +-1 and +-|psi| exactly on
    an element's clamp threshold; t_max is as drawn, 0, or moved so that a
    drawn |psi| sits exactly on one element's threshold.
    """
    cfg = draw(systems())
    budget = draw(st.sampled_from(["drawn", "zero", "threshold"]))
    if budget == "zero":
        cfg = with_t_max(cfg, 0.0)
    elif budget == "threshold":
        m = draw(st.integers(1, cfg.ttds_per_rf))
        denom = (2 * m - 1) * cfg.ps_per_ttd - 1
        if denom > 0:  # put a drawn |psi| on element m's threshold
            cfg = with_t_max(cfg, draw(st.floats(0, 1)) * denom / (4.0 * cfg.f_c))
    special = [0.0, -0.0, 1.0, -1.0, *thresholds(cfg), *(-t for t in thresholds(cfg))]
    psi = draw(st.lists(st.one_of(directions, st.sampled_from(special)),
                        min_size=cfg.n_rf, max_size=cfg.n_rf))
    return cfg, psi


@settings(max_examples=300, deadline=None)
@given(inputs=design_inputs())
def test_designs_match_per_element_reference(inputs):
    assert_designs_match_reference(*inputs)


@pytest.mark.parametrize("t_max", [0.0, 320e-12, 340e-12, 1e-9])
@pytest.mark.parametrize("m_ttd, n_ps", [(16, 16), (1, 1), (4, 1), (1, 4), (8, 3)])
def test_designs_match_reference_at_branch_points(m_ttd, n_ps, t_max):
    n_rf = min(4, m_ttd * n_ps)
    cfg = make_config(n_tx=m_ttd * n_ps, ttds_per_rf=m_ttd, ps_per_ttd=n_ps,
                      n_rf=n_rf, n_rx=n_rf, n_streams=n_rf, t_max=t_max)
    points = [0.0, -0.0, 1.0, -1.0, *thresholds(cfg), *(-t for t in thresholds(cfg))]
    points += [0.5] * (-len(points) % n_rf)
    for i in range(0, len(points), n_rf):
        assert_designs_match_reference(cfg, points[i:i + n_rf])


def reference_dirichlet_gain(n, delta):
    """dirichlet_gain before it shared model's kernel: 1 wherever |sin delta| < 1e-9."""
    delta = np.asarray(delta, float)
    s = np.sin(delta)
    tiny = np.abs(s) < 1e-9
    safe = np.where(tiny, 1.0, s)
    out = np.where(tiny, 1.0, np.abs(np.sin(n * delta) / (n * safe)))
    return float(out) if out.ndim == 0 else out


half_period = st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 1024), deltas=st.lists(
    st.one_of(half_period, st.floats(-1e-8, 1e-8), st.sampled_from([0.0, -0.0, 1e-9, -1e-9])),
    min_size=1, max_size=16))
def test_dirichlet_gain_matches_guarded_reference(n, deltas):
    deltas = np.array(deltas)
    got = dp.dirichlet_gain(n, deltas)
    scalar = dp.dirichlet_gain(n, deltas[0])
    assert isinstance(scalar, float) and scalar == got[0]
    kept = np.abs(np.sin(deltas)) >= 1e-9
    assert got[kept].tobytes() == reference_dirichlet_gain(n, deltas)[kept].tobytes()
    # where the old guard rounded to 1, the kernel keeps the second-order term
    small = deltas[~kept]
    assert np.all(np.abs(got[~kept] - (1 - (n * n - 1) * small * small / 6)) <= 2.3e-16)


def test_dirichlet_gain_below_the_old_guard():
    # |sin delta| = 5e-10 < 1e-9: the old formula returned 1.0
    n, delta = 1024, 5e-10
    got = dp.dirichlet_gain(n, delta)
    assert got < 1.0
    assert got == pytest.approx(1 - (n * n - 1) * delta**2 / 6, rel=0, abs=2.3e-16)


# One input rule at the public boundary. SURFACE holds one valid call per
# function of delayphase.__all__ that takes numeric input, and of the legacy
# shim the benchmark calls through its modules (SHIM), on a small config,
# and for each numeric argument the word a ValueError for it must name: the
# argument's own name, or for an array the quantity its check names. The
# property replaces one argument at a time by NaN, +inf and -inf (an array gets
# them in its first entry) and a scalar also by True.
SMALL = make_config(n_subcarriers=5, n_tx=16, ttds_per_rf=4, ps_per_ttd=4,
                    n_rx=2, n_rf=2, n_streams=2)
_H = dp.sample_channel(SMALL, dp.make_rng(1)).h[0]
_F = precoders.ideal_precoder(SMALL, [0.1, -0.4], 2)
_W = np.eye(2, dtype=complex)
_JOINT = dp.design_joint(SMALL, [0.1, -0.4]).design
_PATHS = dp.sample_paths(SMALL, dp.make_rng(2))


def _analog_stack(cfg, phases, delays):
    return dp.analog_stack(cfg, dp.AnalogDesign(phases, delays))


def _materialize(cfg, phases, delays):
    return precoders.materialize(cfg, dp.AnalogDesign(phases, delays))


SCALAR, ARRAY = "scalar", "array"
SURFACE = {
    "SystemConfig": (dp.SystemConfig, SMALL.to_dict(),
                     {name: (SCALAR, name) for name in SMALL.to_dict()}),
    "Scenario": (dp.Scenario, dict(config=SMALL, experiment="gain_cdf", trials=1, psi_eval=0.5,
                                   g0=0.9),
                 {"trials": (SCALAR, "trials"), "psi_eval": (SCALAR, "psi_eval"),
                  "g0": (SCALAR, "g0")}),
    "run": (lambda seed, threads: dp.run(dp.Scenario(SMALL, "sizing"), seed=seed,
                                         threads=threads),
            dict(seed=3, threads=1), {"seed": (SCALAR, "seed"), "threads": (SCALAR, "threads")}),
    "make_rng": (dp.make_rng, dict(seed=1, stream=2),
                 {"seed": (SCALAR, "seed"), "stream": (SCALAR, "stream")}),
    "array_gain": (metrics.array_gain, dict(f=_F[:, 0], cfg=SMALL, k=2, psi=0.5),
                   {"f": (ARRAY, "column"), "k": (SCALAR, "k"), "psi": (SCALAR, "psi")}),
    "dirichlet_gain": (dp.dirichlet_gain, dict(n=4, delta=np.array([0.0, 0.1])),
                       {"n": (SCALAR, "n"), "delta": (ARRAY, "delta")}),
    "gain_profile": (dp.gain_profile,
                     dict(cfg=SMALL, columns=dp.ideal_stack(SMALL, [0.5])[:, :, 0], psi=0.5),
                     {"columns": (ARRAY, "column"), "psi": (SCALAR, "psi")}),
    "ideal_precoder": (precoders.ideal_precoder, dict(cfg=SMALL, psi=np.array([0.5]), k=2),
                       {"psi": (ARRAY, "psi"), "k": (SCALAR, "k")}),
    "ideal_stack": (dp.ideal_stack, dict(cfg=SMALL, psi=np.array([0.5])), {"psi": (ARRAY, "psi")}),
    "design_joint": (dp.design_joint, dict(cfg=SMALL, psi=np.array([0.1, -0.4])),
                     {"psi": (ARRAY, "psi")}),
    "design_benchmark": (dp.design_benchmark, dict(cfg=SMALL, psi=np.array([0.1, -0.4])),
                         {"psi": (ARRAY, "psi")}),
    # AnalogDesign's finite and budget checks need the config, so they run in these two
    "analog_stack": (_analog_stack, dict(cfg=SMALL, phases=_JOINT.phases, delays=_JOINT.delays),
                     {"phases": (ARRAY, "phases"), "delays": (ARRAY, "delays")}),
    "materialize": (_materialize, dict(cfg=SMALL, phases=_JOINT.phases, delays=_JOINT.delays),
                    {"phases": (ARRAY, "phases"), "delays": (ARRAY, "delays")}),
    "PathSet": (dp.PathSet, dict(gains=_PATHS.gains, delays=_PATHS.delays, aod=_PATHS.aod,
                                 aoa=_PATHS.aoa),
                {"gains": (ARRAY, "gains"), "delays": (ARRAY, "delays"),
                 "aod": (ARRAY, "angles"), "aoa": (ARRAY, "angles")}),
    "digital_precoder": (dp.digital_precoder, dict(h_k=_H, f_k=_F, n_streams=2),
                         {"h_k": (ARRAY, "channel"), "f_k": (ARRAY, "precoders"),
                          "n_streams": (SCALAR, "n_streams")}),
    "achievable_rate": (dp.achievable_rate, dict(h_k=_H, f_k=_F, w_k=_W, rho=2.0, n_streams=2),
                        {"h_k": (ARRAY, "channel"), "f_k": (ARRAY, "precoders"),
                         "w_k": (ARRAY, "precoders"), "rho": (SCALAR, "rho"),
                         "n_streams": (SCALAR, "n_streams")}),
    "rate_lower_bound": (dp.rate_lower_bound, dict(h_k=_H, f_k=_F, w_k=_W, rho=2.0, n_streams=2),
                         {"h_k": (ARRAY, "channel"), "f_k": (ARRAY, "precoders"),
                          "w_k": (ARRAY, "precoders"), "rho": (SCALAR, "rho"),
                          "n_streams": (SCALAR, "n_streams")}),
    "eigenbeam_rate": (dp.eigenbeam_rate, dict(hf=_H @ _F, f_power=2, rho=2.0),
                       {"hf": (ARRAY, "channel"), "f_power": (SCALAR, "f_power"),
                        "rho": (SCALAR, "rho")}),
    "empirical_cdf": (dp.empirical_cdf, dict(values=np.array([1.0, 2.0])),
                      {"values": (ARRAY, "values")}),
    "nt_upper_bound": (dp.nt_upper_bound, dict(cfg=SMALL, psi_max=0.8),
                       {"psi_max": (SCALAR, "psi_max")}),
    "tmax_lower_bound": (dp.tmax_lower_bound, dict(cfg=SMALL, psi_max=0.8),
                         {"psi_max": (SCALAR, "psi_max")}),
    "size_ttds": (dp.size_ttds, dict(cfg=SMALL, g0=0.9, psi_max=0.8),
                  {"g0": (SCALAR, "g0"), "psi_max": (SCALAR, "psi_max")}),
    "min_ttds": (dp.min_ttds, dict(cfg=SMALL, g0=0.9, psi_max=0.8),
                 {"g0": (SCALAR, "g0"), "psi_max": (SCALAR, "psi_max")}),
    "divisors": (dp.divisors, dict(n=12), {"n": (SCALAR, "n")}),
    "divisor_ceiling": (dp.divisor_ceiling, dict(x=3.5, n=12),
                        {"x": (SCALAR, "x"), "n": (SCALAR, "n")}),
}
# the legacy shim's functions, off __all__ but still called by the benchmark
SHIM = ["array_gain", "ideal_precoder", "materialize"]
# names of __all__ without a numeric argument of their own, and why
NOT_NUMERIC = {
    "AnalogDesign": "checked against a config in analog_stack and materialize (above)",
    "ChannelRealization": "a result container; its h is checked where it is used "
                          "(digital_precoder and the rates)",
    "DesignReport": "a result container built by design_joint",
    "SizingResult": "a result container built by size_ttds",
    "sample_channel": "takes a checked SystemConfig and a numpy Generator",
    "sample_paths": "takes a checked SystemConfig and a numpy Generator",
    "freq_ratios": "takes a checked SystemConfig",
    "subcarrier_frequencies": "takes a checked SystemConfig",
}
# valid inputs whose result is not finite, and why that result has a meaning
NON_FINITE_RESULTS = {
    "nt_upper_bound": (dict(psi_max=0.0), "psi_max = 0 places no limit on the antenna count"),
}

BAD_CASES = [(name, arg, bad) for name, (_, _, args) in SURFACE.items()
             for arg, (kind, _) in args.items()
             for bad in ("nan", "inf", "-inf") + (("True",) if kind == SCALAR else ())]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a call that runs past seconds rather than hang (divisors(inf) once looped)."""
    def expire(signum, frame):
        raise TimeoutError(f"call ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def with_bad_value(kind, value, bad):
    if kind == SCALAR:
        return True if bad == "True" else float(bad)
    value = np.array(value)  # a copy, so the table keeps its valid inputs
    value.flat[0] = float(bad)
    return value


def test_surface_table_covers_public_api():
    assert sorted(SURFACE.keys() | NOT_NUMERIC.keys()) == sorted(dp.__all__ + SHIM)
    assert not SURFACE.keys() & NOT_NUMERIC.keys()


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_surface_table_calls_are_valid(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # run writes to the scenario's relative out_dir
    fn, kwargs, _ = SURFACE[name]
    fn(**kwargs)
    if name in NON_FINITE_RESULTS:
        changes, _reason = NON_FINITE_RESULTS[name]
        assert fn(**dict(kwargs, **changes)) == math.inf


@pytest.mark.parametrize("name, arg, bad", BAD_CASES)
def test_public_function_rejects_non_finite_or_bool(name, arg, bad, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fn, kwargs, args = SURFACE[name]
    kind, word = args[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with time_limit(5), pytest.raises(ValueError, match=rf"\b{word}\b") as err:
            fn(**dict(kwargs, **{arg: with_bad_value(kind, kwargs[arg], bad)}))
    assert not isinstance(err.value, np.linalg.LinAlgError)
    assert not any(tmp_path.iterdir())  # a rejected run writes nothing


# Scenario fields drawn from their domains, extremes and wrong types included,
# on small arrays and few trials. A scenario is either rejected when it is
# built, with a ValueError naming a field, and then the CLI writes nothing, or
# it runs to the end.
SCENARIO_FIELDS = [f.name for f in dataclasses.fields(dp.SystemConfig)] + [
    "experiment", "sweep", "trials", "psi_eval", "g0"]
_WRONG = st.sampled_from([math.nan, math.inf, -math.inf, True, "1", None])


def _reals(low, high):
    """The field's range, its ends, values beyond them, and values of the wrong kind."""
    return st.one_of(st.floats(low, high), st.sampled_from([low, high, -1.0, 0.0, 1e290, 1e300,
                                                            1.7e308, 5e-324]), _WRONG)


def _counts(high):
    return st.one_of(st.integers(1, high), st.sampled_from([0, -1, 2.5, 2.0]), _WRONG)


CONFIG_DOMAINS = {
    "f_c": _reals(1e9, 1e12), "bandwidth": _reals(0.0, 1e11), "t_max": _reals(0.0, 1e-9),
    "rho": _reals(0.0, 100.0), "path_delay_max": _reals(0.0, 1e-7),
    "n_subcarriers": _counts(9), "n_tx": _counts(16), "ttds_per_rf": _counts(4),
    "ps_per_ttd": _counts(4), "n_rx": _counts(2), "n_rf": _counts(2), "n_streams": _counts(2),
    "seed": st.one_of(st.integers(0, 2**64), st.sampled_from([-1, 2.5]), _WRONG),
}


@st.composite
def _sweeps(draw):
    param = draw(st.sampled_from(sorted(CONFIG_DOMAINS) + ["carrier"]))
    values = draw(st.lists(CONFIG_DOMAINS.get(param, st.just(1.0)), max_size=2))
    return [[param, values]]


DOMAINS = {**CONFIG_DOMAINS, "experiment": st.sampled_from(dp.harness.EXPERIMENTS + ("x",)),
           "trials": _counts(2), "psi_eval": _reals(-1.0, 1.0), "g0": _reals(0.0, 1.0),
           "sweep": _sweeps()}


@st.composite
def scenario_dicts(draw):
    """A valid small scenario, then up to three fields drawn from their whole domain."""
    m_ttd, n_ps, n_rf = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    config = dict(f_c=3e11, bandwidth=3e10, n_subcarriers=2 * draw(st.integers(0, 4)) + 1,
                  n_tx=m_ttd * n_ps, ttds_per_rf=m_ttd, ps_per_ttd=n_ps, n_rx=n_rf, n_rf=n_rf,
                  n_streams=n_rf, t_max=draw(st.floats(0.0, 1e-9)), rho=2.0, seed=1)
    blob = dict(config=config, experiment=draw(st.sampled_from(dp.harness.EXPERIMENTS)),
                trials=draw(st.integers(1, 2)), psi_eval=draw(st.floats(0.05, 1.0)),
                g0=draw(st.floats(0.5, 0.99)))
    for name in draw(st.lists(st.sampled_from(sorted(DOMAINS)), max_size=3, unique=True)):
        (config if name in CONFIG_DOMAINS else blob)[name] = draw(DOMAINS[name])
    return blob


@pytest.mark.filterwarnings("ignore:n_rf is not small relative to n_tx")
@settings(max_examples=100, deadline=None)
@given(blob=scenario_dicts())
# a rho near the largest float used to pass, and the run then overflowed in its first trial
@example(blob=dict(config=dict(f_c=3e11, bandwidth=3e10, n_subcarriers=1, n_tx=1, ttds_per_rf=1,
                               ps_per_ttd=1, n_rx=1, n_rf=1, n_streams=1, t_max=0.0,
                               rho=1.7e308, seed=1),
                   experiment="rate_cdf", trials=1, psi_eval=1.0, g0=0.5))
# a repeated sweep value used to run, its second point's tables over the first's
@example(blob=dict(config=SMALL.to_dict(), experiment="gain_cdf",
                   sweep=[["t_max", [3e-10, 3e-10]]]))
# a seed sweep used to run, its tables named by seed but drawn by point index
@example(blob=dict(config=SMALL.to_dict(), experiment="rate_cdf", trials=1,
                   sweep=[["seed", [1, 2]]]))
def test_scenario_is_rejected_when_built_or_runs(blob):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            scenario = dp.Scenario.from_dict(blob)
        except ValueError as exc:
            assert re.search(r"\b(%s)\b" % "|".join(SCENARIO_FIELDS), str(exc)), exc
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(blob))
            assert main(["run", str(path), "--out-dir", str(out)]) == 1
            assert not out.exists()
            return
        result = dp.run(scenario, out_dir=out)
        assert result.files and all(p.exists() for p in result.files)
        # each table has a file of its own, and the manifest lists exactly those
        names = [p.name for p in result.files]
        assert len(set(names)) == len(names)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == sorted(names)
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
        # a table named seed=s must be drawn from seed s, which a sweep point is not
        assert all(param != "seed" for param, _ in manifest["sweep"])
