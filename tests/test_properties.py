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
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import make_config, systems

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
        gains = dp.gain_profile(cfg, columns, psi).gains
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
    joint = dp.gain_profile(cfg, columns["proposed"], psi).gains
    bench = dp.gain_profile(cfg, columns["benchmark"], psi).gains
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
    joint, bench = dp.gain_profile(cfg, (columns["proposed"], columns["benchmark"]), psi)
    k = cfg.center_subcarrier - 1
    assert joint.gains[k] >= bench.gains[k] - 1e-12


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
