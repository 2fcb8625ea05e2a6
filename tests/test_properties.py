"""Hypothesis properties over the valid configuration space.

Delays of both designs stay within the per-device budget, including at the
clamp threshold where the joint design switches branches; every array gain
lies in [0, 1]; when no delay clips, the joint and benchmark designs give
the same gain on every subcarrier; and when delays clip, the joint design's
gain at the center subcarrier is at least the benchmark's. The comparisons
with a tolerance draw a fixed sequence of examples (derandomize), so their
verdict does not change from run to run.
"""

import math

import numpy as np
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
