import math

import numpy as np
import pytest

import delayphase as dp
import qp_oracle as qp
from conftest import make_config


def composite_gains(cfg, design, psi):
    """Array gain of the first composite column at every subcarrier."""
    return dp.gain_profile(cfg, dp.analog_stack(cfg, design)[:, :, 0], psi)


class TestJointDesign:
    def test_first_element_values(self, cfg):
        rep = dp.design_joint(cfg, [0.8] * 4)
        assert rep.design.delays[0, 0] == pytest.approx(10e-12, rel=1e-12)
        assert rep.design.phases[0, 0, 0] == pytest.approx(6.0, rel=1e-12)
        assert rep.design.phases[0, 0, 15] == pytest.approx(-6.0, rel=1e-12)
        assert not rep.clamped.any()

    def test_last_element_unclamped_at_340ps(self, cfg):
        # threshold 408/495 ~ 0.8242 still admits psi = 0.8
        rep = dp.design_joint(cfg, [0.8] * 4)
        assert rep.design.delays[0, 15] == pytest.approx(330e-12, rel=1e-12)
        assert not rep.clamped[0, 15]

    def test_last_element_clamps_at_320ps(self):
        # threshold 384/495 ~ 0.7758 < 0.8: delay pinned, phases absorb the rest
        cfg = make_config(t_max=320e-12)
        rep = dp.design_joint(cfg, [0.8] * 4)
        assert rep.clamped[0, 15]
        assert rep.design.delays[0, 15] == pytest.approx(320e-12, rel=1e-12)
        assert rep.design.phases[0, 15, 0] == pytest.approx(0.0, abs=1e-10)
        assert rep.design.phases[0, 15, 15] == pytest.approx(-12.0, rel=1e-12)

    def test_zero_direction_is_all_zero(self, cfg):
        rep = dp.design_joint(cfg, [0.0] * 4)
        assert np.all(rep.design.phases == 0.0)
        assert np.all(rep.design.delays == 0.0)

    def test_delays_stay_within_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = make_config(t_max=rng.uniform(10e-12, 500e-12))
            psi = rng.uniform(-1, 1, 4)
            rep = dp.design_joint(cfg, psi)
            assert np.all(rep.design.delays >= 0.0)
            assert np.all(rep.design.delays <= cfg.t_max)
            # pinned at the budget; the mirror for psi < 0 maps t_max to 0
            pinned = np.where(psi[:, None] < 0, 0.0, cfg.t_max)
            pinned = np.broadcast_to(pinned, rep.clamped.shape)
            assert np.all(rep.design.delays[rep.clamped] == pinned[rep.clamped])

    def test_clamp_flag_matches_threshold(self):
        cfg = make_config(t_max=300e-12)
        psi = np.array([0.9, -0.7, 0.3, 0.05])
        rep = dp.design_joint(cfg, psi)
        for l in range(4):
            for m in range(1, 17):
                threshold = 4 * cfg.f_c * cfg.t_max / ((2 * m - 1) * 16 - 1)
                assert rep.clamped[l, m - 1] == (abs(psi[l]) > threshold)

    def test_boundary_direction_unclamped(self):
        # psi exactly at the threshold takes the unclamped branch
        cfg = make_config(t_max=340e-12)
        psi_boundary = 4 * cfg.f_c * cfg.t_max / ((2 * 16 - 1) * 16 - 1)
        rep = dp.design_joint(cfg, [psi_boundary] * 4)
        assert not rep.clamped[0, 15]
        assert rep.design.delays[0, 15] == pytest.approx(cfg.t_max, rel=1e-12)

    def test_matches_kkt_oracle_nonnegative_directions(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_ps = int(rng.integers(2, 17))
            m_ttd = int(rng.integers(1, 9))
            cfg = make_config(n_tx=n_ps * m_ttd, n_rx=1, n_rf=1, n_streams=1,
                              ttds_per_rf=m_ttd, ps_per_ttd=n_ps,
                              n_subcarriers=int(rng.integers(1, 64)) * 2 + 1,
                              bandwidth=rng.uniform(0.01, 0.2) * 300e9,
                              t_max=rng.uniform(10e-12, 1e-9))
            psi = float(rng.uniform(0, 1))
            rep = dp.design_joint(cfg, [psi])
            for m in range(1, m_ttd + 1):
                sol = qp.solve_kkt(qp.branch_qp(cfg, psi, m))
                assert np.max(np.abs(np.asarray(sol.a[:n_ps], float)
                                     - rep.design.phases[0, m - 1])) < 1e-8
                assert float(sol.a[-1]) == pytest.approx(
                    2 * cfg.f_c * rep.design.delays[0, m - 1], abs=1e-8)

    def test_sign_invariance_of_gain(self):
        # the mirrored design at -psi achieves the gain of the original at psi
        cfg = make_config(t_max=300e-12)
        for psi in (0.25, 0.8, 0.97):
            fwd = composite_gains(cfg, dp.design_joint(cfg, [psi] * 4).design, psi)
            mir = composite_gains(cfg, dp.design_joint(cfg, [-psi] * 4).design, -psi)
            assert np.max(np.abs(fwd - mir)) < 1e-10

    def test_zero_budget_all_elements_pinned(self):
        # no delay range at all: every element clamps, phases absorb the full
        # ideal table, delays are identically zero
        cfg = make_config(t_max=0.0)
        rep = dp.design_joint(cfg, [0.8, -0.4, 0.0, 0.2])
        assert np.all(rep.design.delays == 0.0)
        assert rep.clamped[0].all() and not rep.clamped[2].any()
        gains = composite_gains(cfg, rep.design, 0.8)
        assert np.all(gains <= 1.0 + 1e-12)

    def test_single_antenna_degenerate(self):
        cfg = make_config(n_tx=1, n_rx=1, n_rf=1, n_streams=1,
                          ttds_per_rf=1, ps_per_ttd=1)
        rep = dp.design_joint(cfg, [0.9])
        assert rep.design.phases.shape == (1, 1, 1)
        assert np.all(rep.design.delays == 0.0)
        assert composite_gains(cfg, rep.design, 0.9) == pytest.approx(1.0)

    def test_per_antenna_elements_recover_unit_gain(self):
        # one PS per element and per-antenna delays: the joint design collapses
        # to the matched per-subcarrier precoder, gain 1 everywhere
        cfg = make_config(n_tx=16, ttds_per_rf=16, ps_per_ttd=1,
                          n_rx=2, n_rf=2, n_streams=2)
        rep = dp.design_joint(cfg, [0.8, 0.3])
        assert not rep.clamped.any()
        gains = composite_gains(cfg, rep.design, 0.8)
        assert np.allclose(gains, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n_tx", [64, 128, 256, 512, 1024])
    def test_delays_stay_in_budget_at_the_clamp_threshold(self, n_tx):
        # at t_max = tmax_lower_bound the last element sits exactly on the clamp
        # threshold, where the unclamped delay used to round one ulp past t_max
        # (and mirrored directions then got a negative delay)
        for m_ttd in (1, 2, 4, 8, 16, 32):
            base = make_config(n_tx=n_tx, ttds_per_rf=m_ttd, ps_per_ttd=n_tx // m_ttd,
                               n_rx=1, n_rf=1, n_streams=1)
            for psi in (0.2, 0.5, 0.8, 0.95, 1.0):
                cfg = base.replace(t_max=dp.tmax_lower_bound(base, psi))
                for sign in (1.0, -1.0):
                    design = dp.design_joint(cfg, [sign * psi]).design
                    assert np.all(design.delays >= 0.0)
                    assert np.all(design.delays <= cfg.t_max)
                    design.validate(cfg)

    def test_rejects_bad_direction_vector(self, cfg):
        with pytest.raises(ValueError):
            dp.design_joint(cfg, [0.1, 0.2])
        with pytest.raises(ValueError):
            dp.design_joint(cfg, [1.5, 0, 0, 0])
        for design in (dp.design_joint, dp.design_benchmark):
            with pytest.raises(ValueError, match=r"\|psi\| <= 1"):
                design(cfg, [0.1, np.nan, 0, 0])


class TestBenchmarkDesign:
    def test_raw_delay_clipped(self, cfg):
        # raw last-element delay 16*16*0.8/(2 f_c) = 341.33 ps exceeds 340 ps
        design = dp.design_benchmark(cfg, [0.8] * 4)
        assert design.delays[0, 14] == pytest.approx(320e-12, rel=1e-12)
        assert design.delays[0, 15] == pytest.approx(340e-12, rel=1e-12)

    def test_unclipped_matches_joint_gain(self):
        # budget 400 ps admits the full 341.33 ps ramp: same gain at every
        # subcarrier as the joint design (parameterizations differ by a phase)
        cfg = make_config(t_max=400e-12)
        psi = 0.8
        bench = composite_gains(cfg, dp.design_benchmark(cfg, [psi] * 4), psi)
        joint = composite_gains(cfg, dp.design_joint(cfg, [psi] * 4).design, psi)
        assert np.max(np.abs(bench - joint)) < 1e-10

    def test_zero_direction(self, cfg):
        design = dp.design_benchmark(cfg, [0.0] * 4)
        assert np.all(design.phases == 0.0)
        assert np.all(design.delays == 0.0)

    def test_negative_direction_mirrors(self, cfg):
        psi = 0.6
        fwd = composite_gains(cfg, dp.design_benchmark(cfg, [psi] * 4), psi)
        mir = composite_gains(cfg, dp.design_benchmark(cfg, [-psi] * 4), -psi)
        assert np.max(np.abs(fwd - mir)) < 1e-10

    def test_delays_in_budget(self, cfg):
        rng = np.random.default_rng(8)
        for _ in range(10):
            design = dp.design_benchmark(cfg, rng.uniform(-1, 1, 4))
            assert np.all(design.delays >= 0.0)
            assert np.all(design.delays <= cfg.t_max)


class TestCriteria:
    def test_antenna_bound_headline(self, cfg):
        # 16/31 + (64/31)(1/0.8)(f_c t_max) = 263.74 -> 263
        assert dp.nt_upper_bound(cfg, 0.8) == 263

    def test_antenna_bound_zero_budget(self):
        cfg = make_config(t_max=0.0)
        assert dp.nt_upper_bound(cfg, 0.8) == 0

    def test_antenna_bound_affine_in_budget(self, cfg):
        base = dp.nt_upper_bound(cfg, 0.8)
        doubled = dp.nt_upper_bound(make_config(t_max=2 * cfg.t_max), 0.8)
        offset = 16 / 31  # constant term
        assert abs(doubled - (2 * base - offset)) <= 2

    def test_antenna_bound_unbounded_sentinel(self, cfg):
        assert dp.nt_upper_bound(cfg, 0.0) == math.inf
        assert dp.nt_upper_bound(cfg, 5e-324) == math.inf  # the bound overflows
        with pytest.raises(ValueError):
            dp.nt_upper_bound(cfg, -0.1)

    def test_bounds_reject_nan_or_negative_direction(self, cfg):
        # NaN used to give nt_upper_bound = inf and tmax_lower_bound = nan
        for bound in (dp.nt_upper_bound, dp.tmax_lower_bound):
            for psi_max in (math.nan, -0.1):
                with pytest.raises(ValueError,
                                   match=r"psi_max must be a finite number in \[0, 1\]"):
                    bound(cfg, psi_max)

    def test_delay_bound_headline(self, cfg):
        # 0.8 * (31*256 - 16) / (64 f_c) = 330 ps
        assert dp.tmax_lower_bound(cfg, 0.8) == pytest.approx(330e-12, rel=1e-12)

    def test_delay_bound_zero_direction(self, cfg):
        assert dp.tmax_lower_bound(cfg, 0.0) == 0.0

    def test_delay_bound_single_ps_per_element(self):
        # n_tx = ttds_per_rf = 16: 0.8 * (31*16 - 16) / (64 f_c) = 20 ps
        cfg = make_config(n_tx=16, ttds_per_rf=16, ps_per_ttd=1,
                          n_rx=2, n_rf=2, n_streams=2)
        assert dp.tmax_lower_bound(cfg, 0.8) == pytest.approx(20e-12, rel=1e-12)

    def test_delay_bound_makes_design_unclamped(self, cfg):
        needed = dp.tmax_lower_bound(cfg, 0.8)
        rep = dp.design_joint(make_config(t_max=needed), [0.8] * 4)
        assert not rep.clamped.any()
        rep_short = dp.design_joint(make_config(t_max=0.96 * needed), [0.8] * 4)
        assert rep_short.clamped.any()
