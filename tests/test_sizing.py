import math

import numpy as np
import pytest

import delayphase as dp
from conftest import make_config
from delayphase.sizing import gain_margin, power_consumption_mw


def sizing_config(**kw):
    base = dict(n_tx=720, ttds_per_rf=16, ps_per_ttd=45, t_max=1000e-12)
    base.update(kw)
    return make_config(**base)


class TestDivisors:
    def test_divisor_list(self):
        assert dp.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert dp.divisors(1) == [1]
        assert dp.divisors(97) == [1, 97]

    def test_divisor_ceiling_values(self):
        assert dp.divisor_ceiling(57.77, 720) == 60
        assert dp.divisor_ceiling(1, 720) == 1
        assert dp.divisor_ceiling(7.2, 12) == 12

    def test_divisor_ceiling_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 2000))
            x = rng.uniform(0, n)
            d = dp.divisor_ceiling(x, n)
            assert n % d == 0 and d >= x

    def test_divisor_ceiling_rejects_oversized_target(self):
        with pytest.raises(ValueError):
            dp.divisor_ceiling(13.0, 12)

    def test_divisor_ceiling_rejects_nan(self):
        # NaN used to fall through every d >= x to a final return n
        with pytest.raises(ValueError, match="no divisor of 12"):
            dp.divisor_ceiling(math.nan, 12)


class TestTaylorGain:
    def test_zero_offset(self):
        assert dp.taylor_gain(256, 16, 0.0) == 1.0

    def test_per_antenna_elements_flat(self):
        deltas = np.linspace(0, 0.5, 11)
        assert np.all(dp.taylor_gain(64, 64, deltas) == 1.0)

    def test_close_to_exact_ratio_at_small_offset(self):
        q = dp.taylor_gain(720, 60, 0.031)
        exact = dp.dirichlet_gain(12, 0.031)
        assert abs(q - exact) < 0.01

    def test_never_exceeds_exact_ratio_on_grid(self):
        # the surrogate under-estimates, which keeps the sizing conservative
        for n_sub in range(2, 65):
            deltas = np.linspace(1e-6, 0.2, 200)
            q = dp.taylor_gain(n_sub, 1, deltas)
            exact = dp.dirichlet_gain(n_sub, deltas)
            assert np.all(q <= exact + 1e-12)


class TestClosedFormSizing:
    def test_headline_element_count(self):
        cfg = sizing_config()
        assert dp.min_ttds(cfg, 0.9, 0.8) == 60

    def test_headline_margin_and_raw_value(self):
        cfg = sizing_config()
        omega = gain_margin(0.9, cfg.bandwidth, cfg.f_c, cfg.n_subcarriers, 0.8)
        assert omega == pytest.approx(154.3657669365365, rel=1e-12)
        raw = math.sqrt(720**2 / (1 + omega))
        assert raw == pytest.approx(57.77, abs=0.01)

    def test_huge_margin_needs_single_element(self):
        # tiny threshold and tiny squint: margin exceeds n_tx^2, ceiling is 1
        cfg = sizing_config(bandwidth=1e9)
        assert gain_margin(1e-9, cfg.bandwidth, cfg.f_c, cfg.n_subcarriers, 0.1) > 720**2
        assert dp.min_ttds(cfg, 1e-9, 0.1) == 1

    def test_invalid_threshold(self):
        cfg = sizing_config()
        for g0 in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                dp.min_ttds(cfg, g0, 0.8)
        with pytest.raises(ValueError):
            dp.min_ttds(cfg, 0.9, 0.0)


class TestExactSizing:
    def test_headline_counterexample_pair(self):
        # 48 fails the 0.9 floor, 60 meets it; no divisor lies between
        result = dp.size_ttds(sizing_config(), 0.9, 0.8)
        assert result.worst_gain_by_divisor[60] >= 0.9
        assert result.worst_gain_by_divisor[48] < 0.9
        assert result.m_exact == 60

    def test_vacuous_threshold(self):
        cfg = sizing_config()
        assert dp.size_ttds(cfg, 1e-12, 0.8).m_exact == 1

    def test_single_subcarrier_no_squint(self):
        cfg = sizing_config(n_subcarriers=1)
        result = dp.size_ttds(cfg, 0.999, 0.8)
        assert result.m_exact == result.m_star == 1

    def test_subnormal_direction_needs_one_element(self):
        # the squint term underflows to 0; the margin used to divide by it
        result = dp.size_ttds(sizing_config(), 0.5, 5e-324)
        assert math.isinf(result.omega)
        assert result.m_exact == result.m_star == 1

    def test_closed_form_at_least_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n_tx = int(rng.choice([64, 96, 120, 256, 360, 720]))
            cfg = sizing_config(n_tx=n_tx, ttds_per_rf=1, ps_per_ttd=n_tx,
                                n_subcarriers=int(rng.integers(1, 129)) * 2 + 1,
                                bandwidth=rng.uniform(0.01, 0.2) * 300e9)
            g0 = rng.uniform(0.5, 0.99)
            psi_max = rng.uniform(0.1, 1.0)
            closed = dp.min_ttds(cfg, g0, psi_max)
            exact = dp.size_ttds(cfg, g0, psi_max).m_exact
            assert closed >= exact

    def test_sized_count_meets_threshold(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n_tx = int(rng.choice([64, 120, 256, 720]))
            cfg = sizing_config(n_tx=n_tx, ttds_per_rf=1, ps_per_ttd=n_tx)
            g0 = rng.uniform(0.5, 0.99)
            psi_max = rng.uniform(0.1, 1.0)
            m = dp.min_ttds(cfg, g0, psi_max)
            assert dp.size_ttds(cfg, g0, psi_max).worst_gain_by_divisor[m] >= g0


class TestLinearRelaxation:
    def test_linear_in_bandwidth(self):
        cfg = sizing_config()
        one = dp.min_ttds_linear(cfg, 0.9, 0.8)
        two = dp.min_ttds_linear(sizing_config(bandwidth=60e9), 0.9, 0.8)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_headline_value(self):
        # close to the raw closed-form 57.77; the residual offset comes from
        # the (K-1)/2K ~ 0.496 edge factor and the dropped +1 in the margin
        cfg = sizing_config()
        val = dp.min_ttds_linear(cfg, 0.9, 0.8)
        assert val == pytest.approx(58.40321293402001, rel=1e-12)
        assert abs(val - 57.77) < 1.0

    def test_diverges_at_unit_threshold(self):
        cfg = sizing_config()
        assert dp.min_ttds_linear(cfg, 1.0, 0.8) == math.inf


class TestNanInputsRejected:
    # NaN compares False both ways, so checks written as x < 0 or x <= 0 let it through

    def test_size_ttds_rejects_nan_direction(self):
        # it used to return m_star = 720 and m_exact = 1 on the 720-antenna config
        with pytest.raises(ValueError, match="psi_max must be positive"):
            dp.size_ttds(sizing_config(), 0.9, math.nan)

    def test_size_ttds_rejects_infinite_direction(self):
        # it used to return m_star = 720 and m_exact = 1, as NaN did
        with pytest.raises(ValueError, match="psi_max must be positive and finite"):
            dp.size_ttds(sizing_config(), 0.9, math.inf)

    def test_gain_margin_rejects_nan(self):
        cfg = sizing_config()
        for g0, psi_max in ((0.9, math.nan), (math.nan, 0.8)):
            with pytest.raises(ValueError):
                gain_margin(g0, cfg.bandwidth, cfg.f_c, cfg.n_subcarriers, psi_max)

    def test_linear_relaxation_rejects_nan(self):
        cfg = sizing_config()
        with pytest.raises(ValueError, match="psi_max must be non-negative"):
            dp.min_ttds_linear(cfg, 0.9, math.nan)
        with pytest.raises(ValueError, match="g0 must be a number"):
            dp.min_ttds_linear(cfg, math.nan, 0.8)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, [0.1, -math.inf]])
    def test_taylor_gain_rejects_non_finite_offset(self, delta):
        # it used to return nan, or -inf for an infinite offset
        with pytest.raises(ValueError, match="delta must be finite"):
            dp.taylor_gain(256, 16, delta)


class TestSizingResult:
    def test_bundle_and_serialization(self):
        cfg = sizing_config()
        result = dp.size_ttds(cfg, 0.9, 0.8)
        assert result.m_star == 60
        assert result.m_exact == 60
        assert result.worst_gain_by_divisor[48] < 0.9
        assert result.worst_gain_by_divisor[60] >= 0.9
        assert result.power_mw == power_consumption_mw(cfg.n_rf, 60, 720)
        blob = result.to_dict()
        assert blob["m_star"] == 60
        assert "48" in blob["worst_gain_by_divisor"]

    def test_power_model_defaults(self):
        # 4 chains * 60 TTDs * 100 mW + 4 * 720 PSs * 20 mW
        assert power_consumption_mw(4, 60, 720) == pytest.approx(4 * 60 * 100 + 4 * 720 * 20)
