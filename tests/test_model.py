import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayphase as dp
from conftest import make_config
from delayphase import metrics, precoders
from delayphase.model import N_TX_MAX, _channel_factors, steering_gram, steering_stack


class TestSystemConfig:
    def test_rejects_even_subcarrier_count(self):
        with pytest.raises(ValueError):
            make_config(n_subcarriers=128)

    def test_rejects_antenna_split_mismatch(self):
        with pytest.raises(ValueError):
            make_config(n_tx=255)

    def test_rejects_bandwidth_at_carrier(self):
        with pytest.raises(ValueError):
            make_config(bandwidth=300e9)

    def test_rejects_stream_chain_mismatch(self):
        with pytest.raises(ValueError):
            make_config(n_streams=2)

    @pytest.mark.parametrize("field, value", [
        ("t_max", float("nan")), ("rho", float("nan")), ("f_c", float("inf")),
        ("path_delay_max", float("inf")), ("bandwidth", float("-inf")),
        # bool is an int, and so a Real: True would be read as 1 s
        ("t_max", True), ("rho", False),
        # above half the largest float, f_c + bandwidth could overflow
        ("f_c", 1.7e308),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            make_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_tx", 256.0), ("n_subcarriers", 129.0), ("ps_per_ttd", "16"), ("n_rf", True),
        # the sizing search runs over the divisors of n_tx
        ("n_tx", N_TX_MAX + 1),
    ])
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_config(**{field: value})

    @pytest.mark.parametrize("build", [lambda: make_config(seed=-3), lambda: dp.make_rng(-1),
                                       lambda: dp.make_rng(2.5), lambda: dp.make_rng(True)],
                             ids=["config", "make_rng", "make_rng_float", "make_rng_bool"])
    def test_rejects_negative_or_non_integer_seed(self, build):
        # a negative seed used to pass until numpy's SeedSequence refused it mid-run
        with pytest.raises(ValueError, match="seed must be an integer"):
            build()

    def test_accepts_numpy_scalars(self):
        cfg = make_config(n_tx=np.int64(256), t_max=np.float64(340e-12))
        assert cfg.n_tx == 256

    def test_warns_when_array_not_large(self):
        with pytest.warns(UserWarning):
            dp.SystemConfig(f_c=300e9, bandwidth=30e9, n_subcarriers=9, n_tx=8,
                            n_rx=2, n_rf=2, n_streams=2, ttds_per_rf=4,
                            ps_per_ttd=2, t_max=1e-10)

    def test_theta_max(self, cfg):
        assert cfg.theta_max == pytest.approx(204.0, rel=1e-12)

    def test_from_dict_rho_db(self):
        data = dict(f_c=300e9, bandwidth=30e9, n_subcarriers=129, n_tx=256,
                    n_rx=4, n_rf=4, n_streams=4, ttds_per_rf=16, ps_per_ttd=16,
                    t_max=340e-12, rho_db=3.0)
        cfg = dp.SystemConfig.from_dict(data)
        assert cfg.rho == pytest.approx(10 ** 0.3, rel=1e-12)


class TestSubcarrierGrid:
    def test_central_subcarrier_at_carrier(self, cfg):
        assert dp.subcarrier_frequencies(cfg)[65 - 1] == pytest.approx(300e9, rel=1e-15)

    def test_edge_frequencies(self, cfg):
        # by hand: 300 GHz -/+ 30 GHz * 64/129
        freqs = dp.subcarrier_frequencies(cfg)
        assert freqs[1 - 1] == pytest.approx(285116279069.76746, rel=1e-12)
        assert freqs[129 - 1] == pytest.approx(314883720930.23254, rel=1e-12)

    def test_out_of_range_index(self, cfg):
        # freq_ratios(cfg)[k - 1] unchecked would read k = 0 as the top subcarrier
        column = precoders.ideal_precoder(cfg, [0.8], 1)[:, 0]
        for k in (0, cfg.n_subcarriers + 1, -3, True, 2.0):
            with pytest.raises(ValueError, match=r"\bk must be an integer >= 1 and <= 129\b"):
                precoders.ideal_precoder(cfg, [0.8], k)
            with pytest.raises(ValueError, match=r"\bk must be an integer"):
                metrics.array_gain(column, cfg, k, 0.8)

    def test_vectorized_matches_scalar(self, cfg):
        ratios, freqs = dp.freq_ratios(cfg), dp.subcarrier_frequencies(cfg)
        for k in (1, 2, 64, 65, 129):
            assert ratios[k - 1] == pytest.approx(freqs[k - 1] / cfg.f_c, rel=1e-15)

    def test_ratio_values(self, cfg):
        ratios = dp.freq_ratios(cfg)
        assert ratios[65 - 1] == 1.0
        # 1 - 0.1 * 64/129 evaluated by hand
        assert ratios[1 - 1] == pytest.approx(0.9503875968992248, rel=1e-12)

    def test_ratio_sum_identity(self, cfg):
        assert dp.freq_ratios(cfg).sum() == pytest.approx(129.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(half_k=st.integers(1, 128), ratio=st.floats(0.001, 0.5))
    def test_ratio_identities_any_grid(self, half_k, ratio):
        # sum z = K and sum z^2 = K * (1 + (B/f_c)^2 (K^2-1)/(12 K^2))
        k_count = 2 * half_k + 1
        cfg = make_config(n_subcarriers=k_count, bandwidth=ratio * 300e9)
        z = dp.freq_ratios(cfg)
        assert z.sum() == pytest.approx(k_count, rel=1e-12)
        expected = k_count * (1 + ratio**2 * (k_count**2 - 1) / (12 * k_count**2))
        assert (z * z).sum() == pytest.approx(expected, rel=1e-12)


class TestSteering:
    def test_broadside_is_uniform(self, cfg):
        v = dp.ideal_stack(cfg, [0.0])[0, :, 0]
        assert np.allclose(v, np.full(cfg.n_tx, 1 / np.sqrt(cfg.n_tx)), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(psi=st.floats(-1.0, 1.0), k=st.integers(1, 129))
    def test_unit_norm(self, psi, k):
        cfg = make_config()
        v = dp.ideal_stack(cfg, [psi])[k - 1, :, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_matched_inner_product_at_center(self, cfg):
        v = dp.ideal_stack(cfg, [0.8])[cfg.center_subcarrier - 1, :, 0]
        assert abs(np.vdot(v, v)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_direction_beyond_unity(self, cfg):
        with pytest.raises(ValueError):
            dp.ideal_stack(cfg, [1.2])

    @pytest.mark.parametrize("build, message", [
        (lambda cfg, psi: steering_stack(cfg.n_tx, dp.freq_ratios(cfg), psi), r"\|psi\| <= 1"),
        (lambda cfg, psi: steering_gram(cfg.n_tx, dp.freq_ratios(cfg), psi), r"\|psi\| <= 1"),
        (lambda cfg, psi: precoders.ideal_precoder(cfg, psi, 1), r"\|psi\| <= 1"),
        (lambda cfg, psi: precoders.ideal_precoder(cfg, psi[1], 1), r"\|psi\| <= 1"),
        # a scalar direction is checked by the scalar rule
        (lambda cfg, psi: metrics.array_gain(precoders.ideal_precoder(cfg, [0.0], 1)[:, 0],
                                             cfg, 1, psi[1]),
         r"psi must be a finite number in \[-1, 1\]"),
    ], ids=["steering_stack", "steering_gram", "ideal_precoder", "ideal_precoder_scalar",
            "array_gain"])
    @pytest.mark.parametrize("bad", [np.nan, 1.2, -np.inf])
    def test_rejects_nan_or_out_of_range_direction(self, cfg, build, message, bad):
        # NaN compares False both ways, so a check written as |psi| > 1 lets it through
        with pytest.raises(ValueError, match=message):
            build(cfg, [0.3, bad])


def _single_path_config():
    return make_config(n_tx=8, n_rx=1, n_rf=1, n_streams=1, ttds_per_rf=4,
                       ps_per_ttd=2)


class TestChannel:
    def test_single_path_rank_one(self):
        cfg = _single_path_config()
        psi = 0.37
        paths = dp.PathSet(gains=[1.0 + 0j], delays=[0.0],
                           aod=[np.arcsin(psi)], aoa=[0.0])
        h = _channel_factors(cfg, paths)[1]
        for k in (1, 5, 9):
            ratio = dp.freq_ratios(cfg)[k - 1]
            u = steering_stack(cfg.n_rx, ratio, 0.0)[0, :, 0]
            v = steering_stack(cfg.n_tx, ratio, psi)[0, :, 0]
            expected = np.sqrt(cfg.n_rx * cfg.n_tx) * np.outer(u, v.conj())
            assert np.allclose(h[k - 1], expected, atol=1e-12)
            assert np.linalg.matrix_rank(h[k - 1]) == 1

    def test_single_path_frobenius_energy(self):
        # |alpha| = 1: ||H_k||_F^2 = n_rx * n_tx for every k
        cfg = _single_path_config()
        paths = dp.PathSet(gains=[np.exp(0.7j)], delays=[3e-9],
                           aod=[0.4], aoa=[-0.2])
        h = _channel_factors(cfg, paths)[1]
        energies = np.sum(np.abs(h) ** 2, axis=(1, 2))
        assert np.allclose(energies, cfg.n_rx * cfg.n_tx, rtol=1e-12)

    def test_same_seed_bit_identical(self, cfg):
        a = dp.sample_channel(cfg, dp.make_rng(cfg.seed, stream=3))
        b = dp.sample_channel(cfg, dp.make_rng(cfg.seed, stream=3))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.paths.gains, b.paths.gains)

    def test_distinct_streams_differ(self, cfg):
        a = dp.sample_channel(cfg, dp.make_rng(cfg.seed, stream=0))
        b = dp.sample_channel(cfg, dp.make_rng(cfg.seed, stream=1))
        assert not np.array_equal(a.h, b.h)

    def test_reconstruction_is_exact(self, cfg):
        ch = dp.sample_channel(cfg, dp.make_rng(cfg.seed))
        rebuilt = _channel_factors(cfg, ch.paths)[1]
        assert np.array_equal(rebuilt, ch.h)

    def test_path_count_must_match_chains(self, cfg):
        paths = dp.PathSet(gains=[1.0], delays=[0.0], aod=[0.1], aoa=[0.1])
        with pytest.raises(ValueError):
            _channel_factors(cfg, paths)

    @pytest.mark.parametrize("field, bad", [
        ("delays", np.nan), ("delays", np.inf), ("delays", -1e-9),
        ("gains", np.nan), ("aod", np.inf), ("aoa", np.nan),
    ])
    def test_rejects_non_finite_or_negative_path(self, field, bad):
        # a NaN delay used to pass and turn every entry of H into NaN
        values = dict(gains=[1.0] * 4, delays=[0.0] * 4, aod=[0.1] * 4, aoa=[0.1] * 4)
        values[field] = [bad, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="must be finite, delays >= 0"):
            dp.PathSet(**values)

    def test_directions_within_unit_interval(self, cfg):
        paths = dp.sample_paths(cfg, dp.make_rng(1))
        assert np.all(np.abs(paths.psi_tx) <= 1.0)
        assert np.all(np.abs(paths.psi_rx) <= 1.0)
        assert np.all(paths.delays >= 0.0)
        assert np.all(paths.delays <= cfg.path_delay_max)
