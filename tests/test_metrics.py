import numpy as np
import pytest

import delayphase as dp
from conftest import make_config
from delayphase.model import _channel_factors


class TestArrayGain:
    def test_matched_beamformer_at_center(self, cfg):
        f = dp.ideal_precoder(cfg, [0.8], cfg.center_subcarrier)[:, 0]
        assert dp.array_gain(f, cfg, cfg.center_subcarrier, 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_edge_subcarrier_collapse(self, cfg):
        # frequency-flat beamformer at the band edge; sine-ratio evaluation
        # of the squint offset gives 0.0156511
        f = dp.ideal_precoder(cfg, [0.8], cfg.center_subcarrier)[:, 0]
        g = dp.array_gain(f, cfg, 129, 0.8)
        assert g == pytest.approx(0.01565106178607286, abs=1e-12)
        assert g == pytest.approx(0.0157, abs=1e-4)

    def test_inner_product_matches_sine_ratio(self, cfg):
        f = dp.ideal_precoder(cfg, [0.8], cfg.center_subcarrier)[:, 0]
        for k in (1, 13, 65, 100, 129):
            delta = dp.squint_offset(cfg, k, 0.8)
            assert dp.array_gain(f, cfg, k, 0.8) == pytest.approx(
                dp.dirichlet_gain(cfg.n_tx, delta), abs=1e-10)

    def test_ideal_column_is_unit_gain_everywhere(self, cfg):
        psi = 0.8
        for k in range(1, cfg.n_subcarriers + 1):
            col = dp.ideal_precoder(cfg, [psi] * 4, k)[:, 0]
            assert dp.array_gain(col, cfg, k, psi) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_input(self, cfg):
        with pytest.raises(ValueError):
            dp.array_gain(np.ones(cfg.n_tx), cfg, 1, 0.0)

    def test_rejects_nan_column(self, cfg):
        # NaN compares False both ways, so a check written as norm error > tol let it through
        with pytest.raises(ValueError, match="unit 2-norm"):
            dp.array_gain(np.full(cfg.n_tx, np.nan + 0j), cfg, 1, 0.8)

    @pytest.mark.parametrize("psi", [np.nan, 1.5])
    def test_squint_offset_rejects_bad_direction(self, cfg, psi):
        # a NaN direction used to give a NaN offset
        with pytest.raises(ValueError, match=r"\|psi\| <= 1"):
            dp.squint_offset(cfg, 1, psi)


class TestDirichletGain:
    def test_limit_at_zero_offset(self):
        assert dp.dirichlet_gain(16, 0.0) == 1.0
        assert dp.dirichlet_gain(257, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_point_value(self):
        assert dp.dirichlet_gain(16, 0.062345) == pytest.approx(0.8427629969825495, rel=1e-12)
        assert dp.dirichlet_gain(16, 0.062345) == pytest.approx(0.8427, abs=1e-4)

    def test_vectorized(self):
        deltas = np.linspace(-0.2, 0.2, 41)
        gains = dp.dirichlet_gain(8, deltas)
        assert gains.shape == deltas.shape
        assert np.all(gains <= 1.0 + 1e-12)

    def test_matches_joint_design_gain_per_subcarrier(self, cfg):
        # unclamped joint design: per-subcarrier gain is the subarray ratio
        rep = dp.design_joint(cfg, [0.8] * 4)
        assert not rep.clamped.any()
        pset = dp.materialize(cfg, rep.design)
        for k in range(1, cfg.n_subcarriers + 1):
            expected = dp.dirichlet_gain(cfg.ps_per_ttd, dp.squint_offset(cfg, k, 0.8))
            got = dp.array_gain(pset.analog[k - 1, :, 0], cfg, k, 0.8)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_invalid_subarray_size(self):
        with pytest.raises(ValueError):
            dp.dirichlet_gain(0, 0.1)


def _small_rate_setup(seed=0):
    cfg = make_config(n_tx=32, ttds_per_rf=8, ps_per_ttd=4, n_subcarriers=9)
    rng = dp.make_rng(7, stream=seed)
    channel = dp.sample_channel(cfg, rng)
    k = cfg.center_subcarrier
    f = dp.ideal_precoder(cfg, channel.paths.psi_tx, k)
    w = dp.digital_precoder(channel.h[k - 1], f, cfg.n_streams)
    return cfg, channel, k, f, w


class TestAchievableRate:
    def test_zero_snr(self):
        cfg, ch, k, f, w = _small_rate_setup()
        assert dp.achievable_rate(ch.h[k - 1], f, w, 0.0, cfg.n_streams) == 0.0

    def test_zero_channel(self):
        cfg, ch, k, f, w = _small_rate_setup()
        assert dp.achievable_rate(np.zeros_like(ch.h[k - 1]), f, w, 2.0,
                                  cfg.n_streams) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_reduction(self):
        # single antenna pair: log2(1 + rho |h|^2)
        h = np.array([[0.3 - 1.1j]])
        f = np.array([[1.0 + 0j]])
        w = np.array([[1.0 + 0j]])
        rho = 2.5
        expected = np.log2(1 + rho * abs(h[0, 0]) ** 2)
        assert dp.achievable_rate(h, f, w, rho, 1) == pytest.approx(expected, rel=1e-12)


class TestRateLowerBound:
    def test_never_exceeds_rate(self):
        cfg = make_config(n_tx=32, ttds_per_rf=8, ps_per_ttd=4, n_subcarriers=9)
        for trial in range(50):
            channel = dp.sample_channel(cfg, dp.make_rng(11, stream=trial))
            rep = dp.design_joint(cfg, channel.paths.psi_tx)
            pset = dp.materialize(cfg, rep.design, channel=channel)
            for k in (1, 5, 9):
                h, f, w = channel.h[k - 1], pset.analog[k - 1], pset.digital[k - 1]
                rate = dp.achievable_rate(h, f, w, cfg.rho, cfg.n_streams)
                bound = dp.rate_lower_bound(h, f, w, cfg.rho, cfg.n_streams)
                assert bound <= rate + 1e-9

    def test_single_stream_equality(self):
        cfg = make_config(n_tx=16, ttds_per_rf=4, ps_per_ttd=4, n_rx=1, n_rf=1,
                          n_streams=1, n_subcarriers=9)
        channel = dp.sample_channel(cfg, dp.make_rng(3))
        k = 5
        f = dp.ideal_precoder(cfg, channel.paths.psi_tx, k)
        w = dp.digital_precoder(channel.h[k - 1], f, 1)
        rate = dp.achievable_rate(channel.h[k - 1], f, w, cfg.rho, 1)
        bound = dp.rate_lower_bound(channel.h[k - 1], f, w, cfg.rho, 1)
        assert bound == pytest.approx(rate, rel=1e-10)

    def test_relative_gap_shrinks_with_array_size(self):
        # ideal precoder + dominant-eigenvector streams: the bound captures a
        # growing share of the rate as orthogonality sharpens
        paths = dp.sample_paths(make_config(), dp.make_rng(19))
        rel_gaps = []
        for n_tx in (64, 256, 1024):
            cfg = make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16)
            h = _channel_factors(cfg, paths)[1]
            k = cfg.center_subcarrier
            f = dp.ideal_precoder(cfg, paths.psi_tx, k)
            w = dp.digital_precoder(h[k - 1], f, cfg.n_streams)
            rate = dp.achievable_rate(h[k - 1], f, w, cfg.rho, cfg.n_streams)
            bound = dp.rate_lower_bound(h[k - 1], f, w, cfg.rho, cfg.n_streams)
            assert bound <= rate + 1e-9
            rel_gaps.append((rate - bound) / rate)
        assert rel_gaps[0] > rel_gaps[1] > rel_gaps[2]

    def test_rank_deficient_channel_gives_zero(self):
        cfg = make_config(n_tx=16, ttds_per_rf=4, ps_per_ttd=4, n_rx=2, n_rf=2,
                          n_streams=2, n_subcarriers=9)
        h = np.zeros((2, 16), complex)
        h[0] = dp.ideal_precoder(cfg, [0.3], 5)[:, 0]  # rank 1 < n_streams
        f = dp.ideal_precoder(cfg, [0.3, -0.2], 5)
        w = np.eye(2, dtype=complex)
        assert dp.rate_lower_bound(h, f, w, cfg.rho, 2) == 0.0
        # a single receive antenna cannot carry two streams
        assert dp.rate_lower_bound(h[:1], f, w, cfg.rho, 2) == 0.0
        stack = np.stack([h[:1]] * 3)
        assert np.array_equal(dp.rate_lower_bound(stack, f, w, cfg.rho, 2), np.zeros(3))

    @pytest.mark.parametrize("ratio, positive", [(1e-5, True), (1e-7, False)])
    def test_rank_rule_cuts_singular_value_ratio_at_1e_6(self, ratio, positive):
        # SV_TOL applies to the eigenvalues of H H^H, the squared singular values
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
        h = u @ np.diag([1.0, ratio]) @ v.conj().T
        f = np.exp(2j * np.pi * rng.uniform(size=(16, 2))) / 4.0
        w = dp.digital_precoder(h, f, 2)
        bound = dp.rate_lower_bound(h, f, w, 1.0, 2)
        assert (bound > 0.0) if positive else (bound == 0.0)
        assert bound <= dp.achievable_rate(h, f, w, 1.0, 2) + 1e-9

    @pytest.mark.parametrize("sv, n_streams", [
        ((1.0, 1e-4), 2), ((1.0, 1e-5), 2),  # ill-conditioned, above the 1e-6 cut
        ((1.0, 0.5, 0.1), 2), ((2.0, 0.3, 0.2, 1e-3), 3),  # n_rx > n_streams
    ])
    def test_known_singular_values(self, sv, n_streams):
        # H = U diag(sv) V^H precoded along its top right singular vectors:
        # the bound is log2(1 + rho (sv_1 ... sv_Ns)^(2/Ns))
        rng = np.random.default_rng(23)
        n_rx, n_tx, rho = len(sv), 16, 2.0
        u, _ = np.linalg.qr(rng.standard_normal((n_rx, n_rx))
                            + 1j * rng.standard_normal((n_rx, n_rx)))
        v, _ = np.linalg.qr(rng.standard_normal((n_tx, n_rx))
                            + 1j * rng.standard_normal((n_tx, n_rx)))
        h = u @ np.diag(sv) @ v.conj().T
        f, w = v[:, :n_streams], np.eye(n_streams)
        want = np.log2(1.0 + rho * np.prod(sv[:n_streams]) ** (2.0 / n_streams))
        got = dp.rate_lower_bound(h, f, w, rho, n_streams)
        # relative to the bound floored at 1 bit: H's entries round relative to
        # sv_1, so a bound of 3e-5 bits at sv = (1, 1e-5) is known to ~1e-16 bits
        assert abs(got - want) <= 1e-13 * max(want, 1.0)


class TestRateInputsRejected:
    # NaN compares False both ways, so checks written as x < 0 or x <= 0 let it through

    @pytest.mark.parametrize("rho", [-3.0, np.nan, np.inf])
    def test_bad_rho(self, rho):
        i2 = np.eye(2, dtype=complex)
        for rate in (dp.achievable_rate, dp.rate_lower_bound):
            with pytest.raises(ValueError, match="rho must be a finite non-negative number"):
                rate(i2, i2, i2, rho, 2)
        for f_power in (2.0, [2.0, 2.0]):
            with pytest.raises(ValueError, match="rho must be a finite non-negative number"):
                dp.eigenbeam_rate(np.stack([i2, i2]), f_power, rho)

    @pytest.mark.parametrize("f_power", [np.nan, 0.0, -1.0, [2.0, np.nan], np.inf])
    def test_bad_f_power(self, f_power):
        i2 = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="positive power"):
            dp.eigenbeam_rate(np.stack([i2, i2]), f_power, 2.0)

    @pytest.mark.parametrize("rate", ["achievable_rate", "rate_lower_bound",
                                      "rate_lower_bound_one_rx", "eigenbeam_rate"])
    @pytest.mark.parametrize("operand", ["h", "f", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.filterwarnings("error")
    def test_non_finite_channel_or_precoder(self, rate, operand, bad):
        # a NaN channel used to give a NaN rate and a zero bound, which reads
        # as a rank-deficient channel. The only warning allowed is numpy's own
        # for inf * 0 in the products, which come before any check can run.
        ops = {name: np.eye(2, dtype=complex) for name in ("h", "f", "w")}
        ops[operand][0, 0] = bad
        h, f, w = ops["h"], ops["f"], ops["w"]
        call = {"achievable_rate": lambda: dp.achievable_rate(h, f, w, 2.0, 2),
                "rate_lower_bound": lambda: dp.rate_lower_bound(h, f, w, 2.0, 2),
                # fewer receive modes than streams: the bound is 0 without an eigensolve
                "rate_lower_bound_one_rx": lambda: dp.rate_lower_bound(h[:1], f, w, 2.0, 2),
                "eigenbeam_rate": lambda: dp.eigenbeam_rate(h @ f @ w, 2.0, 2.0)}[rate]
        with pytest.raises(ValueError, match="channel and precoders must be finite"):
            call()

    @pytest.mark.parametrize("rates", [[1.0, np.nan], [1.0, -0.5]])
    def test_bad_rates(self, rates):
        with pytest.raises(ValueError, match="rates must be non-negative"):
            dp.rate_profile(rates)


class TestEmpiricalCdf:
    def test_constant_sample_is_step(self):
        xs, cdf = dp.empirical_cdf([2.0, 2.0, 2.0])
        assert list(xs) == [2.0]
        assert list(cdf) == [1.0]

    def test_reaches_one_at_maximum(self):
        xs, cdf = dp.empirical_cdf([0.1, 0.5, 0.3])
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_counts_repeated_values(self):
        xs, cdf = dp.empirical_cdf([[3.0, 1.0], [3.0, 2.0], [1.0, 3.0]])
        assert xs.tolist() == [1.0, 2.0, 3.0]
        assert cdf.tolist() == [2 / 6, 3 / 6, 6 / 6]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dp.empirical_cdf([])

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.nan], [1.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_input_rejected(self, values):
        # [1.0, nan] used to give a CDF whose last x was nan
        with pytest.raises(ValueError, match="empirical_cdf needs finite values"):
            dp.empirical_cdf(values)


class TestGainHeadline:
    def test_joint_fraction_above_threshold(self, cfg):
        rep = dp.design_joint(cfg, [0.8] * 4)
        cols = dp.materialize(cfg, rep.design).analog[:, :, 0]
        profile = dp.gain_profile(cfg, cols, 0.8)
        fraction = float(np.mean(profile.gains >= 0.9))
        assert fraction == pytest.approx(101 / 129, abs=1e-12)
        assert fraction >= 0.75

    def test_benchmark_never_reaches_threshold(self, cfg):
        cols = dp.materialize(cfg, dp.design_benchmark(cfg, [0.8] * 4)).analog[:, :, 0]
        profile = dp.gain_profile(cfg, cols, 0.8)
        assert np.mean(profile.gains >= 0.9) == 0.0
        assert profile.gains.max() < 0.9

    def test_profile_invariants(self, cfg):
        rep = dp.design_joint(cfg, [0.8] * 4)
        cols = dp.materialize(cfg, rep.design).analog[:, :, 0]
        profile = dp.gain_profile(cfg, cols, 0.8)
        assert np.all(profile.gains >= 0.0) and np.all(profile.gains <= 1.0 + 1e-12)
        assert np.all(np.diff(profile.cdf_y) >= 0)
        assert profile.cdf_y[-1] == 1.0

    def test_rejects_nan_columns(self, cfg):
        nan = np.full((cfg.n_subcarriers, cfg.n_tx), np.nan + 0j)
        ideal = dp.ideal_stack(cfg, [0.8])[:, :, 0]
        for columns in (nan, (ideal, nan)):
            with pytest.raises(ValueError, match="unit 2-norm"):
                dp.gain_profile(cfg, columns, 0.8)


class TestWideArrayCollapse:
    def test_edge_gain_strictly_decreasing(self):
        gains = []
        for n_tx in (128, 256, 512, 1024):
            cfg = make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16)
            flat = dp.ideal_precoder(cfg, [0.8], cfg.center_subcarrier)[:, 0]
            gains.append(dp.array_gain(flat, cfg, 129, 0.8))
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert gains[-1] < 0.05

    def test_center_gain_pinned_at_one(self):
        for n_tx in (128, 256, 512, 1024):
            cfg = make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16)
            flat = dp.ideal_precoder(cfg, [0.8], cfg.center_subcarrier)[:, 0]
            assert dp.array_gain(flat, cfg, cfg.center_subcarrier, 0.8) == pytest.approx(
                1.0, abs=1e-12)
