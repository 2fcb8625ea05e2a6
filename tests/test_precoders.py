import numpy as np
import pytest

import delayphase as dp
from conftest import make_config


def random_design(cfg, seed=0):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-1, 1, (cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd))
    delays = rng.uniform(0, cfg.t_max, (cfg.n_rf, cfg.ttds_per_rf))
    return dp.AnalogDesign(phases=phases, delays=delays)


def zero_design(cfg):
    return dp.AnalogDesign(
        phases=np.zeros((cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd)),
        delays=np.zeros((cfg.n_rf, cfg.ttds_per_rf)),
    )


class TestPsMatrix:
    def test_zero_phases_uniform_entries(self, cfg):
        f1 = dp.materialize(cfg, zero_design(cfg)).f1
        nz = f1[f1 != 0]
        assert np.allclose(nz, 1 / np.sqrt(cfg.n_tx), atol=1e-15)

    def test_nonzero_count(self, cfg):
        f1 = dp.materialize(cfg, random_design(cfg)).f1
        assert np.count_nonzero(f1) == cfg.n_tx * cfg.n_rf

    def test_column_norms(self, cfg):
        # each column holds ps_per_ttd unit-modulus entries scaled by 1/sqrt(n_tx)
        f1 = dp.materialize(cfg, random_design(cfg)).f1
        norms = np.linalg.norm(f1, axis=0)
        assert np.allclose(norms, np.sqrt(cfg.ps_per_ttd / cfg.n_tx), atol=1e-12)

    def test_block_placement(self, cfg):
        f1 = dp.materialize(cfg, random_design(cfg)).f1
        n_ps, m_ttd = cfg.ps_per_ttd, cfg.ttds_per_rf
        for l in (0, cfg.n_rf - 1):
            for m in (0, m_ttd - 1):
                col = f1[:, l * m_ttd + m]
                support = np.nonzero(col)[0]
                assert support[0] == m * n_ps and support[-1] == (m + 1) * n_ps - 1

    def test_shape_mismatch_raises(self, cfg):
        bad = dp.AnalogDesign(phases=np.zeros((2, 3, 4)), delays=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            dp.materialize(cfg, bad)


class TestTtdMatrix:
    def test_zero_delays_all_ones_blocks(self, cfg):
        f2 = dp.materialize(cfg, zero_design(cfg)).ttd[6]
        nz = f2[f2 != 0]
        assert np.allclose(nz, 1.0, atol=1e-15)

    def test_entry_moduli(self, cfg):
        f2 = dp.materialize(cfg, random_design(cfg)).ttd[99]
        mods = np.abs(f2)
        assert np.all((mods < 1e-15) | (np.abs(mods - 1) < 1e-12))

    def test_gram_is_scaled_identity(self, cfg):
        # each block stacks ttds_per_rf unit-modulus entries
        f2 = dp.materialize(cfg, random_design(cfg)).ttd[41]
        gram = f2.conj().T @ f2
        assert np.allclose(gram, cfg.ttds_per_rf * np.eye(cfg.n_rf), atol=1e-10)

    def test_delay_out_of_budget_raises(self, cfg):
        bad = dp.AnalogDesign(
            phases=np.zeros((cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd)),
            delays=np.full((cfg.n_rf, cfg.ttds_per_rf), 2 * cfg.t_max),
        )
        with pytest.raises(ValueError):
            dp.materialize(cfg, bad)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_design_raises(self, cfg, bad_value):
        # NaN compares False both ways, so a range check alone lets it through
        phases = np.zeros((cfg.n_rf, cfg.ttds_per_rf, cfg.ps_per_ttd))
        delays = np.zeros((cfg.n_rf, cfg.ttds_per_rf))
        bad_delays = dp.AnalogDesign(phases, np.full_like(delays, bad_value))
        with pytest.raises(ValueError, match=r"delays must lie within \[0, t_max\]"):
            dp.analog_stack(cfg, bad_delays)
        phases[1, 2, 3] = bad_value
        with pytest.raises(ValueError, match="phases must be finite"):
            dp.analog_stack(cfg, dp.AnalogDesign(phases, delays))


class TestComposite:
    def test_all_zero_design_uniform(self, cfg):
        f = dp.analog_stack(cfg, zero_design(cfg))[0]
        assert np.allclose(f, 1 / np.sqrt(cfg.n_tx), atol=1e-15)

    def test_constant_modulus(self, cfg):
        for seed in range(3):
            f = dp.analog_stack(cfg, random_design(cfg, seed))[12 + seed]
            assert np.max(np.abs(np.abs(f) * np.sqrt(cfg.n_tx) - 1)) < 1e-12

    def test_one_ttd_per_antenna_matches_steering(self):
        # ttds_per_rf = n_tx, one PS each: delays (m-1) psi / (2 f_c) make the
        # composite column exactly the per-subcarrier steering vector
        cfg = make_config(n_tx=16, ttds_per_rf=16, ps_per_ttd=1, n_rx=2,
                          n_rf=2, n_streams=2, t_max=1e-10)
        psi = np.array([0.8, 0.5])
        m = np.arange(16)
        delays = np.stack([m * p / (2 * cfg.f_c) for p in psi])
        design = dp.AnalogDesign(phases=np.zeros((2, 16, 1)), delays=delays)
        stack = dp.analog_stack(cfg, design)
        for k in (1, 9, 65, 129):
            f = stack[k - 1]
            for l, p in enumerate(psi):
                v = dp.ideal_precoder(cfg, [p], k)[:, 0]
                assert np.allclose(f[:, l], v, atol=1e-12)

    def test_matches_factor_product(self, cfg):
        design = random_design(cfg, 5)
        pset = dp.materialize(cfg, design)
        assert np.allclose(pset.analog[28], pset.f1 @ pset.ttd[28], atol=1e-14)


class TestIdealPrecoder:
    def test_unit_gain_every_subcarrier(self, cfg):
        psi = np.array([-0.8, -0.35, 0.3, 0.75])
        for k in (1, 40, 65, 129):
            f = dp.ideal_precoder(cfg, psi, k)
            for l, p in enumerate(psi):
                v = dp.ideal_precoder(cfg, [p], k)[:, 0]
                assert abs(np.vdot(v, f[:, l])) == pytest.approx(1.0, abs=1e-12)

    def test_broadside_column_uniform(self, cfg):
        f = dp.ideal_precoder(cfg, [0.0] * 4, 20)
        assert np.allclose(f[:, 0], 1 / np.sqrt(cfg.n_tx), atol=1e-15)

    def test_gram_approaches_identity(self):
        # orthogonality sharpens as the array grows, for fixed distinct directions
        psi = np.array([-0.8, -0.35, 0.3, 0.75])
        errs = []
        for n_tx in (64, 256, 1024, 4096):
            cfg = make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16)
            worst = 0.0
            for k in (1, 33, 65, 97, 129):
                f = dp.ideal_precoder(cfg, psi, k)
                worst = max(worst, np.linalg.norm(f.conj().T @ f - np.eye(4)))
            errs.append(worst)
        assert errs[0] >= errs[1] >= errs[2] >= errs[3]


class TestDigitalPrecoder:
    def test_power_normalization(self, cfg):
        rng = dp.make_rng(3)
        channel = dp.sample_channel(cfg, rng)
        stack = dp.analog_stack(cfg, random_design(cfg, 6))
        for k in (1, 65, 129):
            f = stack[k - 1]
            w = dp.digital_precoder(channel.h[k - 1], f, cfg.n_streams)
            assert np.linalg.norm(f @ w) ** 2 == pytest.approx(cfg.n_streams, abs=1e-10)

    def test_identity_gram_gives_orthogonal_basis(self):
        # H F unitary: any orthonormal eigenbasis is fine, so W^H W must be c*I
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        f, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        h = q @ f.conj().T
        w = dp.digital_precoder(h, f, 2)
        gram = w.conj().T @ w
        assert np.allclose(gram, gram[0, 0].real * np.eye(2), atol=1e-10)

    def test_rank_one_matches_power_iteration(self):
        # dominant eigenvector cross-checked against plain power iteration
        rng = np.random.default_rng(21)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        h_eff = np.outer(a, b.conj())  # rank one
        gram = h_eff.conj().T @ h_eff
        vec = np.ones(4, dtype=complex) / 2
        for _ in range(200):
            vec = gram @ vec
            vec /= np.linalg.norm(vec)
        f = np.eye(4, dtype=complex)
        w = dp.digital_precoder(h_eff, f, 2)
        w0 = w[:, 0] / np.linalg.norm(w[:, 0])
        assert abs(np.vdot(vec, w0)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_analog_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            dp.digital_precoder(np.zeros((2, 4)), np.zeros((4, 2)), 2)

    def test_non_finite_input_raises(self, cfg):
        # NaN used to reach LAPACK, which only said its eigenvalues did not converge
        f = dp.ideal_precoder(cfg, [0.1, 0.2, 0.3, 0.4], 1)
        h = np.ones((4, cfg.n_tx))
        for h_k, f_k in ((h, f * np.nan), (h * np.nan, f)):
            with pytest.raises(ValueError, match="must be finite"):
                dp.digital_precoder(h_k, f_k, 4)


class TestMaterialize:
    def test_stack_shapes(self):
        cfg = make_config(n_tx=32, ttds_per_rf=4, ps_per_ttd=8, n_subcarriers=9)
        design = random_design(cfg, 2)
        channel = dp.sample_channel(cfg, dp.make_rng(1))
        pset = dp.materialize(cfg, design, psi=[0.1, 0.2, 0.3, 0.4], channel=channel)
        assert pset.f1.shape == (32, 16)
        assert pset.ttd.shape == (9, 16, 4)
        assert pset.analog.shape == (9, 32, 4)
        assert pset.ideal.shape == (9, 32, 4)
        assert pset.digital.shape == (9, 4, 4)
