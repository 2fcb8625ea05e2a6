import numpy as np
import pytest

import delayphase as dp
import qp_oracle as qp
from conftest import make_config


def small_config(**kw):
    base = dict(n_tx=8, n_rx=1, n_rf=1, n_streams=1, ttds_per_rf=4, ps_per_ttd=2,
                n_subcarriers=5, bandwidth=30e9, t_max=50e-12)
    base.update(kw)
    return make_config(**base)


def random_branch(rng):
    n_ps = int(rng.integers(2, 17))
    m_ttd = int(rng.integers(1, 9))
    cfg = make_config(
        n_tx=n_ps * m_ttd, n_rx=1, n_rf=1, n_streams=1,
        ttds_per_rf=m_ttd, ps_per_ttd=n_ps,
        n_subcarriers=int(rng.integers(1, 64)) * 2 + 1,
        bandwidth=rng.uniform(0.01, 0.2) * 300e9,
        t_max=rng.uniform(10e-12, 1e-9),
    )
    psi = rng.uniform(0, 1)
    element = int(rng.integers(1, m_ttd + 1))
    return qp.branch_qp(cfg, psi, element)


class TestAssembly:
    def test_closed_form_inverse(self, cfg):
        branch = qp.branch_qp(cfg, 0.8, 3)
        prod = np.asarray(branch.C @ branch.inverse_closed_form(), float)
        assert np.max(np.abs(prod - np.eye(17))) < 1e-10

    def test_delay_coordinate_of_inverse(self, cfg):
        branch = qp.branch_qp(cfg, 0.8)
        inv = branch.inverse_closed_form()
        assert float(inv[-1, -1]) == pytest.approx(1 / branch.eta, rel=1e-12)

    def test_unconstrained_delay_value(self, cfg):
        # e^T C^{-1} d = ((2m-1)N - 1)/2 * psi; N=16, m=1, psi=0.8 -> 6.0
        branch = qp.branch_qp(cfg, 0.8, 1)
        inv = branch.inverse_closed_form()
        assert float(inv[-1] @ branch.d) == pytest.approx(6.0, abs=1e-10)

    def test_zero_direction_zero_linear_term(self, cfg):
        branch = qp.branch_qp(cfg, 0.0, 5)
        assert np.all(np.asarray(branch.d, float) == 0.0)

    def test_quadratic_is_positive_definite(self, cfg):
        branch = qp.branch_qp(cfg, 0.8)
        c = np.asarray(branch.C, float)
        assert np.allclose(c, c.T)
        assert np.min(np.linalg.eigvalsh(c)) > 0

    def test_curvature_positive_and_matches_formula(self, cfg):
        eta = qp.branch_eta(cfg)
        K = cfg.n_subcarriers
        expected = 16 * 0.01 * (K * K - 1) / (12 * K * K)
        assert eta == pytest.approx(expected, rel=1e-12)
        assert eta > 0

    def test_zero_bandwidth_rejected(self):
        cfg = small_config(bandwidth=0.0)
        with pytest.raises(ValueError):
            qp.branch_qp(cfg, 0.5)

    def test_single_subcarrier_rejected(self):
        cfg = small_config(n_subcarriers=1)
        with pytest.raises(ValueError):
            qp.branch_qp(cfg, 0.5)

    def test_index_validation(self, cfg):
        with pytest.raises(ValueError):
            qp.branch_qp(cfg, 0.5, element=17)
        with pytest.raises(ValueError):
            qp.branch_qp(cfg, 1.5)
        # NaN used to pass, and solve_kkt then blamed its own case analysis
        with pytest.raises(ValueError, match=r"\|psi\| <= 1"):
            qp.branch_qp(cfg, np.nan)


class TestKkt:
    def test_interior_case(self, cfg):
        # theta budget 204 >> 6: box inactive, phases are the symmetric ramp
        branch = qp.branch_qp(cfg, 0.8, 1)
        sol = qp.solve_kkt(branch)
        assert sol.case == "interior"
        assert sol.lam_upper == 0.0 and sol.lam_lower == 0.0
        n = np.arange(1, 17)
        assert np.allclose(np.asarray(sol.a[:16], float), (16 - 2 * n + 1) / 2 * 0.8, atol=1e-10)
        assert float(sol.a[16]) == pytest.approx(6.0, abs=1e-10)

    def test_upper_active_case(self):
        # m=16, t_max=320ps: budget 192 < required 198, delay pinned at the budget
        cfg = make_config(t_max=320e-12)
        branch = qp.branch_qp(cfg, 0.8, 16)
        sol = qp.solve_kkt(branch)
        assert sol.case == "upper"
        assert sol.lam_upper > 0
        assert float(sol.a[16]) == pytest.approx(192.0, abs=1e-10)
        expected = 192.0 - np.asarray(branch.targets, float)
        assert np.allclose(np.asarray(sol.a[:16], float), expected, atol=1e-10)
        assert float(sol.a[0]) == pytest.approx(0.0, abs=1e-10)
        assert float(sol.a[15]) == pytest.approx(-12.0, abs=1e-10)

    def test_lower_active_case(self):
        cfg = small_config()
        branch = qp.branch_qp(cfg, -0.6, 3)
        sol = qp.solve_kkt(branch)
        assert sol.case == "lower"
        assert sol.lam_lower > 0
        assert float(sol.a[-1]) == 0.0

    def test_zero_direction_all_slack(self, cfg):
        sol = qp.solve_kkt(qp.branch_qp(cfg, 0.0, 4))
        assert np.all(np.asarray(sol.a, float) == 0.0)
        assert sol.case == "interior"

    def test_first_order_conditions_random(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            branch = random_branch(rng)
            sol = qp.solve_kkt(branch)
            e = np.zeros(branch.n_ps + 1)
            e[-1] = 1.0
            stat = 2 * (np.asarray(branch.C @ sol.a - branch.d, float)) \
                + (sol.lam_upper - sol.lam_lower) * e
            assert np.max(np.abs(stat)) < 1e-9
            theta = float(sol.a[-1])
            assert 0.0 <= theta <= branch.theta_max
            assert abs(sol.lam_upper * (theta - branch.theta_max)) < 1e-9
            assert abs(sol.lam_lower * theta) < 1e-9


class TestProjectedGradient:
    def test_agrees_with_kkt(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            branch = random_branch(rng)
            kkt = qp.solve_kkt(branch)
            pgd = qp.solve_projected(branch)
            assert np.max(np.abs(np.asarray(pgd - kkt.a, float))) < 1e-8

    def test_objective_dominates_reference_points(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            branch = random_branch(rng)
            a = qp.solve_projected(branch)
            best = branch.objective(a)
            zero = np.zeros(branch.n_ps + 1)
            assert best <= branch.objective(zero) + 1e-9
            clipped = np.asarray(np.linalg.solve(
                np.asarray(branch.C, float), np.asarray(branch.d, float)))
            clipped[-1] = np.clip(clipped[-1], 0, branch.theta_max)
            assert best <= branch.objective(clipped) + 1e-9

    def test_zero_budget_pins_delay(self):
        cfg = small_config(t_max=0.0)
        branch = qp.branch_qp(cfg, 0.7, 2)
        a = qp.solve_projected(branch)
        assert float(a[-1]) == 0.0

    def test_cold_start_agrees_on_friendly_instance(self):
        # moderate curvature: plain iteration from zero converges fine
        cfg = small_config(bandwidth=60e9, n_subcarriers=9)
        branch = qp.branch_qp(cfg, 0.5, 2)
        warm = qp.solve_projected(branch)
        cold = qp.solve_projected(branch, tol=1e-13, x0=np.zeros(branch.n_ps + 1))
        assert np.max(np.abs(np.asarray(warm - cold, float))) < 1e-8

    def test_iteration_budget_error(self):
        cfg = small_config()
        branch = qp.branch_qp(cfg, 0.9, 4)
        far = np.full(branch.n_ps + 1, 50.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            qp.solve_projected(branch, max_iter=1, x0=far)

    def test_invalid_tolerance(self, cfg):
        with pytest.raises(ValueError):
            qp.solve_projected(qp.branch_qp(cfg, 0.1), tol=0.0)


class TestPhaseDistance:
    def test_coincident_points(self):
        assert abs(np.exp(0.4j) - np.exp(0.4j)) == 0.0

    def test_chord_identity(self):
        # |e^jx - e^jy| = 2 sin(|x-y|/2) on |x-y| < pi
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.uniform(-10, 10)
            y = x + rng.uniform(-np.pi, np.pi)
            chord, arc = abs(np.exp(1j * x) - np.exp(1j * y)), abs(x - y)
            assert chord == pytest.approx(2 * np.sin(arc / 2), abs=1e-12)

    def test_ordering_preserved(self):
        # closer arc -> shorter chord across a grid
        x = 0.3
        arcs = np.linspace(0, np.pi - 1e-9, 50)
        chords = np.abs(np.exp(1j * x) - np.exp(1j * (x + arcs)))
        assert np.all(np.diff(chords) > -1e-15)


class TestObjectiveEquivalence:
    def test_quadratic_matches_residual_sum(self):
        # per-branch objective (plus the constant target energy) equals the
        # grid-averaged sum of squared phase residuals, by direct enumeration
        rng = np.random.default_rng(3)
        cfg = small_config(n_tx=6, ttds_per_rf=3, ps_per_ttd=2)
        for _ in range(10):
            psi = rng.uniform(-0.3, 0.3)
            element = int(rng.integers(1, 4))
            branch = qp.branch_qp(cfg, psi, element)
            a = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0, branch.theta_max, 1)])
            gamma = np.asarray(branch.targets, float)
            ratios = dp.freq_ratios(cfg)
            residuals = a[None, :2] - ratios[:, None] * a[2] + ratios[:, None] * gamma[None, :]
            ssq = float(np.mean(np.sum(residuals**2, axis=1)))
            const = float(np.mean(ratios**2) * np.sum(gamma**2))
            assert branch.objective(a) + const == pytest.approx(ssq, rel=1e-10, abs=1e-12)

    def test_frobenius_distance_equals_chord_map_of_residuals(self):
        # matrix-space distance to the ideal precoder is exactly the chord map
        # (4/n_tx) sum sin^2(pi r / 2) of the phase residuals, entry by entry
        rng = np.random.default_rng(17)
        cfg = small_config(n_tx=6, ttds_per_rf=3, ps_per_ttd=2, n_rx=2, n_rf=2,
                           n_streams=2, n_subcarriers=5, t_max=1e-13)
        psi = np.array([0.15, -0.1])
        phases = rng.uniform(-0.1, 0.1, (2, 3, 2))
        delays = rng.uniform(0, cfg.t_max, (2, 3))
        design = dp.AnalogDesign(phases=phases, delays=delays)
        theta = 2.0 * cfg.f_c * design.delays

        analog, ideal = dp.analog_stack(cfg, design), dp.ideal_stack(cfg, psi)
        frob = 0.0
        chord = 0.0
        K = cfg.n_subcarriers
        for k in range(1, K + 1):
            frob += np.linalg.norm(ideal[k - 1] - analog[k - 1]) ** 2 / K
            z = dp.freq_ratios(cfg)[k - 1]
            for l in range(2):
                for m in range(3):
                    for n in range(2):
                        gamma = ((m * 2) + n) * psi[l]
                        r = phases[l, m, n] - z * theta[l, m] + z * gamma
                        assert abs(r) < 1.0  # chord/arc equivalence regime
                        chord += 4 / cfg.n_tx * np.sin(np.pi * r / 2) ** 2 / K
        assert frob == pytest.approx(chord, rel=1e-12)
