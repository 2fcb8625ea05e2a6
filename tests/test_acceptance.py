"""Acceptance gate: the headline criteria, one PASS/FAIL line each.

Criteria 1-8 and 10 are here; criterion 9 (the large-system optimality of the
ideal analog precoder) is not written yet.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

import delayphase as dp
import qp_oracle as qp
from conftest import HEADLINE, make_config
from paper_formulas import squint_offset


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_matches_gradient_oracle():
    """1000 random branches: joint design equals the projected-gradient solve
    to 1e-8 in every coordinate, in under a minute."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_ps = int(rng.integers(2, 33))
        m_ttd = int(rng.integers(1, 33))
        element = int(rng.integers(1, m_ttd + 1))
        cfg = make_config(
            n_tx=n_ps * m_ttd, n_rx=1, n_rf=1, n_streams=1,
            ttds_per_rf=m_ttd, ps_per_ttd=n_ps,
            n_subcarriers=int(rng.integers(1, 129)) * 2 + 1,  # odd, 3..257
            bandwidth=rng.uniform(0.01, 0.2) * 300e9,
            t_max=rng.uniform(10e-12, 1e-9),
        )
        psi = float(rng.uniform(0.0, 1.0))
        rep = dp.design_joint(cfg, [psi])
        a = qp.solve_projected(qp.branch_qp(cfg, psi, element))
        phase_diff = np.max(np.abs(
            np.asarray(a[:n_ps], float) - rep.design.phases[0, element - 1]))
        delay_diff = abs(float(a[n_ps]) - 2 * cfg.f_c * rep.design.delays[0, element - 1])
        worst = max(worst, float(phase_diff), delay_diff)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (oracle equivalence)",
           worst <= 1e-8 and elapsed <= 60.0,
           f"worst coordinate diff {worst:.3e} over 1000 branches in {elapsed:.1f}s")


def test_criterion_2_sizing_reproduction():
    """720 antennas, 0.9 floor: closed form gives 60; 60 meets the floor at
    every subcarrier; 48 misses it on 18% +/- 2% of subcarriers."""
    cfg = make_config(n_tx=720, ttds_per_rf=16, ps_per_ttd=45, t_max=1000e-12)
    m_star = dp.min_ttds(cfg, 0.9, 0.8)
    worst60 = dp.size_ttds(cfg, 0.9, 0.8).worst_gain_by_divisor[60]
    deltas = np.array([squint_offset(cfg, k, 0.8)
                       for k in range(1, cfg.n_subcarriers + 1)])
    frac48 = float(np.mean(dp.dirichlet_gain(720 // 48, deltas) < 0.9))
    ok = (m_star == 60) and (worst60 >= 0.9) and (0.16 <= frac48 <= 0.20)
    report("criterion 2 (element-count sizing)", ok,
           f"m_star={m_star}, min gain at 60: {worst60:.4f}, "
           f"fraction below 0.9 at 48: {frac48:.4f}")


def test_criterion_3_gain_cdf_headline():
    """Joint design keeps >= 75% of subcarriers at gain >= 0.9 where the
    clipped benchmark reaches none; at a 400 ps budget the two coincide."""
    cfg, cfg400 = make_config(), make_config(t_max=400e-12)
    psi = 0.8
    joint, bench, joint400, bench400 = (
        dp.gain_profile(c, dp.analog_stack(c, design)[:, :, 0], psi)
        for c, design in ((cfg, dp.design_joint(cfg, [psi] * 4).design),
                          (cfg, dp.design_benchmark(cfg, [psi] * 4)),
                          (cfg400, dp.design_joint(cfg400, [psi] * 4).design),
                          (cfg400, dp.design_benchmark(cfg400, [psi] * 4))))
    frac_joint = float(np.mean(joint >= 0.9))
    frac_bench = float(np.mean(bench >= 0.9))
    agreement = float(np.max(np.abs(joint400 - bench400)))

    ok = frac_joint >= 0.75 and frac_bench == 0.0 and agreement <= 1e-10
    report("criterion 3 (gain CDF headline)", ok,
           f"joint fraction {frac_joint:.4f} (>=0.75), benchmark fraction "
           f"{frac_bench:.4f} (==0), 400 ps agreement {agreement:.2e}")


def test_criterion_4_wide_array_gain_collapse():
    """Frequency-flat beamforming: edge-subcarrier gain strictly decreases in
    the antenna count and falls below 0.05 at 1024, center stays at 1."""
    edges, centers = [], []
    for n_tx in (128, 256, 512, 1024):
        cfg = make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16)
        c = cfg.center_subcarrier
        flat = dp.ideal_stack(cfg, [0.8])[c - 1, :, 0]
        gains = dp.gain_profile(cfg, np.broadcast_to(flat, (cfg.n_subcarriers, n_tx)), 0.8)
        edges.append(gains[129 - 1])
        centers.append(gains[c - 1])
    decreasing = all(a > b for a, b in zip(edges, edges[1:]))
    centered = max(abs(c - 1.0) for c in centers) <= 1e-12
    ok = decreasing and edges[-1] < 0.05 and centered
    report("criterion 4 (wide-array collapse)", ok,
           f"edge gains {[f'{g:.4f}' for g in edges]}, center offset "
           f"{max(abs(c - 1) for c in centers):.1e}")


def test_criterion_5_rate_bound_and_ordering():
    """200 random channels: the determinant bound never exceeds the rate, and
    mean rates order ideal >= proposed >= benchmark (95% of trials for the
    proposed/benchmark pair)."""
    cfg = make_config()
    trials = 200
    means = {"ideal": [], "proposed": [], "benchmark": []}
    bound_violations = 0
    for trial in range(trials):
        channel = dp.sample_channel(cfg, dp.make_rng(707, stream=trial))
        psi = channel.paths.psi_tx
        stacks = {
            "proposed": dp.analog_stack(cfg, dp.design_joint(cfg, psi).design),
            "benchmark": dp.analog_stack(cfg, dp.design_benchmark(cfg, psi)),
            "ideal": dp.ideal_stack(cfg, psi),
        }
        for name, analog in stacks.items():
            # all K subcarriers in one batched call each
            w = dp.digital_precoder(channel.h, analog, cfg.n_streams)
            rates = dp.achievable_rate(channel.h, analog, w, cfg.rho, cfg.n_streams)
            bounds = dp.rate_lower_bound(channel.h, analog, w, cfg.rho, cfg.n_streams)
            bound_violations += int(np.count_nonzero(bounds > rates + 1e-9))
            means[name].append(rates.mean())
    pooled = {name: float(np.mean(vals)) for name, vals in means.items()}
    pair_fraction = float(np.mean(
        np.asarray(means["proposed"]) >= np.asarray(means["benchmark"]) - 1e-12))
    ok = (bound_violations == 0
          and pooled["ideal"] >= pooled["proposed"] >= pooled["benchmark"]
          and pair_fraction >= 0.95)
    report("criterion 5 (rate bound and ordering)", ok,
           f"bound violations {bound_violations}, pooled means "
           f"ideal {pooled['ideal']:.3f} / proposed {pooled['proposed']:.3f} / "
           f"benchmark {pooled['benchmark']:.3f}, pair fraction {pair_fraction:.3f}")


def test_criterion_6_structural_invariants():
    """Constant modulus, power normalization, the closed-form quadratic
    identities, and sharpening orthogonality of the matched precoder."""
    cfg = make_config()

    worst_modulus = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        design = dp.AnalogDesign(
            phases=r.uniform(-1, 1, (4, 16, 16)),
            delays=r.uniform(0, cfg.t_max, (4, 16)))
        stack = dp.analog_stack(cfg, design)
        for k in (1, 64, 129):
            f = stack[k - 1]
            worst_modulus = max(worst_modulus,
                                float(np.max(np.abs(np.abs(f) * np.sqrt(256) - 1))))

    worst_norm = 0.0
    for trial in range(5):
        channel = dp.sample_channel(cfg, dp.make_rng(42, stream=trial))
        rep = dp.design_joint(cfg, channel.paths.psi_tx)
        analog = dp.analog_stack(cfg, rep.design)
        digital = dp.digital_precoder(channel.h, analog, cfg.n_streams)
        for k in (1, 65, 129):
            norm2 = np.linalg.norm(analog[k - 1] @ digital[k - 1]) ** 2
            worst_norm = max(worst_norm, abs(norm2 - cfg.n_streams))

    branch = qp.branch_qp(cfg, 0.8, 7)
    inv = branch.inverse_closed_form()
    id_err = float(np.max(np.abs(np.asarray(branch.C @ inv, float) - np.eye(17))))
    corner_err = abs(float(inv[-1, -1]) - 1 / branch.eta) * branch.eta
    target = (2 * 7 - 1) * 16 - 1
    lin_err = abs(float(inv[-1] @ branch.d) - target / 2 * 0.8)
    z = dp.freq_ratios(cfg)
    eta_over_n = qp.branch_eta(cfg) / 16
    grid_err = max(abs(z.sum() - 129) / 129,
                   abs((z * z).sum() - 129 * (1 + eta_over_n)) / 129)

    psi_set = np.array([-0.8, -0.35, 0.3, 0.75])
    gram = []
    for n_tx in (64, 256, 1024):
        ideal = dp.ideal_stack(make_config(n_tx=n_tx, ps_per_ttd=n_tx // 16), psi_set)
        worst = max(np.linalg.norm(ideal[k - 1].conj().T @ ideal[k - 1] - np.eye(4))
                    for k in (1, 33, 65, 97, 129))
        gram.append(worst)

    ok = (worst_modulus < 1e-12 and worst_norm < 1e-10
          and id_err < 1e-10 and corner_err < 1e-10 and lin_err < 1e-10
          and grid_err < 1e-12 and gram[0] >= gram[1] >= gram[2])
    report("criterion 6 (structural invariants)", ok,
           f"modulus {worst_modulus:.1e}, power-norm {worst_norm:.1e}, "
           f"inverse {id_err:.1e}, corner {corner_err:.1e}, linear-term {lin_err:.1e}, "
           f"grid {grid_err:.1e}, gram {['%.4f' % g for g in gram]}")


def test_criterion_7_selection_criteria_values():
    """Antenna-count bound 263 and delay-budget bound 330 ps at the headline
    configuration (the bound evaluates to 330 ps, not the rounded 320 ps)."""
    cfg = make_config()
    nt = dp.nt_upper_bound(cfg, 0.8)
    tmax = dp.tmax_lower_bound(cfg, 0.8)
    ok = nt == 263 and abs(tmax - 330e-12) <= 1e-12 * 330e-12
    report("criterion 7 (selection criteria)", ok,
           f"antenna bound {nt} (=263), delay bound {tmax * 1e12:.6f} ps (=330)")


def test_criterion_8_harness_determinism(tmp_path):
    """Re-running any scenario with the same seed is byte-identical on CSV
    outputs, independent of the thread count."""
    scenario_blob = dict(
        experiment="rate_cdf",
        config=dict(HEADLINE, n_tx=32, ttds_per_rf=8, ps_per_ttd=4,
                    n_rx=2, n_rf=2, n_streams=2, n_subcarriers=17),
        trials=4,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_blob))
    snapshots = []
    for label, threads in (("a", 1), ("b", 4), ("c", 2)):
        result = dp.run(dp.Scenario.from_file(path), seed=11,
                        out_dir=tmp_path / label, threads=threads)
        snapshots.append({p.name: p.read_bytes()
                          for p in result.files if p.suffix == ".csv"})
    gain_blob = dict(experiment="gain_cdf",
                     config=dict(HEADLINE), psi_eval=0.8)
    gpath = tmp_path / "gain.json"
    gpath.write_text(json.dumps(gain_blob))
    gain_snaps = []
    for label in ("g1", "g2"):
        result = dp.run(dp.Scenario.from_file(gpath), seed=5,
                        out_dir=tmp_path / label)
        gain_snaps.append({p.name: p.read_bytes() for p in result.files})
    ok = (snapshots[0] == snapshots[1] == snapshots[2]
          and gain_snaps[0] == gain_snaps[1]
          and len(snapshots[0]) > 0)
    report("criterion 8 (harness determinism)", ok,
           f"{len(snapshots[0])} rate CSVs and {len(gain_snaps[0])} gain files "
           f"byte-identical across thread counts 1/4/2")


def test_criterion_10_sized_array_gain_guarantee():
    """The paper's array-gain guarantee end to end, on public functions only.

    Sample (seed 101): 25 configs with n_rf = 1, n_tx drawn from {64, 120,
    256, 360, 720}, odd K in 3..257, B in [0.01, 0.2] x 300 GHz, g0 in
    [0.5, 0.99] and psi_max in [0.1, 1]; 13 directions each, evenly spaced
    over [-psi_max, psi_max] with both ends, so 325 cases. min_ttds sets the
    delay elements per chain, tmax_lower_bound the delay budget, and the joint
    design's worst gain over the band, from design_joint, analog_stack and
    gain_profile, must reach g0 in every case. The benchmark design, at the
    same count and budget, must miss g0 in some of the 50 end-direction cases.
    """
    rng = np.random.default_rng(101)
    worst_margin, bench_misses, cases = np.inf, 0, 0
    for _ in range(25):
        n_tx = int(rng.choice([64, 120, 256, 360, 720]))
        unsized = make_config(n_tx=n_tx, n_rx=1, n_rf=1, n_streams=1, ttds_per_rf=1,
                              ps_per_ttd=n_tx, n_subcarriers=int(rng.integers(1, 129)) * 2 + 1,
                              bandwidth=rng.uniform(0.01, 0.2) * 300e9)
        g0, psi_max = rng.uniform(0.5, 0.99), rng.uniform(0.1, 1.0)
        m = dp.min_ttds(unsized, g0, psi_max)
        sized = unsized.replace(ttds_per_rf=m, ps_per_ttd=n_tx // m)
        cfg = sized.replace(t_max=dp.tmax_lower_bound(sized, psi_max))
        directions = np.linspace(-psi_max, psi_max, 13)
        for psi in directions:
            joint = dp.analog_stack(cfg, dp.design_joint(cfg, [psi]).design)[:, :, 0]
            worst_margin = min(worst_margin, dp.gain_profile(cfg, joint, psi).min() - g0)
            cases += 1
        for psi in directions[[0, -1]]:
            bench = dp.analog_stack(cfg, dp.design_benchmark(cfg, [psi]))[:, :, 0]
            bench_misses += int(dp.gain_profile(cfg, bench, psi).min() < g0)
    ok = worst_margin >= 0.0 and bench_misses > 0
    report("criterion 10 (sized array-gain guarantee)", ok,
           f"joint worst gain - g0 = {worst_margin:+.2e} (>=0) over {cases} cases, "
           f"benchmark below g0 in {bench_misses} of 50 end-direction cases (>0)")
