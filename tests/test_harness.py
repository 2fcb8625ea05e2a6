import json
from pathlib import Path

import numpy as np
import pytest

import delayphase as dp
from conftest import HEADLINE
from delayphase.cli import main

ROOT = Path(__file__).resolve().parents[1]


def small_config_dict(**kw):
    base = dict(HEADLINE)
    base.update(n_tx=32, ttds_per_rf=8, ps_per_ttd=4, n_rx=2, n_rf=2,
                n_streams=2, n_subcarriers=9)
    base.update(kw)
    return base


def write_scenario(tmp_path, name="scenario.json", **kw):
    blob = dict(experiment="gain_cdf", config=small_config_dict(), psi_eval=0.8)
    blob.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


class TestScenario:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, sweep=[["t_max", [3.2e-10, 3.4e-10]]], trials=7)
        sc = dp.Scenario.from_file(path)
        assert sc.experiment == "gain_cdf"
        assert sc.sweep == [("t_max", [3.2e-10, 3.4e-10])]
        assert sc.trials == 7
        assert sc.config.n_tx == 32

    def test_unknown_experiment_rejected(self, tmp_path):
        path = write_scenario(tmp_path, experiment="nope")
        with pytest.raises(ValueError, match="unknown experiment"):
            dp.Scenario.from_file(path)

    def test_bad_sweep_field_rejected(self, tmp_path):
        path = write_scenario(tmp_path, sweep=[["carrier", [1, 2]]])
        with pytest.raises(ValueError, match="not a config field"):
            dp.Scenario.from_file(path)

    def test_rate_cdf_needs_trials(self, tmp_path):
        path = write_scenario(tmp_path, experiment="rate_cdf", trials=0)
        with pytest.raises(ValueError, match="trials"):
            dp.Scenario.from_file(path)

    @pytest.mark.parametrize("fields, message", [
        (dict(psi_eval=float("nan")), "psi_eval"),
        (dict(psi_eval=1.5), "psi_eval"),
        (dict(experiment="sizing", g0=1.5), "g0"),
        (dict(experiment="rate_cdf", trials=2.5), "trials"),
        (dict(experiment="rate_cdf", trials=True), "trials"),
        (dict(config=dict(HEADLINE), sweep=[["n_tx", [100]]]), "not divisible"),
        (dict(sweep=[["t_max", [-1e-12]]]), "t_max"),
        (dict(sweep=[["t_max", ["long"]]]), "t_max"),
        (dict(experiment="prop1_sweep", sweep=[["t_max", [3e-10]]]), "n_tx only"),
        (dict(psi_eval=True), "psi_eval"),
        (dict(experiment="sizing", psi_eval=0.0), "psi_eval"),
        (dict(experiment="sizing", psi_eval=-0.5), "psi_eval"),
        (dict(experiment="criteria_report", psi_eval=-0.5), "psi_eval"),
    ])
    def test_bad_input_rejected_when_built(self, tmp_path, capsys, fields, message):
        path = write_scenario(tmp_path, **fields)
        with pytest.raises(ValueError, match=message):
            dp.Scenario.from_file(path)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, value, message", [
        ("psi_eval", 1.5, "psi_eval must be a number"),
        ("g0", 0.0, "g0 must lie strictly"),
        ("sweep", [("t_max", [-1e-12])], "t_max must be non-negative"),
    ])
    def test_field_assigned_after_build_rejected_before_writing(self, tmp_path, name, value,
                                                               message):
        # Scenario is mutable, so run checks it again, before it writes anything
        sc = dp.Scenario.from_file(ROOT / "scenarios" / "gain_cdf.json")
        setattr(sc, name, value)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            dp.run(sc, out_dir=out)
        assert not out.exists()


class TestGainCdfRun:
    def test_files_schema_and_values(self, tmp_path):
        sc = dp.Scenario.from_file(write_scenario(tmp_path))
        result = dp.run(sc, out_dir=tmp_path / "out")
        names = sorted(p.name for p in result.files)
        assert "gain_profile_proposed.csv" in names
        assert "gain_cdf_benchmark.csv" in names
        assert "gain_cdf_ideal.csv" in names
        prof = (tmp_path / "out" / "gain_profile_proposed.csv").read_text().splitlines()
        assert prof[0] == "k,f_k,value"
        assert len(prof) == 1 + 9
        ks = [int(line.split(",")[0]) for line in prof[1:]]
        assert ks == sorted(ks)
        gains = np.array([float(line.split(",")[2]) for line in prof[1:]])
        assert np.all(gains >= 0) and np.all(gains <= 1 + 1e-12)
        cdf = (tmp_path / "out" / "gain_cdf_ideal.csv").read_text().splitlines()
        assert cdf[0] == "x,G"
        assert float(cdf[-1].split(",")[1]) == 1.0

    def test_sweep_point_files(self, tmp_path):
        sc = dp.Scenario.from_file(
            write_scenario(tmp_path, sweep=[["t_max", [3.2e-10, 4e-10]]]))
        result = dp.run(sc, out_dir=tmp_path / "out")
        names = {p.name for p in result.files}
        assert "gain_cdf_proposed_t_max=3.2e-10.csv" in names
        assert "gain_cdf_proposed_t_max=4e-10.csv" in names

    def test_antenna_sweep_rebalances_subarrays(self, tmp_path):
        sc = dp.Scenario.from_file(write_scenario(tmp_path, sweep=[["n_tx", [16, 32]]]))
        result = dp.run(sc, out_dir=tmp_path / "out")
        names = {p.name for p in result.files}
        assert "gain_cdf_proposed_n_tx=16.csv" in names
        assert "gain_cdf_proposed_n_tx=32.csv" in names

    def test_indivisible_antenna_sweep_rejected(self, tmp_path):
        # rejected when the scenario is built, before any output is written
        with pytest.raises(ValueError, match="not divisible"):
            dp.Scenario.from_file(write_scenario(tmp_path, sweep=[["n_tx", [20]]]))

    def test_manifest_contents(self, tmp_path):
        sc = dp.Scenario.from_file(write_scenario(tmp_path))
        result = dp.run(sc, seed=99, out_dir=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["experiment"] == "gain_cdf"
        assert manifest["config"]["n_tx"] == 32
        assert manifest["files"] == sorted(p.name for p in result.files)
        assert "version" in manifest and "started_utc" in manifest


class TestRateCdfRun:
    def test_outputs_and_determinism_across_threads(self, tmp_path):
        path = write_scenario(tmp_path, experiment="rate_cdf", trials=3)
        outputs = {}
        for label, threads in (("a", 1), ("b", 3), ("c", 1)):
            sc = dp.Scenario.from_file(path)
            result = dp.run(sc, seed=5, out_dir=tmp_path / label, threads=threads)
            outputs[label] = {
                p.name: p.read_bytes() for p in result.files if p.suffix == ".csv"
            }
        assert outputs["a"] == outputs["b"] == outputs["c"]
        assert any(name.startswith("rate_cdf_proposed") for name in outputs["a"])

    def test_rates_nonnegative_and_mean_table(self, tmp_path):
        sc = dp.Scenario.from_file(
            write_scenario(tmp_path, experiment="rate_cdf", trials=2))
        dp.run(sc, seed=1, out_dir=tmp_path / "out")
        mean_lines = (tmp_path / "out" / "rate_mean.csv").read_text().splitlines()
        assert mean_lines[0] == "design,mean_rate"
        means = {line.split(",")[0]: float(line.split(",")[1]) for line in mean_lines[1:]}
        assert set(means) == {"proposed", "benchmark", "ideal"}
        assert all(v >= 0 for v in means.values())


class TestSizingRun:
    def test_headline_sizing_scenario(self, tmp_path):
        blob = dict(
            experiment="sizing",
            config=dict(HEADLINE, n_tx=720, ttds_per_rf=16, ps_per_ttd=45,
                        t_max=1000e-12),
            psi_eval=0.8,
            g0=0.9,
        )
        path = tmp_path / "sizing.json"
        path.write_text(json.dumps(blob))
        sc = dp.Scenario.from_file(path)
        dp.run(sc, out_dir=tmp_path / "out")
        result = json.loads((tmp_path / "out" / "sizing_result.json").read_text())
        assert result["m_star"] == 60
        assert result["m_exact"] == 60
        trace = (tmp_path / "out" / "sizing_trace.csv").read_text().splitlines()
        assert trace[0] == "m,worst_gain"
        ms = [int(line.split(",")[0]) for line in trace[1:]]
        assert ms == sorted(ms)


class TestProp1Run:
    def test_edge_gain_decreases(self, tmp_path):
        blob = dict(experiment="prop1_sweep", config=dict(HEADLINE), psi_eval=0.8)
        path = tmp_path / "prop1.json"
        path.write_text(json.dumps(blob))
        sc = dp.Scenario.from_file(path)
        dp.run(sc, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "prop1_sweep.csv").read_text().splitlines()
        assert lines[0] == "n_tx,gain_edge,gain_center"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [128, 256, 512, 1024]
        edges = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(edges, edges[1:]))
        centers = [float(r[2]) for r in rows]
        assert all(abs(c - 1) < 1e-12 for c in centers)


class TestCriteriaRun:
    def test_bounds_table(self, tmp_path):
        blob = dict(experiment="criteria_report", config=dict(HEADLINE), psi_eval=0.8)
        path = tmp_path / "criteria.json"
        path.write_text(json.dumps(blob))
        sc = dp.Scenario.from_file(path)
        dp.run(sc, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "criteria_report.csv").read_text().splitlines()
        assert lines[0] == "param,value,nt_bound,tmax_bound_s"
        _, _, nt, tmax = lines[1].split(",")
        assert int(nt) == 263
        assert float(tmax) == pytest.approx(3.3e-10, rel=1e-12)


class TestJsonFormat:
    def test_tables_as_json(self, tmp_path):
        sc = dp.Scenario.from_file(write_scenario(tmp_path))
        result = dp.run(sc, out_dir=tmp_path / "out", fmt="json")
        name = "gain_profile_proposed.json"
        assert name in {p.name for p in result.files}
        payload = json.loads((tmp_path / "out" / name).read_text())
        assert payload["header"] == ["k", "f_k", "value"]
        assert len(payload["rows"]) == 9


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["run", str(path), "--seed", "3", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out
        assert (tmp_path / "o" / "gain_cdf_proposed.csv").exists()

    def test_missing_scenario_fails(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_fails(self, tmp_path, capsys):
        path = write_scenario(tmp_path, experiment="bogus")
        code = main(["run", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_threads_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, experiment="rate_cdf", trials=2)
        code = main(["run", str(path), "--threads", "0", "--out-dir", str(tmp_path / "t")])
        assert code == 1
        assert "threads must be an integer >= 1" in capsys.readouterr().err
        with pytest.raises(ValueError, match="threads"):
            dp.run(dp.Scenario.from_file(path), out_dir=tmp_path / "t", threads=-1)
        # a bool or a non-integer is rejected before any file is written
        for name, value in (("threads", 2.5), ("threads", True), ("seed", 2.7), ("seed", "7"),
                            ("seed", True)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                dp.run(dp.Scenario.from_file(path), out_dir=tmp_path / "bad", **{name: value})
        assert not (tmp_path / "bad").exists()

    def test_budget_at_the_clamp_threshold_runs(self, tmp_path):
        # 330 ps is tmax_lower_bound at 256 antennas and psi = 0.8: the joint
        # design's last element sits exactly on the clamp threshold
        blob = dict(experiment="gain_cdf", config=dict(HEADLINE), psi_eval=0.8,
                    sweep=[["t_max", [3.3e-10]]])
        path = tmp_path / "gain.json"
        path.write_text(json.dumps(blob))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "gain_cdf_proposed_t_max=3.3e-10.csv").exists()

    def test_threads_flag(self, tmp_path):
        path = write_scenario(tmp_path, experiment="rate_cdf", trials=2)
        code = main(["run", str(path), "--threads", "2",
                     "--out-dir", str(tmp_path / "t")])
        assert code == 0
