"""The benchmark's workloads.

Each workload splits one pass into three steps. ``prepare(i)`` makes pass i's
inputs from the workload seed; ``run(inputs)`` is the timed call into the
program; ``digest(inputs, output)`` reduces the output to a small record and
adds the reference values it must match. ``check(record)`` lists what in one
record is wrong. Once checked, a record is cut down to its ``KEEP`` keys, so
the benchmark's memory does not grow with the pass count; ``pooled(records)``
lists what is wrong across the whole run.
Every program function is called through its module attribute, so the tracer
sees each call.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference as ref
from delayphase import design, harness, metrics, model, precoders

# The headline system of scenarios/*.json: 300 GHz carrier, 30 GHz bandwidth,
# 129 subcarriers, 256 antennas, 16 TTDs per RF chain, 4x4 MIMO, 340 ps, 3 dB.
HEADLINE = dict(f_c=3e11, bandwidth=3e10, n_subcarriers=129, n_tx=256, n_rx=4,
                n_rf=4, n_streams=4, ttds_per_rf=16, ps_per_ttd=16, t_max=3.4e-10,
                rho_db=3.0, seed=1)
SIZING = dict(HEADLINE, n_tx=720, ps_per_ttd=45, t_max=1e-9)
DESIGNS = ("proposed", "benchmark", "ideal")
PSI = 0.8
T_MAX_SWEEP = (3.2e-10, 3.4e-10, 4e-10)
N_TX_SWEEP = (128, 256, 512)
PROP1_SWEEP = (128, 256, 512, 1024)
CHUNK = 17  # subcarriers per reference block, so reference arrays stay below the program's


def pass_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def philox(seed: int, stream: tuple) -> np.random.Generator:
    """The counter-based generator the harness draws trial `stream` of `seed` from."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=stream)))


def read_table_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def read_table(path: Path) -> np.ndarray:
    return np.array(read_table_rows(path), dtype=float)


def stem(param: str, value) -> str:
    return f"{param}={format(float(value), '.12g')}"


def chunks(n_sc: int):
    ks = np.arange(1, n_sc + 1)
    return [ks[i:i + CHUNK] for i in range(0, n_sc, CHUNK)]


def rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def rate_references(cfg: dict, gains, delays, aod, aoa, designs: dict) -> dict:
    """Reference rates of each design on one channel, plus the rank-deficient subcarrier count.

    ``designs`` maps proposed/benchmark to AnalogDesigns; ideal is rebuilt here.
    """
    psi = np.sin(aod)
    out = {name: [] for name in DESIGNS}
    deficient = 0
    for ks in chunks(cfg["n_subcarriers"]):
        h = ref.channel(cfg, gains, delays, aod, aoa, ks)
        deficient += ref.rank_deficient(h, cfg["n_streams"])
        for name in DESIGNS:
            f = (ref.ideal(cfg, psi, ks) if name == "ideal" else
                 ref.analog(cfg, designs[name].phases, designs[name].delays, ks))
            out[name].append(ref.rates(cfg, h, f))
    return {"rates": {name: np.concatenate(v) for name, v in out.items()},
            "rank_deficient": deficient}


def program_designs(cfg, psi) -> tuple:
    joint = design.design_joint(cfg, psi)
    return {"proposed": joint.design, "benchmark": design.design_benchmark(cfg, psi)}, \
        float(np.mean(joint.clamped))


class RateCdf:
    """harness.run on the headline rate_cdf scenario, TRIALS channels per pass, threads=1."""

    name = "rate_cdf"
    TRIALS = 1
    KEEP = ("mean", "clamped", "rank_deficient")

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / self.name
        self.scenario = harness.Scenario.from_dict(
            dict(experiment="rate_cdf", config=dict(HEADLINE), trials=self.TRIALS))
        self.cfg = model.SystemConfig.from_dict(dict(HEADLINE))

    def prepare(self, i: int) -> int:
        return pass_seed(self.seed, i)

    def run(self, seed: int):
        return harness.run(self.scenario, seed=seed, out_dir=self.out, threads=1)

    def digest(self, seed: int, result) -> dict:
        record = {"cdf": {n: read_table(self.out / f"rate_cdf_{n}.csv") for n in DESIGNS}}
        means = read_table_rows(self.out / "rate_mean.csv")
        record["mean"] = {row[0]: float(row[1]) for row in means}
        pooled = {n: [] for n in DESIGNS}
        record["clamped"], record["rank_deficient"] = [], 0
        for trial in range(self.TRIALS):
            paths = model.sample_paths(self.cfg, philox(seed, (0, trial)))
            designs, clamped = program_designs(self.cfg, np.sin(paths.aod))
            r = rate_references(HEADLINE, paths.gains, paths.delays, paths.aod, paths.aoa,
                                designs)
            for n in DESIGNS:
                pooled[n].append(r["rates"][n])
            record["clamped"].append(clamped)
            record["rank_deficient"] += r["rank_deficient"]
        record["ref"] = {n: np.sort(np.concatenate(v)) for n, v in pooled.items()}
        return record

    def check(self, record: dict) -> list:
        bad = []
        for n in DESIGNS:
            table, want = record["cdf"][n], record["ref"][n]
            if table.shape != (want.size, 2):
                bad.append(f"rate_cdf {n}: {table.shape[0]} CDF rows for {want.size} rates")
                continue
            x, g = table[:, 0], table[:, 1]
            if rel_err(x, want) > 1e-9:
                bad.append(f"rate {n}: pooled rates differ from slogdet by {rel_err(x, want):.2e}")
            if np.any(np.diff(g) < 0) or abs(g[-1] - 1) > 1e-12:
                bad.append(f"rate_cdf {n}: CDF not non-decreasing to 1")
            if rel_err(record["mean"][n], want.mean()) > 1e-9:
                bad.append(f"rate_mean {n}: {record['mean'][n]} != {want.mean()}")
        return bad

    def pooled(self, records: list) -> list:
        mean = {n: np.mean([r["mean"][n] for r in records]) for n in DESIGNS}
        if not mean["ideal"] >= mean["proposed"] >= mean["benchmark"]:
            return [f"mean rates out of order: {mean}"]
        return []

    def makeup(self, records: list) -> dict:
        return {"trials_per_pass": self.TRIALS,
                "clamped_share_joint": float(np.mean([c for r in records for c in r["clamped"]])),
                "rank_deficient_subcarriers": int(sum(r["rank_deficient"] for r in records)),
                "subcarriers_checked": int(len(records) * self.TRIALS * HEADLINE["n_subcarriers"]),
                "mean_rate": {n: float(np.mean([r["mean"][n] for r in records])) for n in DESIGNS}}

    def nudge(self, record: dict) -> str:
        record["cdf"]["proposed"][0, 0] += 1e-6
        return "rate proposed"


class RateBound:
    """The per-subcarrier rate loop of acceptance criterion 5, one channel per pass."""

    name = "rate_bound"
    KEEP = ("mean", "clamped", "rank_deficient", "zero_bounds")

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cfg = model.SystemConfig.from_dict(dict(HEADLINE))

    def prepare(self, i: int) -> np.random.Generator:
        return philox(self.seed, (i,))

    def run(self, rng):
        cfg = self.cfg
        n_sc, n_s = cfg.n_subcarriers, cfg.n_streams
        channel = model.sample_channel(cfg, rng)
        psi = channel.paths.psi_tx
        joint = design.design_joint(cfg, psi)
        bench = design.design_benchmark(cfg, psi)
        stacks = {
            "proposed": precoders.materialize(cfg, joint.design).analog,
            "benchmark": precoders.materialize(cfg, bench).analog,
            "ideal": np.stack([precoders.ideal_precoder(cfg, psi, k) for k in range(1, n_sc + 1)]),
        }
        out = {}
        for name, analog in stacks.items():
            rates, bounds = np.empty(n_sc), np.empty(n_sc)
            w = np.empty((n_sc, cfg.n_rf, n_s), dtype=complex)
            for k in range(1, n_sc + 1):
                h_k, f_k = channel.h[k - 1], analog[k - 1]
                w[k - 1] = precoders.digital_precoder(h_k, f_k, n_s)
                rates[k - 1] = metrics.achievable_rate(h_k, f_k, w[k - 1], cfg.rho, n_s)
                bounds[k - 1] = metrics.rate_lower_bound(h_k, f_k, w[k - 1], cfg.rho, n_s)
            out[name] = (rates, bounds, w)
        return channel, {"proposed": joint, "benchmark": bench}, stacks, out

    def digest(self, rng, output) -> dict:
        channel, designs, stacks, out = output
        paths = channel.paths
        joint = designs["proposed"]
        designs = {"proposed": joint.design, "benchmark": designs["benchmark"]}
        h_err = f_err = 0.0
        for ks in chunks(HEADLINE["n_subcarriers"]):
            h = ref.channel(HEADLINE, paths.gains, paths.delays, paths.aod, paths.aoa, ks)
            h_err = max(h_err, float(np.max(np.abs(channel.h[ks - 1] - h)) / np.max(np.abs(h))))
            for name in DESIGNS:
                f = (ref.ideal(HEADLINE, np.sin(paths.aod), ks) if name == "ideal" else
                     ref.analog(HEADLINE, designs[name].phases, designs[name].delays, ks))
                f_err = max(f_err, float(np.max(np.abs(stacks[name][ks - 1] - f))))
        r = rate_references(HEADLINE, paths.gains, paths.delays, paths.aod, paths.aoa, designs)
        fw = {name: np.sum(np.abs(stacks[name] @ out[name][2]) ** 2, axis=(1, 2))
              for name in DESIGNS}
        return {"rates": {n: out[n][0] for n in DESIGNS},
                "mean": {n: float(out[n][0].mean()) for n in DESIGNS},
                "bounds": {n: out[n][1] for n in DESIGNS},
                "fw_err": max(float(np.max(np.abs(fw[n] - HEADLINE["n_streams"]))) for n in DESIGNS),
                "h_err": h_err, "f_err": f_err, "ref": r["rates"],
                "rank_deficient": r["rank_deficient"],
                "zero_bounds": int(sum(np.count_nonzero(out[n][1] == 0.0) for n in DESIGNS)),
                "clamped": float(np.mean(joint.clamped))}

    def check(self, record: dict) -> list:
        bad = []
        if record["h_err"] > 1e-10:
            bad.append(f"channel differs from the path rebuild by {record['h_err']:.2e}")
        if record["f_err"] > 1e-12:
            bad.append(f"analog precoder differs from exp(j pi phases) exp(-j 2 pi f delays) "
                       f"by {record['f_err']:.2e}")
        if record["fw_err"] > 1e-10:
            bad.append(f"||F W||_F^2 off n_streams by {record['fw_err']:.2e}")
        for n in DESIGNS:
            rates, bounds = record["rates"][n], record["bounds"][n]
            if rel_err(rates, record["ref"][n]) > 1e-9:
                bad.append(f"rate {n}: differs from slogdet by {rel_err(rates, record['ref'][n]):.2e}")
            if np.any(bounds > rates + 1e-9):
                bad.append(f"rate_lower_bound {n}: exceeds the rate by {np.max(bounds - rates):.2e}")
        return bad

    def pooled(self, records: list) -> list:
        prop = np.array([r["mean"]["proposed"] for r in records])
        bench = np.array([r["mean"]["benchmark"] for r in records])
        share = float(np.mean(prop >= bench - 1e-12))
        return [] if share >= 0.95 else [f"proposed >= benchmark on only {share:.3f} of channels"]

    def makeup(self, records: list) -> dict:
        prop = np.array([r["mean"]["proposed"] for r in records])
        bench = np.array([r["mean"]["benchmark"] for r in records])
        return {"channels_per_pass": 1,
                "clamped_share_joint": float(np.mean([r["clamped"] for r in records])),
                "rank_deficient_subcarriers": int(sum(r["rank_deficient"] for r in records)),
                "zero_bounds": int(sum(r["zero_bounds"] for r in records)),
                "proposed_ge_benchmark_share": float(np.mean(prop >= bench - 1e-12)),
                "mean_rate": {n: float(np.mean([r["mean"][n] for r in records]))
                              for n in DESIGNS}}

    def nudge(self, record: dict) -> str:
        record["rates"]["proposed"][0] += 1e-6
        return "rate proposed"


class GainSizing:
    """harness.run over the design-side scenarios: gain_cdf (t_max and n_tx sweeps),
    sizing at 720 antennas, prop1_sweep and criteria_report."""

    name = "gain_sizing"
    KEEP = ("clamped",)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / self.name

        def scenario(experiment, config=HEADLINE, **kw):
            return harness.Scenario.from_dict(
                dict(experiment=experiment, config=dict(config), psi_eval=PSI, **kw))

        self.fixed = {
            "gain_tmax": scenario("gain_cdf", sweep=[["t_max", list(T_MAX_SWEEP)]]),
            "sizing": scenario("sizing", SIZING, g0=0.9),
            "prop1": scenario("prop1_sweep", sweep=[["n_tx", list(PROP1_SWEEP)]]),
            "criteria": scenario("criteria_report"),
        }
        self.scenario = scenario

    def prepare(self, i: int) -> dict:
        # The n_tx sweep looks at a seeded direction; the headline checks stay at 0.8.
        rng = np.random.default_rng([self.seed, i])
        psi = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 0.95))
        gain_ntx = self.scenario("gain_cdf", sweep=[["n_tx", list(N_TX_SWEEP)]])
        gain_ntx.psi_eval = psi
        return dict(self.fixed, gain_ntx=gain_ntx)

    def run(self, scenarios: dict):
        return {key: harness.run(sc, out_dir=self.out / key) for key, sc in scenarios.items()}

    def _points(self, scenarios):
        for value in T_MAX_SWEEP:
            yield "gain_tmax", stem("t_max", value), dict(HEADLINE, t_max=value), PSI
        psi = scenarios["gain_ntx"].psi_eval
        for value in N_TX_SWEEP:
            cfg = dict(HEADLINE, n_tx=value, ps_per_ttd=value // HEADLINE["ttds_per_rf"])
            yield "gain_ntx", stem("n_tx", value), cfg, psi

    def digest(self, scenarios, results) -> dict:
        points = []
        for key, tag, cfg, psi in self._points(scenarios):
            designs, clamped = program_designs(model.SystemConfig.from_dict(cfg), [psi] * 4)
            ks = np.arange(1, cfg["n_subcarriers"] + 1)
            want = {n: ref.gains(cfg, ref.analog(cfg, d.phases[:1], d.delays[:1], ks)[:, :, 0],
                                 psi, ks) for n, d in designs.items()}
            want["ideal"] = np.ones(ks.size)
            points.append({
                "key": key, "tag": tag, "clamped": clamped, "ref": want,
                "freqs": ref.frequencies(cfg),
                "profile": {n: read_table(self.out / key / f"gain_profile_{n}_{tag}.csv")
                            for n in DESIGNS},
                "cdf": {n: read_table(self.out / key / f"gain_cdf_{n}_{tag}.csv")
                        for n in DESIGNS}})
        with open(self.out / "sizing" / "sizing_result.json", encoding="utf-8") as fh:
            sizing_result = json.load(fh)
        trace = read_table(self.out / "sizing" / "sizing_trace.csv")
        return {
            "points": points,
            "clamped": {f"{p['key']} {p['tag']}": p["clamped"] for p in points},
            "m_star": sizing_result["m_star"],
            "trace": trace,
            "trace_ref": np.array([ref.subarray_gains(SIZING, int(m), PSI).min()
                                   for m in ref.divisors(SIZING["n_tx"])]),
            "gain_at_60": ref.subarray_gains(SIZING, 60, PSI),
            "prop1": read_table(self.out / "prop1" / "prop1_sweep.csv"),
            "criteria": read_table_rows(self.out / "criteria" / "criteria_report.csv"),
        }

    def check(self, record: dict) -> list:
        bad = []
        for p in record["points"]:
            where = f"{p['key']} {p['tag']}"
            for n in DESIGNS:
                table = p["profile"][n]
                if table.shape != (p["freqs"].size, 3):
                    bad.append(f"gain_profile {n} {where}: shape {table.shape}")
                    continue
                err = float(np.max(np.abs(table[:, 2] - p["ref"][n])))
                if err > 1e-10:
                    bad.append(f"gain {n} {where}: differs from |v^H f| by {err:.2e}")
                if rel_err(table[:, 1], p["freqs"]) > 1e-11:
                    bad.append(f"gain_profile {n} {where}: subcarrier frequencies")
                cdf = p["cdf"][n]
                if np.any(np.diff(cdf[:, 1]) <= 0) or abs(cdf[-1, 1] - 1) > 1e-12:
                    bad.append(f"gain_cdf {n} {where}: CDF not increasing to 1")
            prop, bench = p["profile"]["proposed"][:, 2], p["profile"]["benchmark"][:, 2]
            if p["tag"] == stem("t_max", 3.4e-10):
                if np.mean(prop >= 0.9) < 0.75 or np.any(bench >= 0.9):
                    bad.append(f"340 ps: proposed share {np.mean(prop >= 0.9):.3f} >= 0.9, "
                               f"benchmark {np.mean(bench >= 0.9):.3f}")
            if p["tag"] == stem("t_max", 4e-10) and np.max(np.abs(prop - bench)) > 1e-10:
                bad.append(f"400 ps: proposed and benchmark differ by {np.max(np.abs(prop - bench)):.2e}")
        trace = record["trace"]
        if record["m_star"] != 60:
            bad.append(f"sizing: m_star {record['m_star']} != 60")
        if trace.shape != (record["trace_ref"].size, 2) or \
                np.max(np.abs(trace[:, 1] - record["trace_ref"])) > 1e-10:
            bad.append("sizing trace differs from the Dirichlet-kernel gains")
        if record["gain_at_60"].min() < 0.9 or trace[trace[:, 0] == 60, 1].min() < 0.9:
            bad.append("sizing: gain at 60 elements below 0.9")
        prop1 = record["prop1"]
        edge_ref = [ref.subarray_gains(dict(HEADLINE, n_tx=int(n)), 1, PSI)[-1]
                    for n in prop1[:, 0]]
        if (list(prop1[:, 0]) != list(PROP1_SWEEP) or np.any(np.diff(prop1[:, 1]) >= 0)
                or np.max(np.abs(prop1[:, 1] - edge_ref)) > 1e-10
                or np.max(np.abs(prop1[:, 2] - 1)) > 1e-10):
            bad.append(f"prop1_sweep: {prop1.tolist()}")
        crit = record["criteria"]
        if len(crit) != 1 or crit[0][2] != "263" or abs(float(crit[0][3]) / 330e-12 - 1) > 1e-11:
            bad.append(f"criteria_report: {crit}")
        return bad

    def pooled(self, records: list) -> list:
        return []

    def makeup(self, records: list) -> dict:
        return {"gain_points_per_pass": len(T_MAX_SWEEP) + len(N_TX_SWEEP),
                "sizing_divisors": len(ref.divisors(SIZING["n_tx"])),
                "prop1_points": len(PROP1_SWEEP),
                "clamped_share_joint": {key: float(np.mean([r["clamped"][key] for r in records]))
                                        for key in records[0]["clamped"]}}

    def nudge(self, record: dict) -> str:
        record["points"][1]["profile"]["proposed"][0, 2] += 1e-8
        return "gain proposed"


WORKLOADS = {w.name: w for w in (RateCdf, RateBound, GainSizing)}
