"""Scenario runner: end-to-end experiments with deterministic seeds and CSV/JSON output.

Experiments:
    gain_cdf        per-subcarrier array-gain profiles and CDFs for the joint,
                    benchmark, and ideal designs at one spatial direction
    rate_cdf        pooled per-subcarrier achievable-rate CDFs over random channels
    sizing          minimum delay-element count with its audit trace
    prop1_sweep     edge/center-subcarrier gain of a frequency-flat beamformer vs n_tx
    criteria_report antenna-count and delay-budget selection bounds

Each experiment yields (stem, header, columns); ``run`` writes each table in
the chosen format, and the header-less sizing result as JSON. One
``_write_json`` writes every JSON file, manifest.json (configuration and seed)
included; a CSV table is formatted a column at a time and written in one piece.
Trials use counter-based RNG streams keyed by trial index, so output bytes are
identical for any thread count; with one thread they run inline. A rate trial
forms its channel and analog precoders a block of subcarriers at a time and
keeps only their small products H_k F_k. A gain_cdf sweep builds one steering
stack per run of consecutive points on one array grid (n_tx, K, f_c,
bandwidth): it is both the ideal column and the steering that gain_profile
scores columns against. A prop1_sweep point scores its flat beamformer against
a two-row steering stack, the edge and the center subcarrier. The harness calls
none of the legacy layer (materialize, PrecoderSet, ideal_precoder, array_gain).
"""

from __future__ import annotations

import datetime as _dt
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import metrics, precoders, sizing
# sample_channel is unused here but stays importable under this name: the
# benchmark's tracer (bench/spans.py) wraps it at every attribute it is bound to.
from .model import (SystemConfig, _channel_factors, _check_int, _check_real,  # noqa: F401
                    freq_ratios, make_rng, sample_channel, sample_paths, steering_gram,
                    steering_stack, subcarrier_frequencies)

DESIGN_NAMES = ("proposed", "benchmark", "ideal")
PROP1_SWEEP = [("n_tx", [128, 256, 512, 1024])]  # prop1_sweep's points when none are given
_CONFIG_FIELDS = {f.name for f in dc_fields(SystemConfig)}
_CSV_QUOTED = re.compile('[,"\n]')  # csv.writer quotes a cell holding one of these
_BLOCK = 16  # subcarriers per block of a rate trial: its channel and analog blocks stay in L2


@dataclass
class Scenario:
    """One experiment description, loadable from a JSON file."""

    config: SystemConfig
    experiment: str
    sweep: list = field(default_factory=list)  # [(config_field, [values...]), ...]
    trials: int = 100
    psi_eval: float = 0.8
    g0: float = 0.9
    out_dir: str = "results"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject bad input, so that a run never fails halfway through.

        Runs when the scenario is built and again at the start of ``run``,
        which also covers fields assigned after construction.
        """
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        for param, values in self.sweep:
            if param not in _CONFIG_FIELDS:
                raise ValueError(f"sweep parameter {param!r} is not a config field")
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"sweep values for {param!r} must be a non-empty list")
            if self.experiment == "prop1_sweep" and param != "n_tx":
                raise ValueError("prop1_sweep sweeps n_tx only")
        _check_int("trials", self.trials, 1)
        # sizing needs a direction off broadside, criteria_report a non-negative one
        low, ends = {"sizing": (0, "(]"), "criteria_report": (0, "[]")}.get(
            self.experiment, (-1, "[]"))
        _check_real("psi_eval", self.psi_eval, low, 1, ends)
        _check_real("g0", self.g0, 0, 1, ends="()")
        _sweep_points(self)  # builds, and so validates, the config of every point

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        cfg = SystemConfig.from_dict(data.pop("config"))
        sweep = [(str(p), list(v)) for p, v in data.pop("sweep", [])]
        return cls(config=cfg, sweep=sweep, **data)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class RunResult:
    out_dir: Path
    files: list
    manifest: dict


def _fmt(value) -> str:
    """One table cell: a float to 12 significant digits, anything else as str."""
    return "%.12g" % value if isinstance(value, float) else str(value)


def _values(column) -> list:
    """One column as Python values, so numpy numbers format and serialize as Python's."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return [v.item() if isinstance(v, np.generic) else v for v in column]


def _write_json(path: Path, payload) -> Path:
    """Write payload as indented, key-sorted JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _csv_cells(column) -> list:
    """One column as CSV text: _fmt of each Python value, quoted as csv.writer quotes it."""
    # an int or float array in one % operation (a longdouble's values stay numpy scalars)
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf" and column.itemsize <= 8:
        line = "%.12g\n" if column.dtype.kind == "f" else "%d\n"
        return (line * len(column) % tuple(column.tolist())).split("\n")[:-1]
    return ['"%s"' % c.replace('"', '""') if _CSV_QUOTED.search(c) else c
            for c in map(_fmt, _values(column))]


def _write_table(path: Path, header, columns, fmt: str) -> Path:
    """Write a table given column by column, each as long as the table.

    Each column becomes Python values first (_values); JSON writes them as
    they are, CSV writes the text _fmt gives each one, a column at a time (_csv_cells).
    """
    # append the extension; with_suffix would truncate stems like "t_max=3.2e-10"
    path = path.parent / f"{path.name}.{fmt}"
    if fmt == "json":
        return _write_json(path, {"header": list(header),
                                  "rows": list(zip(*map(_values, columns)))})
    lines = [",".join(_csv_cells(header)), *map(",".join, zip(*map(_csv_cells, columns)))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # like csv, write a row of one empty cell as "" so that it is not a blank line
        fh.write("\n".join(line or '""' for line in lines) + "\n")
    return path


def _sweep_points(scenario: Scenario):
    """Expand the sweep into (param, value, config) triples; no sweep -> base config.

    prop1_sweep without a sweep runs over PROP1_SWEEP.
    """
    sweep = scenario.sweep
    if not sweep and scenario.experiment == "prop1_sweep":
        sweep = PROP1_SWEEP
    if not sweep:
        return [(None, None, scenario.config)]
    return [(param, value, _apply_sweep(scenario.config, param, value))
            for param, values in sweep for value in values]


def _apply_sweep(cfg: SystemConfig, param: str, value) -> SystemConfig:
    if param == "n_tx":
        # keep the delay-element count, rebalance phase shifters per element
        _check_int("n_tx", value, 1)
        if value % cfg.ttds_per_rf != 0:
            raise ValueError(f"n_tx={value} not divisible by ttds_per_rf={cfg.ttds_per_rf}")
        return cfg.replace(n_tx=int(value), ps_per_ttd=int(value) // cfg.ttds_per_rf)
    return cfg.replace(**{param: value})


def _stem(experiment: str, design: str | None, param: str | None, value) -> str:
    name = f"{experiment}_{design}" if design else experiment
    return name if param is None else f"{name}_{param}={_fmt(value)}"


def _design_columns(cfg: SystemConfig, psi: float) -> tuple:
    """Proposed and benchmark columns toward psi, each (K, n_tx).

    Every chain of a gain table points at psi, so one chain is designed and composed;
    its column equals column 0 of the full (K, n_tx, n_rf) stack bit for bit.
    """
    one = cfg.replace(n_rf=1, n_rx=1, n_streams=1)
    return (precoders.analog_stack(one, design_mod.design_joint(one, [psi]).design)[:, :, 0],
            precoders.analog_stack(one, design_mod.design_benchmark(one, [psi]))[:, :, 0])


def _gain_tables(scenario: Scenario, seed, threads):
    psi, grid = scenario.psi_eval, None
    for param, value, cfg in _sweep_points(scenario):
        # the ideal column is gain_profile's steering stack: one per run of points on one grid
        if grid != (grid := (cfg.n_tx, cfg.n_subcarriers, cfg.f_c, cfg.bandwidth)):
            ideal = precoders.ideal_stack(cfg, [psi])[:, :, 0]
        profiles = metrics._gain_profiles((*_design_columns(cfg, psi), ideal), ideal)
        k = np.arange(1, cfg.n_subcarriers + 1)
        freqs = subcarrier_frequencies(cfg)
        for name, gains in zip(DESIGN_NAMES, profiles):
            yield (_stem("gain_profile", name, param, value), ("k", "f_k", "value"),
                   (k, freqs, gains))
            yield _stem("gain_cdf", name, param, value), ("x", "G"), metrics.empirical_cdf(gains)


def _rate_trial(cfg: SystemConfig, seed: int, point_index: int, trial: int) -> dict:
    """Per-subcarrier rates of each design on one sampled channel.

    Each rate is the eigenbeam precoder's, from H_k F_k alone. Every analog
    precoder has n_rf columns of unit norm (constant entry modulus 1/sqrt(n_tx)),
    and so has the ideal one, so ||F_k||_F^2 = n_rf throughout. The ideal
    precoder is the transmit steering table V_k of the channel H_k = A_k V_k^H,
    so H_k V_k = A_k (V_k^H V_k) comes from the closed-form steering Gram matrix
    and no ideal stack is built. The channel and the analog precoders are
    formed _BLOCK subcarriers at a time and reduced at once to the small
    products H_k F_k, so no (K, n_rx, n_tx) or (K, n_tx, n_rf) array exists;
    each product equals the whole-band one bit for bit.
    """
    rng = make_rng(seed, stream=(point_index, trial))
    paths = sample_paths(cfg, rng)
    psi_t = paths.psi_tx
    analog = (precoders._analog_blocks(cfg, design_mod.design_joint(cfg, psi_t).design),
              precoders._analog_blocks(cfg, design_mod.design_benchmark(cfg, psi_t)))
    K = cfg.n_subcarriers
    a = np.empty((K, cfg.n_rx, cfg.n_rf), complex)
    hf = np.empty((len(analog), K, cfg.n_rx, cfg.n_rf), complex)
    for start in range(0, K, _BLOCK):
        ks = slice(start, start + _BLOCK)
        a[ks], h = _channel_factors(cfg, paths, ks)
        for out, block in zip(hf, analog):
            out[ks] = h @ block(ks)
    ideal = a @ steering_gram(cfg.n_tx, freq_ratios(cfg), psi_t)
    return {name: metrics.eigenbeam_rate(g, cfg.n_rf, cfg.rho)
            for name, g in zip(DESIGN_NAMES, (*hf, ideal))}


def _rate_tables(scenario: Scenario, seed, threads):
    for point_index, (param, value, cfg) in enumerate(_sweep_points(scenario)):
        trials = range(scenario.trials)
        if threads == 1:  # inline, so that a profile shows the trials rather than a lock
            results = [_rate_trial(cfg, seed, point_index, t) for t in trials]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda t: _rate_trial(cfg, seed, point_index, t), trials))
        mean_rows = []
        for name in DESIGN_NAMES:
            pooled = np.concatenate([res[name] for res in results])
            if not ((pooled >= 0) & (pooled < np.inf)).all():  # NaN fails
                raise ValueError("rates must be non-negative and finite")
            yield _stem("rate_cdf", name, param, value), ("x", "G"), metrics.empirical_cdf(pooled)
            mean_rows.append((name, float(pooled.mean())))
        yield _stem("rate_mean", None, param, value), ("design", "mean_rate"), list(zip(*mean_rows))


def _sizing_tables(scenario: Scenario, seed, threads):
    for param, value, cfg in _sweep_points(scenario):
        result = sizing.size_ttds(cfg, scenario.g0, scenario.psi_eval)
        yield _stem("sizing_result", None, param, value), None, result.to_dict()
        yield (_stem("sizing_trace", None, param, value), ("m", "worst_gain"),
               list(zip(*sorted(result.worst_gain_by_divisor.items()))))


def _prop1_tables(scenario: Scenario, seed, threads):
    psi = scenario.psi_eval
    rows = []
    for _, value, cfg in _sweep_points(scenario):
        # the edge and the center subcarrier's steering; the flat beamformer is the center row
        ks = [cfg.n_subcarriers - 1, cfg.center_subcarrier - 1]
        steering = steering_stack(cfg.n_tx, freq_ratios(cfg)[ks], [psi])[:, :, 0]
        flat = np.broadcast_to(steering[1], steering.shape)
        edge, center = metrics._gain_profiles((flat,), steering)[0].tolist()
        rows.append((int(value), edge, center))
    rows.sort(key=lambda r: r[0])
    yield "prop1_sweep", ("n_tx", "gain_edge", "gain_center"), list(zip(*rows))


def _criteria_tables(scenario: Scenario, seed, threads):
    points = sorted(_sweep_points(scenario),
                    key=lambda p: ("" if p[0] is None else p[0],
                                   0.0 if p[1] is None else float(p[1])))
    rows = []
    for param, value, cfg in points:
        nt = design_mod.nt_upper_bound(cfg, scenario.psi_eval)
        tmax = design_mod.tmax_lower_bound(cfg, scenario.psi_eval)
        rows.append(("" if param is None else param,
                     "" if value is None else _fmt(value),
                     "inf" if nt == float("inf") else int(nt), tmax))
    yield "criteria_report", ("param", "value", "nt_bound", "tmax_bound_s"), list(zip(*rows))


# each experiment yields (stem, header, columns): a table, or with no header a JSON document
_EXPERIMENTS = {"gain_cdf": _gain_tables, "rate_cdf": _rate_tables, "sizing": _sizing_tables,
                "prop1_sweep": _prop1_tables, "criteria_report": _criteria_tables}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(scenario: Scenario, seed: int | None = None, out_dir=None,
        threads: int = 1, fmt: str = "csv") -> RunResult:
    """Execute a scenario; returns the output files and the manifest dict."""
    from . import __version__
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    _check_int("threads", threads, 1)
    _check_int("seed", scenario.config.seed if seed is None else seed, 0)
    scenario.validate()
    seed = scenario.config.seed if seed is None else int(seed)
    out = Path(out_dir if out_dir is not None else scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    t0 = time.perf_counter()

    files = [_write_json(out / f"{stem}.json", columns) if header is None
             else _write_table(out / stem, header, columns, fmt)
             for stem, header, columns in _EXPERIMENTS[scenario.experiment](
                 scenario, seed, threads)]

    manifest = {
        "experiment": scenario.experiment,
        "config": scenario.config.to_dict(),
        "sweep": [[p, list(v)] for p, v in scenario.sweep],
        "trials": scenario.trials,
        "psi_eval": scenario.psi_eval,
        "g0": scenario.g0,
        "seed": seed,
        "threads": threads,
        "format": fmt,
        "version": __version__,
        "started_utc": started,
        "elapsed_s": time.perf_counter() - t0,
        "files": sorted(p.name for p in files),
    }
    _write_json(out / "manifest.json", manifest)
    return RunResult(out_dir=out, files=sorted(files), manifest=manifest)
