"""Output-equivalence guard.

The design-side scenario tables must stay byte-identical (the gain tables also
as JSON, which keeps every digit), and the pooled mean rates and every
design's per-subcarrier rates (the x column of its rate CDF) of a small
rate_cdf run must stay within 1e-12 relative, to the values recorded in
tests/data/expected_outputs.json. Rewrite that file only for a
change that is meant to move the outputs:

    PYTHONPATH=src python tests/test_outputs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

import delayphase as dp
from delayphase import harness
from conftest import HEADLINE

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "data" / "expected_outputs.json"
DESIGN_SCENARIOS = ("gain_cdf", "gain_cdf_antennas", "sizing", "prop1_sweep",
                    "criteria_report")
JSON_SCENARIOS = ("gain_cdf",)  # also written with fmt="json"
# the small rate_cdf configuration of acceptance criterion 8
RATE_SCENARIO = dict(
    experiment="rate_cdf",
    config=dict(HEADLINE, n_tx=32, ttds_per_rf=8, ps_per_ttd=4,
                n_rx=2, n_rf=2, n_streams=2, n_subcarriers=17),
    trials=4,
)
RATE_SEED = 11
RATE_RTOL = 1e-12


def scenario_digests(name: str, out_dir: Path, fmt: str = "csv") -> dict:
    """sha256 of every table the scenario file writes (the manifest excluded)."""
    scenario = dp.Scenario.from_file(ROOT / "scenarios" / f"{name}.json")
    result = dp.run(scenario, out_dir=out_dir, fmt=fmt)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in result.files}


def rate_outputs(out_dir: Path) -> dict:
    """Pooled mean rate per design, and the x column of each design's rate CDF,
    at full precision (JSON tables keep every digit)."""
    result = dp.run(dp.Scenario.from_dict(RATE_SCENARIO), seed=RATE_SEED,
                    out_dir=out_dir, fmt="json")

    def rows(name):
        return json.loads((result.out_dir / f"{name}.json").read_text())["rows"]

    return {"rate_mean": {design: value for design, value in rows("rate_mean")},
            "rate_cdf": {design: [x for x, _ in rows(f"rate_cdf_{design}")]
                         for design in harness.DESIGN_NAMES}}


def expected() -> dict:
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", DESIGN_SCENARIOS)
def test_design_outputs_unchanged(name, tmp_path):
    assert scenario_digests(name, tmp_path) == expected()["digests"][name]


@pytest.mark.parametrize("name", JSON_SCENARIOS)
def test_design_json_outputs_unchanged(name, tmp_path):
    assert scenario_digests(name, tmp_path, fmt="json") == expected()["json_digests"][name]


def test_rate_means_unchanged(tmp_path):
    want = expected()["rate_mean"]
    got = rate_outputs(tmp_path)["rate_mean"]
    assert set(got) == set(want)
    for design, value in want.items():
        assert got[design] == pytest.approx(value, rel=RATE_RTOL, abs=0.0), design


def test_rate_cdfs_unchanged(tmp_path):
    want = expected()["rate_cdf"]
    got = rate_outputs(tmp_path)["rate_cdf"]
    assert set(got) == set(want)
    for design, values in want.items():
        assert got[design] == pytest.approx(values, rel=RATE_RTOL, abs=0.0), design


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        record = {"digests": {name: scenario_digests(name, tmp / name)
                              for name in DESIGN_SCENARIOS},
                  "json_digests": {name: scenario_digests(name, tmp / f"{name}_json", "json")
                                   for name in JSON_SCENARIOS},
                  **rate_outputs(tmp / "rate")}
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)
