"""Command-line entry point: run a scenario file and write result tables."""

from __future__ import annotations

import argparse
import sys

from .harness import Scenario, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayphase",
        description="Design and evaluate joint delay/phase analog precoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON scenario file")
    runp.add_argument("scenario", help="path to the scenario JSON file")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--out-dir", default=None,
                      help="output directory (default: scenario out_dir)")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads for trial-parallel experiments")
    runp.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="output table format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = Scenario.from_file(args.scenario)
        result = run(scenario, seed=args.seed, out_dir=args.out_dir,
                     threads=args.threads, fmt=args.format)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in result.files:
        print(path)
    print(result.out_dir / "manifest.json")
    return 0

