"""Benchmark of the delayphase library: one workload per process, closed loop.

    python3 bench/run.py --workload rate_cdf --seed 1 --seconds 36 --trace 0

Runs one pass at a time on one thread (BLAS and OpenMP pinned to 1, numpy's
huge-page advice off) for ``--seconds``, after an untimed warm-up pass, and
checks every pass's output against the reference computations in
``reference.py``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate between untraced and traced, and the metrics
are the per-layer ones from the traced passes. A full report, with the pass
times and the machine information, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# numpy asks for transparent huge pages on arrays of 4 MB and more; the kernel
# then collapses pages at times of its own choosing, which moves the peak RSS.
PINNED = dict.fromkeys(THREAD_VARS, "1") | {"NUMPY_MADVISE_HUGEPAGE": "0"}
SETUP_PROBES = 9   # timed set-ups, each in a fresh interpreter, after one untimed
TAIL_BEYOND = 10   # pass_s_tail: highest percentile with this many passes above it
MIN_PASSES = 40    # fewer passes leave no tail beyond that percentile
MIN_TRACED = 3     # traced and untraced passes each, in a traced run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up (imports and inputs) and print it; used internally")
    return p.parse_args(argv)


def load_program():
    """Import the delayphase sources of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "delayphase" / "__init__.py").is_file():
        raise SystemExit(f"error: no delayphase sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import delayphase
    if Path(delayphase.__file__).resolve().parent != (src / "delayphase").resolve():
        raise SystemExit(f"error: imported delayphase from {delayphase.__file__}")
    import workloads
    return workloads


def setup_probe(args) -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    workloads = load_program()
    workloads.WORKLOADS[args.workload](args.seed, OUT / f"probe-{os.getpid()}")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_times(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples[1:]


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "pinned_env": {var: os.environ.get(var) for var in PINNED},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform()}


def run_passes(workload, seconds: float, tracer):
    """Closed loop: pass 0 warms up, then passes run until `seconds` have elapsed.

    Each pass's output is checked as soon as it is timed. In a traced run odd
    passes are traced and even ones are not, so both see the same machine state.
    """
    times = {False: [], True: []}
    records, bad = [], []
    attempted = failed = 0
    need = MIN_TRACED if tracer else MIN_PASSES
    start = None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        inputs = workload.prepare(i)
        if traced:
            tracer.install(i)
        attempted += 1
        t0 = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            output, failed = None, failed + 1
            bad.append(f"pass {i}: {exc!r}")
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.remove()
        if output is not None:
            if start is not None:
                times[traced].append(elapsed)
            try:
                record = workload.digest(inputs, output)
                bad += [f"pass {i}: {b}" for b in workload.check(record)]
            except Exception as exc:  # unreadable output is an incorrect one
                bad.append(f"pass {i} output: {exc!r}")
            else:
                # the first record stays whole for the self-test
                records.append(record if not records else
                               {key: record[key] for key in workload.KEEP})
        output = record = None  # free this pass's arrays before the next pass allocates
        if start is None:
            start = time.perf_counter()
        i += 1
        short = min(len(times[False]), len(times[True])) if tracer else len(times[False])
        if time.perf_counter() - start >= seconds and short >= need:
            return times, records, bad, attempted, failed


def verify(workload, records: list) -> list:
    """Run-wide checks, and a self-test that the per-pass check sees a nudged value."""
    if not records:
        return ["no pass produced output"]
    bad = workload.pooled(records)
    nudged = copy.deepcopy(records[0])
    needle = workload.nudge(nudged)
    if not any(needle in b for b in workload.check(nudged)):
        bad.append(f"self-test: the check missed a nudged value ({needle})")
    return bad


def tail(times: list) -> float:
    return sorted(times)[len(times) - 1 - TAIL_BEYOND]


def layer_metrics(tracer, times) -> dict:
    import numpy as np
    per = tracer.per_pass()
    out = {}
    for j, name in enumerate(tracer.names):
        out[f"{name}.calls"] = (float(np.median(per["calls"][:, j])), "count")
        out[f"{name}.s"] = (float(np.median(per["s"][:, j])), "s")
    run = tracer.names.index("harness.run")
    mat = tracer.names.index("precoders.materialize")
    out["harness.run.self_s"] = (float(np.median(per["self_s"][:, run])), "s")
    out["harness.run.out_bytes"] = (float(np.median(per["bytes"][:, run])), "B")
    out["precoders.materialize.out_bytes"] = (float(np.median(per["bytes"][:, mat])), "B")
    out["trace.overhead_s"] = (statistics.median(times[True]) - statistics.median(times[False]), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"pick one of {sorted(workloads.WORKLOADS)}")
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    try:
        times, records, bad, attempted, failed = run_passes(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad += verify(workload, records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not times[False]:
        raise SystemExit("error: no pass completed\n" + "\n".join(bad[:10]))
    # After the passes: spawning the probes first makes this process's peak RSS vary by up to 8 MB.
    setup = [] if args.trace else setup_times(args)

    OUT.mkdir(parents=True, exist_ok=True)
    if tracer:
        values = layer_metrics(tracer, times)
        tracer.write(OUT / f"{args.workload}_seed{args.seed}_spans.npz")
    else:
        values = {"setup_s": (statistics.median(setup), "s"),
                   "pass_s": (statistics.median(times[False]), "s"),
                   "pass_s_tail": (tail(times[False]), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "passes": {"untraced": times[False], "traced": times[True]},
        "setup_samples": setup,
        "makeup": workload.makeup(records) if records else {},
        "failures": bad, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in bad[:20]:
        print(f"check failed: {line}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(times[False])}+{len(times[True])} "
          + " ".join(f"{k}={v:.6g}" for k, (v, _) in values.items()
                     if not k.endswith(".calls")))
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
