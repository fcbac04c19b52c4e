"""Run one workload of the benchmark and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_figs --seed 3 --seconds 20 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with spans around each layer and prints the per-layer metrics
(it first runs the untraced workload in a child process, on the same
seed, to state the tracing overhead).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Run as a script: make the benchmark's own package importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT,
    WORK_DIR,
    Pace,
    Tally,
    load_expected,
    median,
    metric,
    percentile,
    self_peak_rss_mb,
    work_dir,
)
from perfbench.tracing import NULL, Tracer  # noqa: E402

WORKLOADS = ("paper_figs", "dieout_sweep", "stream_detect", "service_mixed")
#: Set-up is timed in this many fresh processes, each from its spawn;
#: the median is reported.
SETUP_REPEATS = 3
#: Pace samples taken before each probe starts and after it is ready.
SETUP_PACE_SAMPLES = 5


def make_workload(name: str, seed: int, seconds: float):
    expected = load_expected()
    if name == "paper_figs":
        from perfbench.sim import PaperFigs
        return PaperFigs(seed, seconds, expected)
    if name == "dieout_sweep":
        from perfbench.sim import DieoutSweep
        return DieoutSweep(seed, seconds, expected)
    if name == "stream_detect":
        from perfbench.stream_detect import StreamDetect
        return StreamDetect(seed, seconds, expected)
    from perfbench.service_mixed import ServiceMixed
    return ServiceMixed(seed, seconds, expected)


def child_command(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]


def measure_setups(args, tally) -> list[float]:
    """Set-up time of fresh processes, from spawn until ready to time,
    at the reference pace.

    A probe prints ``ready <seconds spent generating input> <failures>``
    once set up; its warm-up check failures count against this run.
    """
    samples = []
    pace = Pace()
    for _ in range(args.setup_repeats):
        pace.sample(SETUP_PACE_SAMPLES)
        started = time.perf_counter()
        proc = subprocess.Popen(
            child_command(args, "--setup-probe"),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed: {line!r}")
        pace.sample(SETUP_PACE_SAMPLES)
        _, excluded, failed = line.split()
        samples.append(
            pace.scale(ready - started - float(excluded), started, ready)
        )
        for _ in range(int(failed)):
            tally.record(False, "set-up probe warm-up check")
    return samples


def untraced_throughput(args) -> float:
    """Throughput of an untraced run of the same seed, in a child."""
    out = subprocess.run(
        child_command(args, "--trace", "0", "--setup-repeats", "0"),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["metrics"]["throughput_per_s"]["value"]


def setup_probe(args) -> int:
    tally = Tally()
    workload = make_workload(args.workload, args.seed, args.seconds)
    try:
        workload.setup(NULL, tally)
        excluded = getattr(workload, "excluded_s", 0.0)
        print(f"ready {excluded!r} {tally.failed}", flush=True)
    finally:
        workload.close(tally)
    return 0


def run(args) -> dict:
    tally = Tally()
    # Child processes first, so they do not overlap this run's timing.
    setups = [] if args.trace else measure_setups(args, tally)
    overhead_base = untraced_throughput(args) if args.trace else None

    tracer = Tracer() if args.trace else NULL
    pace = Pace()
    workload = make_workload(args.workload, args.seed, args.seconds)
    try:
        workload.generate()
        if args.trace:
            layers.install(tracer, args.workload)
        workload.setup(tracer, tally)
        if args.trace:
            tracer.phase = "timed"
        timed = workload.timed(tracer, tally, pace)
    finally:
        workload.close(tally)
        if args.trace:
            tracer.uninstall()

    throughput = timed["units"] / timed["elapsed_s"]
    if args.trace:
        values = layers.per_layer(tracer, workload, timed)
        values["error_rate"] = tally.error_rate
        values["pace.ratio"] = pace.overall()
        values["trace.overhead_ratio"] = throughput / overhead_base
        values["trace.span_coverage"] = layers.span_coverage(
            tracer, args.workload
        )
        tally.record(
            values["trace.span_coverage"] >= layers.MIN_COVERAGE,
            "named layers explain too little of the ops' wall time",
        )
        spans = WORK_DIR.parent / ".perfbench_out"
        spans.mkdir(exist_ok=True)
        tracer.write(spans / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {
            name: metric(values.get(name, 0.0), unit)
            for name, unit in layers.PER_LAYER
        }
    else:
        rss = getattr(workload, "peak_rss", None) or self_peak_rss_mb()
        metrics = {}
        if setups:  # the untraced child of a traced run skips the probes
            metrics["setup_s"] = metric(median(setups), "s")
        metrics |= {
            "throughput_per_s": metric(throughput, "1/s"),
            "latency_p50_ms": metric(
                percentile(timed["latencies_ms"], 0.5), "ms"
            ),
            "latency_p90_ms": metric(
                percentile(timed["latencies_ms"], 0.9), "ms"
            ),
            "peak_rss_mb": metric(rss, "MiB"),
        }
    for reason in tally.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The benchmark pins its own runner settings; inherited REPRO_*
    # variables would silently change what runs (engine, jobs, cache).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(ROOT / "src")

    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    finally:
        shutil.rmtree(work_dir(), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
