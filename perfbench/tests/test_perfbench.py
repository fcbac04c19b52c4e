"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import loadgen, service_mixed, sim  # noqa: E402
from perfbench.common import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    PACE_NEIGHBOURS,
    Pace,
    Tally,
    UnsupportedPercentile,
    percentile,
)
from perfbench.tracing import NULL, Tracer  # noqa: E402


# ----------------------------------------------------------------------
# Percentile support rule
# ----------------------------------------------------------------------


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(UnsupportedPercentile):
        percentile([float(i) for i in range(99)], 0.9)  # 9 beyond p90
    with pytest.raises(UnsupportedPercentile):
        percentile([1.0] * 19, 0.5)


def test_percentile_reports_a_supported_tail():
    samples = [float(i) for i in range(100)]
    assert percentile(samples, 0.9) == 89.0
    beyond = sum(1 for s in samples if s > percentile(samples, 0.9))
    assert beyond >= MIN_TAIL_SAMPLES
    assert percentile(samples, 0.5) == 49.0


def test_failed_ops_sort_beyond_every_latency():
    samples = [1.0] * 80 + [float("inf")] * 20
    assert percentile(samples, 0.5) == 1.0
    assert percentile(samples, 0.9) == float("inf")


# ----------------------------------------------------------------------
# Determinism of inputs and counts
# ----------------------------------------------------------------------


def _spec_list(ops):
    return [(kind, spec.to_dict()) for kind, spec in ops]


@pytest.mark.parametrize("ops_for", [sim.paper_ops, sim.dieout_ops])
def test_same_seed_gives_the_same_op_list(ops_for):
    assert _spec_list(ops_for(5, 20)) == _spec_list(ops_for(5, 20))
    assert _spec_list(ops_for(5, 20)) != _spec_list(ops_for(6, 20))
    # Longer runs extend the op list without changing its prefix.
    short, long_ = ops_for(5, 20), ops_for(5, 40)
    assert _spec_list(long_[: len(short)]) == _spec_list(short)


def test_dieout_latency_samples_are_independent_cells():
    ops = sim.dieout_ops(1, 20)
    # One call, so one sample, per cell, however many replicas it holds.
    workload = sim.DieoutSweep(1, 20, {})
    assert all(workload.pieces(spec) == [spec] for _, spec in ops)
    assert len(ops) - math.ceil(0.9 * len(ops)) >= MIN_TAIL_SAMPLES


def test_paper_runs_are_issued_one_by_one_as_the_same_runs():
    from repro.runner.spec import derive_seed

    _, curve = sim.paper_ops(1, 20)[0]
    pieces = sim.PaperFigs(1, 20, {}).pieces(curve)
    assert [p.num_runs for p in pieces] == [1] * curve.num_runs
    expanded = [run for piece in pieces for run in piece.expand()]
    assert expanded == list(curve.expand())
    assert [run.seed for run in expanded] == [
        derive_seed(curve.base_seed, i) for i in range(curve.num_runs)
    ]


def test_timed_seeds_are_disjoint_from_warmup_seeds():
    timed = {
        seed
        for ops in (sim.paper_ops(3, 20), sim.dieout_ops(3, 20))
        for _, spec in ops
        for seed in range(spec.base_seed, spec.base_seed + spec.num_runs)
    }
    warm = {
        seed
        for ops in (sim.paper_warmup_ops(), sim.dieout_warmup_ops())
        for _, spec in ops
        for seed in range(spec.base_seed, spec.base_seed + spec.num_runs)
    }
    assert not timed & warm


def test_same_seed_gives_identical_count_metrics():
    def counts():
        workload = sim.PaperFigs(7, 20, {})
        workload.ops = workload.build_ops()[:2]  # two cheap star curves
        workload.timed(NULL, Tally(), Pace())
        outcomes = [sim.run_outcomes(result) for _, result in workload.results]
        return workload.counts(), outcomes

    first, second = counts(), counts()
    assert first == second
    assert first[0]["engine.ticks"] > 0


# ----------------------------------------------------------------------
# Pace
# ----------------------------------------------------------------------


def _pace(ratios):
    pace = Pace()
    pace.at = [float(i) for i in range(len(ratios))]
    pace.ratios = list(ratios)
    return pace


def test_pace_scales_by_the_median_of_the_nearest_samples():
    # A slow phase in the second half; one outlier sample in each half.
    ratios = [1.0] * 20 + [2.0] * 20
    ratios[5], ratios[30] = 9.0, 0.1
    pace = _pace(ratios)
    assert pace.ratio(5.0) == 1.0
    assert pace.ratio(30.0) == 2.0
    assert pace.scale(4.0, 29.0, 31.0) == 2.0
    # Near either end the window is clamped, never shortened.
    assert pace.ratio(-100.0) == 1.0 and pace.ratio(100.0) == 2.0
    assert pace.overall() == 1.5


def test_pace_sample_records_time_ordered_ratios():
    pace = Pace()
    pace.sample(PACE_NEIGHBOURS + 1)
    assert len(pace.ratios) == PACE_NEIGHBOURS + 1
    assert pace.at == sorted(pace.at)
    assert all(ratio > 0 for ratio in pace.ratios)
    assert pace.ratio(pace.at[0]) > 0


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------


def test_schedule_is_deterministic_and_seed_dependent():
    mix = service_mixed.MIX
    assert loadgen.build_schedule(3, 20, mix) == loadgen.build_schedule(3, 20, mix)
    assert loadgen.build_schedule(3, 20, mix) != loadgen.build_schedule(4, 20, mix)


def test_schedule_shape():
    mix = service_mixed.MIX
    items = loadgen.build_schedule(1, 20, mix)
    assert [i.due for i in items] == sorted(i.due for i in items)
    unique_due = {i.ref: i.due for i in items if i.kind == loadgen.UNIQUE}
    for item in items:
        if item.kind == loadgen.DUPLICATE:
            delay_ms = (item.due - unique_due[item.ref]) * 1000
            assert mix.echo_delay_ms[0] <= delay_ms <= mix.echo_delay_ms[1]
        elif item.kind == loadgen.CACHED:
            assert item.due - unique_due[item.ref] >= mix.cached_age_s
    kinds = {kind: sum(i.kind == kind for i in items) for kind in loadgen.CLASSES}
    # Every class needs 20 samples for its own median to be supported.
    assert min(kinds.values()) >= 2 * MIN_TAIL_SAMPLES, kinds
    # A shorter run sends a prefix of a longer run's requests.
    short = loadgen.build_schedule(1, 10, mix)
    assert [i for i in items if i.due < 10] == [i for i in short if i.due < 10]


class _Refusing(BaseHTTPRequestHandler):
    """A stand-in server that refuses every request."""

    def log_message(self, *args):
        pass

    def _reply(self, status, body):
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        self._reply(200, {"latency": {}, "cache": {"hits": 0, "misses": 0}})

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/v1/run":
            self._reply(429, {"error": "admission queue full"})
        else:
            self._reply(503, {"error": "transient stream fault"})


def test_refused_requests_count_against_the_error_rate():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Refusing)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        workload = service_mixed.ServiceMixed(2, 3.0, {})
        workload.generate()
        workload.sessions = ["a", "b"]

        class _Stub:
            port = httpd.server_address[1]

            def peak_rss_mb(self):
                return 1.0

        workload.server = _Stub()
        tally = Tally()
        timed = workload.timed(NULL, tally, Pace())
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert tally.attempted == len(workload.schedule) > 0
    assert tally.failed == tally.attempted
    assert workload.stats["refused"] == tally.attempted
    assert timed["units"] == 0
    assert all(v == float("inf") for v in timed["latencies_ms"])


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_and_wrappers_uninstall():
    import types

    module = types.SimpleNamespace(work=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(module, "work", "layer.work")
    with tracer.span("op", op=0):
        assert module.work(1) == 2
    tracer.uninstall()
    assert module.work.__name__ == "<lambda>"
    op, child = tracer.spans
    assert child.parent == 0 and child.op == 0
    own = tracer.self_times()
    assert own[0] == pytest.approx(
        (op.end - op.start) - (child.end - child.start)
    )
    assert tracer.op_coverage("op", ("layer",)) == []  # set-up spans only


def _sim_op(tracer, *, engine_s: float, unwrapped_s: float) -> None:
    """One traced simulation op: an engine call, then untraced work."""
    import time

    with tracer.span("runner.run_ensemble", op=0):
        with tracer.span("runner.execute_run"):
            with tracer.span("engine.run"):
                time.sleep(engine_s)
            time.sleep(unwrapped_s)


def _share(tracer, name: str) -> float:
    """Share of the op root's wall time inside spans called ``name``."""
    root = next(s for s in tracer.spans if s.parent is None)
    inside = sum(s.end - s.start for s in tracer.spans if s.name == name)
    return inside / (root.end - root.start)


def test_span_coverage_counts_only_named_layers():
    from perfbench import layers

    covered = Tracer()
    covered.phase = "timed"
    _sim_op(covered, engine_s=0.05, unwrapped_s=0.0)
    assert layers.span_coverage(covered, "dieout_sweep") >= layers.MIN_COVERAGE

    # A slow step no layer wraps lands in the runner's self time, which
    # does not count, so the check fails although the runner's span
    # covers the whole op.
    uncovered = Tracer()
    uncovered.phase = "timed"
    _sim_op(uncovered, engine_s=0.01, unwrapped_s=0.05)
    assert _share(uncovered, "runner.execute_run") > 0.95
    assert layers.span_coverage(uncovered, "dieout_sweep") < layers.MIN_COVERAGE


def test_metric_lists_match_benchmark_json():
    from perfbench import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms",
        "peak_rss_mb",
    ]
    assert [w["name"] for w in spec["workloads"]] == [
        "paper_figs", "dieout_sweep", "stream_detect", "service_mixed",
    ]
