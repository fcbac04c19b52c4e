"""Per-layer metrics of the traced run, and where their spans come from.

Every traced run reports every name in :data:`PER_LAYER`; a layer a
workload never enters reads 0 there (that workload is the "no move"
side of the layer's prediction, see ``perfbench/README.md``).
"""

from __future__ import annotations

from .common import median

PER_LAYER = [
    ("routing.build_s", "s"),
    ("routing.builds", "count"),
    ("setup.routing_s", "s"),
    ("topology.build_s", "s"),
    ("network.build_s", "s"),
    ("engine.run_s.star", "s"),
    ("engine.run_s.powerlaw", "s"),
    ("engine.tick_us", "us"),
    ("engine.ticks", "count"),
    ("engine.packets", "count"),
    ("replicas.run_s.vector", "s"),
    ("replicas.run_s.hub", "s"),
    ("replicas.tick_us.vector", "us"),
    ("replicas.tick_us.hub", "us"),
    ("replicas.replica_ticks", "count"),
    ("runner.self_s", "s"),
    ("stream.source_s", "s"),
    ("stream.source_flows_per_s", "flows/s"),
    ("stream.detect_s", "s"),
    ("stream.detect_flows_per_s", "flows/s"),
    ("stream.finish_s", "s"),
    ("stream.events", "count"),
    ("stream.quarantined", "count"),
    ("stream.bytes_per_host", "B"),
    ("service.submit_ms.p50", "ms"),
    ("service.fetch_ms.p50", "ms"),
    ("service.latency_p50_ms.unique", "ms"),
    ("service.latency_p50_ms.duplicate", "ms"),
    ("service.latency_p50_ms.cached", "ms"),
    ("service.latency_p50_ms.stream", "ms"),
    ("service.server_ms.run", "ms"),
    ("service.server_ms.result", "ms"),
    ("service.server_ms.stream_chunk", "ms"),
    ("service.coalesced_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.queue_depth_p90", "count"),
    ("service.polls_per_request", "count"),
    ("service.rejected", "count"),
    ("service.generator_lag_p90_ms", "ms"),
    ("service.generator_lag_max_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("pace.ratio", "ratio"),
]

#: Per workload: the span that encloses one op, and the layers whose own
#: (self) time should explain it.  The op's root and the runner's
#: catch-all spans do not count: time they keep for themselves is time
#: no named layer accounts for.
COVERAGE = {
    "paper_figs": ("runner.run_ensemble",
                   ("engine", "replicas", "network", "routing", "topology")),
    "dieout_sweep": ("runner.run_ensemble",
                     ("engine", "replicas", "network", "routing", "topology")),
    "stream_detect": ("op.chunk", ("stream",)),
    "service_mixed": ("op.request", ("service",)),
}
#: The median op must spend at least this share of its wall time in the
#: named layers' self time, or the trace does not explain where it went.
MIN_COVERAGE = 0.8


def span_coverage(tracer, workload: str) -> float:
    """The median op's share of wall time in named layers' self time."""
    root, named = COVERAGE[workload]
    shares = tracer.op_coverage(root, named)
    return median(shares) if shares else 0.0


RUNNER_SPANS = (
    "runner.run_ensemble", "runner.execute_run", "runner.execute_replica_batch"
)


def install(tracer, workload: str) -> None:
    """Wrap the layer entry points the workload reaches in-process."""
    if workload in ("paper_figs", "dieout_sweep"):
        from .sim import install_wrappers

        install_wrappers(tracer)


def _sim(tracer, workload) -> dict[str, float]:
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")
    selfs = tracer.self_times()

    def total(name, table=timed):
        return table.get(name, {}).get("total_s", 0.0)

    def own(*names):
        return sum(timed.get(n, {}).get("self_s", 0.0) for n in names)

    # Engine and replica spans split by the kind of op they ran under.
    kinds = {op_id: kind for op_id, (kind, _) in enumerate(workload.ops)}
    split: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, selfs):
        if span.phase != "timed" or span.op is None or span.op < 0:
            continue
        layer = span.name.split(".")[0]
        if layer not in ("engine", "replicas"):
            continue
        kind = kinds[span.op]
        if layer == "replicas":
            kind = "hub" if kind == "hub" else "vector"
        key = f"{layer}.run_s.{kind}"
        split[key] = split.get(key, 0.0) + self_s

    counts = workload.counts()
    hub_ticks = sum(
        r.metrics.ticks_executed
        for kind, res in workload.results if kind == "hub"
        for r in res.runs
    )
    vector_ticks = counts["replicas.replica_ticks"] - hub_ticks
    engine_s = split.get("engine.run_s.star", 0.0) + split.get(
        "engine.run_s.powerlaw", 0.0
    )
    out = {
        "routing.build_s": total("routing.build"),
        "routing.builds": timed.get("routing.build", {}).get("calls", 0),
        "setup.routing_s": total("routing.build", setup),
        "topology.build_s": own(
            "topology.barabasi_albert", "topology.classify_roles",
            "topology.partition_subnets",
        ),
        "network.build_s": own("network.build_network", "network.apply_defense"),
        "runner.self_s": own(*RUNNER_SPANS),
        **split,
        **counts,
    }
    ticks = counts["engine.ticks"]
    out["engine.tick_us"] = engine_s / ticks * 1e6 if ticks else 0.0
    for kind, kind_ticks in (("vector", vector_ticks), ("hub", hub_ticks)):
        run_s = split.get(f"replicas.run_s.{kind}", 0.0)
        out[f"replicas.tick_us.{kind}"] = (
            run_s / kind_ticks * 1e6 if kind_ticks else 0.0
        )
    return out


def _stream(tracer, workload) -> dict[str, float]:
    timed = tracer.totals("timed")
    flows = workload.engine.flows
    source_s = timed["stream.source"]["self_s"]
    detect_s = timed["stream.detect"]["self_s"]
    return {
        "stream.source_s": source_s,
        "stream.source_flows_per_s": flows / source_s,
        "stream.detect_s": detect_s,
        "stream.detect_flows_per_s": flows / detect_s,
        "stream.finish_s": timed["stream.finish"]["total_s"],
        **workload.counts(),
    }


def per_layer(tracer, workload, timed: dict) -> dict[str, float]:
    """Every per-layer value this workload reaches (absent ones are 0)."""
    if workload.name in ("paper_figs", "dieout_sweep"):
        return _sim(tracer, workload)
    if workload.name == "stream_detect":
        return _stream(tracer, workload)
    return workload.layer_metrics()
