"""The ``stream_detect`` workload: compact detection over a JSONL file.

The operator path of ``repro stream --input``: a
:class:`~repro.streaming.stream.JsonlFlowStream` reads the file and a
compact :class:`~repro.streaming.detectors.DetectionEngine`
(failure-ratio on two count-min sketches plus contact-rate on a vHLL,
both sized for 2,048 hosts) detects over it, one fixed-size chunk per
op.  The flow file is generated before set-up timing starts.  It is the
same for every workload seed: the cost of a chunk depends on where in
the trace it falls, and with a seed-dependent trace the median chunk
latency spread by 30 % across ten seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import time

from .common import digest, work_dir

CHUNK_FLOWS = 1000
CAPACITY = 2048
#: Sizes the run's file: ``seconds`` worth of flows at this rate, rounded
#: to whole chunks (160 at 20 s, enough for a supported p90).  The
#: defining commit read 12,000 to 24,000 flows/s depending on the phase
#: of its machine, so the timed phase stays under ``seconds``.
FLOWS_PER_S = 8_000
WARMUP_FLOWS = 3000
WARMUP_SEED = 1
#: The synthetic trace every run reads.
INPUT_SEED = 10_000


def flows_for(seconds: float) -> int:
    return max(1, round(seconds * FLOWS_PER_S / CHUNK_FLOWS)) * CHUNK_FLOWS


def synthetic_lines(seed: int, flows: int):
    """The first ``flows`` JSONL lines of the seed's synthetic stream."""
    from repro.streaming import SyntheticFlowStream, record_to_json
    from repro.traces.synth import TraceConfig

    config = TraceConfig(duration=1e9, seed=seed)
    for record in SyntheticFlowStream(config, max_flows=flows):
        yield record_to_json(record) + "\n"


def write_flow_file(path, flows: int) -> list[str]:
    """Write the input file; returns the digest of every chunk prefix."""
    hasher = hashlib.sha256()
    prefixes = []
    with open(path, "w", encoding="utf-8") as handle:
        lines = synthetic_lines(INPUT_SEED, flows)
        for chunk in iter(lambda: list(itertools.islice(lines, CHUNK_FLOWS)),
                          []):
            text = "".join(chunk)
            handle.write(text)
            hasher.update(text.encode("utf-8"))
            prefixes.append(hasher.hexdigest()[:16])
    return prefixes


def build_engine(internal):
    from repro.streaming import DetectionEngine, make_detector
    from repro.streaming.estimators import CountMinSketch, VirtualHyperLogLog

    return DetectionEngine([
        make_detector(
            "failure-ratio", internal=internal,
            failures=CountMinSketch(CAPACITY),
            attempts=CountMinSketch(CAPACITY),
        ),
        make_detector(
            "contact-rate", internal=internal,
            estimator=VirtualHyperLogLog(CAPACITY),
        ),
    ])


def chunk_digest(engine, events) -> str:
    """The op's output: its event count and each quarantined set."""
    return digest([
        len(events),
        {name: sorted(hosts) for name, hosts in engine.quarantined().items()},
    ])


def detect_lines(lines) -> list[str]:
    """Per-chunk outputs of a fresh engine over ``lines``, then finish's."""
    from repro.streaming import JsonlFlowStream

    stream = JsonlFlowStream(lines)
    engine = build_engine(stream.is_internal)
    records = iter(stream)
    outputs = []
    while True:
        chunk = list(itertools.islice(records, CHUNK_FLOWS))
        if not chunk:
            break
        outputs.append(chunk_digest(engine, engine.feed_many(chunk)))
    outputs.append(chunk_digest(engine, engine.finish()))
    return outputs


class StreamDetect:
    name = "stream_detect"

    def __init__(self, seed: int, seconds: float, expected: dict) -> None:
        self.seed = seed
        self.flows = flows_for(seconds)
        self.expected = expected.get(self.name, {})
        self.recorded = self.expected.get("input", {})
        self.path = work_dir() / f"flows-{seed}.jsonl"
        self.prefixes: list[str] = []
        self.chunk_digests: list[str] = []
        self.final_digest = ""
        self.engine = None
        self.bytes_per_host = 0.0
        self.excluded_s = 0.0

    def generate(self) -> None:
        self.prefixes = write_flow_file(self.path, self.flows)

    def setup(self, tracer, tally) -> None:
        # Imports are set-up work; only the generation below is not.
        import repro.streaming  # noqa: F401
        import repro.traces.synth  # noqa: F401

        generating = time.perf_counter()
        lines = list(synthetic_lines(WARMUP_SEED, WARMUP_FLOWS))
        # Generating input is not set-up work; the probe subtracts it.
        self.excluded_s = time.perf_counter() - generating
        if detect_lines(lines) != self.expected.get("warmup"):
            tally.record(False, "warm-up detections differ from the record")

    def timed(self, tracer, tally, pace) -> dict:
        from repro.streaming import JsonlFlowStream

        recorded_prefixes = self.recorded.get("file_prefixes", [])
        recorded_chunks = self.recorded.get("chunks", [])
        file_ok = self.prefixes == recorded_prefixes[: len(self.prefixes)]
        spans = []  # (start, end) of every chunk, then of finish()
        self.chunk_digests = []
        opened = time.perf_counter()
        with open(self.path, encoding="utf-8") as handle:
            stream = JsonlFlowStream(handle)
            engine = build_engine(stream.is_internal)
            records = iter(stream)
            ready = time.perf_counter()
            op = 0
            while True:
                pace.sample()
                op_start = time.perf_counter()
                with tracer.span("op.chunk", op=op):
                    with tracer.span("stream.source"):
                        chunk = list(itertools.islice(records, CHUNK_FLOWS))
                    if not chunk:
                        break
                    with tracer.span("stream.detect"):
                        events = engine.feed_many(chunk)
                spans.append((op_start, time.perf_counter()))
                self.chunk_digests.append(chunk_digest(engine, events))
                op += 1
            finish_start = time.perf_counter()
            with tracer.span("stream.finish", op=op):
                final_events = engine.finish()
            spans.append((finish_start, time.perf_counter()))
        pace.sample()
        scaled = [pace.scale(end - start, start, end) for start, end in spans]
        latencies_ms = [seconds * 1e3 for seconds in scaled[:-1]]
        # Opening the file and building the engine count too.
        elapsed = sum(scaled) + pace.scale(ready - opened, opened, ready)
        self.final_digest = chunk_digest(engine, final_events)
        self.engine = engine
        self.bytes_per_host = engine.estimator_bytes_per_host(CAPACITY)

        for index, produced in enumerate(self.chunk_digests):
            if not file_ok:
                tally.record(False, "flow file differs from its recorded digest")
            elif index >= len(recorded_chunks):
                tally.record(False, "no recorded detections for this chunk")
            else:
                tally.record(
                    produced == recorded_chunks[index],
                    f"chunk {index} detections differ from the record",
                )
        final_expected = self.recorded.get("final", {}).get(str(self.flows))
        tally.record(
            engine.flows == self.flows
            and self.bytes_per_host == 16.0
            and self.final_digest == final_expected,
            "final detections, flow count or estimator budget wrong",
        )
        return {
            "elapsed_s": elapsed,
            "units": engine.flows,
            "latencies_ms": latencies_ms,
        }

    def counts(self) -> dict[str, float]:
        engine = self.engine
        return {
            "stream.events": len(engine.events),
            "stream.quarantined": sum(
                len(hosts) for hosts in engine.quarantined().values()
            ),
            "stream.bytes_per_host": self.bytes_per_host,
        }

    def close(self, tally) -> None:
        self.path.unlink(missing_ok=True)
