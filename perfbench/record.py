"""Record the outputs every op of the benchmark is checked against.

Each workload maps its seed onto one of ``POOL_SIZE`` input sets
(``stream_detect`` has one input for every seed); this script runs every
op of every input set of one workload once, untimed, and stores a digest
of each op's output in that workload's section of
``perfbench/expected.json``.  Re-run it only when the benchmark's inputs
change, never to make a program change pass::

    python3 perfbench/record.py --workload stream_detect
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import loadgen, service_mixed, sim, stream_detect  # noqa: E402
from perfbench.common import (  # noqa: E402
    EXPECTED_PATH,
    POOL_SIZE,
    digest,
    work_dir,
)

#: The run length the benchmark is defined with (``run_seconds``).
RECORD_SECONDS = 20
#: Service schedules are recorded this far ahead, so any run up to this
#: length finds every request it sends.
SERVICE_HORIZON_S = 30


def _ensemble(spec):
    from repro.runner import run_ensemble
    from repro.runner.executors import ReplicaBatchExecutor, SerialExecutor

    return run_ensemble(
        spec, executor=ReplicaBatchExecutor(SerialExecutor()), use_cache=False
    )


def _op_digests(ops) -> list[str]:
    return [digest(sim.run_outcomes(_ensemble(spec))) for _, spec in ops]


def record_sim(name: str) -> dict:
    ops_for = sim.paper_ops if name == "paper_figs" else sim.dieout_ops
    warmup = (
        sim.paper_warmup_ops if name == "paper_figs" else sim.dieout_warmup_ops
    )
    return {
        "warmup": _op_digests(warmup()),
        "pool": {
            str(p): _op_digests(ops_for(p, RECORD_SECONDS))
            for p in range(POOL_SIZE)
        },
    }


def record_stream() -> dict:
    warmup = stream_detect.detect_lines(list(stream_detect.synthetic_lines(
        stream_detect.WARMUP_SEED, stream_detect.WARMUP_FLOWS
    )))
    flows = stream_detect.flows_for(RECORD_SECONDS)
    path = work_dir() / "record-flows.jsonl"
    prefixes = stream_detect.write_flow_file(path, flows)
    with open(path, encoding="utf-8") as handle:
        outputs = stream_detect.detect_lines(handle)
    path.unlink()
    return {
        "warmup": warmup,
        "input": {
            "file_prefixes": prefixes,
            "chunks": outputs[:-1],
            "final": {str(flows): outputs[-1]},
        },
    }


def record_service() -> dict:
    from repro.service.protocol import result_payload
    from repro.service.streams import StreamSession, build_stream_engine

    def payload(spec) -> str:
        return service_mixed.payload_digest(result_payload(_ensemble(spec)))

    out = {
        "warmup": [payload(spec) for spec in service_mixed.warmup_specs()],
        "pool": {},
    }
    mix = service_mixed.MIX
    most_uniques = 0
    for p in range(POOL_SIZE):
        schedule = loadgen.build_schedule(p, SERVICE_HORIZON_S, mix)
        uniques, chunk_counts = loadgen.schedule_needs(schedule, mix.sessions)
        most_uniques = max(most_uniques, uniques)
        sessions = []
        for session, count in enumerate(chunk_counts):
            live = StreamSession(
                "record",
                build_stream_engine(
                    {"detectors": service_mixed.STREAM_DETECTORS}
                ),
                now=0.0,
            )
            sessions.append([
                service_mixed.events_digest(live.ingest(text))
                for text in service_mixed.session_chunks(p, session, count)
            ])
        out["pool"][str(p)] = {"chunks": sessions}
    # Unique specs are the same for every seed.
    out["unique"] = [
        payload(service_mixed.unique_spec(j)) for j in range(most_uniques)
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("paper_figs", "dieout_sweep", "stream_detect", "service_mixed"),
    )
    args = parser.parse_args()
    if args.workload in ("paper_figs", "dieout_sweep"):
        section = record_sim(args.workload)
    elif args.workload == "stream_detect":
        section = record_stream()
    else:
        section = record_service()

    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    expected[args.workload] = section
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
