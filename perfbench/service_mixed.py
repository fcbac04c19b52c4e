"""The ``service_mixed`` workload: a real ``repro serve`` under open load.

The server runs as a subprocess (``python -m repro serve --jobs 1``)
with a result cache and a durable job store in a private directory.
This process drives it open-loop from the seed's schedule
(:mod:`perfbench.loadgen`) with two threads on two keep-alive
connections: a sender that issues each request at its due time, and a
poller that watches accepted jobs.  A request's latency runs from its
due time until its result is observed, so a stall also delays the
requests queued behind it.  The poller re-polls a job after 4 % of the
time it has waited so far (at least 0.5 ms), which keeps the observation
error under a twentieth of any latency above 10 ms without the fixed
50 ms interval of ``ServiceClient.wait``.  Each latency is scaled by the
machine's pace around it (:class:`~.common.Pace`), which the sender
samples while it waits for a request's due time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict

from . import loadgen
from .common import (
    ROOT,
    digest,
    percentile,
    pid_peak_rss_mb,
    pool_index,
    work_dir,
)

#: Base arrivals per second.  On a quiet 2-CPU machine the defining
#: commit's p50 doubled and its generator fell behind at about 50/s, but
#: at 25/s a phase in which other tenants slowed the machine tripled the
#: p90, and at 15/s it still spread the p90 by 32 % across ten seeds:
#: queueing amplifies a slower server.  10/s keeps headroom in such
#: phases.  Unique requests and their duplicates dominate, so both
#: reported percentiles fall inside those two classes rather than at a
#: boundary between classes; the cached and stream shares are large
#: enough that every class has a supported median in a 20 s run.
MIX = loadgen.Mix(
    rate=10.0, unique=0.7, cached=0.15, stream=0.15, duplicate_echo=0.25
)
HEAVY_EVERY = 4
HEAVY_NODES = 200
STREAM_CHUNK_FLOWS = 200
STREAM_DETECTORS = ["failure-ratio", "contact-rate"]
POLL_FLOOR_S = 0.0005
POLL_FRACTION = 0.04
#: The sender takes a pace sample while it waits for a due time at
#: least this far off, so sampling never makes a request late.
PACE_GAP_S = 0.02
WARMUP_SEED = 1


def unique_spec(index: int):
    """Unique request ``index``: a one-run ensemble on a pinned power-law
    topology, which the server builds once, in set-up, so the simulation
    layers do little of the request's work.

    Every :data:`HEAVY_EVERY`-th spec runs on :data:`HEAVY_NODES` nodes
    instead of 100, which takes about twice as long.  These heavy
    requests and their echoes are about a fifth of all requests, so the
    p90 falls inside their class, while the p50 falls inside the light
    unique requests.  With light requests only, the p90 was the tail of
    the requests that queued behind another, and it spread by 21 %
    across ten seeds; with every fourth spec heavy, by 18 %.  Every
    third spec heavy spread it no less (20 % over six seeds).

    The same for every workload seed: a run's cost depends on its seed,
    and with seed-dependent specs the median latency moved with the
    seed's draw of cheap and dear runs.  The seed still sets the
    schedule: arrival times, classes, echoes and repeats."""
    from repro.runner.spec import EnsembleSpec, RunSpec, TopologySpec

    template = RunSpec(
        topology=TopologySpec(
            kind="powerlaw",
            num_nodes=HEAVY_NODES if index % HEAVY_EVERY == HEAVY_EVERY - 1
            else 100,
            seed=1,
        ),
        scan_rate=0.8,
        initial_infections=2,
        max_ticks=60,
        engine="fast",
    )
    return EnsembleSpec(
        template=template,
        num_runs=1,
        base_seed=300_000 + index,
        label=f"u{index}",
    )


def warmup_specs():
    """The set-up requests, one light and one heavy, so that the server
    builds both topologies in set-up: seeds below every timed request's."""
    return [
        dataclasses.replace(
            unique_spec(index), base_seed=WARMUP_SEED, label=f"warmup{index}"
        )
        for index in (0, HEAVY_EVERY - 1)
    ]


def session_chunks(seed: int, session: int, count: int) -> list[str]:
    """The JSONL chunks session ``session`` posts, in order."""
    from .stream_detect import synthetic_lines

    lines = list(synthetic_lines(
        20_000 + pool_index(seed) * 2 + session, count * STREAM_CHUNK_FLOWS
    ))
    return [
        "".join(lines[at : at + STREAM_CHUNK_FLOWS])
        for at in range(0, len(lines), STREAM_CHUNK_FLOWS)
    ]


def payload_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def events_digest(body: dict) -> str:
    return digest(body.get("events"))


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, obj=None):
        body = None if obj is None else json.dumps(obj).encode("utf-8")
        status, payload = self.request(method, path, body)
        return status, json.loads(payload)

    def close(self) -> None:
        self._conn.close()


def submit_body(spec) -> bytes:
    return json.dumps({"spec": spec.to_dict()}).encode("utf-8")


class Server:
    """``repro serve`` as a child process."""

    def __init__(self, directory) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(directory / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "1",
                "--cache-dir", str(directory / "cache"),
                "--store-dir", str(directory / "jobs"),
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True on a clean exit."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            out = ""
        finally:
            self.log.close()
        return self.proc.returncode == 0 and "stopped (clean)" in (out or "")


def wait_done(conn: Connection, job_id: str, timeout: float = 60.0) -> bytes:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = conn.request("GET", f"/v1/result/{job_id}")
        if status == 200:
            return payload
        if status != 202:
            raise RuntimeError(f"job {job_id}: HTTP {status}")
        time.sleep(0.002)
    raise TimeoutError(f"job {job_id} not done after {timeout}s")


class ServiceMixed:
    name = "service_mixed"

    def __init__(self, seed: int, seconds: float, expected: dict) -> None:
        self.seed = seed
        self.seconds = seconds
        self.expected = expected.get(self.name, {})
        self.recorded = self.expected.get("pool", {}).get(
            str(pool_index(seed)), {}
        )
        self.schedule: list[loadgen.Item] = []
        self.chunks: list[list[str]] = []
        self.server: Server | None = None
        self.sessions: list[str] = []
        self.stats: dict = {}

    def generate(self) -> None:
        self.schedule = loadgen.build_schedule(
            pool_index(self.seed), self.seconds, MIX
        )
        _, chunks = loadgen.schedule_needs(self.schedule, MIX.sessions)
        self.chunks = [
            session_chunks(self.seed, session, count)
            for session, count in enumerate(chunks)
        ]

    def setup(self, tracer, tally) -> None:
        self.server = Server(work_dir())
        conn = Connection(self.server.port)
        try:
            status, health = conn.json("GET", "/healthz")
            if status != 200 or health.get("status") != "ok":
                raise RuntimeError(f"server unhealthy: {health}")
            recorded = self.expected.get("warmup", [])
            for index, spec in enumerate(warmup_specs()):
                status, body = conn.request("POST", "/v1/run", submit_body(spec))
                if status != 202:
                    raise RuntimeError(
                        f"warm-up submit refused: HTTP {status}"
                    )
                payload = wait_done(conn, json.loads(body)["id"])
                if recorded[index:index + 1] != [payload_digest(payload)]:
                    tally.record(
                        False, "warm-up payload differs from the record"
                    )
            # A throwaway session warms the stream path.
            status, opened = conn.json(
                "POST", "/v1/stream", {"detectors": STREAM_DETECTORS}
            )
            warm_chunk = session_chunks(0, 99, 1)[0].encode("utf-8")
            conn.request("POST", f"/v1/stream/{opened['id']}", warm_chunk)
            conn.request("POST", f"/v1/stream/{opened['id']}/close")
            self.sessions = []
            for _ in range(MIX.sessions):
                status, opened = conn.json(
                    "POST", "/v1/stream", {"detectors": STREAM_DETECTORS}
                )
                if status != 201:
                    raise RuntimeError(f"stream open refused: HTTP {status}")
                self.sessions.append(opened["id"])
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Timed phase
    # ------------------------------------------------------------------

    def timed(self, tracer, tally, pace) -> dict:
        port = self.server.port
        admin = Connection(port)
        _, before = admin.json("GET", "/metrics")

        unique_digests = self.expected.get("unique", [])
        chunk_digests = self.recorded.get("chunks", [])
        wake = threading.Condition()
        pending: list = []  # heap of (next poll time, seq, record)
        sending = [True]
        records: list[dict] = []
        first_payload: dict[int, bytes] = {}
        counters = {"polls": 0, "refused": 0}
        queue_depths: list[float] = []
        coalesced = [0]

        def finish(record, ok, reason=""):
            record["done"] = time.perf_counter()
            record["ok"] = ok
            record["reason"] = reason

        def check_payload(ref: int, payload: bytes) -> tuple[bool, str]:
            original = first_payload.setdefault(ref, payload)
            if ref >= len(unique_digests):
                return False, f"no recorded payload for unique spec {ref}"
            if payload_digest(payload) != unique_digests[ref]:
                return False, f"payload of spec {ref} differs from the record"
            if payload != original:
                return False, f"payload of spec {ref} differs across repeats"
            return True, ""

        def send_chunk(conn, item, record):
            status, payload = conn.request(
                "POST", f"/v1/stream/{self.sessions[item.session]}",
                self.chunks[item.session][item.ref].encode("utf-8"),
            )
            if status != 200:
                counters["refused"] += status in (429, 503)
                finish(record, False, f"chunk HTTP {status}")
                return
            session = (
                chunk_digests[item.session]
                if item.session < len(chunk_digests) else []
            )
            ok = item.ref < len(session) and (
                events_digest(json.loads(payload)) == session[item.ref]
            )
            finish(record, ok, "" if ok else f"chunk {item.ref} events differ")

        def sender():
            conn = Connection(port)
            try:
                for seq, item in enumerate(self.schedule):
                    due = self.t0 + item.due
                    delay = due - time.perf_counter()
                    if delay > PACE_GAP_S:
                        pace.sample()
                        delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    record = {"seq": seq, "item": item, "due": due,
                              "sent": time.perf_counter(), "done": None,
                              "ok": False, "reason": "not completed"}
                    records.append(record)
                    if item.kind == loadgen.STREAM:
                        send_chunk(conn, item, record)
                        continue
                    status, payload = conn.request(
                        "POST", "/v1/run",
                        submit_body(unique_spec(item.ref)),
                    )
                    record["submitted"] = time.perf_counter()
                    if status != 202:
                        counters["refused"] += status in (429, 503)
                        finish(record, False, f"submit HTTP {status}")
                        continue
                    body = json.loads(payload)
                    queue_depths.append(float(body.get("queue_depth", 0)))
                    coalesced[0] += bool(body.get("coalesced"))
                    record["job"] = body["id"]
                    with wake:
                        heapq.heappush(
                            pending, (record["submitted"], seq, record)
                        )
                        wake.notify()
            finally:
                conn.close()
                with wake:
                    sending[0] = False
                    wake.notify()

        def poller():
            conn = Connection(port)
            try:
                while True:
                    with wake:
                        if not pending:
                            if not sending[0]:
                                return
                            wake.wait(0.05)
                            continue
                        when, _, record = pending[0]
                        delay = when - time.perf_counter()
                        if delay > 0:
                            wake.wait(delay)
                            continue
                        heapq.heappop(pending)
                    fetch_start = time.perf_counter()
                    status, payload = conn.request(
                        "GET", f"/v1/result/{record['job']}"
                    )
                    counters["polls"] += 1
                    if status == 202:
                        now = time.perf_counter()
                        waited = now - record["due"]
                        with wake:
                            heapq.heappush(pending, (
                                now + max(POLL_FLOOR_S, POLL_FRACTION * waited),
                                record["seq"], record,
                            ))
                        continue
                    record["fetch_start"] = fetch_start
                    if status == 200:
                        ok, reason = check_payload(record["item"].ref, payload)
                        finish(record, ok, reason)
                    else:
                        finish(record, False, f"result HTTP {status}")
            finally:
                conn.close()

        threads = [threading.Thread(target=sender, name="perfbench-sender"),
                   threading.Thread(target=poller, name="perfbench-poller")]
        pace.sample(3)
        self.t0 = time.perf_counter() + 0.05
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - self.t0
        pace.sample(3)
        _, after = admin.json("GET", "/metrics")
        self.peak_rss = self.server.peak_rss_mb()
        admin.close()

        latencies_ms = []
        by_class: dict[str, list[float]] = defaultdict(list)
        submit_ms, fetch_ms = [], []
        completed = 0
        for record in records:
            tally.record(record["ok"], record["reason"])
            completed += record["ok"]
            value = (
                pace.scale(record["done"] - record["due"], record["due"],
                           record["done"]) * 1e3
                if record["ok"] else float("inf")
            )
            latencies_ms.append(value)
            by_class[record["item"].kind].append(value)
            if "submitted" in record:
                submit_ms.append((record["submitted"] - record["sent"]) * 1e3)
            if record["done"] is not None and "fetch_start" in record:
                fetch_ms.append((record["done"] - record["fetch_start"]) * 1e3)
            if tracer.active:
                self._trace(tracer, record)
        runs = len(submit_ms)
        self.records = records
        self.stats = {
            "before": before,
            "after": after,
            "lags_ms": [(r["sent"] - r["due"]) * 1e3 for r in records],
            "submit_ms": submit_ms,
            "fetch_ms": fetch_ms,
            "queue_depths": queue_depths,
            "coalesced_ratio": coalesced[0] / runs if runs else 0.0,
            "polls_per_request": counters["polls"] / runs if runs else 0.0,
            "refused": counters["refused"],
            "by_class": by_class,
        }
        return {
            "elapsed_s": elapsed,
            "units": completed,
            "latencies_ms": latencies_ms,
        }

    @staticmethod
    def _trace(tracer, record) -> None:
        """Client-side spans of one request, from its due time."""
        if record["done"] is None:
            return
        seq = record["seq"]
        op = tracer.add("op.request", record["due"], record["done"], op=seq)
        if record["item"].kind == loadgen.STREAM:
            tracer.add("service.chunk", record["sent"], record["done"],
                       parent=op, op=seq)
            return
        submitted = record.get("submitted", record["done"])
        tracer.add("service.submit", record["sent"], submitted,
                   parent=op, op=seq)
        if "fetch_start" in record:
            tracer.add("service.wait", submitted, record["fetch_start"],
                       parent=op, op=seq)
            tracer.add("service.fetch", record["fetch_start"],
                       record["done"], parent=op, op=seq)

    def layer_metrics(self) -> dict[str, float]:
        stats = self.stats
        before, after = stats["before"], stats["after"]
        out: dict[str, float] = {}
        for kind in loadgen.CLASSES:
            out[f"service.latency_p50_ms.{kind}"] = percentile(
                stats["by_class"][kind], 0.5
            )
        out["service.submit_ms.p50"] = percentile(stats["submit_ms"], 0.5)
        out["service.fetch_ms.p50"] = percentile(stats["fetch_ms"], 0.5)
        for endpoint, name in (("/v1/run", "run"), ("/v1/result", "result"),
                               ("/v1/stream/chunk", "stream_chunk")):
            old = before["latency"].get(endpoint, {})
            new = after["latency"].get(endpoint, {})
            count = new.get("count", 0) - old.get("count", 0)
            total = new.get("total_ms", 0.0) - old.get("total_ms", 0.0)
            out[f"service.server_ms.{name}"] = total / count if count else 0.0
        out["service.coalesced_ratio"] = stats["coalesced_ratio"]
        cache_old, cache_new = before["cache"], after["cache"]
        hits = cache_new["hits"] - cache_old["hits"]
        probes = hits + cache_new["misses"] - cache_old["misses"]
        out["service.cache_hit_ratio"] = hits / probes if probes else 0.0
        out["service.queue_depth_p90"] = percentile(stats["queue_depths"], 0.9)
        out["service.polls_per_request"] = stats["polls_per_request"]
        out["service.rejected"] = stats["refused"]
        out["service.generator_lag_p90_ms"] = percentile(stats["lags_ms"], 0.9)
        out["service.generator_lag_max_ms"] = max(stats["lags_ms"])
        return out

    def close(self, tally) -> None:
        if self.server is not None:
            clean = self.server.stop()
            self.server = None
            if not clean:
                tally.record(False, "server did not drain cleanly")
