"""Shared pieces of the benchmark: percentiles, memory, expectations.

Everything here is pure bookkeeping; nothing imports the program under
test, so the tests can exercise it without a built source tree.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root the benchmark is run from (the parent of this dir).
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space inside the checkout (ignored by git).
WORK_DIR = ROOT / ".perfbench_work"

#: Each workload maps its seed onto this many recorded input sets, so
#: every input the benchmark can generate has outputs recorded from the
#: commit that defined the benchmark (see ``record.py``).
POOL_SIZE = 12

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


#: Seconds :func:`reference_work` takes at the reference pace: the
#: quiet-phase pace of the 2-vCPU Xeon VM that defined the benchmark.
REFERENCE_S = 0.0027
#: A time is scaled by the median pace of this many samples nearest it.
PACE_NEIGHBOURS = 9


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


def pool_index(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed % POOL_SIZE


def percentile(samples: list[float], q: float) -> float:
    """The ``q`` quantile (nearest rank) of ``samples``.

    Refuses with :class:`UnsupportedPercentile` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it, so a tail is never
    read off one or two samples.  ``inf`` entries (failed or refused
    ops, which miss any latency limit) sort last.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    rank = math.ceil(q * len(samples))
    beyond = len(samples) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise UnsupportedPercentile(
            f"p{q * 100:g} of {len(samples)} samples has {beyond} beyond "
            f"it; at least {MIN_TAIL_SAMPLES} are required"
        )
    return sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    """Median of a non-empty list (mean of the middle pair)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def reference_work() -> int:
    """A fixed mix of interpreter and small-array numpy work.

    It calls nothing of the program under test, so a change to the
    program never moves it; only the machine's pace does.
    """
    import numpy as np

    acc = 0
    table = {}
    for i in range(20_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    values = np.arange(2048, dtype=np.float64)
    for _ in range(60):
        values = np.sqrt(values * 1.0001 + 1.0)
        acc += int(values[::3].sum()) & 1
    return acc


class Pace:
    """How fast the machine runs, sampled through a run.

    The benchmark shares its host with other tenants, and for minutes at
    a time the same work can take up to twice as long.  A sample times
    :func:`reference_work` between ops; the pace at a moment is the
    median of the :data:`PACE_NEIGHBOURS` samples nearest it, over
    :data:`REFERENCE_S`.  Reported times are divided by the pace at
    their op, so they read as if the machine had run at the reference
    pace: a slower program still reads slower, a slower host does not.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ratios: list[float] = []
        reference_work()  # imports numpy outside any sample

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples now."""
        for _ in range(count):
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            index = bisect.bisect(self.at, end)
            self.at.insert(index, (start + end) / 2)
            self.ratios.insert(index, (end - start) / REFERENCE_S)

    def ratio(self, at: float) -> float:
        """The pace at ``at`` (1.0 is the reference; 2.0 half as fast)."""
        if not self.at:
            raise ValueError("no pace samples taken")
        k = min(PACE_NEIGHBOURS, len(self.at))
        lo = max(0, min(bisect.bisect(self.at, at) - k // 2,
                        len(self.at) - k))
        return median(self.ratios[lo : lo + k])

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent between ``start`` and ``end``, at the
        reference pace."""
        return seconds / self.ratio((start + end) / 2)

    def overall(self) -> float:
        """The median pace of the whole run."""
        return median(self.ratios)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def digest(obj) -> str:
    """Short content digest of a JSON-able value (16 hex chars)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    """The recorded outputs every op is checked against."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def work_dir() -> Path:
    """A private scratch directory inside the checkout."""
    path = WORK_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class Tally:
    """Ops attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
