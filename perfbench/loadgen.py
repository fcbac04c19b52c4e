"""Open-loop request schedule for ``service_mixed``.

The schedule is a pure function of the workload seed: base arrivals
come at ``rate`` per second, one at a random time within each
``1/rate`` slot, each in one class.  A
unique request may be echoed by a duplicate a few milliseconds later,
while it is still in flight, so the duplicate exercises coalescing.  A
cached request repeats a unique request due at least ``cached_age_s``
earlier, long since complete.  Stream requests alternate between two
sessions, each taking that session's next chunk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

UNIQUE = "unique"
DUPLICATE = "duplicate"
CACHED = "cached"
STREAM = "stream"
CLASSES = (UNIQUE, DUPLICATE, CACHED, STREAM)
#: Base arrivals per block of exact class proportions.
BLOCK = 20


@dataclass(frozen=True)
class Mix:
    """Shares of the base arrivals, plus the duplicate echo chance."""

    rate: float
    unique: float
    cached: float
    stream: float
    duplicate_echo: float
    echo_delay_ms: tuple[float, float] = (2.0, 8.0)
    cached_age_s: float = 2.0
    sessions: int = 2

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        total = self.unique + self.cached + self.stream
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class shares must sum to 1, got {total}")


@dataclass(frozen=True)
class Item:
    """One scheduled request.

    ``ref`` is the unique-spec index for run requests (the duplicate's
    or cached repeat's original) and the chunk index for stream ones.
    """

    due: float
    kind: str
    ref: int
    session: int = 0


def build_schedule(seed: int, seconds: float, mix: Mix) -> list[Item]:
    """Every request of one run, sorted by due time (seconds from start).

    The base arrivals are jittered: arrival ``k`` falls at a uniform
    random time in ``[k, k + 1) / rate``.  Classes come in exact
    proportions within each block of ``BLOCK`` arrivals, in a random
    order, so every seed offers the same load.  A Poisson process offers
    it in seed-dependent bursts: at the same mean rate, its p90 latency
    spread by 21 % (interquartile range over median) across five seeds,
    against 6 % for jittered arrivals.  The schedule is still open-loop:
    nothing waits for a reply.  Arrivals are drawn in time order, so a
    shorter run sends a prefix of a longer run's requests.
    """
    rng = random.Random(f"service_mixed:{seed}")
    n_cached = round(mix.cached * BLOCK)
    n_stream = round(mix.stream * BLOCK)
    block = (
        [CACHED] * n_cached + [STREAM] * n_stream
        + [UNIQUE] * (BLOCK - n_cached - n_stream)
    )
    items: list[Item] = []
    uniques: list[float] = []  # due time of unique spec j
    chunks = [0] * mix.sessions
    next_session = 0
    k = 0
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        for kind in kinds:
            t = (k + rng.random()) / mix.rate
            k += 1
            if t >= seconds:
                items.sort(key=lambda item: item.due)
                return items
            old = [j for j, due in enumerate(uniques)
                   if due <= t - mix.cached_age_s]
            if kind == CACHED and old:
                items.append(Item(t, CACHED, rng.choice(old)))
            elif kind == STREAM:
                items.append(
                    Item(t, STREAM, chunks[next_session], next_session)
                )
                chunks[next_session] += 1
                next_session = (next_session + 1) % mix.sessions
            else:
                # A cached draw before any spec is old enough runs a new one.
                j = len(uniques)
                uniques.append(t)
                items.append(Item(t, UNIQUE, j))
                if rng.random() < mix.duplicate_echo:
                    delay = rng.uniform(*mix.echo_delay_ms) / 1000.0
                    items.append(Item(t + delay, DUPLICATE, j))


def schedule_needs(items: list[Item], sessions: int) -> tuple[int, list[int]]:
    """Unique specs and per-session chunks a schedule consumes."""
    uniques = 1 + max(
        (item.ref for item in items if item.kind == UNIQUE), default=-1
    )
    chunks = [0] * sessions
    for item in items:
        if item.kind == STREAM:
            chunks[item.session] = max(chunks[item.session], item.ref + 1)
    return uniques, chunks
