"""The batch workloads: ``paper_figs`` and ``dieout_sweep``.

Both drive the simulation layers in-process through
``repro.runner.run_ensemble`` with one serial executor (``jobs=1``) and
the result cache off.  One op is one ensemble (a curve or a grid cell);
the op list is a pure function of the workload seed and the run length.
A ``paper_figs`` curve is issued one run per call, so that each run is a
latency sample; a grid cell is one call.  Every call is timed on its
own and scaled by the machine's pace around it (:class:`~.common.Pace`).
"""

from __future__ import annotations

import dataclasses
import random
import time

from .common import digest, pool_index

#: Seconds of work one ``paper_figs`` round holds at the reference pace
#: (six figure-1b blocks and one figure-4 block).
PAPER_ROUND_S = 20.0
#: Figure-1b seed blocks per figure-4 block.  The star curves are cheap,
#: and with six blocks the 280 runs of a round put the p90 inside one
#: class of runs: 240 star runs and the 10 figure-4 runs with host rate
#: limiting all take under 0.2 s, the 10 cold-routing figure-4 runs 0.3
#: to 0.4 s, so the p90 (the 252nd) is the second fastest cold-routing
#: run.  With three blocks it fell where the backbone and edge runs
#: thin out (0.35 to 0.6 s, with 10 % between neighbours), and spread
#: by 16 % across ten seeds.
STAR_BLOCKS_PER_ROUND = 6
RUNS_PER_CURVE = 10
#: The paper's figure-4 seed block.
FIG4_BASE_SEED = 42

#: Seconds of work one ``dieout_sweep`` grid holds at the defining commit.
DIEOUT_GRID_S = 4.0
DIEOUT_REPLICAS = 8
DIEOUT_TICKS = 200
DIEOUT_MUS = (0.03, 0.045, 0.06, 0.09, 0.12)
DIEOUT_TOPOLOGY_SEED = 1

#: Pace samples per second of simulation calls (at least one per call).
PACE_PER_S = 10


def rounds_for(seconds: float, per_round_s: float) -> int:
    """How many fixed-size rounds fill a run of ``seconds``."""
    return max(1, round(seconds / per_round_s))


# ----------------------------------------------------------------------
# Op lists
# ----------------------------------------------------------------------


def _strategies():
    from repro.core import scenarios as sc
    from repro.core.policy import DeploymentStrategy

    star = [
        DeploymentStrategy.none(),
        DeploymentStrategy.hosts(0.10, sc.STAR_BETA2),
        DeploymentStrategy.hosts(0.30, sc.STAR_BETA2),
        DeploymentStrategy.hub(sc.STAR_LINK_RATE, sc.STAR_HUB_BUDGET),
    ]
    powerlaw = [
        DeploymentStrategy.none(),
        DeploymentStrategy.hosts(0.05, sc.HOST_RL_RATE),
        DeploymentStrategy.edge(sc.ROUTER_BASE_RATE),
        DeploymentStrategy.backbone(sc.ROUTER_BASE_RATE),
    ]
    return star, powerlaw


def _curve(study, strategy, *, max_ticks: int, base_seed: int, runs: int):
    spec = study.spec_for(strategy, max_ticks=max_ticks, num_runs=runs)
    template = dataclasses.replace(spec.template, engine="fast")
    return dataclasses.replace(spec, template=template, base_seed=base_seed)


def _studies():
    from repro.core import scenarios as sc
    from repro.core.quarantine import QuarantineStudy

    star = QuarantineStudy(
        sc.STAR_NODES,
        scan_rate=sc.STAR_BETA1,
        topology="star",
        initial_infections=2,
        seed=42,
    )
    powerlaw = QuarantineStudy(1000, scan_rate=0.8, seed=42)
    return star, powerlaw


def paper_ops(seed: int, seconds: float) -> list[tuple[str, object]]:
    """``(topology kind, EnsembleSpec)`` per op: figure-1b and figure-4
    curves under the paper's protocol.

    Figure 4 is regenerated from the paper's own seed block (base seed
    42, as in ``fig4_powerlaw_simulation``): its power-law topology is
    resampled per run (unpinned) and its four curves share the block.
    Each of those topologies is fresh in the process, so each pays a
    cold routing build.  The workload seed picks the figure-1b seed
    blocks.  Figure 4 is most of the work and its per-run cost spreads
    widely with the seed (0.07 to 1 s): with a seed-dependent figure-4
    block the p90 spread by 26 % across ten seeds.
    """
    pool = pool_index(seed)
    star_study, powerlaw_study = _studies()
    star, powerlaw = _strategies()
    ops: list[tuple[str, object]] = []
    for round_ in range(rounds_for(seconds, PAPER_ROUND_S)):
        for block in range(STAR_BLOCKS_PER_ROUND):
            base = 100_000 + pool * 10_000 + (
                round_ * STAR_BLOCKS_PER_ROUND + block
            ) * RUNS_PER_CURVE
            for strategy in star:
                ops.append(("star", _curve(
                    star_study, strategy, max_ticks=60, base_seed=base,
                    runs=RUNS_PER_CURVE,
                )))
        base = FIG4_BASE_SEED + round_ * RUNS_PER_CURVE
        for strategy in powerlaw:
            ops.append(("powerlaw", _curve(
                powerlaw_study, strategy, max_ticks=400, base_seed=base,
                runs=RUNS_PER_CURVE,
            )))
    return ops


def paper_warmup_ops() -> list[tuple[str, object]]:
    """Set-up ops on seeds no timed op uses."""
    star_study, powerlaw_study = _studies()
    star, powerlaw = _strategies()
    return [
        ("star", _curve(star_study, star[3], max_ticks=60, base_seed=1,
                        runs=RUNS_PER_CURVE)),
        ("powerlaw", _curve(powerlaw_study, powerlaw[0], max_ticks=400,
                            base_seed=1, runs=1)),
    ]


def _dieout_defenses():
    from repro.runner.spec import DefenseSpec

    return {
        "none": DefenseSpec(),
        "edge": DefenseSpec(kind="edge", rate=0.02),
        "backbone": DefenseSpec(kind="backbone", rate=0.02),
        "hub": DefenseSpec(kind="hub", rate=10.0, node_budget=4.0),
    }


def dieout_topology():
    from repro.runner.spec import TopologySpec

    return TopologySpec(
        kind="powerlaw", num_nodes=1000, seed=DIEOUT_TOPOLOGY_SEED
    )


def _cell(defense, mu: float, *, base_seed: int, replicas: int, label: str):
    from repro.runner.spec import EnsembleSpec, RunSpec
    from repro.simulator import ImmunizationPolicy

    template = RunSpec(
        topology=dieout_topology(),
        defense=defense,
        scan_rate=0.8,
        initial_infections=1,
        immunization=ImmunizationPolicy.at_tick(1, mu),
        max_ticks=DIEOUT_TICKS,
        engine="fast-batched",
    )
    return EnsembleSpec(
        template=template, num_runs=replicas, base_seed=base_seed,
        label=label,
    )


def dieout_ops(seed: int, seconds: float) -> list[tuple[str, object]]:
    """``(defense kind, EnsembleSpec)`` per op: the die-out grid.

    Deployments {none, edge, backbone, hub} cross immunization rates
    around the epidemic threshold on one pinned topology.  Every cell
    has its own fixed seed block; the workload seed fixes the order in
    which the cells run.  With seed-dependent replica seeds, the
    replicas that die out early varied so much from seed to seed that
    throughput spread by 16 % and peak memory by 21 %.  A cell is one
    latency sample (its replicas share one time), so a 20 s run holds
    five grids: 100 cells, the fewest with a supported p90.
    """
    cells = [
        (kind, defense, mu)
        for mu in DIEOUT_MUS
        for kind, defense in _dieout_defenses().items()
    ]
    rng = random.Random(f"dieout_sweep:{pool_index(seed)}")
    ops: list[tuple[str, object]] = []
    for grid in range(rounds_for(seconds, DIEOUT_GRID_S)):
        order = list(range(len(cells)))
        rng.shuffle(order)
        for index in order:
            kind, defense, mu = cells[index]
            base = 200_000 + (grid * len(cells) + index) * DIEOUT_REPLICAS
            ops.append((kind, _cell(
                defense, mu, base_seed=base, replicas=DIEOUT_REPLICAS,
                label=f"{kind}-mu{mu}",
            )))
    return ops


def dieout_warmup_ops() -> list[tuple[str, object]]:
    """Set-up ops on seeds no timed op uses: one vector-loop cell and one
    round-robin (hub) cell."""
    defenses = _dieout_defenses()
    return [
        ("none", _cell(defenses["none"], 0.06, base_seed=1, replicas=4,
                       label="warmup-none")),
        ("hub", _cell(defenses["hub"], 0.06, base_seed=1, replicas=2,
                      label="warmup-hub")),
    ]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def run_outcomes(result) -> list[list]:
    """Per run of an ensemble: ``[final size, ticks executed]``."""
    outcomes = []
    for run in result.runs:
        trajectory = run.trajectory
        series = (
            trajectory.ever_infected
            if trajectory.ever_infected is not None
            else trajectory.infected
        )
        outcomes.append([float(series[-1]), run.metrics.ticks_executed])
    return outcomes


def check_ensemble(result, expected: str | None) -> tuple[bool, str]:
    """Invariants of every run, then the recorded digest of the op."""
    spec = result.spec
    if len(result.runs) != spec.num_runs:
        return False, f"{spec.label}: {len(result.runs)} runs returned"
    for run in result.runs:
        ticks = run.metrics.ticks_executed
        if not 0 < ticks <= spec.max_ticks:
            return False, f"{spec.label}: {ticks} ticks executed"
    if expected is None:
        return False, f"{spec.label}: no recorded outcome for this op"
    if digest(run_outcomes(result)) != expected:
        return False, f"{spec.label}: outcomes differ from the record"
    return True, ""


# ----------------------------------------------------------------------
# Tracing targets
# ----------------------------------------------------------------------


def install_wrappers(tracer) -> None:
    """Wrap each layer's public names where its caller looks them up."""
    import repro.runner.build as build
    import repro.runner.executors as executors
    import repro.simulator.network as network
    from repro.simulator.fastpath import (
        FastWormSimulation,
        VectorReplicaSimulation,
    )

    tracer.wrap(executors, "execute_run", "runner.execute_run")
    tracer.wrap(
        executors, "execute_replica_batch", "runner.execute_replica_batch"
    )
    tracer.wrap(build, "build_network", "network.build_network")
    tracer.wrap(build, "apply_defense", "network.apply_defense")
    tracer.wrap(network, "RoutingTables", "routing.build")
    for name in ("barabasi_albert", "classify_roles", "partition_subnets"):
        tracer.wrap(network, name, f"topology.{name}")
    tracer.wrap(build, "FastWormSimulation", "engine.init")
    tracer.wrap(FastWormSimulation, "run", "engine.run")
    tracer.wrap(build, "VectorReplicaSimulation", "replicas.init")
    tracer.wrap(VectorReplicaSimulation, "run", "replicas.run")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclasses.dataclass
class OpResult:
    """One op's runs, however many calls they took."""

    spec: object
    runs: list


class SimWorkload:
    """One batch workload: a fixed op list run back to back, with pace
    samples between the ops."""

    name = ""

    def __init__(self, seed: int, seconds: float, expected: dict) -> None:
        self.seed = seed
        self.seconds = seconds
        self.expected = expected.get(self.name, {})
        self.ops: list[tuple[str, object]] = []
        self.results: list[tuple[str, object]] = []

    # Subclasses provide the op lists.
    def build_ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warmup_ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def generate(self) -> None:
        """Nothing to generate: the op list is built in set-up."""

    def _run_op(self, spec, tracer, op_id):
        from repro.runner import run_ensemble
        from repro.runner.executors import (
            ReplicaBatchExecutor,
            SerialExecutor,
        )

        with tracer.span("runner.run_ensemble", op=op_id):
            return run_ensemble(
                spec,
                executor=ReplicaBatchExecutor(SerialExecutor()),
                use_cache=False,
            )

    def setup(self, tracer, tally) -> None:
        self.ops = self.build_ops()
        warm = self.expected.get("warmup", [])
        for index, (_, spec) in enumerate(self.warmup_ops()):
            result = self._run_op(spec, tracer, -1 - index)
            ok, reason = check_ensemble(
                result, warm[index] if index < len(warm) else None
            )
            if not ok:
                tally.record(False, "warm-up " + reason)

    def pieces(self, spec) -> list:
        """The ``run_ensemble`` calls one op is made of, each a latency
        sample with a pace sample before it."""
        return [spec]

    def timed(self, tracer, tally, pace) -> dict:
        recorded = self.expected.get("pool", {}).get(
            str(pool_index(self.seed)), []
        )
        self.results = []
        spans = [(0.0, 0.0)]
        for op_id, (kind, spec) in enumerate(self.ops):
            runs = []
            for piece in self.pieces(spec):
                # A long call gets as many samples after it as one
                # every 1/PACE_PER_S seconds would have given.
                pace.sample(1 + int((spans[-1][1] - spans[-1][0]) * PACE_PER_S))
                start = time.perf_counter()
                runs.extend(self._run_op(piece, tracer, op_id).runs)
                spans.append((start, time.perf_counter()))
            self.results.append((kind, OpResult(spec, runs)))
        pace.sample(1 + int((spans[-1][1] - spans[-1][0]) * PACE_PER_S))
        spans = spans[1:]
        scaled = [pace.scale(end - start, start, end) for start, end in spans]
        units = 0
        for op_id, (_, result) in enumerate(self.results):
            ok, reason = check_ensemble(
                result, recorded[op_id] if op_id < len(recorded) else None
            )
            tally.record(ok, reason)
            units += len(result.runs)
        return {
            "elapsed_s": sum(scaled),
            "units": units,
            "latencies_ms": [seconds * 1e3 for seconds in scaled],
        }

    def counts(self) -> dict[str, int]:
        """Exact work counts from the runs' own metrics."""
        solo = [r for _, res in self.results for r in res.runs
                if res.spec.template.engine == "fast"]
        grouped = [r for _, res in self.results for r in res.runs
                   if res.spec.template.engine == "fast-batched"]
        return {
            "engine.ticks": sum(r.metrics.ticks_executed for r in solo),
            "engine.packets": sum(r.metrics.packets_injected for r in solo),
            "replicas.replica_ticks": sum(
                r.metrics.ticks_executed for r in grouped
            ),
        }

    def close(self, tally) -> None:
        pass


class PaperFigs(SimWorkload):
    name = "paper_figs"

    def build_ops(self):
        return paper_ops(self.seed, self.seconds)

    def warmup_ops(self):
        return paper_warmup_ops()

    def pieces(self, spec):
        # Each run of a curve is a call of its own, so each is a latency
        # sample and the pace is sampled between runs, not only between
        # curves of up to 10 s.  Run i of the curve is run 0 of the
        # one-run ensemble based at its derived seed: the same run.
        from repro.runner.spec import derive_seed

        return [
            dataclasses.replace(
                spec, num_runs=1, base_seed=derive_seed(spec.base_seed, i)
            )
            for i in range(spec.num_runs)
        ]


class DieoutSweep(SimWorkload):
    """One cell per call: its replicas run together and share one time,
    so the cell is the independent latency sample."""

    name = "dieout_sweep"

    def build_ops(self):
        return dieout_ops(self.seed, self.seconds)

    def warmup_ops(self):
        return dieout_warmup_ops()

    def setup(self, tracer, tally) -> None:
        # The pinned topology's routing is built here, outside the
        # timed phase; the warm-up cells then reuse it.
        from repro.simulator.network import Network

        with tracer.span("setup.pinned_network", op=-100):
            Network.from_spec(dieout_topology())
        super().setup(tracer, tally)
