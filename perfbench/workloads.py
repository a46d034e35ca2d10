"""The benchmark's four workloads and their output checks.

Each workload turns a seed into a *cycle* of passes.  A pass is one
unit of user-visible work, timed around its calls into the public
``repro`` API; the runner repeats whole cycles until the measuring time
is used up, so every run of a seed measures the same multiset of
inputs.  The cost of a pass depends strongly on its input (the
topology, the sampled pairs, or how many alarms a synthesized stream
raises), so each pass of the cycle uses its own input seed derived from
the workload seed (stream: a few synthesized streams, each replayed
several times per cycle); the reported wall clock is the mean pass over
the run's whole cycles.

Every pass returns its rendered output (figure text, grid rows, sorted
alarm list); :meth:`Workload.check` compares it against the repo's
oracles and against properties that hold at every scale.  The figure
benches' band asserts (e.g. a ~13% mean prepending fraction) are
calibrated at full scale and are not applied at the benchmark's scales;
the pinned output digests cover those figures instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "PROFILES",
    "WORKLOADS",
    "PassResult",
    "Workload",
    "input_seed",
    "percentile",
    "tail",
]

#: the percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.999, 99.99, 99.9, 99.0, 90.0)

#: per-workload parameters: ``bench`` is what the benchmark measures,
#: ``tiny`` is the self-test's scale.  ``cycle`` is the number of passes
#: in one cycle.
PROFILES: dict[str, dict[str, dict]] = {
    "bench": {
        "measure": {"scale": 0.12, "cycle": 2},
        "detect": {"scale": 0.2, "pairs": 40, "cycle": 24},
        "stream": {
            "scale": 1.0, "monitors": 400, "updates": 100_000, "feeds": 4, "streams": 3,
            "cycle": 12,
        },
        "grid": {
            "scale": 1.0, "attackers": 48, "victims": 24, "padding": 3, "workers": 2,
            "warm_repeats": 5, "oracle_cells": 2, "cycle": 2,
        },
    },
    "tiny": {
        "measure": {
            "scale": 0.1, "cycle": 1,
            "config": {"num_prefixes": 40, "churn_origins": 4},
        },
        "detect": {"scale": 0.15, "pairs": 8, "cycle": 1},
        "stream": {
            "scale": 0.3, "monitors": 60, "updates": 2000, "feeds": 4, "streams": 1, "cycle": 1,
        },
        "grid": {
            "scale": 0.3, "attackers": 6, "victims": 4, "padding": 3, "workers": 2,
            "warm_repeats": 1, "oracle_cells": 2, "cycle": 1,
        },
    },
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[float | None, float | None]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples
    beyond it, and its value (``None`` when there are too few samples)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None, None


def input_seed(seed: int, workload: str, index: int) -> int:
    """The program seed of pass ``index`` of ``workload``'s cycle."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class PassResult:
    """One timed pass: its wall clock, rendered output and side figures."""

    wall_s: float
    output: str
    #: operations the pass performed (figure runs, offers, grid cells)
    ops: int
    #: workload-specific timings of the pass (seconds unless named)
    extra: dict[str, float] = field(default_factory=dict)
    #: raw values for the oracle checks, dropped once the pass is checked
    evidence: dict = field(default_factory=dict)
    #: the host-speed reference loop's time around the pass (set by the runner)
    reference_s: float = 0.0
    #: digest of ``output``, which the runner drops once the pass is checked
    digest: str = ""


class Workload:
    """Base: set-up, one timed pass, and the pass's checks."""

    name = ""
    #: modules a fresh interpreter imports before the first timed call
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, params: dict, workdir: Path) -> None:
        self.seed = seed
        self.params = params
        self.workdir = workdir

    def prepare(self) -> None:
        """Set-up that precedes the first timed call (not wall time)."""

    def inputs(self) -> list[int]:
        return [input_seed(self.seed, self.name, i) for i in range(self.params["cycle"])]

    def run_pass(self, index: int, metrics, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, index: int, result: PassResult) -> list[str]:
        """Oracle and invariant checks of one pass; returns the failures."""
        return []

    def fingerprints(self) -> list[str]:
        return []

    def manifest(self) -> dict:
        return dict(self.params)


def _region(tracer, name: str):
    return tracer.region(name) if tracer is not None else nullcontext()


# -- measure / detect: figure pairs run through REGISTRY -----------------
class _FigurePair(Workload):
    figures: tuple[str, str] = ("", "")
    modules = ("repro.experiments",)

    def configs(self, index: int) -> list:
        from repro.experiments import REGISTRY

        seed = self.inputs()[index]
        overrides = {"seed": seed, "scale": self.params["scale"]}
        overrides.update(self.params.get("config", {}))
        configs = []
        for figure in self.figures:
            base = REGISTRY[figure][0]()
            fields = {f.name for f in dataclasses.fields(base)}
            extra = self.figure_overrides(figure, base)
            configs.append(
                dataclasses.replace(
                    base, **{k: v for k, v in {**overrides, **extra}.items() if k in fields}
                )
            )
        return configs

    def figure_overrides(self, figure: str, base) -> dict:
        return {}

    def run_pass(self, index: int, metrics, tracer) -> PassResult:
        from repro.experiments import REGISTRY

        configs = self.configs(index)
        results = []
        walls = {}
        start = time.perf_counter()
        for figure, config in zip(self.figures, configs):
            run = REGISTRY[figure][1]
            figure_start = time.perf_counter()
            with _region(tracer, f"experiments.{figure}"):
                results.append(run(config, metrics=metrics))
            walls[figure] = time.perf_counter() - figure_start
        wall = time.perf_counter() - start
        text = "\n".join(result.to_text() for result in results)
        return PassResult(
            wall_s=wall,
            output=text,
            ops=len(results),
            extra={f"experiments.{figure}.wall_s": s for figure, s in walls.items()},
            evidence={"results": results},
        )

    def fingerprints(self) -> list[str]:
        from repro.store.query import experiment_fingerprint

        return [
            experiment_fingerprint(figure, config)
            for index in range(self.params["cycle"])
            for figure, config in zip(self.figures, self.configs(index))
        ]


class Measure(_FigurePair):
    """Figures 5 and 6 in one process, the way ``repro-aspp all`` runs them."""

    name = "measure"
    figures = ("fig05", "fig06")

    def check(self, index: int, result: PassResult) -> list[str]:
        fig05, fig06 = result.evidence["results"]
        errors = []
        for name, value in {**fig05.summary, **fig06.summary}.items():
            if name != "max_padding_observed" and not 0.0 <= value <= 1.0:
                errors.append(f"{name} = {value} is not a fraction")
        for series in {row[0] for row in fig05.rows}:
            values = [row[2] for row in fig05.rows if row[0] == series]
            if values != sorted(values):
                errors.append(f"fig05 {series} quantiles are not monotone")
        return errors


class Detect(_FigurePair):
    """Figures 13 and 14: sampled interceptions, then Figure-4 detection."""

    name = "detect"
    figures = ("fig13", "fig14")

    def figure_overrides(self, figure: str, base) -> dict:
        # Monitor counts scale with the topology, so the x-axis spans the
        # same fraction of ASes as at full scale.
        scale = self.params["scale"]
        overrides = {"pairs": self.params["pairs"]}
        if figure == "fig13":
            overrides["monitor_counts"] = tuple(
                max(1, round(count * scale)) for count in base.monitor_counts
            )
        else:
            overrides["monitors"] = max(1, round(base.monitors * scale))
        return overrides

    def check(self, index: int, result: PassResult) -> list[str]:
        fig13, fig14 = result.evidence["results"]
        errors = []
        for _, _, batch, streaming in fig13.rows:
            if streaming < batch - 1e-9:
                errors.append("fig13: streaming accuracy below batch accuracy")
        if not fig14.summary["detected_attacks"] <= fig14.summary["effective_attacks"]:
            errors.append("fig14: more detections than attacks")
        # Top-degree monitor sets are nested, so adding monitors can only
        # add evidence: accuracy never falls as the count grows.
        accuracies = [row[2] for row in fig13.rows]
        if accuracies != sorted(accuracies):
            errors.append("fig13: accuracy falls as monitors are added")
        return errors


# -- stream: closed-loop replay through the multi-feed pipeline ----------
def _render_alarms(alarms) -> str:
    return "\n".join(
        sorted(
            f"{a.prefix} monitor={a.monitor} {a.confidence.value} suspect={a.suspect} "
            f"removed={a.removed_pads} {a.evidence}"
            for a in alarms
        )
    )


class Stream(Workload):
    """A single producer offers each update as soon as the previous
    ``offer`` returns (closed loop, one client), round-robin over the
    feeds.  The ``streams`` inputs are synthesized during set-up; pass
    ``index`` replays stream ``index % streams``.  How many alarms a
    stream raises sets much of a replay's cost and varies widely from
    seed to seed, so one run averages several streams."""

    name = "stream"
    modules = (
        "repro.measurement.churn",
        "repro.detection.detector",
        "repro.detection.pipeline",
        "repro.detection.streaming",
    )

    def inputs(self) -> list[int]:
        streams = self.params["streams"]
        return [input_seed(self.seed, self.name, i % streams) for i in range(self.params["cycle"])]

    def config(self, stream: int):
        from repro.measurement.churn import ChurnConfig

        return ChurnConfig(
            seed=self.inputs()[stream],
            scale=self.params["scale"],
            monitors=self.params["monitors"],
            updates=self.params["updates"],
            attack=True,
        )

    def prepare(self) -> None:
        from repro.measurement.churn import synthesize_churn_stream

        self.streams = [
            synthesize_churn_stream(self.config(i)) for i in range(self.params["streams"])
        ]
        self._oracles: dict[int, str] = {}

    def stream(self, index: int):
        return self.streams[index % len(self.streams)]

    def run_pass(self, index: int, metrics, tracer) -> PassResult:
        from repro.detection.detector import ASPPInterceptionDetector
        from repro.detection.pipeline import PipelineDetector, StreamingPipeline

        stream = self.stream(index)
        feeds = self.params["feeds"]
        graph = stream.world.graph
        latencies = array("d")
        clock = time.perf_counter
        start = clock()
        detector = PipelineDetector(ASPPInterceptionDetector(graph), graph, metrics=metrics)
        pipeline = StreamingPipeline(detector, feeds=feeds, policy="block", metrics=metrics)
        for view in stream.baselines.values():
            pipeline.prime(view)
        replay_start = clock()
        offer = pipeline.offer
        record = latencies.append
        for position, item in enumerate(stream.messages):
            before = clock()
            offer(position % feeds, item)
            record(clock() - before)
        pipeline.flush()
        end = clock()
        return PassResult(
            wall_s=end - start,
            output=_render_alarms(pipeline.alarms),
            ops=len(stream.messages),
            extra={
                "replay_s": end - replay_start,
                "processed": pipeline.processed,
                "lost": pipeline.blocked + pipeline.dropped + pipeline.dead_lettered,
                "offer_us_p50": percentile(latencies, 50) * 1e6,
                "offer_us_tail": tail(latencies)[1] * 1e6,
            },
        )

    def oracle(self, index: int) -> str:
        """Alarms of the serial ``StreamingDetector`` over the same messages."""
        key = index % len(self.streams)
        if key not in self._oracles:
            from repro.detection.detector import ASPPInterceptionDetector
            from repro.detection.streaming import StreamingDetector

            stream = self.streams[key]
            detector = StreamingDetector(ASPPInterceptionDetector(stream.world.graph))
            for view in stream.baselines.values():
                detector.prime(view)
            self._oracles[key] = _render_alarms(detector.consume_all(stream.plain_messages()))
        return self._oracles[key]

    def check(self, index: int, result: PassResult) -> list[str]:
        errors = []
        if result.output != self.oracle(index):
            errors.append("pipeline alarms differ from the StreamingDetector replay")
        if result.extra["processed"] != len(self.stream(index).messages):
            errors.append("pipeline did not process every offered update")
        return errors

    def manifest(self) -> dict:
        return {**self.params, "messages": [len(s.messages) for s in self.streams]}


# -- grid: exhaustive attacker x victim campaign, cold then warm store ---
class Grid(Workload):
    """``exhaustive_grid`` in delta mode over a process pool, first into
    a fresh ``CampaignStore`` (cold), then rerun against the reopened
    store (warm)."""

    name = "grid"
    modules = (
        "repro.experiments.base",
        "repro.experiments.sweeps",
        "repro.bgp.engine",
        "repro.store",
        "repro.topology.tiers",
    )

    def run_pass(self, index: int, metrics, tracer) -> PassResult:
        from repro.bgp.engine import PropagationEngine
        from repro.experiments.base import build_world
        from repro.experiments.sweeps import exhaustive_grid
        from repro.store import CampaignStore
        from repro.topology.tiers import customer_cone

        params = self.params
        store_dir = Path(tempfile.mkdtemp(prefix="grid-", dir=self.workdir))
        clock = time.perf_counter
        try:
            start = clock()
            world = build_world(seed=self.inputs()[index], scale=params["scale"])
            graph = world.graph
            engine = PropagationEngine(graph, mode="delta", metrics=metrics)

            def top_by_cone(pool, limit):
                return sorted(pool, key=lambda a: (-len(customer_cone(graph, a)), a))[:limit]

            attackers = top_by_cone(world.topology.transit_ases, params["attackers"])
            victims = top_by_cone(graph.ases, params["victims"])

            def campaign():
                store = CampaignStore(store_dir, metrics=metrics)
                try:
                    return exhaustive_grid(
                        engine,
                        attackers=attackers,
                        victims=victims,
                        origin_padding=params["padding"],
                        workers=params["workers"],
                        store=store,
                        metrics=metrics,
                    )
                finally:
                    store.close()

            cold_start = clock()
            cold = campaign()
            cold_s = clock() - cold_start
            warm_s = []
            warm_rows = []
            for _ in range(params["warm_repeats"]):
                warm_start = clock()
                warm_rows.append(campaign())
                warm_s.append(clock() - warm_start)
            wall = clock() - start
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        cells = len(cold)
        output = "\n".join(
            f"{r.attacker} {r.victim} {r.padding} {r.before_fraction!r} "
            f"{r.after_fraction!r} {r.attacker_kept_route}"
            for r in cold
        )
        return PassResult(
            wall_s=wall,
            output=output,
            ops=cells * (1 + len(warm_s)),
            extra={
                "cold_cells_per_s": cells / cold_s,
                "warm_cells_per_s": cells / sorted(warm_s)[len(warm_s) // 2],
            },
            evidence={"cold": cold, "warm": warm_rows, "graph": graph},
        )

    def check(self, index: int, result: PassResult) -> list[str]:
        from repro.bgp.engine import PropagationEngine
        from repro.experiments.sweeps import pair_grid
        from repro.utils.rand import make_rng

        cold = result.evidence["cold"]
        errors = []
        for rows in result.evidence["warm"]:
            if rows != cold:
                errors.append("warm store replay differs from the cold grid")
        # A fixed sample of cells recomputed from scratch on the reference
        # interpreter in full mode must match the delta-mode pooled cells.
        rng = make_rng(self.inputs()[index])
        sample = sorted(rng.sample(range(len(cold)), min(self.params["oracle_cells"], len(cold))))
        reference = PropagationEngine(result.evidence["graph"], backend="reference")
        recomputed = pair_grid(
            reference,
            [(cold[i].attacker, cold[i].victim) for i in sample],
            origin_padding=self.params["padding"],
        )
        for i, expected in zip(sample, recomputed):
            if cold[i] != expected:
                errors.append(f"grid cell {i} differs from the reference engine")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Measure, Detect, Stream, Grid)
}
