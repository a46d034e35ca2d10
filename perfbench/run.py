"""End-to-end benchmark of the reproduction: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload measure --seed 7 --seconds 25 --trace 0

``--workload`` is one of ``measure``, ``detect``, ``stream`` and
``grid`` (see ``workloads.py`` and ``BENCHMARK.json`` for what each
runs and why), or ``all`` to run the four in turn.  The run repeats whole cycles of passes until
``--seconds`` are used up, checks every pass's output, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(tracing off).  Their times are normalized to the host's speed: the
benchmark times a fixed pure-Python reference loop before and after
every pass and every set-up, and scales each measured time by
``REFERENCE_S`` over the loop's time next to it.  A shared host runs
the same pass 1.5-2x slower for minutes at a time, and the loop slows
with it, so a normalized time moves with the program rather than with
the neighbours.  The raw seconds and the host speed (``REFERENCE_S``
over the loop's time, about 1.0 on an uncontended host) are printed
and recorded beside them.

``--trace 1`` runs one untraced cycle and then one traced cycle, and
reports the per-layer metrics: span counts and self times per layer,
the ``RunMetrics`` counters the program records, the unattributed
remainder and the tracing overhead (all in raw seconds).

Each run also appends a record with its run manifest (seed, scale and
workload parameters, experiment fingerprints, source revision, Python
and NumPy versions, CPU count) to ``.perfbench_out/records.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import PROFILES, WORKLOADS, tail  # noqa: E402

#: fresh interpreters timed per run for ``setup_s`` (median reported)
SETUP_SAMPLES = 3
#: iterations of the host-speed reference loop, and about the loop's time
#: on an uncontended 2.0 GHz Intel Xeon vCPU under CPython 3.11
REFERENCE_LOOPS = 150_000
REFERENCE_S = 0.012


def host_reference() -> float:
    """Seconds the fixed reference loop takes now: the yardstick of the
    host's current speed.  Garbage collection is off while it runs, so
    the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalized(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read at the baseline host's speed."""
    return seconds * REFERENCE_S / reference_s


def describe(values) -> dict:
    """Median, tail percentile and sample count of a timing."""
    p, at = tail(values)
    return {"median": statistics.median(values), "tail_p": p, "tail": at, "n": len(values)}


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# -- manifest ------------------------------------------------------------
def source_revision() -> dict:
    """Git revision when the checkout is a repository, plus a digest of
    the program's sources that identifies the code either way."""
    revision = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_revision": revision, "source_digest": digest.hexdigest()[:16]}


def manifest(workload, args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.manifest(),
        "input_seeds": workload.inputs(),
        "experiment_fingerprints": workload.fingerprints(),
        **source_revision(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


# -- measuring -----------------------------------------------------------
class Ledger:
    """Pass results of one mode (traced or untraced) plus failure counts."""

    def __init__(self) -> None:
        self.passes: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_cycles(workload, digests, seconds, *, ledger, metrics=None, tracer=None, cycles=None):
    """Whole cycles of passes until ``seconds`` are used (at least one
    cycle), or exactly ``cycles`` cycles; every pass is checked."""
    count = workload.params["cycle"]
    seen: dict[int, str] = {}
    start = time.perf_counter()
    done = 0
    while True:
        # Each pass builds its pipelines and engines afresh.  The old ones
        # are reference cycles, and with the inputs' large heap a full
        # collection comes seldom, so without this peak memory would grow
        # with the number of passes the run fits.
        gc.collect()
        cycle_start = time.perf_counter()
        for index in range(count):
            before = host_reference()
            try:
                result = workload.run_pass(index, metrics, tracer)
            except Exception:  # a pass that raises is a failed operation
                ledger.attempted += 1
                ledger.failed += 1
                ledger.errors.append(f"pass {index} raised:\n{traceback.format_exc()}")
                continue
            result.reference_s = (before + host_reference()) / 2
            if tracer is not None:
                tracer.enabled = False
            try:
                errors = workload.check(index, result)
            finally:
                if tracer is not None:
                    tracer.enabled = True
            digest = result.digest = output_digest(result.output)
            pinned = digests.get(index)
            if pinned is not None and pinned != digest:
                errors.append("output digest differs from the pinned one")
            if seen.setdefault(index, digest) != digest:
                errors.append("output differs from an earlier cycle's")
            # Only the digest is kept, so memory does not grow with the run.
            result.output = ""
            result.evidence = {}
            ledger.attempted += result.ops
            if errors:
                ledger.failed += result.ops
                ledger.errors.extend(f"pass {index}: {e}" for e in errors)
            ledger.passes.append(result)
        done += 1
        elapsed = time.perf_counter() - start
        cycle_s = time.perf_counter() - cycle_start
        if cycles is not None:
            if done >= cycles:
                return
        elif elapsed + cycle_s > seconds:
            return


def setup_samples(args) -> tuple[list[float], list[float]]:
    """``setup_s`` samples: fresh interpreters timed from launch until
    the point where the first pass would start its clock, each with the
    reference loop's time around it."""
    samples = []
    references = []
    for _ in range(SETUP_SAMPLES):
        before = host_reference()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
        references.append((before + host_reference()) / 2)
    return samples, references


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this process, plus its pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workers = workload.params.get("workers", 0)
    if not workers:
        return own
    # ru_maxrss of children is the largest reaped child; the pool's
    # workers are its only children when this is read.
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own + workers * child


# -- metrics -------------------------------------------------------------
def workload_extras(workload, ledger) -> dict[str, float]:
    """The workload-specific figures of an untraced ledger."""
    values: dict[str, float] = {}
    passes = ledger.passes
    if not passes:
        return values
    for key in passes[0].extra:
        if key.startswith("experiments."):
            values[key] = mean([p.extra[key] for p in passes])
    if workload.name == "grid":
        for key in ("cold_cells_per_s", "warm_cells_per_s"):
            values[f"grid.{key}"] = statistics.median(p.extra[key] for p in passes)
    if workload.name == "stream":
        values["stream.ingest_ups"] = statistics.median(
            p.extra["processed"] / p.extra["replay_s"] for p in passes
        )
        # Median over replays of each replay's own percentiles (the tail
        # is the highest percentile with ten samples beyond it).
        for key in ("offer_us_p50", "offer_us_tail"):
            values[f"stream.{key}"] = statistics.median(p.extra[key] for p in passes)
    return values


SPAN_LAYERS = (
    "topology.generate", "bgp.compile", "bgp.propagate", "attack.simulate",
    "measurement.ribs", "measurement.updates", "measurement.snapshot",
    "detection.timing", "detection.inspect", "detection.streaming",
    "store.open", "store.get", "store.put",
)


def layer_metrics(workload, tracer, registry, traced, untraced, import_s) -> dict[str, float]:
    """Per-layer figures, per pass, from one traced and one untraced ledger."""
    n = len(traced.passes)
    counters = registry.to_dict()["counters"]

    def counter(name: str) -> float:
        return counters.get(name, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_wall = mean([p.wall_s for p in traced.passes])
    values: dict[str, float] = {"import.self_s": import_s}
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = tracer.calls(layer) / n
        values[f"{layer}.self_s"] = tracer.self_s(layer) / n
    values["bgp.activations.cold"] = counter("engine.cold.activations")
    values["bgp.activations.warm"] = counter("engine.warm.activations")
    values["detection.pipeline.offer.calls"] = tracer.calls("detection.pipeline.offer") / n
    values["detection.pipeline.self_s"] = (
        tracer.self_s("detection.pipeline.offer") + tracer.self_s("detection.pipeline.flush")
    ) / n
    values["detection.pipeline.processed"] = mean(
        [p.extra.get("processed", 0) for p in traced.passes]
    )
    depth = registry.histograms.get("detection.pipeline.queue_depth")
    values["detection.pipeline.queue_depth_p99"] = depth.quantile(0.99) if depth else 0.0
    values["detection.pipeline.lost"] = mean([p.extra.get("lost", 0) for p in traced.passes])
    busy = registry.timers.get("worker.task_seconds")
    busy_s = busy.total / n if busy else 0.0
    runner_s = tracer.total_s("runner") / n
    values["runner.self_s"] = tracer.self_s("runner") / n
    values["runner.worker_busy_s"] = busy_s
    values["runner.tasks"] = counter("scheduler.tasks")
    values["runner.executed"] = counter("scheduler.executed")
    values["runner.retries"] = counter("runner.retries")
    values["runner.pool_efficiency"] = ratio(busy_s, workload.params.get("workers", 1) * runner_s)
    hits, misses = counter("cache.baseline_hits"), counter("cache.baseline_misses")
    values["runner.cache_hit_ratio"] = ratio(hits, hits + misses)
    hits, misses = counter("store.hits"), counter("store.misses")
    values["store.hit_ratio"] = ratio(hits, hits + misses)
    values["store.bytes"] = counter("store.bytes")
    untraced_extras = workload_extras(workload, untraced)
    for figure in ("fig05", "fig06", "fig13", "fig14"):
        key = f"experiments.{figure}.wall_s"
        values[key] = untraced_extras.get(key, 0.0)
    values["experiments.self_s"] = sum(
        tracer.self_s(f"experiments.{figure}") for figure in ("fig05", "fig06", "fig13", "fig14")
    ) / n
    values["unattributed_s"] = traced_wall - tracer.top_level_s / n
    values["traced_wall_s"] = traced_wall
    values["tracing_overhead_s"] = traced_wall - mean([p.wall_s for p in untraced.passes])
    attempted = traced.attempted + untraced.attempted
    values["failed_frac"] = ratio(traced.failed + untraced.failed, attempted)
    for key in ("grid.cold_cells_per_s", "grid.warm_cells_per_s", "stream.ingest_ups",
                "stream.offer_us_p50", "stream.offer_us_tail"):
        values[key] = untraced_extras.get(key, 0.0)
    return values


# -- entry point ---------------------------------------------------------
def stop_children() -> None:
    """Stop every process the run started and wait until each has ended:
    pool workers an error path left behind, and the multiprocessing
    resource tracker, which the grid's shared-memory topology starts and
    which would otherwise outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closing the tracker's pipe makes it exit; _stop also waits for it.
    getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_digests(workload: str, seed: int) -> dict[int, str]:
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    pinned = json.loads(path.read_text()).get(workload, {}).get(str(seed), [])
    return dict(enumerate(pinned))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--pin", action="store_true",
        help="run one untraced cycle and record its output digests for this seed",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh interpreter so that
    set-up and peak memory are its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


MAIN_PID = os.getpid()


def on_sigterm(*_) -> None:
    """A termination request unwinds this process through the clean-up
    in :func:`main`; forked pool workers inherit the handler and just end."""
    if os.getpid() != MAIN_PID:
        os._exit(128 + signal.SIGTERM)
    sys.exit(128 + signal.SIGTERM)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return run(parse_args(argv))
    finally:
        stop_children()


def run(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    for module in cls.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - import_start
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    workload = cls(args.seed, PROFILES["bench"][args.workload], tmp)
    try:
        workload.prepare()
        if args.setup_probe:
            print(time.monotonic())
            return 0
        return benchmark(workload, args, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def benchmark(workload, args, import_s: float) -> int:
    from tracing import Tracer

    from repro.telemetry.metrics import RunMetrics

    spec = load_spec()
    digests = load_digests(workload.name, args.seed)
    untraced = Ledger()
    if args.pin:
        run_cycles(workload, {}, 0, ledger=untraced, cycles=1)
        return pin(workload, args, untraced)
    if not args.trace:
        run_cycles(workload, digests, args.seconds, ledger=untraced)
        rss = peak_rss_mb(workload)
        setup_raw, setup_refs = setup_samples(args)
        setup = [normalized(s, r) for s, r in zip(setup_raw, setup_refs)]
        raw = [p.wall_s for p in untraced.passes]
        walls = [normalized(p.wall_s, p.reference_s) for p in untraced.passes]
        speeds = [REFERENCE_S / p.reference_s for p in untraced.passes]
        values = {
            # Mean over whole cycles, so every input weighs the same.
            "wall_s": statistics.fmean(walls) if walls else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        detail = {
            "wall_s": {**describe(walls), "samples": walls} if walls else {},
            "setup_s": {**describe(setup), "samples": setup},
            "raw.wall_s": {"value": statistics.fmean(raw), **describe(raw), "samples": raw}
            if raw else {"value": 0.0},
            "raw.setup_s": {"value": statistics.median(setup_raw), **describe(setup_raw),
                            "samples": setup_raw},
            "host_speed": {"value": statistics.median(speeds) if speeds else 0.0,
                           "samples": speeds},
        }
        detail.update({k: {"value": v} for k, v in workload_extras(workload, untraced).items()})
        ledgers = [untraced]
        declared = spec["end_to_end"]
    else:
        run_cycles(workload, digests, 0, ledger=untraced, cycles=1)
        traced = Ledger()
        tracer = Tracer()
        registry = RunMetrics()
        tracer.install()
        try:
            run_cycles(
                workload, digests, 0, ledger=traced, metrics=registry, tracer=tracer, cycles=1
            )
        finally:
            tracer.uninstall()
        for index, (a, b) in enumerate(zip(untraced.passes, traced.passes)):
            if a.digest != b.digest:
                traced.failed += b.ops
                traced.errors.append(f"pass {index}: traced output differs from untraced")
        values = layer_metrics(workload, tracer, registry, traced, untraced, import_s)
        detail = {}
        ledgers = [untraced, traced]
        declared = spec["per_layer"]
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    errors = [e for ledger in ledgers for e in ledger.errors]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} not as declared")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    report(workload, args, metrics, detail, attempted, failed)
    result = {
        "correct": not errors and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def report(workload, args, metrics, detail, attempted, failed) -> None:
    """Print every metric with its unit, and append the run record."""
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"failed_frac {failed / max(1, attempted):.6g} ({failed}/{attempted})")
    for name, metric in metrics.items():
        line = f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}"
        stats = detail.get(name)
        if stats and "median" in stats:
            line += f"   (n={stats['n']}, median={stats['median']:.6g}"
            if stats["tail_p"] is not None:
                line += f", p{stats['tail_p']:g}={stats['tail']:.6g}"
            line += ")"
        print(line)
    for name, stats in detail.items():
        if name not in metrics:
            line = f"  {name:<36} {stats['value']:>14.6g}"
            if "median" in stats:
                line += f"   (n={stats['n']}, median={stats['median']:.6g})"
            print(line)
    record = {
        "manifest": manifest(workload, args),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def pin(workload, args, ledger) -> int:
    """Record the cycle's output digests for ``args.seed``."""
    if ledger.failed or len(ledger.passes) != workload.params["cycle"]:
        for error in ledger.errors:
            print(error, file=sys.stderr)
        return 1
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    pinned.setdefault(workload.name, {})[str(args.seed)] = [
        p.digest for p in ledger.passes
    ]
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
