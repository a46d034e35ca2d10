"""Self-test of the benchmark at a tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs one cycle untraced and one cycle traced
(``tiny`` profile, a few seconds in all) and checks that

* the rendered outputs are identical in both modes;
* every span lies within its parent's interval and has non-negative
  self time;
* the per-layer self times plus ``unattributed_s`` add up to the traced
  ``wall_s``;
* every output check passed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PROFILES, WORKLOADS  # noqa: E402

from repro.telemetry.metrics import RunMetrics  # noqa: E402

SEED = 11
#: relative slack of the sum check (floating-point rounding only)
SUM_TOLERANCE = 1e-6


def check_workload(name: str, workdir: Path) -> list[str]:
    workload = WORKLOADS[name](SEED, PROFILES["tiny"][name], workdir)
    workload.prepare()
    untraced = run.Ledger()
    run.run_cycles(workload, {}, 0, ledger=untraced, cycles=1)
    traced = run.Ledger()
    tracer = Tracer(keep_spans=True)
    registry = RunMetrics()
    tracer.install()
    try:
        run.run_cycles(workload, {}, 0, ledger=traced, metrics=registry, tracer=tracer, cycles=1)
    finally:
        tracer.uninstall()
    errors = untraced.errors + traced.errors
    if [p.digest for p in untraced.passes] != [p.digest for p in traced.passes]:
        errors.append("traced and untraced outputs differ")
    errors.extend(tracer.nesting_errors())
    if not tracer.spans:
        errors.append("no spans recorded")
    values = run.layer_metrics(workload, tracer, registry, traced, untraced, 0.0)
    layered = sum(v for k, v in values.items() if k.endswith(".self_s")) + values["unattributed_s"]
    wall = values["traced_wall_s"]
    if abs(layered - wall) > SUM_TOLERANCE * wall:
        errors.append(f"self times + unattributed = {layered!r} != traced wall {wall!r}")
    print(
        f"{name:<8} passes={len(traced.passes)} spans={len(tracer.spans)} "
        f"wall={wall:.4f}s unattributed={values['unattributed_s']:.4f}s "
        f"{'ok' if not errors else 'FAILED'}"
    )
    return errors


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE.parent))
    failures = 0
    try:
        for name in WORKLOADS:
            for error in check_workload(name, workdir):
                failures += 1
                print(f"  {name}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
