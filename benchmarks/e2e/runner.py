"""One workload, one interpreter: what ``run.py`` executes.

``--workload NAME --seed N --seconds S --trace 0|1`` is the contract the
driver calls; ``--columns`` (lake size, for ``--smoke``) and ``--record``
(write the full run record for the orchestrator) are the benchmark's own.

The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every end-to-end metric ``BENCHMARK.json`` declares, with ``--trace 1``
every per-layer metric. A per-layer metric reads 0 in a workload that never
calls that layer's function — that is the "should not move" column of the
README, measured.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from benchmarks.e2e.stack import (
    COLUMNS,
    HERE,
    ROOT,
    HostReference,
    WorkDir,
    build_lake,
    build_model,
    p50,
    peak_rss_mb,
    refuse_repro_env,
    repro_env,
)
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS

RUNS_DIR = HERE / "runs"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """State of one workload run: inputs, the tracer, and what it measured."""

    def __init__(self, args, started: float, work: WorkDir):
        self.seed = args.seed
        self.seconds = args.seconds
        self.started = started
        self.work = work
        self.tracer = Tracer(enabled=bool(args.trace))
        self.reference = HostReference()
        self.lake = build_lake(args.seed, args.columns)
        self.model = build_model(self.lake)
        self.e2e: dict[str, float] = {}
        #: The two time axes as the clock gave them, before rescaling to
        #: the reference speed.
        self.raw: dict[str, float] = {}
        self.layer: dict[str, float] = {
            "lakegen.generate_s": self.lake.generate_s,
            "lakegen.materialize_tables_per_s": (
                len(self.lake.names) / self.lake.materialize_s
            ),
        }
        #: Sample counts behind a metric, where it is a quantile or a share.
        self.samples: dict[str, int] = {}
        #: The traced run's split of its composite calls' wall by layer.
        self.attribution: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup_done(self) -> None:
        """Set-up ends here: imports, lake generation, tokenizer and model
        build and, for the three non-ingest workloads, provisioning and the
        warm open."""
        self.e2e["setup_s"] = time.perf_counter() - self.started

    def check(self, what: str, attempted: int, failed: int) -> None:
        """Count ``attempted`` operations or output checks, ``failed`` of
        which went wrong (typed errors and mismatches alike)."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted}")


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--columns", type=int, default=COLUMNS)
    parser.add_argument("--record", default=None)
    return parser.parse_args(argv)


def main(argv, started: float) -> int:
    args = parse_args(argv)
    refuse_repro_env()
    spec = declared()
    with WorkDir() as work:
        run = Run(args, started, work)
        WORKLOADS[args.workload](run)
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    run.layer["host.reference_tick_ms"] = p50(run.reference.ms)
    run.samples["host.reference_tick_ms"] = len(run.reference.ms)

    kind = "per_layer" if args.trace else "end_to_end"
    measured = run.layer if args.trace else run.e2e
    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in measured and not args.trace:
            raise SystemExit(f"error: {args.workload} did not measure {name}")
        metrics[name] = {"value": measured.get(name, 0.0), "unit": entry["unit"]}
    for name, metric in metrics.items():
        count = f"  (n={run.samples[name]})" if name in run.samples else ""
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}{count}")
    for name, value in run.raw.items():
        print(f"{args.workload}  as measured, before rescaling: {name} = {value:.6g}")
    if not args.trace:  # per-layer: the traced run lists it with the rest
        print(
            f"{args.workload}  host.reference_tick_ms = "
            f"{run.layer['host.reference_tick_ms']:.6g} ms  (n={len(run.reference.ms)})"
        )
    for failure in run.failures:
        print(f"{args.workload}  FAILED {failure}")

    span_file = None
    if args.trace:
        span_file = RUNS_DIR / f"spans_{args.workload}.jsonl"
        run.tracer.flush(span_file)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "columns": args.columns,
                "lake": run.lake.manifest["totals"],
                "repro_env": repro_env(),
                "end_to_end": run.e2e,
                "as_measured": run.raw,
                "per_layer": run.layer,
                "samples": run.samples,
                "attempted": run.attempted,
                "failed": run.failed,
                "failures": run.failures,
                "attribution": run.attribution,
                "spans": str(span_file.relative_to(ROOT)) if span_file else None,
            }, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if run.failed == 0 else 1
