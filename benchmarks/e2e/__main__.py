"""``python -m benchmarks.e2e`` — the whole lake benchmark in one command.

Runs the four workloads, each in its own fresh interpreter
(``benchmarks/e2e/run.py``): ``--repeat N`` untraced sets, which alone
produce the end-to-end metrics, then one traced set for the per-layer
metrics. Prints every metric by name with unit and sample count, checks the
outputs (any failed operation or mismatch makes the command exit non-zero)
and writes the run record with a host fingerprint.

    python -m benchmarks.e2e                      # one set + traced -> runs/BENCH_11.json
    python -m benchmarks.e2e --repeat 10 --vary-seed --no-trace   # the spread check
    python -m benchmarks.e2e --smoke              # 1 000 columns, < 30 s
    python -m benchmarks.e2e --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUNS_DIR = HERE / "runs"
SMOKE_COLUMNS = 1_000
SMOKE_SECONDS = 1

#: What each end-to-end axis means on each workload, and the name the issue
#: gave that cell. The driver's contract wants every workload to report every
#: end-to-end metric, so the issue's workload-specific names became cells of
#: generic axes.
MEANING = {
    ("ingest_cold", "throughput_per_s"): "columns ingested per second [ingest_cols_per_s]",
    ("ingest_cold", "p50_ms"): "median 64-table add_tables chunk",
    ("query_member", "throughput_per_s"): "member queries per second [query_qps]",
    ("query_member", "p50_ms"): "median member discover [query_p50_ms]",
    ("query_external_http", "throughput_per_s"): "payload queries per second over HTTP [query_qps]",
    ("query_external_http", "p50_ms"): "median LakeClient.query [query_p50_ms]",
    ("churn_live", "throughput_per_s"): "ops per second of the nominal churn blend [churn_ops_per_s]",
    ("churn_live", "p50_ms"): "median append_rows [append_p50_ms]",
}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def host_fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def run_one(
    workload: str, seed: int, seconds: float, trace: int, columns: "int | None"
) -> dict:
    """One workload in a fresh interpreter; returns its full run record."""
    RUNS_DIR.mkdir(exist_ok=True)
    record_path = RUNS_DIR / f".record-{os.getpid()}-{workload}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--record", str(record_path),
    ]
    if columns is not None:
        command += ["--columns", str(columns)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    try:
        if not record_path.exists():
            raise SystemExit(
                f"error: {workload} (seed {seed}, trace {trace}) exited "
                f"{done.returncode} without a record\n{done.stdout}"
            )
        with open(record_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        record_path.unlink(missing_ok=True)
    record["wall_s"] = wall
    return record


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as `statistics.quantiles(values, n=4)` gives
    them; the spread is their distance as a share of the median."""
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
        out["spread"] = (q3 - q1) / out["median"] if out["median"] else 0.0
    return out


def summarize(spec: dict, untraced: dict, traced: dict) -> dict:
    """Per workload: end-to-end medians/quartiles over the untraced sets,
    per-layer values from the traced run, failed-ops share, tracing cost."""
    out = {}
    for workload, records in untraced.items():
        row = {"end_to_end": {}, "per_layer": {}, "samples": records[0]["samples"]}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            row["end_to_end"][name] = {
                "unit": entry["unit"],
                **quartiles([r["end_to_end"][name] for r in records]),
            }
        # The two time axes as the clock gave them, before rescaling to the
        # reference speed: what the host's drift does to them shows here.
        row["as_measured"] = {
            name: quartiles([r["as_measured"][name] for r in records])
            for name in records[0]["as_measured"]
        }
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        row["attempted"], row["failed"] = attempted, failed
        row["failed_ops_share"] = failed / attempted
        row["failures"] = [f for r in records for f in r["failures"]]
        # Recall rides on the untraced runs too (query_member, churn_live):
        # deterministic for a seed, so the sets must agree exactly.
        for name in ("quality.recall_at_10_join", "quality.recall_at_10_union",
                     "quality.recall_at_10_subset"):
            values = [r["per_layer"][name] for r in records if name in r["per_layer"]]
            if values:
                row["per_layer"][name] = {"unit": "ratio", **quartiles(values)}
        trace_record = traced.get(workload)
        if trace_record is not None:
            units = {e["name"]: e["unit"] for e in spec["per_layer"]}
            for name, unit in units.items():
                row["per_layer"][name] = {
                    "unit": unit,
                    "value": trace_record["per_layer"].get(name, 0.0),
                }
            # Both passes report the workload's p50: the traced one with
            # span recording on.
            plain = row["end_to_end"]["p50_ms"]["median"]
            row["per_layer"]["obs.tracing_overhead_share"] = {
                "unit": "ratio",
                "value": trace_record["end_to_end"]["p50_ms"] / plain - 1.0,
            }
            row["attribution"] = trace_record["attribution"]
            row["spans"] = trace_record["spans"]
            row["attempted"] += trace_record["attempted"]
            row["failed"] += trace_record["failed"]
            row["failures"] += trace_record["failures"]
            row["failed_ops_share"] = row["failed"] / row["attempted"]
        out[workload] = row
    return out


def print_summary(summary: dict) -> None:
    for workload, row in summary.items():
        print(f"\n== {workload}")
        for name, cell in row["end_to_end"].items():
            spread = f"  spread {cell['spread']:.3f}" if "spread" in cell else ""
            count = row["samples"].get(name)
            samples = f"  samples {count}" if count else ""
            meaning = MEANING.get((workload, name))
            print(
                f"{name:>22} = {cell['median']:.6g} {cell['unit']}"
                f"  (runs {cell['n']}{spread}{samples})"
                + (f"  # {meaning}" if meaning else "")
            )
        for name, cell in row["as_measured"].items():
            spread = f"  spread {cell['spread']:.3f}" if "spread" in cell else ""
            print(
                f"{name:>22} = {cell['median']:.6g} as measured, before "
                f"rescaling  (runs {cell['n']}{spread})"
            )
        print(
            f"{'failed_ops_share':>22} = {row['failed_ops_share']:.6g} ratio"
            f"  ({row['failed']} of {row['attempted']})"
        )
        for failure in row["failures"]:
            print(f"{'FAILED':>22}   {failure}")
        for name, cell in row["per_layer"].items():
            value = cell.get("value", cell.get("median"))
            if value:
                count = row["samples"].get(name)
                samples = f"  (samples {count})" if count else ""
                print(f"  {name:>44} = {value:.6g} {cell['unit']}{samples}")
        attribution = row.get("attribution")
        if attribution:
            wall = attribution["composite_s"]
            print(
                f"  wall of {', '.join(attribution['composite'])} ({wall:.3f} s) "
                "by layer, from the replay:"
            )
            layers = attribution["layers"]
            for layer, cell in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
                print(
                    f"  {layer:>44}   {cell['self_s']:8.3f} s  "
                    f"{cell['self_s'] / wall:6.1%}  ({cell['spans']} spans)"
                )
            left = wall - sum(cell["self_s"] for cell in layers.values())
            print(f"  {'unattributed':>44}   {left:8.3f} s  {left / wall:6.1%}")


# --------------------------------------------------------------------- #
def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Per-metric delta of B against A, against the bound. A metric whose
    own run-to-run spread exceeds its bound is *unresolved*, not unchanged."""
    with open(path_a, "r", encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, "r", encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    regressions = 0
    print(f"{'workload':<20} {'metric':<20} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            cell_a = a[workload]["end_to_end"][name]
            cell_b = b[workload]["end_to_end"][name]
            change = (cell_b["median"] - cell_a["median"]) / cell_a["median"]
            worse = change if entry["better"] == "lower" else -change
            spread = max(cell_a.get("spread", 0.0), cell_b.get("spread", 0.0))
            if spread > bound:
                verdict = f"unresolved (spread {spread:.3f} > bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<20} {name:<20} {cell_a['median']:>12.6g} "
                f"{cell_b['median']:>12.6g} {worse:>+9.3f} {bound:>6.2f}  {verdict}"
            )
        share_a = a[workload]["failed_ops_share"]
        share_b = b[workload]["failed_ops_share"]
        verdict = "REGRESSION" if share_b > share_a else "ok"
        regressions += share_b > share_a
        print(
            f"{workload:<20} {'failed_ops_share':<20} {share_a:>12.6g} "
            f"{share_b:>12.6g} {'':>9} {'any':>6}  {verdict}"
        )
    return 1 if regressions else 0


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    spec = declared()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced sets to run; medians and quartiles are reported")
    parser.add_argument("--vary-seed", action="store_true",
                        help="set i uses seed+i (the driver's spread check)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced set")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_COLUMNS}-column lake, {SMOKE_SECONDS} s timed phases")
    parser.add_argument("--out", default=None, help="run record path")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)

    columns = SMOKE_COLUMNS if args.smoke else None
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]

    started = time.perf_counter()
    jobs = [
        (workload, args.seed + i if args.vary_seed else args.seed, 0)
        for i in range(args.repeat)
        for workload in workloads
    ]
    if not args.no_trace:
        jobs += [(workload, args.seed, 1) for workload in workloads]

    def run_job(job) -> dict:
        workload, seed, trace = job
        record = run_one(workload, seed, seconds, trace, columns)
        print(
            f"{'traced' if trace else 'untraced'}  {workload}  seed {seed}  "
            f"{record['wall_s']:.1f} s  failed {record['failed']}/{record['attempted']}",
            flush=True,
        )
        return record

    if args.smoke:
        # A self-test, not a measurement: two at a time on the two cores.
        with ThreadPoolExecutor(max_workers=2) as pool:
            records = list(pool.map(run_job, jobs))
    else:
        records = [run_job(job) for job in jobs]
    untraced: dict[str, list] = {w: [] for w in workloads}
    traced = {}
    for (workload, _, trace), record in zip(jobs, records):
        if trace:
            traced[workload] = record
        else:
            untraced[workload].append(record)

    summary = summarize(spec, untraced, traced)
    print_summary(summary)
    first = next(iter(untraced.values()))[0]
    record = {
        "format": "e2e-bench/v1",
        "issue": 11,
        "seed": args.seed,
        "vary_seed": args.vary_seed,
        "repeat": args.repeat,
        "columns": first["columns"],
        "seconds": seconds,
        "lake": first["lake"],
        "repro_env": first["repro_env"],
        "host": host_fingerprint(),
        "wall_s": time.perf_counter() - started,
        "unix_time": time.time(),
        "workloads": summary,
    }
    out = Path(args.out) if args.out else RUNS_DIR / (
        "smoke.json" if args.smoke else "BENCH_11.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nrun record: {out}")
    failed = sum(row["failed"] for row in summary.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
