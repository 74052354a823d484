"""``python -m repro.lakegen`` — the scenario-harness CLI.

Three subcommands, composing the three layers of the package::

    # 1. Plant a lake with exactly-known truth (byte-deterministic):
    python -m repro.lakegen generate --columns 10000 --seed 7

    # 2. Replay churn + evaluate recall, in-process or against a server:
    python -m repro.lakegen run --manifest results/lakegen/manifest-c10000-s7.json
    python -m repro.lakegen run --manifest ... --server 127.0.0.1:8765

    # 3. Fold the run record into the scorecard (with deltas vs last run):
    python -m repro.lakegen report --run results/lakegen/run.json

``generate`` prints the manifest's SHA-256, so two invocations with the
same flags can be checked for byte-identity from the console alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from repro.lakegen.driver import (
    ChurnSpec,
    ClientTarget,
    DEFAULT_BLEND,
    ServiceTarget,
    build_service,
    parse_blend,
    run_scenario,
)
from repro.lakegen.generator import (
    LakeSpec,
    generate_manifest,
    load_manifest,
    manifest_bytes,
)
from repro.lakegen.scorecard import (
    DEFAULT_PATH as SCORECARD_PATH,
    ScorecardError,
    write_scorecard,
)
from repro.utils.io import read_json, write_json


def _log(message: str) -> None:
    print(message, flush=True)


# --------------------------------------------------------------------- #
def cmd_generate(args: argparse.Namespace) -> int:
    spec = LakeSpec(
        columns=args.columns,
        seed=args.seed,
        rows=args.rows,
        join_fraction=args.join_fraction,
        union_fraction=args.union_fraction,
        subset_fraction=args.subset_fraction,
    )
    manifest = generate_manifest(spec)
    raw = manifest_bytes(manifest)
    out = args.out or os.path.join(
        "results", "lakegen", f"manifest-c{spec.columns}-s{spec.seed}.json"
    )
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "wb") as handle:
        handle.write(raw)
    totals = manifest["totals"]
    _log(f"manifest: {out} ({len(raw)} bytes)")
    _log(f"sha256:   {hashlib.sha256(raw).hexdigest()}")
    _log(
        f"planted:  {totals['tables']} tables / {totals['columns']} columns"
        f" — {totals['join_pairs']} join, {totals['union_pairs']} union,"
        f" {totals['subset_pairs']} subset pairs"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    churn = ChurnSpec(
        ops=args.ops,
        seed=args.seed,
        blend=parse_blend(args.blend) if args.blend else DEFAULT_BLEND,
        zipf=args.zipf,
        burst=args.burst,
        burst_pause_ms=args.burst_pause_ms,
        k=args.k,
    )
    if args.server:
        try:
            target = ClientTarget.connect(args.server)
        except ValueError:
            raise SystemExit(
                f"--server expects HOST:PORT, got {args.server!r}"
            ) from None
        _log(f"target: server {args.server} (metrics from /v1/metrics)")
    else:
        _log("target: in-process service (metrics from local registry)")
        service = build_service(
            manifest,
            dim=args.dim,
            num_perm=args.num_perm,
            vocab_size=args.vocab_size,
        )
        target = ServiceTarget(service)
    try:
        run = run_scenario(
            target,
            manifest,
            churn,
            k=args.k,
            max_eval=args.max_eval,
            skip_provision=args.skip_provision,
            log=_log,
        )
    finally:
        target.close()
    out = args.out or os.path.join("results", "lakegen", "run.json")
    write_json(out, run)
    _log(f"run record: {out} (wall {run['wall_s']}s)")
    for mode, stats in run["recall"].items():
        recall = stats["recall_at_k"]
        shown = f"{recall:.3f}" if recall is not None else "n/a"
        _log(f"  recall@{stats['k']} [{mode}]: {shown}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run = read_json(args.run)
    try:
        card = write_scorecard(run, path=args.out)
    except ScorecardError as exc:
        _log(f"scorecard error: {exc}")
        return 1
    latest = card["latest"]
    _log(f"scorecard: {args.out}")
    for mode, stats in latest["recall"].items():
        recall = stats.get("recall_at_k")
        shown = f"{recall:.3f}" if recall is not None else "n/a"
        _log(f"  recall@{stats.get('k')} [{mode}]: {shown}")
    for label, stats in latest["latency_ms"].items():
        _log(
            f"  latency [{label}]: p50={stats['p50']:.3f}ms"
            f" p95={stats['p95']:.3f}ms p99={stats['p99']:.3f}ms"
            f" over {stats['count']} queries"
        )
    deltas = card.get("deltas") or {}
    for mode, delta in deltas.get("recall", {}).items():
        if delta.get("recall_at_k") is not None:
            _log(f"  delta recall [{mode}]: {delta['recall_at_k']:+.3f}")
    for label, delta in deltas.get("latency_ms", {}).items():
        if delta.get("p95") is not None:
            _log(f"  delta p95 [{label}]: {delta['p95']:+.3f}ms")
    return 0


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lakegen",
        description="Synthetic-lake scenario harness: generate, run, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="plant a synthetic lake with exact ground truth"
    )
    gen.add_argument("--columns", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--rows", type=int, default=30)
    gen.add_argument("--join-fraction", type=float, default=0.15)
    gen.add_argument("--union-fraction", type=float, default=0.15)
    gen.add_argument("--subset-fraction", type=float, default=0.10)
    gen.add_argument("--out", default=None, help="manifest path")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser(
        "run", help="provision + churn + recall eval; writes the run record"
    )
    run.add_argument("--manifest", required=True)
    run.add_argument(
        "--server", default=None, help="HOST:PORT of a live lake server"
    )
    run.add_argument("--ops", type=int, default=200)
    run.add_argument("--seed", type=int, default=11)
    run.add_argument(
        "--blend", default=None, help="e.g. query=0.6,append=0.2,ingest=0.2"
    )
    run.add_argument("--zipf", type=float, default=1.1)
    run.add_argument("--burst", type=int, default=1)
    run.add_argument("--burst-pause-ms", type=float, default=0.0)
    run.add_argument("-k", type=int, default=10)
    run.add_argument("--max-eval", type=int, default=200)
    run.add_argument(
        "--skip-provision",
        action="store_true",
        help="assume the target already holds the manifest tables",
    )
    run.add_argument("--dim", type=int, default=32, help="in-process model dim")
    run.add_argument("--num-perm", type=int, default=16)
    run.add_argument("--vocab-size", type=int, default=600)
    run.add_argument("--out", default=None, help="run-record path")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser(
        "report", help="fold a run record into the scorecard, print deltas"
    )
    rep.add_argument("--run", required=True, help="run-record path")
    rep.add_argument("--out", default=SCORECARD_PATH)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
