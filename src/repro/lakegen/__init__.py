"""`repro.lakegen` — synthetic-lake scenario harness: scale, churn, recall.

The first subsystem that *consumes* the whole lake stack instead of
extending it. Two layers:

- :mod:`repro.lakegen.generator` — a seeded synthetic-lake generator that
  emits tables at configurable scale (10k–1M columns) with *planted,
  exactly-known* joinable/unionable/subset ground truth recorded in a
  byte-reproducible manifest;
- :mod:`repro.lakegen.driver` — a churn workload driver replaying mixed
  operation blends (ingest/append/update/remove/query/refresh with
  configurable ratios, hot-key Zipf skew, burst arrival) against an
  in-process :class:`~repro.lake.service.LakeService` or a live server
  via :class:`~repro.lake.client.LakeClient`, then scoring recall@k
  against the planted truth. Its run record carries that recall, the
  target's scraped ``/v1/metrics`` envelope and ``/v1/slow_queries`` span
  trees.

``python -m repro.lakegen generate | run`` is the CLI.
"""

from repro.lakegen.generator import (
    LakeSpec,
    generate_manifest,
    iter_tables,
    load_manifest,
    manifest_bytes,
    materialize_table,
    write_manifest,
)
from repro.lakegen.driver import (
    ChurnSpec,
    ClientTarget,
    ServiceTarget,
    build_service,
    evaluate_recall,
    provision,
    run_churn,
    run_scenario,
)

__all__ = [
    "LakeSpec",
    "generate_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_bytes",
    "materialize_table",
    "iter_tables",
    "ChurnSpec",
    "ServiceTarget",
    "ClientTarget",
    "build_service",
    "provision",
    "run_churn",
    "evaluate_recall",
    "run_scenario",
]
