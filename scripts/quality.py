"""Quality rows: recall@10 and MRR of the two ways to rank join and subset.

On the lake benchmark's seed-7 lakegen lake (10 000 columns), served by
the benchmark's own stack (:mod:`benchmarks.e2e.stack`: ``num_perm`` 32,
untrained dim-32 4-layer trunk) in a storeless catalog, every planted pair
of a mode is asked as a member query (a join on its key column), and the
planted partner is looked for in the top 10:

- ``embedding``: the paper's ranking over the stored column vectors,
  ``TableSearcher.rank`` — with ``join=True`` for join (Table V's
  TabSketchFM recipe), RANK1/RANK2 cosine for subset (Table VIII's);
- ``signature_containment``: what ``LakeService`` serves, the exact scan
  of estimated containment over the stored ``values_minhash`` signatures
  and ``n_values`` — of the query column in a candidate's for join, of
  each candidate column in the query table's for subset.

Writes ``results/quality/<mode>.json`` for each mode (the rows, the lake,
the host) and prints the rows. Run from the repo root::

    PYTHONPATH=src python scripts/quality.py

About five seconds on a 2-vCPU host.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.__main__ import host_fingerprint  # noqa: E402
from benchmarks.e2e.stack import (  # noqa: E402
    COLUMNS,
    INGEST_CHUNK,
    build_lake,
    build_model,
    chunks,
)
from repro.lake.catalog import LakeCatalog  # noqa: E402
from repro.lake.service import LakeService  # noqa: E402
from repro.lakegen.driver import ServiceTarget, evaluate_recall  # noqa: E402

SEED = 7
K = 10
OUT = ROOT / "results" / "quality"
#: Mode -> what its file's rows measure.
METRICS = {
    "join": f"join recall@{K} and MRR against the planted join truth",
    "subset": f"subset recall@{K} and MRR against the planted subset truth",
}


def embedding_row(catalog: LakeCatalog, mode: str, truth: list) -> dict:
    """The paper's ranking over the stored vectors, leave-one-out."""
    join = mode == "join"
    hits = 0
    reciprocal = 0.0
    for entry in truth:
        ranked = [
            match.table
            for match in catalog.searcher.rank(
                catalog.records[entry["query"]].vector_pairs(),
                K,
                join=join,
                column=entry["query_column"] if join else None,
                exclude_table=entry["query"],
            )[:K]
        ]
        if entry["candidate"] in ranked:
            hits += 1
            reciprocal += 1.0 / (ranked.index(entry["candidate"]) + 1)
    return {
        "k": K,
        "evaluated": len(truth),
        "recall_at_k": hits / len(truth),
        "mrr": reciprocal / len(truth),
    }


def main() -> int:
    started = time.perf_counter()
    lake = build_lake(SEED, COLUMNS)
    model = build_model(lake)
    catalog = LakeCatalog(model.embedder())
    for chunk in chunks(lake, INGEST_CHUNK):
        catalog.add_tables(chunk)
    served = evaluate_recall(
        ServiceTarget(LakeService(catalog)), lake.manifest, k=K
    )
    config = model.config
    OUT.mkdir(parents=True, exist_ok=True)
    for mode, metric in METRICS.items():
        rows = {
            "embedding": embedding_row(
                catalog, mode, lake.manifest["truth"][mode]
            ),
            "signature_containment": {
                key: served[mode][key]
                for key in ("k", "evaluated", "recall_at_k", "mrr")
            },
        }
        record = {
            "metric": metric,
            "lake": {
                "generator": "lakegen",
                "columns": COLUMNS,
                "seed": SEED,
                "tables": len(catalog),
            },
            "model": {
                "factory": "benchmarks.e2e.stack.build_model",
                "num_perm": config.sketch.num_perm,
                "dim": config.dim,
                "num_layers": config.num_layers,
                "trained": False,
            },
            "rows": rows,
            "host": host_fingerprint(),
            "wall_s": round(time.perf_counter() - started, 1),
        }
        path = OUT / f"{mode}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        for name, row in rows.items():
            print(
                f"{mode:>6} {name:>22}: recall@{K} {row['recall_at_k']:.3f}  "
                f"MRR {row['mrr']:.3f}  ({row['evaluated']} pairs)"
            )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
