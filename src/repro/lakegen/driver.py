"""Churn workload driver: mixed operation blends against a live lake.

Replays a seeded stream of ``ingest`` / ``append`` / ``update`` /
``remove`` / ``query`` / ``refresh`` operations — with configurable
ratios, hot-table Zipf skew, and burst arrival — against either an
in-process :class:`~repro.lake.service.LakeService` or a running server —
the two targets of :mod:`repro.lake.target` (:class:`ServiceTarget` /
:class:`ClientTarget`, re-exported here). Both expose the same surface, so
a scenario runs identically in-process and over the wire; what differs is
where the run record scrapes its metrics from (``metrics_source``).

Churn is **truth-preserving by construction**:

- appends re-send copies of a table's *existing* rows (sketches merge,
  versions bump, embeddings go stale — but no distinct value is ever
  added, so every planted overlap stays exact);
- updates replace a table with its own rows in a reshuffled order (same
  distinct sets, version bump, full re-embed);
- removes only ever target *distractor* tables the churn itself ingested
  (fresh key prefixes that intersect nothing planted);
- some queries pin the version the driver tracked for the table,
  exercising the optimistic-concurrency surface under load.

So :func:`evaluate_recall` can score recall@k against the manifest's
planted truth *after* an arbitrary amount of churn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.target import ClientTarget, ServiceTarget  # noqa: F401 — re-exported
from repro.lakegen.generator import LakeSpec, make_distractor, materialize_table
from repro.sketch.pipeline import SketchConfig
from repro.table.schema import Table
from repro.text.tokenizer import WordPieceTokenizer

#: Operation kinds the blend can mix.
CHURN_OPS = ("query", "append", "ingest", "update", "remove", "refresh")

#: Default blend: query-heavy with a steady mutation trickle — the shape
#: of a lake under discovery traffic while ingest pipelines keep landing.
DEFAULT_BLEND = (
    ("query", 0.60),
    ("append", 0.15),
    ("ingest", 0.08),
    ("update", 0.05),
    ("remove", 0.05),
    ("refresh", 0.07),
)

_MODES = ("join", "union", "subset")


def parse_blend(raw: str) -> tuple:
    """``"query=0.6,append=0.2,..."`` -> blend tuple (weights need not
    sum to 1; the driver normalizes)."""
    blend = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        op, _, weight = piece.partition("=")
        op = op.strip()
        if op not in CHURN_OPS:
            raise ValueError(
                f"unknown churn op {op!r}; expected one of {CHURN_OPS}"
            )
        try:
            value = float(weight)
        except ValueError:
            raise ValueError(
                f"blend weight for {op!r} is not a number: {weight!r}"
            ) from None
        if value < 0:
            raise ValueError(f"blend weight for {op!r} must be >= 0")
        blend.append((op, value))
    if not blend or not any(weight > 0 for _, weight in blend):
        raise ValueError(f"blend {raw!r} has no positive weight")
    return tuple(blend)


@dataclass(frozen=True)
class ChurnSpec:
    """One churn workload: how many ops, in what blend, how skewed."""

    ops: int = 200
    seed: int = 11
    blend: tuple = DEFAULT_BLEND
    zipf: float = 1.1
    burst: int = 1
    burst_pause_ms: float = 0.0
    k: int = 10
    #: Fraction of queries served with ``allow_stale=True`` (the rest are
    #: strict and pay the lazy re-embed for anything appended).
    stale_fraction: float = 0.2
    #: Fraction of strict queries that also pin the driver-tracked version.
    pin_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ValueError(f"ops must be >= 0, got {self.ops}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        for op, _ in self.blend:
            if op not in CHURN_OPS:
                raise ValueError(f"unknown churn op {op!r}")
        if not any(weight > 0 for _, weight in self.blend):
            raise ValueError("blend needs at least one positive weight")
        if not 0.0 <= self.stale_fraction <= 1.0:
            raise ValueError(
                f"stale_fraction out of [0, 1]: {self.stale_fraction}"
            )
        if not 0.0 <= self.pin_fraction <= 1.0:
            raise ValueError(f"pin_fraction out of [0, 1]: {self.pin_fraction}")

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "seed": self.seed,
            "blend": [[op, weight] for op, weight in self.blend],
            "zipf": self.zipf,
            "burst": self.burst,
            "burst_pause_ms": self.burst_pause_ms,
            "k": self.k,
            "stale_fraction": self.stale_fraction,
            "pin_fraction": self.pin_fraction,
        }


# --------------------------------------------------------------------- #
# In-process stack construction + provisioning
# --------------------------------------------------------------------- #
def build_service(
    manifest: dict,
    dim: int = 32,
    num_perm: int = 16,
    vocab_size: int = 600,
    cache_size: int = 128,
    sample_tables: int = 64,
) -> LakeService:
    """A storeless lake stack sized for scenario runs: tokenizer trained
    on a deterministic sample of the manifest's tables, 1-layer trunk."""
    order = manifest["order"]
    stride = max(1, len(order) // sample_tables)
    texts: list[str] = []
    for name in order[::stride][:sample_tables]:
        table = materialize_table(manifest, name)
        texts.append(table.description)
        texts.extend(table.header)
        for column in table.columns:
            texts.extend(column.values[:3])
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=vocab_size)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary),
        dim=dim,
        num_layers=1,
        num_heads=2,
        ffn_dim=2 * dim,
        dropout=0.0,
        sketch=SketchConfig(num_perm=num_perm, seed=1),
        seed=0,
    )
    model = TabSketchFM(config)
    encoder = InputEncoder(config, tokenizer)
    catalog = LakeCatalog(TableEmbedder(model, encoder))
    return LakeService(catalog, cache_size=cache_size)


def provision(
    target,
    manifest: dict,
    batch: int = 64,
    log: "Callable[[str], None] | None" = None,
) -> int:
    """Ingest every manifest table into the target, in order, chunked."""
    order = manifest["order"]
    chunk: dict[str, Table] = {}
    done = 0
    for name in order:
        chunk[name] = materialize_table(manifest, name)
        if len(chunk) >= batch:
            target.add_tables(chunk)
            done += len(chunk)
            chunk = {}
            if log is not None and done % (batch * 8) == 0:
                log(f"provisioned {done}/{len(order)} tables")
    if chunk:
        target.add_tables(chunk)
        done += len(chunk)
    if log is not None:
        log(f"provisioned {done}/{len(order)} tables")
    return done


# --------------------------------------------------------------------- #
# Churn
# --------------------------------------------------------------------- #
def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def run_churn(
    target,
    manifest: dict,
    churn: ChurnSpec,
    log: "Callable[[str], None] | None" = None,
) -> dict:
    """Replay one churn workload; returns the op/error/latency ledger.

    Client-side per-op wall times are recorded *only* as a sanity
    contrast — the run record's latency story comes from the server's own
    ``/v1/metrics`` histograms, which is the whole point.
    """
    rng = np.random.default_rng(churn.seed)
    spec = LakeSpec.from_dict(manifest["spec"])
    names = list(manifest["order"])
    # Hot-table skew: a seeded permutation assigns each member its rank,
    # so which tables are "hot" is stable for a given churn seed.
    ranked = [names[i] for i in rng.permutation(len(names))]
    weights = _zipf_weights(len(ranked), churn.zipf)
    ops = [op for op, _ in churn.blend]
    blend_weights = np.array([w for _, w in churn.blend], dtype=np.float64)
    blend_weights /= blend_weights.sum()

    versions = {name: 1 for name in names}
    distractors: list[str] = []
    n_distractors = 0
    counts = {op: 0 for op in CHURN_OPS}
    client_ms = {op: 0.0 for op in CHURN_OPS}
    errors: dict[str, int] = {}
    appended_rows = 0
    refreshed_tables = 0

    def pick_table() -> str:
        return ranked[int(rng.choice(len(ranked), p=weights))]

    def ingest_distractor() -> None:
        nonlocal n_distractors
        name = f"churn{n_distractors:05d}"
        n_distractors += 1
        target.add_tables({name: make_distractor(spec, name, churn.seed)})
        distractors.append(name)

    for step in range(churn.ops):
        op = ops[int(rng.choice(len(ops), p=blend_weights))]
        started = time.perf_counter()
        try:
            if op == "query":
                name = pick_table()
                mode = _MODES[int(rng.integers(len(_MODES)))]
                allow_stale = bool(rng.random() < churn.stale_fraction)
                pin = None
                if not allow_stale and rng.random() < churn.pin_fraction:
                    pin = versions.get(name)
                target.discover(DiscoveryRequest(
                    mode=mode,
                    k=churn.k,
                    table=name,
                    column="key" if mode == "join" else None,
                    allow_stale=allow_stale,
                    pin_version=pin,
                ))
            elif op == "append":
                name = pick_table()
                table = materialize_table(manifest, name)
                picks = rng.integers(0, table.n_rows, int(rng.integers(1, 6)))
                rows = [table.row(int(i)) for i in picks]
                target.append_rows(name, rows)
                versions[name] = versions.get(name, 1) + 1
                appended_rows += len(rows)
            elif op == "ingest":
                ingest_distractor()
            elif op == "update":
                name = pick_table()
                table = materialize_table(manifest, name)
                order = rng.permutation(table.n_rows)
                rows = [table.row(int(i)) for i in order]
                target.update_table(
                    Table(
                        name=table.name,
                        columns=[
                            type(col)(
                                col.name, [row[j] for row in rows]
                            )
                            for j, col in enumerate(table.columns)
                        ],
                        description=table.description,
                    )
                )
                versions[name] = versions.get(name, 1) + 1
            elif op == "remove":
                if distractors:
                    target.remove_table(distractors.pop())
                else:
                    # Nothing safe to drop yet: ingest instead (removing a
                    # manifest member would invalidate planted truth).
                    ingest_distractor()
                    op = "ingest"
            elif op == "refresh":
                refreshed_tables += len(target.refresh_stale())
        except DiscoveryError as exc:
            errors[exc.code] = errors.get(exc.code, 0) + 1
        counts[op] += 1
        client_ms[op] += (time.perf_counter() - started) * 1000.0
        if churn.burst_pause_ms > 0 and (step + 1) % churn.burst == 0:
            time.sleep(churn.burst_pause_ms / 1000.0)
        if log is not None and (step + 1) % 100 == 0:
            log(f"churn {step + 1}/{churn.ops} ops")

    return {
        "spec": churn.to_dict(),
        "counts": counts,
        "errors": errors,
        "client_ms": {op: round(ms, 3) for op, ms in client_ms.items()},
        "appended_rows": appended_rows,
        "distractors_ingested": n_distractors,
        "distractors_live": len(distractors),
        "refreshed_tables": refreshed_tables,
        "tracked_versions_max": max(versions.values()) if versions else 0,
    }


# --------------------------------------------------------------------- #
# Recall vs planted truth
# --------------------------------------------------------------------- #
def evaluate_recall(
    target,
    manifest: dict,
    k: int = 10,
    max_eval: int | None = None,
    seed: int = 17,
    log: "Callable[[str], None] | None" = None,
) -> dict:
    """recall@k and MRR per mode against the manifest's planted truth.

    Every evaluation query is a *member-name* query (leave-one-out is
    automatic) and strict (``allow_stale=False``), so any embedding left
    stale by churn is refreshed before it is scored — the eval proves the
    append path converges, not just that fresh ingests rank.
    """
    out: dict = {}
    for mode in _MODES:
        entries = manifest["truth"][mode]
        if max_eval is not None and len(entries) > max_eval:
            rng = np.random.default_rng(seed)
            picks = sorted(
                int(i) for i in rng.choice(
                    len(entries), size=max_eval, replace=False
                )
            )
            entries = [entries[i] for i in picks]
        hits = 0
        reciprocal = 0.0
        for entry in entries:
            request = DiscoveryRequest(
                mode=mode,
                k=k,
                table=entry["query"],
                column=entry.get("query_column") if mode == "join" else None,
            )
            result = target.discover(request)
            ranked = [hit.table for hit in result.hits]
            if entry["candidate"] in ranked:
                hits += 1
                reciprocal += 1.0 / (ranked.index(entry["candidate"]) + 1)
        evaluated = len(entries)
        out[mode] = {
            "k": k,
            "evaluated": evaluated,
            "planted": len(manifest["truth"][mode]),
            "recall_at_k": (hits / evaluated) if evaluated else None,
            "mrr": (reciprocal / evaluated) if evaluated else None,
        }
        if log is not None:
            recall = out[mode]["recall_at_k"]
            shown = f"{recall:.3f}" if recall is not None else "n/a"
            log(f"recall@{k} [{mode}]: {shown} over {evaluated} pairs")
    return out


# --------------------------------------------------------------------- #
# One full scenario
# --------------------------------------------------------------------- #
def run_scenario(
    target,
    manifest: dict,
    churn: ChurnSpec,
    k: int = 10,
    max_eval: int | None = 200,
    skip_provision: bool = False,
    provision_batch: int = 64,
    log: "Callable[[str], None] | None" = None,
) -> dict:
    """provision -> churn -> recall eval -> scrape; the raw run record.

    The record carries planted-truth recall, the target's ``/v1/metrics``
    envelope (scraped *after* the workload, labeled with its source), the
    slow-query span trees, and the churn ledger. ``python -m repro.lakegen
    run`` writes it to disk.
    """
    started = time.perf_counter()
    provisioned = 0
    if not skip_provision:
        provisioned = provision(
            target, manifest, batch=provision_batch, log=log
        )
    churn_record = run_churn(target, manifest, churn, log=log)
    recall = evaluate_recall(
        target, manifest, k=k, max_eval=max_eval, seed=churn.seed, log=log
    )
    return {
        "format": "lakegen-run/v1",
        "target": {
            "kind": target.kind,
            "metrics_source": target.metrics_source,
        },
        "spec": manifest["spec"],
        "totals": manifest["totals"],
        "provisioned": provisioned,
        "churn": churn_record,
        "recall": recall,
        "stats": target.stats(),
        "metrics": target.metrics(),
        "slow_queries": target.slow_queries(),
        "wall_s": round(time.perf_counter() - started, 3),
        "unix_time": time.time(),
    }
