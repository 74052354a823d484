"""One op surface, two transports: :class:`ServiceTarget` / :class:`ClientTarget`.

A *target* is somewhere a lake operation can be sent: an in-process
:class:`~repro.lake.service.LakeService` or a running server reached
through :class:`~repro.lake.client.LakeClient`. Both expose the same
methods with the same answers, so the CLI (``--lake`` / ``--server``), the
lakegen churn driver and the benchmarks run one code path whichever side
of the wire the lake lives on; what differs is where a run record scrapes
its metrics from (``metrics_source``).

Mutations answer the mapping the HTTP route returns.
:class:`~repro.lake.server.LakeServer` builds its response bodies by
calling :class:`ServiceTarget`, so that shape is defined once, here.
"""

from __future__ import annotations

from repro import obs
from repro.lake.api import DiscoveryError, DiscoveryRequest, DiscoveryResult, answer
from repro.lake.client import LakeClient, parse_host_port
from repro.table.schema import Table


class ServiceTarget:
    """Drive an in-process :class:`LakeService` (or anything with its
    surface, e.g. a replica). Metrics come straight off the
    process-default :mod:`repro.obs` registry."""

    kind = "service"
    metrics_source = "registry"

    def __init__(self, service):
        self.service = service

    def discover(self, request: DiscoveryRequest) -> DiscoveryResult:
        return self.service.discover(request)

    def add_tables(self, tables: "dict[str, Table]") -> dict:
        added = self.service.add_tables(tables)
        return answer(added=len(added), n_tables=len(self.service.catalog))

    def append_rows(self, name: str, rows) -> dict:
        record = self.service.append_rows(name, rows)
        return answer(
            table=name,
            appended=len(rows),
            table_version=record.version,
            embedding_stale=record.embedding_stale,
        )

    def update_table(self, table: Table) -> dict:
        record = self.service.update_table(table)
        return answer(
            updated=table.name,
            table_version=record.version,
            n_tables=len(self.service.catalog),
        )

    def remove_table(self, name: str) -> bool:
        return self.service.remove_table(name)

    def refresh(self, names=None) -> dict:
        """Eagerly re-embed stale tables; the ``/v1/refresh`` answer."""
        refreshed = self.service.refresh_stale(names)
        return answer(
            refreshed=refreshed,
            stale_remaining=len(self.service.catalog.stale_tables()),
        )

    def refresh_stale(self, names=None) -> list[str]:
        return self.service.refresh_stale(names)

    def stats(self) -> dict:
        return self.service.stats()

    def metrics(self) -> dict:
        """The same envelope ``GET /v1/metrics`` serves, locally. Recording
        is always on; ``enabled`` stays in the envelope for v1 clients."""
        return answer(enabled=True, metrics=obs.get_registry().collect())

    def slow_queries(self) -> list[dict]:
        return self.service.slow_log.snapshot()

    def close(self) -> None:
        pass


class ClientTarget:
    """Drive a live server through :class:`LakeClient`. Metrics are
    scraped from the server's ``/v1/metrics`` — never client-side."""

    kind = "server"
    metrics_source = "/v1/metrics"

    def __init__(self, client: LakeClient):
        self.client = client

    @classmethod
    def connect(cls, address: str) -> "ClientTarget":
        """The target behind a ``--server HOST:PORT`` flag
        (:class:`ValueError` when ``address`` is not one)."""
        return cls(LakeClient(*parse_host_port(address)))

    def discover(self, request: DiscoveryRequest) -> DiscoveryResult:
        return self.client.query(request)

    def add_tables(self, tables: "dict[str, Table]") -> dict:
        return self.client.add_tables(list(tables.values()))

    def append_rows(self, name: str, rows) -> dict:
        return self.client.append_rows(name, rows)

    def update_table(self, table: Table) -> dict:
        return self.client.update_table(table)

    def remove_table(self, name: str) -> bool:
        try:
            self.client.remove_table(name)
            return True
        except DiscoveryError as exc:
            if exc.code == "not-found":
                return False
            raise

    def refresh(self, names=None) -> dict:
        return self.client.refresh_stale(names)

    def refresh_stale(self, names=None) -> list[str]:
        return self.refresh(names)["refreshed"]

    def stats(self) -> dict:
        return self.client.stats()

    def metrics(self) -> dict:
        return self.client.metrics()

    def slow_queries(self) -> list[dict]:
        return self.client.slow_queries()

    def close(self) -> None:
        self.client.close()


__all__ = ["ServiceTarget", "ClientTarget"]
