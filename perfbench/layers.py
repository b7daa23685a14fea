"""Per-layer metrics of the traced run, from both processes' spans.

Each request belongs to a family (lookup, sweep, bulk).  A family's
server time is its top-level spans on the server: ``api.run`` (the root
of a query), the ``server.encode`` that follows it on the store thread,
and the spans of the ingest path.  ``server.other_ms`` is what the client
waited beyond that and beyond its own decoding: transport, framing and
store-thread queueing.
"""

from __future__ import annotations

from typing import Optional

from harness import FAMILIES
from tracing import (
    ATTRS,
    END,
    ID,
    NAME,
    PARENT,
    START,
    THREAD,
    adopt_orphans,
    children_of,
    descendants,
    parallel_excess,
    self_times,
)

#: spans the ingest path opens outside any query
INGEST_SPANS = ("storage.ingest", "skeleton.label", "workflow.run_from_json")

#: name -> (unit, better); every name is reported on every workload, as 0
#: where the workload never reaches the layer
PER_LAYER = {
    "api.run_ms.lookup": ("ms", "lower"),
    "api.run_ms.sweep": ("ms", "lower"),
    "api.run_ms.bulk": ("ms", "lower"),
    "api.plan_ms": ("ms", "lower"),
    "api.promotions": ("count", "higher"),
    "api.pushdown_sql_frac": ("fraction", "higher"),
    "storage.point_sql_ms": ("ms", "lower"),
    "storage.engine_load_ms": ("ms", "lower"),
    "storage.evictions": ("count", "lower"),
    "storage.run_cache_hit_frac": ("fraction", "higher"),
    "storage.fetch_ms": ("ms", "lower"),
    "storage.fetch_rows": ("rows", "lower"),
    "storage.fetch_useful_frac": ("fraction", "higher"),
    "storage.pushdown_ms": ("ms", "lower"),
    "storage.pushdown_rows": ("rows", "lower"),
    "storage.route_us": ("us", "lower"),
    "storage.ingest_ms": ("ms", "lower"),
    "storage.wal_bytes_max": ("bytes", "lower"),
    "engine.kernel_sweep_ms": ("ms", "lower"),
    "engine.kernel_pairs_ms": ("ms", "lower"),
    "engine.executor_self_ms": ("ms", "lower"),
    "engine.workers": ("count", "higher"),
    "engine.batch_ns_per_pair": ("ns", "lower"),
    "skeleton.label_ms": ("ms", "lower"),
    "skeleton.label_bits_avg": ("bits", "lower"),
    "workflow.run_from_json_ms": ("ms", "lower"),
    "server.encode_ms": ("ms", "lower"),
    "server.decode_ms": ("ms", "lower"),
    "server.response_bytes.lookup": ("bytes", "lower"),
    "server.response_bytes.sweep": ("bytes", "lower"),
    "server.response_bytes.bulk": ("bytes", "lower"),
    "server.other_ms.lookup": ("ms", "lower"),
    "server.other_ms.sweep": ("ms", "lower"),
    "server.other_ms.bulk": ("ms", "lower"),
    "server.retries": ("count", "lower"),
    "harness.lag_ms_max": ("ms", "lower"),
    "harness.accounting_error_frac": ("fraction", "lower"),
}


def family_of(attrs: Optional[dict]) -> Optional[str]:
    """A request's family from its span attributes (``op``, ``pairs``)."""
    op = (attrs or {}).get("op")
    if op in ("PointQuery", "CrossRunPointQuery"):
        return "lookup"
    if op == "CrossRunBatchQuery":
        # a CrossRunPointQuery travels as a one-pair cross-run batch
        return "lookup" if attrs.get("pairs") == 1 else "bulk"
    if op in ("DownstreamQuery", "UpstreamQuery", "CrossRunQuery"):
        return "sweep"
    if op in ("BatchQuery", "ingest"):
        return "bulk"
    return None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(
    server_spans: list[tuple],
    client_spans: list[tuple],
    window: tuple[int, int],
    counters: dict,
    extras: dict,
) -> tuple[dict, dict]:
    """``(metrics, accounting)`` of the spans inside *window* (ns).

    *accounting* holds, per family, the client latency and the parts it
    splits into; ``error_frac`` is how far the server's layer self times
    (less the time two pool workers ran at once), the client's decode and
    ``server.other_ms`` are from adding up to the client latency.
    """
    start_ns, end_ns = window
    server = [
        span
        for span in adopt_orphans(server_spans, "api.run")
        if start_ns <= span[START] and span[END] <= end_ns
    ]
    client = [s for s in client_spans if start_ns <= s[START] and s[END] <= end_ns]
    selfs, excess, kids = self_times(server), parallel_excess(server), children_of(server)
    named: dict[str, list[tuple]] = {}
    for span in server:
        named.setdefault(span[NAME], []).append(span)

    def spans(name):
        return named.get(name, [])

    def ms(span):
        return (span[END] - span[START]) / 1e6

    def own_ms(span):
        return selfs[span[ID]] / 1e6

    def attr_total(name, key):
        return sum(span[ATTRS][key] for span in spans(name) if span[ATTRS])

    # the server's top-level work per family, in store-thread order
    tops: dict[str, list[tuple]] = {family: [] for family in FAMILIES}
    last_family: dict[int, Optional[str]] = {}
    for span in sorted((s for s in server if not s[PARENT]), key=lambda s: s[START]):
        if span[NAME] == "api.run":
            family = last_family[span[THREAD]] = family_of(span[ATTRS])
        elif span[NAME] == "server.encode":
            family = last_family.get(span[THREAD])
        elif span[NAME] in INGEST_SPANS:
            family = "bulk"
        else:
            continue
        if family:
            tops[family].append(span)

    client_kids = children_of(client)
    metrics: dict[str, float] = {}
    accounting: dict[str, dict] = {}
    for family in FAMILIES:
        requests = [
            s for s in client if s[NAME] == "client.run" and family_of(s[ATTRS]) == family
        ]
        client_ns = sum(s[END] - s[START] for s in requests)
        decode_ns = response_bytes = 0
        for request in requests:
            for child in client_kids.get(request[ID], ()):
                if child[NAME] == "server.decode":
                    decode_ns += child[END] - child[START]
                elif child[NAME] == "server.response":
                    response_bytes += child[ATTRS]["bytes"]
        server_ns = sum(s[END] - s[START] for s in tops[family])
        layers_ns = sum(
            selfs[s[ID]] - excess.get(s[ID], 0)
            for top in tops[family]
            for s in [top] + descendants(top[ID], kids)
        )
        other_ns = client_ns - server_ns - decode_ns
        count = len(requests)
        accounting[family] = {
            "requests": count,
            "client_ms": client_ns / 1e6,
            "server_layers_ms": layers_ns / 1e6,
            "decode_ms": decode_ns / 1e6,
            "other_ms": other_ns / 1e6,
            "error_frac": (abs(layers_ns + decode_ns + other_ns - client_ns) + max(0, -other_ns))
            / client_ns
            if client_ns
            else 0.0,
        }
        metrics[f"api.run_ms.{family}"] = _mean(
            ms(s) for s in tops[family] if s[NAME] == "api.run"
        )
        metrics[f"server.response_bytes.{family}"] = response_bytes / count if count else 0.0
        metrics[f"server.other_ms.{family}"] = other_ns / count / 1e6 if count else 0.0

    pushdown = counters.get("pushdown", {})
    sql = sum(pushdown.get("sql", {}).values())
    kernel = sum(pushdown.get("kernel", {}).values())
    hits, loads = len(spans("storage.engine_hit")), len(spans("storage.engine_load"))
    answered = fetched = 0
    for top in tops["sweep"]:
        rows = sum(
            s[ATTRS]["rows"]
            for s in descendants(top[ID], kids)
            if s[NAME] == "storage.fetch" and s[ATTRS]
        )
        if rows and top[NAME] == "api.run":
            fetched += rows
            answered += top[ATTRS]["rows"]
    ingested = attr_total("storage.ingest", "runs")
    pairs = attr_total("engine.batch", "pairs")
    metrics.update(
        {
            "api.plan_ms": _mean(map(own_ms, spans("api.plan"))),
            "api.promotions": counters.get("promotions", 0),
            "api.pushdown_sql_frac": sql / (sql + kernel) if sql + kernel else 0.0,
            "storage.point_sql_ms": _mean(map(ms, spans("storage.point_sql"))),
            "storage.engine_load_ms": _mean(map(ms, spans("storage.engine_load"))),
            "storage.evictions": counters.get("evictions", 0),
            "storage.run_cache_hit_frac": hits / (hits + loads) if hits + loads else 0.0,
            "storage.fetch_ms": _mean(map(ms, spans("storage.fetch"))),
            "storage.fetch_rows": _mean(
                s[ATTRS]["rows"] for s in spans("storage.fetch") if s[ATTRS]
            ),
            "storage.fetch_useful_frac": answered / fetched if fetched else 0.0,
            "storage.pushdown_ms": _mean(map(ms, spans("storage.pushdown"))),
            "storage.pushdown_rows": _mean(
                s[ATTRS]["rows"] for s in spans("storage.pushdown") if s[ATTRS]
            ),
            "storage.route_us": _mean(ms(s) * 1e3 for s in spans("storage.route")),
            "storage.ingest_ms": sum(map(ms, spans("storage.ingest"))) / ingested
            if ingested
            else 0.0,
            "storage.wal_bytes_max": extras["wal_bytes_max"],
            "engine.kernel_sweep_ms": _mean(map(own_ms, spans("engine.kernel_sweep"))),
            "engine.kernel_pairs_ms": _mean(map(own_ms, spans("engine.kernel_pairs"))),
            "engine.executor_self_ms": _mean(map(own_ms, spans("engine.executor"))),
            "engine.workers": _mean(
                s[ATTRS]["workers"] for s in spans("engine.resolve_workers") if s[ATTRS]
            ),
            "engine.batch_ns_per_pair": sum(selfs[s[ID]] for s in spans("engine.batch")) / pairs
            if pairs
            else 0.0,
            "skeleton.label_ms": _mean(map(ms, spans("skeleton.label"))),
            "skeleton.label_bits_avg": extras["label_bits_avg"],
            "workflow.run_from_json_ms": _mean(map(ms, spans("workflow.run_from_json"))),
            "server.encode_ms": _mean(map(ms, spans("server.encode"))),
            "server.decode_ms": _mean(ms(s) for s in client if s[NAME] == "server.decode"),
            "server.retries": extras["retries"],
            "harness.lag_ms_max": extras["lag_ms_max"],
            "harness.accounting_error_frac": max(a["error_frac"] for a in accounting.values()),
        }
    )
    return metrics, accounting
