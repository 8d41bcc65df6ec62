"""Per-layer metrics of a traced run: span self times joined to client
samples, plus counter deltas from ``/stats``."""

from __future__ import annotations

import json

from analysis import percentile, ratio, self_times

# (metric, span name, "self" or "total"); p50 per request over the
# requests that crossed the layer, 0 when none did.
TIMINGS = (
    ("server.http.self_ms", "server.http", "self"),
    ("server.admission.wait_ms", "server.admission.wait", "total"),
    ("server.service.encode_ms", "server.service.run", "self"),
    ("query.sql.parse_ms", "query.sql.parse", "total"),
    ("query.executor.self_ms", "query.executor", "self"),
    ("core.m4lsm.query_ms", "core.m4lsm.query", "total"),
    ("core.m4lsm.solve_ms", "core.m4lsm.solve", "total"),
    ("core.tiles.query_ms", "core.tiles.query", "total"),
    ("storage.readers.load_chunk_ms", "storage.readers.load_chunk", "total"),
    ("storage.tsfile.read_page_ms", "storage.tsfile.read_page", "total"),
    ("storage.engine.write_batch_ms", "storage.engine.write_batch", "total"),
    ("storage.engine.flush_ms", "storage.engine.flush", "total"),
    ("storage.wal.append_ms", "storage.wal.append", "total"),
    ("storage.wal.sync_ms", "storage.wal.sync", "total"),
    ("storage.locks.wait_ms", "storage.locks.wait", "total"),
    ("ingest.controller.submit_ms", "ingest.controller.submit", "total"),
    ("viz.raster.rasterize_ms", "viz.raster.rasterize", "total"),
    ("shard.router.call_ms", "shard.router.call", "total"),
    ("shard.protocol.send_ms", "shard.protocol.send", "total"),
    ("shard.protocol.recv_ms", "shard.protocol.recv", "total"),
)


def load_spans(path):
    """``{req: [(id, parent, name, start, end, bytes), ...]}``."""
    with open(path) as f:
        doc = json.load(f)
    by_req = {}
    for sid, parent, name, start, end, req, nbytes in doc["spans"]:
        if req:
            by_req.setdefault(req, []).append(
                (sid, parent, name, start, end, nbytes))
    return by_req


def request_breakdown(spans):
    """Per-layer ``{name: (total_s, self_s, bytes)}`` and the handler's
    duration for one request's spans (the tree under its HTTP span)."""
    root = [s for s in spans if s[2] == "server.http"]
    if len(root) != 1:
        return None, None
    ids = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s[0])
    tree, frontier = {}, [root[0][0]]
    while frontier:
        sid = frontier.pop()
        sid_parent = ids[sid][1] if sid != root[0][0] else None
        tree[sid] = (sid_parent, ids[sid][3], ids[sid][4])
        frontier += children.get(sid, [])
    own = self_times(tree)
    out = {}
    for sid in tree:
        _, _, name, start, end, nbytes = ids[sid]
        total, self_s, b = out.get(name, (0.0, 0.0, 0))
        out[name] = (total + end - start, self_s + own[sid], b + nbytes)
    return out, root[0][4] - root[0][3]


def per_layer(samples, spans_by_req, deltas, read_ops_untraced,
              read_ops_traced):
    """Every per-layer metric as ``{name: (value, unit)}``."""
    metrics = {}
    rows = []
    for sample in samples:
        breakdown, handler_s = request_breakdown(
            spans_by_req.get(sample.bench_id, []))
        if breakdown is not None:
            rows.append((sample, breakdown, handler_s))
    for metric, name, which in TIMINGS:
        index = 1 if which == "self" else 0
        values = [b[name][index] * 1000.0 for _, b, _ in rows if name in b]
        metrics[metric] = (percentile(values, 50) if values else 0.0, "ms")
    frames = [b["shard.protocol.send"][2] + b.get(
        "shard.protocol.recv", (0, 0, 0))[2]
        for _, b, _ in rows if "shard.protocol.send" in b]
    metrics["shard.protocol.frame_bytes"] = (
        percentile(frames, 50) if frames else 0.0, "B")
    gaps = [s.ms - h * 1000.0 for s, _, h in rows]
    metrics["trace.net_gap_ms"] = (percentile(gaps, 50) if gaps else 0.0,
                                   "ms")
    covered = sum(sum(v[1] for v in b.values()) for _, b, _ in rows)
    metrics["trace.coverage_frac"] = (
        ratio(covered, sum(s.end - s.start for s, _, _ in rows)), "ratio")
    metrics["trace.overhead_frac"] = (
        1.0 - ratio(read_ops_traced, read_ops_untraced), "ratio")
    metrics["trace.joined_frac"] = (ratio(len(rows), len(samples)), "ratio")
    metrics.update(deltas)
    return metrics


def counter(snapshot, name):
    """Sum of counter ``name`` over the server and its shard workers."""
    total = 0
    parts = [snapshot] + [s for s in (snapshot.get("shards") or {}).values()
                          if isinstance(s, dict)]
    for part in parts:
        for key, c in ((part.get("metrics") or {}).get("counters")
                       or {}).items():
            if key == name or key.startswith(name + "{"):
                total += c["value"]
    return total


def counter_deltas(before, after, reads, output_points, user_bytes,
                   tsfile_growth):
    """Count metrics over the timed phase, from two ``/stats`` answers."""

    def d(name):
        return counter(after, name) - counter(before, name)

    def io(field):
        return (after.get("iostats", {}).get(field, 0)
                - before.get("iostats", {}).get(field, 0))

    hits, misses = d("tile_cache_hits_total"), d("tile_cache_misses_total")
    return {
        "server.admission.sheds": (d("server_shed_total"), "count"),
        "core.m4lsm.candidate_iterations_per_query": (
            ratio(io("candidate_iterations"), reads), "count"),
        "core.m4lsm.index_lookups_per_query": (
            ratio(io("index_lookups"), reads), "count"),
        "core.tiles.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "core.tiles.bypass_per_query": (
            ratio(d("tile_cache_bypass_total"), reads), "count"),
        "core.tiles.cell_repairs": (d("tile_cache_cell_repairs_total"),
                                    "count"),
        "core.tiles.invalidations": (d("tile_cache_invalidations_total"),
                                     "count"),
        "storage.readers.load_chunk_calls_per_query": (
            ratio(io("chunk_loads"), reads), "count"),
        "storage.bytes_read_per_query": (ratio(io("bytes_read"), reads), "B"),
        "storage.points_decoded_per_output_point": (
            ratio(io("points_decoded"), output_points), "ratio"),
        "storage.engine.chunks_sealed": (d("engine_chunks_sealed_total"),
                                         "count"),
        "storage.write_amp": (
            ratio(d("wal_bytes_total") + tsfile_growth, user_bytes), "ratio"),
        "ingest.controller.sheds": (d("ingest_sheds_total"), "count"),
        "ingest.out_of_order_batches": (
            d("ingest_out_of_order_batches_total"), "count"),
    }
