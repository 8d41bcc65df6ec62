"""Percentile and self-time arithmetic behind the reported numbers."""

import numpy as np
import pytest

from analysis import percentile, self_times, tail_percentile
from client import Sample
from layers import counter, counter_deltas, per_layer, request_breakdown


@pytest.mark.parametrize("n", [1, 2, 5, 10, 101])
def test_percentile_matches_numpy(n):
    xs = np.random.default_rng(n).exponential(size=n).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 75
    assert tail_percentile(10) == 50


def test_self_time_subtracts_children():
    spans = {1: (None, 0.0, 10.0), 2: (1, 1.0, 4.0), 3: (1, 5.0, 6.0),
             4: (2, 2.0, 3.0)}
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = {1: (None, 0.0, 10.0), 2: (1, 2.0, 6.0), 3: (1, 4.0, 8.0),
             4: (1, 9.0, 12.0)}          # runs past its parent's end
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert sum(own.values()) >= 10.0


def test_self_times_partition_a_nested_tree():
    spans = {1: (None, 0.0, 8.0), 2: (1, 0.5, 7.0), 3: (2, 1.0, 2.0),
             4: (2, 3.0, 6.5), 5: (4, 3.5, 4.0)}
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def span(sid, parent, name, start, end, nbytes=0):
    return (sid, parent, name, start, end, nbytes)


def test_request_breakdown_sums_layers_under_the_handler():
    spans = [span(1, None, "server.http", 0.0, 1.0),
             span(2, 1, "server.admission.wait", 0.1, 0.2),
             span(3, 1, "server.service.run", 0.2, 0.9),
             span(4, 3, "core.m4lsm.query", 0.3, 0.8),
             span(5, 4, "storage.tsfile.read_page", 0.4, 0.5),
             span(6, 4, "storage.tsfile.read_page", 0.6, 0.65),
             span(7, 99, "stray", 0.0, 5.0)]    # not under the handler
    out, handler = request_breakdown(spans)
    assert handler == 1.0
    assert "stray" not in out
    total, own, _ = out["storage.tsfile.read_page"]
    assert total == pytest.approx(0.15) and own == pytest.approx(0.15)
    assert out["core.m4lsm.query"][1] == pytest.approx(0.35)
    assert sum(v[1] for v in out.values()) == pytest.approx(1.0)


def test_request_breakdown_needs_one_handler():
    assert request_breakdown([]) == (None, None)


def test_per_layer_joins_client_samples_to_spans():
    samples = [Sample("query", 10.0, 11.1, 200, bench_id="c0-0"),
               Sample("query", 20.0, 20.5, 200, bench_id="c0-1")]
    spans = {"c0-0": [span(1, None, "server.http", 0.0, 1.0),
                      span(2, 1, "query.sql.parse", 0.1, 0.2)],
             "c0-1": [span(3, None, "server.http", 0.0, 0.4)]}
    m = per_layer(samples, spans, {}, 10.0, 9.0)
    assert m["trace.net_gap_ms"][0] == pytest.approx(100.0)
    assert m["trace.coverage_frac"][0] == pytest.approx(1.4 / 1.6)
    assert m["trace.overhead_frac"][0] == pytest.approx(0.1)
    assert m["query.sql.parse_ms"][0] == pytest.approx(100.0)
    assert m["core.m4lsm.query_ms"][0] == 0.0
    assert m["server.http.self_ms"][0] == pytest.approx(650.0)


def stats(counters, iostats=None, shards=None):
    snap = {"metrics": {"counters": {k: {"value": v}
                                     for k, v in counters.items()}},
            "iostats": iostats or {}}
    if shards:
        snap["shards"] = {k: {"metrics": {"counters": {
            n: {"value": v} for n, v in c.items()}}}
            for k, c in shards.items()}
    return snap


def test_counter_sums_labels_and_shards():
    snap = stats({"tile_cache_hits_total": 2,
                  'server_requests_total{endpoint="query"}': 3,
                  'server_requests_total{endpoint="render"}': 4},
                 shards={"shard-00": {"tile_cache_hits_total": 5},
                         "shard-01": {"tile_cache_hits_total": 1}})
    assert counter(snap, "tile_cache_hits_total") == 8
    assert counter(snap, "server_requests_total") == 7
    assert counter(snap, "server_requests") == 0


def test_counter_deltas_ratios():
    before = stats({"tile_cache_hits_total": 10,
                    "tile_cache_misses_total": 10},
                   {"chunk_loads": 100, "points_decoded": 0})
    after = stats({"tile_cache_hits_total": 40,
                   "tile_cache_misses_total": 20, "wal_bytes_total": 300},
                  {"chunk_loads": 300, "points_decoded": 800})
    d = counter_deltas(before, after, reads=4, output_points=80,
                       user_bytes=100, tsfile_growth=100)
    assert d["core.tiles.hit_ratio"][0] == pytest.approx(0.75)
    assert d["storage.readers.load_chunk_calls_per_query"][0] == 50
    assert d["storage.points_decoded_per_output_point"][0] == 10
    assert d["storage.write_amp"][0] == 4.0
