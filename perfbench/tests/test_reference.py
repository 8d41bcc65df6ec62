"""The numpy reference must agree with the program's M4-UDF operator on
small stores with ties, overlapping chunks and deletes."""

import json

import numpy as np
import pytest

from check import Checker, static_model
from client import Sample
from reference import m4, materialize, merge_batches, render_rows
from workloads import (WORKLOADS, Event, IngestFeed, Op, delete_events,
                       overlapping_plan, snap)

from repro.core.m4 import M4UDFOperator
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine


def operator_rows(result):
    return [(i, s.first.t, s.first.v, s.last.t, s.last.v, s.bottom.t,
             s.bottom.v, s.top.t, s.top.v)
            for i, s in enumerate(result.spans) if not s.is_empty()]


def load(path, events, chunk=1000):
    engine = StorageEngine(path, StorageConfig(
        avg_series_point_number_threshold=chunk, points_per_page=chunk))
    for name in sorted({e.series for e in events}):
        engine.create_series(name)
    for ev in events:
        if ev.delete is not None:
            engine.delete(ev.series, *ev.delete)
        else:
            engine.write_batch(ev.series, ev.t, ev.v)
            engine.flush(ev.series)
    engine.flush_all()
    return engine


def tiny_store(rng, n=12_000):
    """Coarsely quantized values (many ties), overlapping chunks with
    overwritten points, and deletes."""
    t = np.cumsum(rng.integers(1, 4, n)).astype(np.int64)
    v = rng.integers(0, 6, n).astype(np.float64)
    events = overlapping_plan("s", t, v, 0.3, rng)
    events += delete_events("s", t, 8, rng)
    return t, events


@pytest.mark.parametrize("seed", range(4))
def test_reference_matches_m4udf(tmp_path, seed):
    rng = np.random.default_rng(seed)
    t, events = tiny_store(rng)
    model = materialize(events)
    with load(tmp_path / "db", events) as engine:
        op = M4UDFOperator(engine)
        mt, mv = model["s"]
        for _ in range(12):
            lo = int(rng.integers(t[0] - 5, t[-1] // 2))
            hi = int(rng.integers(lo + 1, t[-1] + 10))
            w = int(rng.integers(1, 300))
            assert m4(mt, mv, lo, hi, w) == operator_rows(
                op.query("s", lo, hi, w))


def test_last_write_wins_and_deletes():
    events = [Event("s", np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])),
              Event("s", delete=(2, 2)),
              Event("s", np.array([3, 4]), np.array([30.0, 4.0])),
              Event("s", np.array([2]), np.array([20.0]))]
    t, v = materialize(events)["s"]
    assert t.tolist() == [1, 2, 3, 4]
    assert v.tolist() == [1.0, 20.0, 30.0, 4.0]


def test_delete_spares_later_writes():
    events = [Event("s", np.array([5]), np.array([1.0])),
              Event("s", delete=(0, 10))]
    assert materialize(events)["s"][0].size == 0
    events.append(Event("s", np.array([5]), np.array([2.0])))
    assert materialize(events)["s"][1].tolist() == [2.0]


def test_ties_pick_earliest_timestamp():
    t = np.array([0, 1, 2, 3], dtype=np.int64)
    v = np.array([5.0, 1.0, 1.0, 5.0])
    assert m4(t, v, 0, 4, 1) == [(0, 0, 5.0, 3, 5.0, 1, 1.0, 0, 5.0)]


def test_merge_batches_later_wins():
    t, v = merge_batches((np.array([1, 2]), np.array([1.0, 2.0])),
                         [(np.array([2, 3]), np.array([9.0, 3.0])),
                          (np.array([3]), np.array([7.0]))])
    assert t.tolist() == [1, 2, 3] and v.tolist() == [1.0, 9.0, 7.0]


def test_render_rows_shape():
    body = {"spans": [{"span": 2, "first": [1, 1.5], "last": [3, 2.5],
                       "bottom": [1, 1.5], "top": [3, 2.5]}]}
    assert render_rows(body) == [(2, 1, 1.5, 3, 2.5, 1, 1.5, 3, 2.5)]


def test_snap_is_tile_aligned_and_covering():
    from repro.core.tiles import snap_viewport, tile_eligible
    for lo, hi in [(0, 1000), (12345, 99999), (10 ** 9 + 7, 10 ** 9 + 5000)]:
        start, end = snap(lo, hi, 256)
        assert (start, end) == snap_viewport(lo, hi, 256, tile_spans=64)
        assert start <= lo and end >= hi
        assert tile_eligible(start, end, 256) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    a, b, c = wl.inputs(7), wl.inputs(7), wl.inputs(8)
    assert a.sessions == b.sessions
    if a.sessions:
        assert a.sessions != c.sessions
    for x, y in zip(a.events[:50], b.events[:50]):
        assert np.array_equal(x.t, y.t) and np.array_equal(x.v, y.v)
    assert not np.array_equal(a.events[0].v, c.events[0].v)


def test_ingest_feed_late_batches_overlap_previous():
    feed = IngestFeed(["a", "b"], {"a": 0, "b": 0}, seed=3)
    batches = [feed.next_batch() for _ in range(40)]
    name, t, _ = batches[19]                # the 20th batch is late
    previous = [b for b in batches[:19] if b[0] == name][-1][1]
    assert previous[0] <= t[0] and t[-1] <= previous[-1] + 5
    assert np.intersect1d(t, previous).size > 0


def test_checker_flags_wrong_answers_and_lost_points():
    t = np.arange(10, dtype=np.int64)
    v = np.arange(10, dtype=np.float64)
    op = Op("query", "s", 0, 10, 2)
    rows = [list(r) for r in m4(t, v, 0, 10, 2)]
    right = Sample("query", 0, 1, 200, json.dumps({"rows": rows}).encode(),
                   op=op)
    rows[1][2] = 99.0
    wrong = Sample("query", 0, 1, 200, json.dumps({"rows": rows}).encode(),
                   op=op)
    refused = Sample("query", 0, 1, 503, b"{}", op=op)
    checker = Checker()
    checker.reads([right, wrong, refused], static_model({"s": (t, v)}))
    assert (checker.attempted, checker.failed) == (3, 2)

    checker = Checker()
    checker.durable({"s": (np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))},
                    {"s": (np.array([1, 3, 4]), np.array([1.0, 9.0, 4.0]))})
    assert (checker.attempted, checker.failed) == (3, 2)
